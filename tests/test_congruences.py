import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from invsem import congruences as cg
from invsem import core, fixtures, morphisms
from invsem.core import TooLarge


COUNTS = {
    "trivial": 1, "chain2": 2, "z2": 2, "chain3": 4, "fork": 4, "z3": 2,
    "z2_zero": 3, "chain4": 8, "square4": 7, "clifford4": 5, "b2": 2, "i2": 4,
}


def test_counts(catalog):
    for name, expect in COUNTS.items():
        cs = cg.enumerate_congruences(catalog[name])
        assert len(cs) == expect, name
        assert cs[0] == cg.diagonal(catalog[name])
        assert cs[-1] == cg.universal(catalog[name])


def test_engines_agree(catalog):
    for name in COUNTS:
        S = catalog[name]
        if S.order > cg.PARTITION_BOUND:
            continue
        by_part = cg.enumerate_congruences(S, method="partitions")
        by_join = cg.enumerate_congruences(S, method="generated")
        assert [tuple(c.class_of) for c in by_part] == [tuple(c.class_of) for c in by_join]


def _naive_join(c1, c2):
    uf = cg._UF(len(c1))
    for c in (c1, c2):
        first = {}
        for i, x in enumerate(c):
            if int(x) in first:
                uf.union(first[int(x)], i)
            else:
                first[int(x)] = i
    return cg._canon(uf.labels())


def _naive_lattice(S):
    """Oracle: close the principal congruences under joins with every congruence found."""
    n = S.order
    found = {tuple(np.arange(n))}
    for a in range(n):
        for b in range(a + 1, n):
            found.add(tuple(cg.principal_congruence(S, a, b)))
    frontier = list(found)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(found):
                j = tuple(_naive_join(np.array(x), np.array(y)))
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return found


def _join_lattices(catalog):
    return {
        "chain9": (core.validate(fixtures._min_table(9)), 256),
        "chain3xchain3": (core.direct_product(catalog["chain3"], catalog["chain3"]), 115),
        "forkxchain3": (core.direct_product(catalog["fork"], catalog["chain3"]), 141),
        "clifford4xchain3": (core.direct_product(catalog["clifford4"], catalog["chain3"]), 110),
    }


def test_principal_joins_match_all_pairs_oracle(catalog):
    for name, (S, count) in _join_lattices(catalog).items():
        got = [tuple(c.class_of) for c in cg.enumerate_congruences(S, method="generated")]
        assert len(got) == len(set(got)) == count, name
        assert set(got) == _naive_lattice(S), name


def test_principal_joins_match_partition_scan_past_its_bound(catalog):
    S, count = _join_lattices(catalog)["chain3xchain3"]
    assert S.order > cg.PARTITION_BOUND
    # Bell(9) = 21,147 partitions, ordered as enumerate_congruences orders them
    scan = sorted((tuple(c) for c in cg._enumerate_by_partitions(S)),
                  key=lambda c: (-(max(c) + 1), c))
    got = [tuple(c.class_of) for c in cg.enumerate_congruences(S, method="generated")]
    assert got == scan and len(got) == count


def test_principal_joins_match_partition_scan_on_rsd_fixtures():
    checked = 0
    for label, P in fixtures.rsd_fixtures():
        S = P.sg
        if S.order > cg.PARTITION_BOUND:
            continue
        by_part = cg.enumerate_congruences(S, method="partitions")
        by_join = cg.enumerate_congruences(S, method="generated")
        assert [tuple(c.class_of) for c in by_part] == [tuple(c.class_of) for c in by_join], label
        checked += 1
    assert checked > 0


def test_engine_bounds(catalog):
    big = core.direct_product(catalog["chain3"], catalog["chain3"])
    with pytest.raises(TooLarge):
        cg.enumerate_congruences(big, method="partitions")
    with pytest.raises(ValueError):
        cg.enumerate_congruences(catalog["z2"], method="nope")


def test_i2_lattice(catalog):
    i2 = catalog["i2"]
    cs = cg.enumerate_congruences(i2)
    assert [tuple(c.class_of) for c in cs] == [
        (0, 1, 2, 3, 4, 5, 6),          # diagonal
        (0, 0, 0, 0, 1, 0, 2),          # collapse the rank<=1 ideal
        (0, 0, 0, 0, 1, 0, 1),          # ... and merge identity with the swap
        (0, 0, 0, 0, 0, 0, 0),          # universal
    ]
    rees = cs[1]
    Q, qmap = cg.quotient(rees)
    # collapsing the ideal of an order-7 monoid leaves the group with a zero
    assert np.array_equal(Q.table, catalog["z2_zero"].table)
    assert sorted(cg.kernel(rees).members) == [0, 1, 2, 3, 4, 5]
    assert tuple(cg.trace(rees).class_of) == (0, 0, 0, 1)
    Q2, _ = cg.quotient(cs[2])
    assert np.array_equal(Q2.table, catalog["chain2"].table)


def test_kernel_trace_laws(catalog):
    for name in ["chain3", "fork", "z2_zero", "clifford4", "b2", "i2"]:
        S = catalog[name]
        E, elems = core.idempotent_semilattice(S)
        for c in cg.enumerate_congruences(S):
            ker = cg.kernel(c)
            idem_classes = {int(c.class_of[e]) for e in S.idempotents}
            assert ker.members == frozenset(
                i for i in range(S.order) if int(c.class_of[i]) in idem_classes)
            tr = cg.trace(c)
            assert np.array_equal(tr.parent.table, E.table)
            assert np.array_equal(tr.class_of, cg._canon(c.class_of[elems]))
        assert cg.kernel(cg.diagonal(S)).members == frozenset(int(e) for e in S.idempotents)
        assert len(cg.kernel(cg.universal(S)).members) == S.order


def test_quotient_is_morphism(catalog):
    for name in ["fork", "clifford4", "i2"]:
        S = catalog[name]
        for c in cg.enumerate_congruences(S):
            Q, qmap = cg.quotient(c)
            eta = morphisms.is_homomorphism(qmap, S, Q)
            assert eta.surjective
            assert Q.order == c.class_count


def test_is_congruence_forms(catalog):
    chain3 = catalog["chain3"]
    got = cg.is_congruence(chain3, [[0, 1], [2]])
    assert tuple(got.class_of) == (0, 0, 1)
    assert got == cg.is_congruence(chain3, [7, 7, 9])
    with pytest.raises(cg.NotCompatible) as e:
        cg.is_congruence(chain3, [0, 1, 0])  # {0,2} is not a class
    a, a2, b = e.value.witness
    assert tuple(got.class_of[np.array([a, a2])])  # witness indices are in range
    with pytest.raises(ValueError):
        cg.is_congruence(chain3, [[0, 0, 1], [2]])  # 0 listed twice
    with pytest.raises(ValueError):
        cg.is_congruence(chain3, [[0], [2]])  # 1 missing


def test_congruence_from_map_canonicalizes(catalog):
    chain3 = catalog["chain3"]
    c = cg.congruence_from_map(chain3, [9, 9, 3])
    assert tuple(c.class_of) == (0, 0, 1) and c.class_count == 2


_FROM_MAP_WITNESS = """
from invsem import congruences as cg, fixtures
try:
    cg.congruence_from_map(fixtures.catalog()["chain3"], [0, 1, 0])
except cg.NotCompatible as exc:
    print(exc.witness, exc)
"""


def test_verdicts_survive_python_O(catalog):
    with pytest.raises(cg.NotCompatible) as e:
        cg.congruence_from_map(catalog["chain3"], [0, 1, 0])
    # 0 ~ 2, but 0*1 = 0 and 2*1 = 1 lie in different classes
    assert e.value.witness == (0, 2, 1)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _FROM_MAP_WITNESS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{e.value.witness} {e.value}\n"


def test_principal_congruence(catalog):
    chain3 = catalog["chain3"]
    assert tuple(cg.principal_congruence(chain3, 0, 1)) == (0, 0, 1)
    # the Brandt semigroup has no congruence between diagonal and universal,
    # so every principal congruence on a genuine pair is universal
    b2 = catalog["b2"]
    for a in range(5):
        for b in range(a + 1, 5):
            assert not cg.principal_congruence(b2, a, b).any()


def test_related_classes_reps(catalog):
    i2 = catalog["i2"]
    c = cg.enumerate_congruences(i2)[1]
    assert c.related(0, 5) and not c.related(4, 6)
    classes = c.classes()
    assert [len(x) for x in classes] == [5, 1, 1]
    assert list(c.reps()) == [0, 4, 6]


def test_decomposition_along(catalog):
    cf = catalog["clifford4"]
    chain2 = catalog["chain2"]
    eta = morphisms.is_homomorphism([0, 1, 0, 1], cf, chain2)
    dec = cg.decomposition_along(eta)
    assert [sorted(f) for f in dec.classes] == [[0, 2], [1, 3]]
    # each fiber is a closed subgroup
    for fiber in dec.classes:
        sub, _ = core.subsemigroup(cf, fiber)
        assert sub.order == 2
    with pytest.raises(cg.NotSemilatticeCodomain):
        cg.decomposition_along(morphisms.is_homomorphism([0, 1], catalog["z2"], catalog["z2"]))
    partial = morphisms.is_homomorphism([0, 1], chain2, catalog["chain3"])
    with pytest.raises(cg.NotSurjective):
        cg.decomposition_along(partial)
    with pytest.raises(ValueError):
        cg.decomposition_along(eta, embed=[0, 1, 2])


def test_decomposition_along_rejects_non_morphism(catalog):
    # the identity of z2 onto the chain 0 < 1 is onto but breaks 0*g = g
    fake = SimpleNamespace(source=catalog["z2"], target=catalog["chain2"], map=[0, 1])
    with pytest.raises(morphisms.NotMultiplicative) as e:
        cg.decomposition_along(fake)
    assert e.value.witness == (0, 1)
