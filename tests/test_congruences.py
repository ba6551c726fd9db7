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
        # a ~ b gives a^-1 ~ b^-1: the class of a^-1 is constant on a's class
        for c in cs:
            inv_class = c.class_of[catalog[name].inv]
            assert np.array_equal(inv_class, inv_class[c.reps()[c.class_of]]), name


def test_engines_agree(catalog):
    for name in COUNTS:
        S = catalog[name]
        if S.order > cg.PARTITION_BOUND:
            continue
        by_part = cg.enumerate_congruences(S, method="partitions")
        by_join = cg.enumerate_congruences(S, method="generated")
        assert [tuple(c.class_of) for c in by_part] == [tuple(c.class_of) for c in by_join]


def canon_by_dict(class_of):
    """Oracle: relabel classes in order of first appearance."""
    relabel = {}
    return np.array([relabel.setdefault(int(c), len(relabel)) for c in class_of],
                    dtype=np.int64)


class _UF:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.p[max(rx, ry)] = min(rx, ry)
        return True

    def labels(self):
        return np.array([self.find(x) for x in range(len(self.p))], dtype=np.int64)


def principal_by_worklist(S, a, b):
    """Oracle: the least congruence identifying a and b, by a pair-closure
    worklist over a union-find."""
    n = S.order
    T = S.table
    uf = _UF(n)
    work = [(int(a), int(b))]
    while work:
        x, y = work.pop()
        if not uf.union(x, y):
            continue
        for s in range(n):
            if T[s, x] != T[s, y]:
                work.append((int(T[s, x]), int(T[s, y])))
            if T[x, s] != T[y, s]:
                work.append((int(T[x, s]), int(T[y, s])))
    return canon_by_dict(uf.labels())


def restricted_growth_strings(n):
    """Oracle: the restricted growth strings of length n, recursively, in
    lexicographic order."""
    a = [0] * n

    def rec(i, mx):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def compatible_by_classes(S, c):
    """Oracle: c is a congruence iff the class of a product depends only on
    the classes of its factors."""
    reps = []
    seen = {}
    for i, x in enumerate(c):
        if int(x) not in seen:
            seen[int(x)] = len(reps)
            reps.append(i)
    lab = np.array([seen[int(x)] for x in c], dtype=np.int64)
    reps = np.array(reps, dtype=np.int64)
    X = lab[S.table[np.ix_(reps, reps)]]
    return bool((lab[S.table] == X[lab[:, None], lab[None, :]]).all())


def _naive_join(c1, c2):
    uf = _UF(len(c1))
    for c in (c1, c2):
        first = {}
        for i, x in enumerate(c):
            if int(x) in first:
                uf.union(first[int(x)], i)
            else:
                first[int(x)] = i
    return canon_by_dict(uf.labels())


def _naive_lattice(S):
    """Oracle: close the principal congruences under joins with every congruence found."""
    n = S.order
    found = {tuple(np.arange(n))}
    for a in range(n):
        for b in range(a + 1, n):
            found.add(tuple(principal_by_worklist(S, a, b)))
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
    assert sorted(cg.kernel(rees)) == [0, 1, 2, 3, 4, 5]
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
            assert ker == frozenset(
                i for i in range(S.order) if int(c.class_of[i]) in idem_classes)
            tr = cg.trace(c)
            assert np.array_equal(tr.parent.table, E.table)
            assert np.array_equal(tr.class_of, cg._canon(c.class_of[elems]))
        assert cg.kernel(cg.diagonal(S)) == frozenset(int(e) for e in S.idempotents)
        assert len(cg.kernel(cg.universal(S))) == S.order


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
    got = cg.congruence_from_map(chain3, [7, 7, 9])
    assert tuple(got.class_of) == (0, 0, 1)
    # labels of any size, as a congruence file may give them
    assert got == cg.congruence_from_map(chain3, [2 ** 70, 2 ** 70, -1])
    with pytest.raises(cg.NotCompatible) as e:
        cg.congruence_from_map(chain3, [0, 1, 0])  # {0,2} is not a class
    a, a2, b = e.value.witness
    assert tuple(got.class_of[np.array([a, a2])])  # witness indices are in range


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


def _principal_instances(catalog):
    out = dict(catalog)
    out.update((name, S) for name, (S, _) in _join_lattices(catalog).items())
    out.update((label, P.sg) for label, P in fixtures.rsd_fixtures() if P.sg.order <= 8)
    out["I3"] = fixtures.symmetric_inverse_monoid(3)
    return out


def test_principal_congruences_match_the_worklist(catalog):
    instances = _principal_instances(catalog)
    assert instances["I3"].order == 34
    for name, S in instances.items():
        a, b = np.triu_indices(S.order)     # a = b included
        got = cg.principal_congruences(S, np.column_stack([a, b]))
        assert got.shape == (len(a), S.order), name
        for x, y, row in zip(a, b, got):
            assert np.array_equal(row, principal_by_worklist(S, x, y)), (name, x, y)
        if S.order <= 8:
            for x, y, row in zip(a, b, got):
                assert np.array_equal(cg.principal_congruence(S, y, x), row), (name, x, y)


def test_growth_strings_match_the_recursion():
    for n in range(1, 9):
        assert cg._growth_strings(n).tolist() == [list(r) for r in restricted_growth_strings(n)]


def test_compatibility_check_matches_the_class_oracle(catalog):
    for name in ["chain3", "fork", "z2_zero", "clifford4", "b2", "i2"]:
        S = catalog[name]
        C = cg._growth_strings(S.order)
        expect = [compatible_by_classes(S, c) for c in C]
        assert cg._compatible(S.table, C).tolist() == expect, name
        # relabelled by least member, as the join engine's rows are
        assert cg._compatible(S.table, cg._least_members(C)).tolist() == expect, name


def test_canon_matches_first_appearance():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9, 40):
        for _ in range(50):
            c = rng.integers(-3, 2 * n, size=n)
            assert np.array_equal(cg._canon(c), canon_by_dict(c))
            assert cg._canon(c).dtype == np.int64


def test_engines_do_not_depend_on_the_block_size(catalog, monkeypatch):
    S, count = _join_lattices(catalog)["forkxchain3"]
    expect = [tuple(c.class_of) for c in cg.enumerate_congruences(S, method="generated")]
    principals = cg.principal_congruences(S, np.argwhere(np.ones((S.order, S.order))))
    fork = catalog["fork"]
    scan = [tuple(c.class_of) for c in cg.enumerate_congruences(fork, method="partitions")]
    for cells in (1, 144, 1000, 5000):
        monkeypatch.setattr(core, "BLOCK_CELLS", cells)
        got = [tuple(c.class_of) for c in cg.enumerate_congruences(S, method="generated")]
        assert got == expect and len(got) == count
        assert np.array_equal(
            cg.principal_congruences(S, np.argwhere(np.ones((S.order, S.order)))), principals)
        assert [tuple(c.class_of) for c in
                cg.enumerate_congruences(fork, method="partitions")] == scan


_JOINS_UNDER_A_CAP = """
import hashlib, resource, sys
import numpy as np
resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))
from invsem import congruences as cg, core, fixtures
I3 = fixtures.symmetric_inverse_monoid(3)
print(sorted(tuple(cg._canon(c).tolist()) for c in cg._enumerate_by_joins(I3)))
chain4 = fixtures.catalog()["chain4"]
found = cg.enumerate_congruences(core.direct_product(chain4, chain4), "generated")
h = hashlib.sha256()
for c in found:
    h.update(np.asarray(c.class_of, dtype=np.int64).tobytes())
print(len(found), h.hexdigest())
"""


def test_join_engine_fits_under_an_address_space_cap(catalog):
    # I3 (order 34) is past GENERATED_BOUND, so its engine is called directly
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", _JOINS_UNDER_A_CAP], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    lattice, chain4_squared = out.stdout.splitlines()
    I3 = fixtures.symmetric_inverse_monoid(3)
    assert I3.order == 34 > cg.GENERATED_BOUND
    naive = _naive_lattice(I3)
    assert len(naive) == 7 and lattice == str(sorted(tuple(map(int, c)) for c in naive))
    # the digest of the ordered list from the engine of merged class labels
    assert chain4_squared == ("3451 cb3804dd2d8adbfd3e757bbae6e431ef"
                              "b980c50c4368595e2993f400f13d1001")


def test_related_classes_reps(catalog):
    i2 = catalog["i2"]
    c = cg.enumerate_congruences(i2)[1]
    assert c.class_of[0] == c.class_of[5] and c.class_of[4] != c.class_of[6]
    classes = c.classes()
    assert [len(x) for x in classes] == [5, 1, 1]
    assert list(c.reps()) == [0, 4, 6]


def test_decomposition_along(catalog):
    cf = catalog["clifford4"]
    chain2 = catalog["chain2"]
    eta = morphisms.is_homomorphism([0, 1, 0, 1], cf, chain2)
    # the codomain chain2 is its own semilattice of idempotents
    dec = cg.decomposition_along(eta, embed=core.idempotent_semilattice(chain2)[1])
    assert [sorted(f) for f in dec.classes] == [[0, 2], [1, 3]]
    assert dec.embed.tolist() == [0, 1]
    # each fiber is a closed subgroup
    for fiber in dec.classes:
        sub, _ = core.subsemigroup(cf, fiber)
        assert sub.order == 2
    with pytest.raises(cg.NotSemilatticeCodomain):
        cg.decomposition_along(morphisms.is_homomorphism([0, 1], catalog["z2"], catalog["z2"]),
                               embed=[0, 1])
    chain3 = catalog["chain3"]
    partial = morphisms.is_homomorphism([0, 1], chain2, chain3)
    with pytest.raises(cg.NotSurjective):
        cg.decomposition_along(partial, embed=core.idempotent_semilattice(chain3)[1])
    with pytest.raises(ValueError):
        cg.decomposition_along(eta, embed=[0, 1, 2])


def test_decomposition_along_rejects_non_morphism(catalog):
    # the identity of z2 onto the chain 0 < 1 is onto but breaks 0*g = g
    fake = SimpleNamespace(source=catalog["z2"], target=catalog["chain2"], map=[0, 1])
    with pytest.raises(morphisms.NotMultiplicative) as e:
        cg.decomposition_along(fake, embed=[0, 1])
    assert e.value.witness == (0, 1)
