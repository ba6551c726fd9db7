import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import invsem
from invsem import actions, core, fixtures, partial_bijections as pb, products
from invsem.core import (IdempotentsDontCommute, NotAssociative, NotRegular,
                         direct_product, generated_subsemigroup, validate)


def cube_witness(table):
    """Least (a,b,c) with (ab)c != a(bc) over the whole n^3 cube, or None:
    the oracle for the associativity check."""
    T = np.asarray(table)
    bad = np.argwhere(T[T] != T[:, T])
    return tuple(int(x) for x in bad[0]) if len(bad) else None


def assert_validate_agrees_with_cube(table):
    expected = cube_witness(table)
    try:
        validate(table)
    except NotAssociative as exc:
        assert exc.witness == expected
    except (NotRegular, IdempotentsDontCommute):
        assert expected is None
    else:
        assert expected is None


def corrupted(table):
    """A copy with its last cell changed, so that it usually fails associativity."""
    T = np.array(table)
    n = len(T)
    T[-1, -1] = (T[-1, -1] + 1) % n
    return T


def test_validate_rejects_nonassociative():
    with pytest.raises(NotAssociative) as exc:
        validate([[0, 1], [0, 0]])
    assert exc.value.witness == (1, 0, 1) == cube_witness([[0, 1], [0, 0]])


tables_upto_5 = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(tables_upto_5)
@settings(max_examples=400, deadline=None)
def test_associativity_matches_cube_on_random_tables(table):
    assert_validate_agrees_with_cube(table)


def test_associativity_matches_cube_on_instances(catalog, lsd_fixtures, rsd_fixtures):
    tables = [S.table for S in catalog.values()]
    tables += [P.sg.table for _, P in lsd_fixtures + rsd_fixtures]
    for T in tables:
        assert cube_witness(T) is None
        assert_validate_agrees_with_cube(T)
        assert_validate_agrees_with_cube(corrupted(T))


def test_witness_middle_need_not_be_a_generator():
    # 0 generates everything (0*0 = 1, 0*1 = 2), and the least failing triple
    # (0,1,1) has the non-generator 1 in the middle: Light's test fails on
    # another triple, and the witness comes from the row scan.
    T = np.array([[1, 2, 0], [2, 0, 1], [0, 0, 0]])
    assert core.product_generators(T) == [0]
    assert core.product_closure(T, [0]).all()
    assert cube_witness(T) == (0, 1, 1)
    assert_validate_agrees_with_cube(T)


def assoc_witness_by_rows(T):
    """Oracle: Light's test on the greedy generators alone, then a scan of
    the rows, in order, for the least witness; the whole cube is never read."""
    if all((T[T[:, a]] == T[:, T[a]]).all() for a in core._light_generators(T)):
        return None
    for a in range(len(T)):
        left = T[T[a]]
        right = T[a][T]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return (a, int(b), int(c))
    raise AssertionError("Light's test failed on an associative table")


def cell_corruptions(T, count, seed):
    """`count` copies of T, each with one cell (all of them, when count is
    None) moved to another value."""
    n = len(T)
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(n) for j in range(n)] if count is None else \
        [tuple(rng.integers(n, size=2)) for _ in range(count)]
    for i, j in cells:
        bad = np.array(T)
        bad[i, j] = (bad[i, j] + 1 + rng.integers(max(1, n - 1))) % n
        yield bad


def _threshold_tables(catalog):
    """Tables on both sides of the whole-cube threshold n^3 <= CUBE_CELLS."""
    tables = [fixtures._min_table(n) for n in (49, 50, 51, 52)]
    i2 = catalog["i2"]
    tables += [direct_product(i2, i2).table,
               direct_product(i2, direct_product(catalog["chain2"], catalog["chain4"])).table]
    return [np.asarray(T, dtype=np.min_scalar_type(len(T) - 1)) for T in tables]


def test_whole_cube_witness_matches_the_row_scan(catalog):
    tables = _threshold_tables(catalog)
    assert {len(T) ** 3 <= core.CUBE_CELLS for T in tables} == {True, False}
    small = [S.table for S in catalog.values()]
    for T in small:
        assert core._assoc_witness(T) is None is assoc_witness_by_rows(T)
        for bad in cell_corruptions(T, None, 0):
            assert core._assoc_witness(bad) == assoc_witness_by_rows(bad)
    for T in tables:
        assert core._assoc_witness(T) is None is assoc_witness_by_rows(T)
        for bad in cell_corruptions(T, 40, len(T)):
            assert core._assoc_witness(bad) == assoc_witness_by_rows(bad)


_WITNESSES = """
import sys
import numpy as np
from invsem import core
tables = np.load(sys.argv[1], allow_pickle=True)
print([core._assoc_witness(T) for T in tables])
"""


def test_whole_cube_witness_survives_python_O(catalog, tmp_path):
    tables = [bad for T in _threshold_tables(catalog) for bad in cell_corruptions(T, 5, 1)]
    path = tmp_path / "tables.npy"
    stack = np.empty(len(tables), dtype=object)
    stack[:] = tables
    np.save(path, stack, allow_pickle=True)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _WITNESSES, str(path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    expect = [assoc_witness_by_rows(T) for T in tables]
    assert any(w is not None for w in expect)
    assert out == f"{expect}\n"


@pytest.mark.parametrize("k, t, n, in_index_order, from_top", [
    ("chain2", "i2", 290, 282, 7),
    ("chain4", "chain4", 340, 340, 16),
    ("b2", "chain4", 780, 210, 34),
])
def test_light_generators_come_from_the_top_of_the_J_order(catalog, k, t, n,
                                                           in_index_order, from_top):
    S = products.build_hwr(catalog[k], catalog[t]).sg
    T = S.table
    assert len(T) == n
    gens = core._light_generators(T)
    assert len(gens) == from_top
    # validate keeps the set Light's test ran on; the cube path keeps none
    assert S.generators == tuple(gens)
    assert {S.generators for S in catalog.values()} == {None}
    assert core.product_closure(T, gens).all()
    # without an order, the greedy set is still taken in index order
    plain = core.product_generators(T)
    assert plain == core.product_generators(T, range(n)) == sorted(plain)
    assert len(plain) == in_index_order
    assert core.product_closure(T, plain).all()


def product_closure_two_sided(table, seeds, inside=None):
    """The closure under products on both sides that `core.product_closure`
    replaced, kept as its oracle: each new element is multiplied by every
    member, on the left and on the right."""
    if inside is None:
        inside = np.zeros(len(table), dtype=bool)
    fresh = np.zeros_like(inside)
    frontier = np.array(sorted({int(x) for x in seeds if not inside[x]}), dtype=np.int64)
    while len(frontier):
        inside[frontier] = True
        members = np.flatnonzero(inside)
        fresh[table[frontier[:, None], members]] = True
        fresh[table[members[:, None], frontier]] = True
        fresh[members] = False
        frontier = np.flatnonzero(fresh)
    return inside


def product_generators_two_sided(table, order=None):
    inside = np.zeros(len(table), dtype=bool)
    gens = []
    for a in range(len(table)) if order is None else order:
        if not inside[a]:
            gens.append(int(a))
            product_closure_two_sided(table, [a], inside)
    return gens


def test_right_closure_matches_the_two_sided_one(catalog, lsd_fixtures, rsd_fixtures):
    """On every associative table of the fixtures and of the wreath ladder's
    products, closing under right multiplication by the seeds gives the
    two-sided closure: the same greedy generators, in index order and from
    the top of the J-order, and the same closure of a few seed sets."""
    tables = [S.table for S in catalog.values()]
    tables += [P.sg.table for _, P in lsd_fixtures + rsd_fixtures]
    for k, t in (("z3", "chain4"), ("chain2", "i2"), ("chain4", "chain4")):
        lw = products.build_lwr(catalog[k], catalog[t])
        tables += [lw.sg.table, lw.power.table]
    for k, t in (("z3", "chain4"), ("chain2", "i2"), ("chain4", "chain4"), ("b2", "chain4")):
        hw = products.build_hwr(catalog[k], catalog[t])
        tables += [hw.sg.table, hw.pkt.sg.table]
    rng = np.random.default_rng(0)
    for T in tables:
        assert core.product_generators(T) == product_generators_two_sided(T)
        seen = np.zeros(T.shape, dtype=bool)
        seen[np.arange(len(T))[:, None], T] = True
        light = product_generators_two_sided(T, np.argsort(-seen.sum(axis=1), kind="stable"))
        assert core._light_generators(T) == light
        for size in (1, 2, 3):
            seeds = rng.choice(len(T), size=min(size, len(T)), replace=False)
            assert np.array_equal(core.product_closure(T, seeds),
                                  product_closure_two_sided(T, seeds))


def test_validate_memory_stays_small(catalog, peak_traced):
    T = products.build_hwr(catalog["chain2"], catalog["i2"]).sg.table
    assert len(T) == 290
    bad = corrupted(T)

    def both():
        validate(T)
        with pytest.raises(NotAssociative):
            validate(bad)
    # a check in blocks of 2^24 cells would hold two int64 blocks, about 268 MB
    assert peak_traced(both) < 16 * 2**20


def validate_by_loop(table):
    """validate as it was before its array pass, kept as the oracle: every
    check on the int64 table, then, for each a in order, a scan for the unique
    x with axa = a and xax = x.  Returns (inv, idempotents)."""
    T = np.asarray(table, dtype=np.int64)
    w = core._assoc_witness(T)
    if w is not None:
        raise NotAssociative(*w)
    ar = np.arange(len(T))
    idem = np.flatnonzero(T[ar, ar] == ar)
    bad = np.argwhere(T[np.ix_(idem, idem)] != T[np.ix_(idem, idem)].T)
    if len(bad):
        raise IdempotentsDontCommute(int(idem[bad[0][0]]), int(idem[bad[0][1]]))
    inv = np.empty(len(T), dtype=np.int64)
    for a in range(len(T)):
        cand = np.flatnonzero((T[T[a], a] == a) & (T[T[:, a], ar] == ar))
        if len(cand) == 0:
            raise NotRegular(a)
        if len(cand) > 1:
            raise ValueError(f"element {a} has inverses {int(cand[0])} and {int(cand[1])}, "
                             f"though idempotents commute")
        inv[a] = cand[0]
    return inv, tuple(int(e) for e in idem)


def outcome(validator, table):
    """(inv, idempotents), or the exception's type, message and witness."""
    try:
        result = validator(table)
    except (NotAssociative, NotRegular, IdempotentsDontCommute, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    if isinstance(result, core.InverseSemigroup):
        assert result.table.dtype == result.inv.dtype == np.int64
        result = (result.inv, result.idempotents)
    return result[0].tolist(), result[1]


def with_nilpotent(table):
    """The table with a zero n and an element n + 1 appended, where every
    product with n or n + 1 is n: still associative with commuting
    idempotents, and n + 1, the last element, has no inverse."""
    n = len(table)
    out = np.full((n + 2, n + 2), n, dtype=np.int64)
    out[:n, :n] = table
    return out


def test_inverse_pass_matches_the_loop(catalog):
    wreaths = [products.build_hwr(catalog[k], catalog[t]).sg.table
               for k, t in (("chain2", "i2"), ("b2", "chain4"))]
    assert [len(T) for T in wreaths] == [290, 780]
    for T in [S.table for S in catalog.values()] + wreaths:
        expected = outcome(validate_by_loop, T)
        assert outcome(validate, T) == expected
        for bad in (corrupted(T), with_nilpotent(T)):
            assert outcome(validate, bad) == outcome(validate_by_loop, bad)
        assert outcome(validate, with_nilpotent(T))[:2] == (
            NotRegular, f"element {len(T) + 1} has no inverse partner")


def test_two_inverses_are_reported_as_the_loop_did():
    # unreachable on an associative table whose idempotents commute, so the
    # associativity check is switched off: element 2 has the inverses 1 and 2
    T = [[0, 0, 0], [0, 0, 2], [0, 1, 1]]
    with mock.patch.object(core, "_assoc_witness", lambda T: None):
        assert outcome(validate, T) == outcome(validate_by_loop, T) == (
            ValueError, "element 2 has inverses 1 and 2, though idempotents commute", None)


@given(tables_upto_5)
@settings(max_examples=400, deadline=None)
def test_inverse_pass_matches_the_loop_on_random_magmas(table):
    # without the associativity check, so that every later verdict is reached
    with mock.patch.object(core, "_assoc_witness", lambda T: None):
        assert outcome(validate, table) == outcome(validate_by_loop, table)


@pytest.mark.parametrize("n, narrow", [(1, np.uint8), (255, np.uint8), (256, np.uint8),
                                       (257, np.uint16)])
def test_chains_across_the_narrow_dtype_boundary(n, narrow):
    assert np.min_scalar_type(n - 1) == narrow
    T = np.array(fixtures._min_table(n))
    S = validate(T)
    assert S.table.dtype == S.inv.dtype == np.int64
    assert S.inv.tolist() == list(range(n)) and S.idempotents == tuple(range(n))
    assert outcome(validate, T) == outcome(validate_by_loop, T)
    for bad in (corrupted(T), with_nilpotent(T)):
        assert outcome(validate, bad) == outcome(validate_by_loop, bad)


def test_validate_of_the_order_780_wreath_stays_under_6_MiB(catalog, peak_traced):
    T = products.build_hwr(catalog["b2"], catalog["chain4"]).sg.table
    # the int64 checks peaked at 9.9 MiB
    assert peak_traced(lambda: validate(T)) < 6 * 2**20


def test_validate_rejects_missing_inverse():
    with pytest.raises(NotRegular):
        validate([[0, 0], [0, 0]])


def test_validate_rejects_noncommuting_idempotents():
    # left-zero band: xy = x, every element idempotent, nothing commutes
    with pytest.raises(IdempotentsDontCommute):
        validate([[0, 0], [1, 1]])


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError):
        validate([[0, 2], [1, 0]])


def test_inverse_and_order_basics(catalog):
    for name, S in catalog.items():
        n = S.order
        T = S.table
        inv = S.inv
        ar = np.arange(n)
        assert np.array_equal(T[T[ar, inv], ar], ar)
        assert np.array_equal(inv[inv], ar)
        # (ab)^-1 = b^-1 a^-1
        assert np.array_equal(inv[T], T[np.ix_(inv, inv)].T)
        for e in S.idempotents:
            assert S.doms[e] == S.rans[e] == e
        assert np.array_equal(T[S.rans, ar], ar)
        assert S.leq[ar, ar].all()
        # S.t^-1 = S.ran(t): column t^-1 of the table holds the same elements as column ran(t)
        for t in range(n):
            assert set(T[:, inv[t]].tolist()) == set(T[:, S.rans[t]].tolist()), (name, t)


def test_dom_ran_in_partial_bijections():
    S, of = pb.symmetric_inverse_monoid(2)
    send01 = [i for i, b in of.items() if b.graph == (1, pb.UNDEF)][0]
    d, r = S.doms[send01], S.rans[send01]
    assert of[d].graph == (0, pb.UNDEF)
    assert of[r].graph == (pb.UNDEF, 1)


def test_natural_order_examples(catalog):
    chain2 = catalog["chain2"]
    assert chain2.leq[0, 1] and not chain2.leq[1, 0]
    S, of = pb.symmetric_inverse_monoid(2)
    ident = [i for i, b in of.items() if b.graph == (0, 1)][0]
    id0 = [i for i, b in of.items() if b.graph == (0, pb.UNDEF)][0]
    assert S.leq[id0, ident]
    # restriction of a map is below it
    send01 = [i for i, b in of.items() if b.graph == (1, pb.UNDEF)][0]
    swap = [i for i, b in of.items() if b.graph == (1, 0)][0]
    assert S.leq[send01, swap] and not S.leq[swap, send01]
    # antisymmetry and transitivity on the whole monoid
    leq = S.leq
    assert not (leq & leq.T & ~np.eye(S.order, dtype=bool)).any()
    for a in range(S.order):
        for b in np.flatnonzero(leq[a]):
            # anything below a is below b
            assert (leq[:, a] <= leq[:, b]).all()


def test_order_compatible_with_product(catalog):
    for name in ["b2", "i2", "clifford4"]:
        S = catalog[name]
        leq = S.leq
        for a in range(S.order):
            for b in range(S.order):
                if not leq[a, b]:
                    continue
                for c in range(S.order):
                    assert leq[S.table[a, c], S.table[b, c]]
                    assert leq[S.table[c, a], S.table[c, b]]
                assert leq[S.inv[a], S.inv[b]]


def test_generated_subsemigroup():
    S, of = pb.symmetric_inverse_monoid(2)
    send01 = [i for i, b in of.items() if b.graph == (1, pb.UNDEF)][0]
    got = generated_subsemigroup(S, {send01})
    assert isinstance(got, frozenset) and len(got) == 5
    assert generated_subsemigroup(S, got) == got
    e = [i for i, b in of.items() if b.graph == (0, pb.UNDEF)][0]
    assert generated_subsemigroup(S, {e}) == {e}


def subsemigroup_by_sets(S, members):
    """Oracle: the reindexed table of a closed subset, or the ValueError's
    message naming the least product outside it."""
    elems = sorted(set(int(x) for x in members))
    pos = {x: i for i, x in enumerate(elems)}
    sub_table = S.table[np.ix_(elems, elems)]
    bad = set(int(x) for x in sub_table.ravel()) - set(pos)
    if bad:
        return f"subset not closed under product, e.g. produces {sorted(bad)[0]}"
    return [[pos[int(x)] for x in row] for row in sub_table]


def test_subsemigroup_rejects_unclosed(catalog):
    S = catalog["z3"]
    with pytest.raises(ValueError, match="produces 2$"):
        core.subsemigroup(S, [1])
    for name in ["chain3", "fork", "z2_zero", "clifford4", "b2", "i2"]:
        S = catalog[name]
        for mask in range(1, 2 ** S.order):
            members = [x for x in range(S.order) if mask >> x & 1]
            expect = subsemigroup_by_sets(S, members)
            if isinstance(expect, str):
                with pytest.raises(ValueError) as e:
                    core.subsemigroup(S, members)
                assert str(e.value) == expect, (name, members)
            elif set(S.inv[members].tolist()) <= set(members):
                sub, elems = core.subsemigroup(S, members)
                assert sub.table.tolist() == expect and elems.tolist() == members


def test_direct_product(catalog):
    chain2 = catalog["chain2"]
    sq = direct_product(chain2, chain2)
    assert sq.order == 4
    assert core.is_semilattice(sq)
    triv = catalog["trivial"]
    again = direct_product(catalog["b2"], triv)
    assert np.array_equal(again.table, catalog["b2"].table)
    E2, _ = core.idempotent_semilattice(catalog["i2"])
    big = direct_product(E2, E2)
    assert big.order == 16 and core.is_semilattice(big)


def test_idempotent_semilattice_is_built_once_per_semigroup(catalog, monkeypatch):
    # fresh copies, so that no earlier test has cached E(T) on them
    ts = [validate(catalog[n].table) for n in fixtures.sweep_names(4)]
    built = []
    real = core.subsemigroup
    monkeypatch.setattr(core, "subsemigroup", lambda *a: built.append(a) or real(*a))
    for T in ts:
        for K in ts:
            actions.enumerate_surjective_eps(K, T)
    assert len(built) == len(ts) == 10
    T = ts[-1]
    E, elems = core.idempotent_semilattice(T)
    assert core.idempotent_semilattice(T)[0] is E
    assert elems.tolist() == sorted(T.idempotents)
    with pytest.raises(ValueError, match="read-only"):
        elems[0] = 1


def test_every_finite_semilattice_has_zero(catalog):
    for name in ["chain2", "chain3", "chain4", "fork", "square4"]:
        E = catalog[name] if core.is_semilattice(catalog[name]) else None
        if E is None:
            continue
        col = E.table[0]
        bottom = col[0]
        for x in range(E.order):
            bottom = E.table[bottom, x]
        assert (E.table[bottom] == bottom).all()


def test_json_round_trip(catalog):
    for name in ["b2", "i2"]:
        S = catalog[name]
        d = core.as_dict(S)
        S2 = core.from_dict(d)
        assert np.array_equal(S2.table, S.table)
        assert np.array_equal(S2.inv, S.inv)
        assert S2.names == S.names
    with pytest.raises(ValueError):
        core.from_dict({"order": 3, "table": [[0, 0], [0, 1]]})


_FAKE_IDEMPOTENT = """
from invsem import core, fixtures
z2 = fixtures.catalog()["z2"]
try:
    core.idempotent_semilattice(core.InverseSemigroup(z2.base, z2.inv, (0, 1)))
except ValueError as exc:
    print(exc)
"""


def test_verdicts_survive_python_O(catalog):
    # an InverseSemigroup built by hand, listing the non-idempotent 1 of Z2
    z2 = catalog["z2"]
    fake = core.InverseSemigroup(z2.base, z2.inv, (0, 1))
    with pytest.raises(ValueError, match="element 1 ") as e:
        core.idempotent_semilattice(fake)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _FAKE_IDEMPOTENT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{e.value}\n"


def test_no_public_function_takes_a_bound_parameter():
    """Size bounds are module constants read where they are checked."""
    found = []
    for info in pkgutil.iter_modules(invsem.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"invsem.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__ or name.startswith("_"):
                continue
            found += [f"{info.name}.{name}({p})" for p in inspect.signature(fn).parameters
                      if p in ("bound", "cap") or p.endswith(("_bound", "_cap"))]
    assert found == []


def test_no_assert_decides_a_verdict():
    """`python -O` strips `assert`, so no check in the package may be one."""
    found = []
    for path in sorted(Path(invsem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
