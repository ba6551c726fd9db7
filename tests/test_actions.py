import hashlib
import os
import subprocess
import sys
from collections import Counter
from functools import cache, cached_property
from itertools import groupby, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invsem import actions as ac
from invsem import congruences, core, fixtures, morphisms, products
from invsem.cli import _eps_decomposition
from invsem.core import TooLarge
from invsem.fixtures import action_sweep, afr_sweep


ENDO_COUNTS = {
    "trivial": 1, "chain2": 3, "z2": 2, "chain3": 10,
    "fork": 9, "z3": 3, "z2_zero": 4, "b2": 5,
}


def _homs(S, S2):
    """Brute force: every map S -> S2 that passes is_homomorphism, in lexicographic order."""
    out = []
    for m in product(range(S2.order), repeat=S.order):
        try:
            morphisms.is_homomorphism(m, S, S2)
        except morphisms.NotMultiplicative:
            continue
        out.append(list(m))
    return out


def test_endo_counts(catalog):
    for name, expect in ENDO_COUNTS.items():
        endos = ac.enumerate_endomorphisms(catalog[name])
        assert len(endos) == expect, name
        K = catalog[name]
        assert endos.tolist() == _homs(K, K), name


def test_endo_bound(catalog):
    big = core.direct_product(catalog["square4"], catalog["chain2"])
    with pytest.raises(TooLarge):
        ac.enumerate_endomorphisms(big)


def test_endomorphisms_found_once_per_K(catalog, monkeypatch):
    K = core.validate(catalog["b2"].table)      # a fresh copy: nothing cached on it
    searched = []
    search = ac.enumerate_endomorphisms
    monkeypatch.setattr(ac, "enumerate_endomorphisms", lambda S: searched.append(S) or search(S))
    for T in catalog.values():
        ac.enumerate_actions(T, K)
    assert searched == [K]
    endos, comp = K.endomorphisms
    assert endos.tolist() == search(K).tolist()
    assert not endos.flags.writeable and not comp.flags.writeable
    assert np.array_equal(endos[comp], endos[:, endos])     # comp[i, j]: i after j
    # a cached_property, so that dropping an instance's cached tables drops End(K)
    assert isinstance(vars(core.InverseSemigroup)["endomorphisms"], cached_property)
    # over the bound every call raises, the first and the later ones
    big = core.direct_product(catalog["square4"], catalog["chain2"])
    for _ in range(2):
        with pytest.raises(TooLarge):
            ac.enumerate_actions(catalog["z2"], big)


def test_validate_action_rejections(catalog):
    chain2, z2, z3 = catalog["chain2"], catalog["z2"], catalog["z3"]
    with pytest.raises(ac.NotEndomorphism):
        ac.validate_action(catalog["trivial"], chain2, [[1, 0]])
    with pytest.raises(ac.NotActionHom) as e:
        ac.validate_action(z2, z3, [[0, 0, 0], [0, 1, 2]])
    t, u, a = e.value.witness
    assert (t, u) == (0, 1)  # least pair where act[tu] differs from act[t].act[u]
    with pytest.raises(ValueError):
        ac.validate_action(z2, z3, [[0, 0, 0]])
    with pytest.raises(ValueError):
        ac.validate_action(z2, z3, [[0, 0, 9], [0, 1, 2]])


def validate_by_loop(T, K, act):
    """The per-action law check that the stack checker replaced, kept as its oracle."""
    act = np.asarray(act, dtype=np.int64)
    Kt = K.table
    step = max(1, (1 << 22) // max(1, K.order * K.order))
    for t0 in range(0, T.order, step):
        blk = act[t0:t0 + step]
        lhs = blk[:, Kt]
        rhs = Kt[blk[:, :, None], blk[:, None, :]]
        if not np.array_equal(lhs, rhs):
            t, a, b = np.argwhere(lhs != rhs)[0]
            raise ac.NotEndomorphism(int(t) + t0, int(a), int(b))
    lhs = act[T.table]
    rhs = act[:, act]
    if not np.array_equal(lhs, rhs):
        t, u, a = np.argwhere(lhs != rhs)[0]
        raise ac.NotActionHom(int(t), int(u), int(a))


def _outcome(check, *args):
    try:
        check(*args)
    except (ac.NotEndomorphism, ac.NotActionHom) as exc:
        return type(exc), str(exc), exc.witness
    return None


def _stack_outcome(T, K, tables):
    return _outcome(ac._check_laws, T, K, np.array(tables, dtype=np.int64))


def _loop_outcome(T, K, tables):
    for table in tables:
        got = _outcome(validate_by_loop, T, K, table)
        if got is not None:
            return got
    return None


def _pairs_of_sweep():
    """(K, T, [action tables]) for each of the 100 catalog pairs of order <= 4."""
    cat = fixtures.catalog()
    for (kn, tn), group in groupby(action_sweep(4), key=lambda x: x[:2]):
        yield cat[kn], cat[tn], [a.act for _, _, a in group]


def _corruptions(T, K, endos, act):
    """The first one-cell change of act, in (t, a, value) order, whose row is not
    in endos (the endomorphisms of K, as bytes), and the first whose row is in
    endos but whose table is not an action; None where there is none."""
    breaks_endo = breaks_action = None
    for t, a, v in product(range(T.order), range(K.order), range(K.order)):
        if v == act[t, a]:
            continue
        bad = act.copy()
        bad[t, a] = v
        if bad[t].tobytes() not in endos:
            breaks_endo = bad if breaks_endo is None else breaks_endo
        elif breaks_action is None and _loop_outcome(T, K, [bad]) is not None:
            breaks_action = bad
        if breaks_endo is not None and breaks_action is not None:
            break
    return breaks_endo, breaks_action


def test_stack_checker_matches_loop():
    """On every action of the sweep, and on each with one corrupted cell, the
    stack checker raises what the per-action loop raised, or nothing."""
    pairs = seen_endo = seen_action = 0
    for K, T, tables in _pairs_of_sweep():
        pairs += 1
        assert _stack_outcome(T, K, tables) is None
        found = [ac.validate_action(T, K, a).act for a in tables]
        assert all(np.array_equal(x, y) for x, y in zip(found, tables))
        endos = {e.tobytes() for e in ac.enumerate_endomorphisms(K)}
        for i, act in enumerate(tables):
            for bad in _corruptions(T, K, endos, act):
                if bad is None:
                    continue
                expect = _loop_outcome(T, K, [bad])
                assert _outcome(ac.validate_action, T, K, bad) == expect
                # between its valid neighbours, and last in the pair's whole stack
                window = tables[max(0, i - 1):i] + [bad] + tables[i + 1:i + 2]
                assert _stack_outcome(T, K, window) == expect
                if i == len(tables) - 1:
                    assert _stack_outcome(T, K, tables[:i] + [bad]) == expect
                seen_endo += expect is not None and expect[0] is ac.NotEndomorphism
                seen_action += expect is not None and expect[0] is ac.NotActionHom
    assert pairs == 100
    # 20 actions (10 of them on the trivial K) have no one-cell change that
    # breaks the endomorphism law, and 342 none that breaks only the action law
    assert (seen_endo, seen_action) == (4145, 3823)


def test_stack_checker_reports_the_first_bad_table(catalog):
    # an earlier table that breaks only the action law wins over a later
    # table that breaks the endomorphism law, and the other way round
    z2, z3 = catalog["z2"], catalog["z3"]
    not_action = [[0, 0, 0], [0, 1, 2]]        # (1g).g = g, but 1.(g.g) = 1.g = 1
    not_endo = [[0, 1, 2], [0, 1, 1]]          # g.(g g) = g.g2 = g, but (g.g)(g.g) = g2
    valid = [[0, 1, 2], [0, 2, 1]]
    for tables in ([valid, not_action, not_endo], [valid, not_endo, not_action],
                   [not_action, not_endo], [not_endo, not_action]):
        got = _stack_outcome(z2, z3, tables)
        assert got is not None and got == _loop_outcome(z2, z3, tables)
    assert _stack_outcome(z2, z3, [valid, not_action, not_endo])[0] is ac.NotActionHom
    assert _stack_outcome(z2, z3, [valid, not_endo, not_action])[0] is ac.NotEndomorphism
    assert _stack_outcome(z2, z3, np.empty((0, 2, 3))) is None


def test_stack_checker_blocks(catalog, monkeypatch):
    # with one or a few rows and tables per block, the witnesses are unchanged
    z2, z3 = catalog["z2"], catalog["z3"]
    tables = [[[0, 1, 2], [0, 2, 1]], [[0, 0, 0], [0, 1, 2]], [[0, 1, 2], [0, 1, 1]]]
    expect = _loop_outcome(z2, z3, tables)
    for cells in (1, 18, 27, 36):
        monkeypatch.setattr(core, "BLOCK_CELLS", cells)
        assert _stack_outcome(z2, z3, tables) == expect
        assert _stack_outcome(z2, z3, tables[::-1]) == _loop_outcome(z2, z3, tables[::-1])


def test_action_sweep_pinned():
    # 4,165 tables in enumeration order, as before the stack checker
    h = hashlib.sha256()
    for kn, tn, a in action_sweep(4):
        h.update(f"{kn}|{tn}|".encode())
        h.update(a.act.tobytes())
    assert len(action_sweep(4)) == 4165
    assert h.hexdigest() == "c6067bff29197f75c89653371f7524a1a13d49372b2a72d6f385b754818346fb"


def test_actions_and_eps_maps_pinned():
    # the 4,165 action tables of action_sweep(4), then every pair's eps maps,
    # in enumeration order; the digest was taken with the worklist search
    h = hashlib.sha256()
    for kn, tn, a in action_sweep(4):
        h.update(f"{kn}|{tn}|".encode())
        h.update(np.asarray(a.act, dtype=np.int64).tobytes())
    cat = fixtures.catalog()
    names = fixtures.sweep_names(4)
    count = 0
    for tn in names:
        for kn in names:
            epss = ac.enumerate_surjective_eps(cat[kn], cat[tn])
            h.update(f"eps|{kn}|{tn}|{len(epss)}|".encode())
            for eps in epss:
                h.update(np.asarray(eps.map, dtype=np.int64).tobytes())
            count += len(epss)
    assert len(names) ** 2 == 100 and count == 80
    assert h.hexdigest() == "421d1f4d5379f01a135018421111b66d14146d48fa24fc8860a438590d198750"


def check_AFR_by_loop(action, eps):
    """The double loop that check_AFR replaced, kept as its oracle."""
    T, K, A = action.T, action.K, action.act
    idems = list(T.idempotents)
    fixed = A[np.array(idems)] == np.arange(K.order)[None, :]
    below = T.leq[np.ix_(eps.map, np.array(idems))]
    for a in range(K.order):
        for i, e in enumerate(idems):
            if bool(fixed[i, a]) != bool(below[a, i]):
                return False, (a, int(e))
    return True, None


def test_check_AFR_matches_loop():
    """On enumerated actions, whose masks are filled per stack, and on the
    same tables built directly, whose masks are found on first use."""
    n = failed = 0
    for K, T, tables in _pairs_of_sweep():
        epss = ac.enumerate_surjective_eps(K, T)
        acts = ac.enumerate_actions(T, K)
        assert [a.act.tobytes() for a in acts] == [t.tobytes() for t in tables]
        for action in acts:
            direct = ac.EndoAction(T, K, action.act)
            for eps in epss:
                got = ac.check_AFR(action, eps)
                assert got == ac.check_AFR(direct, eps) == check_AFR_by_loop(direct, eps)
                assert all(type(x) is int for x in got[1] or ())
                n += 1
                failed += not got[0]
    assert n == 4532 and failed == 4454


def _fixed_by_loop(action):
    """fixed[a, i]: the i-th idempotent e of T has e.a = a, cell by cell."""
    T, K, A = action.T, action.K, action.act
    return np.array([[A[e, a] == a for e in T.idempotents] for a in range(K.order)])


def _check_fixed(action):
    fixed = action.fixed
    assert fixed.dtype == bool and fixed.flags.c_contiguous and not fixed.flags.writeable
    assert np.array_equal(fixed, _fixed_by_loop(action))
    assert np.array_equal(fixed, ac.EndoAction(action.T, action.K, action.act).fixed)
    with pytest.raises(ValueError, match="read-only"):
        fixed[0, 0] = not fixed[0, 0]


def test_fixed_masks_are_filled_per_stack():
    """Every enumerated action, and a validated one, has its [a, i] mask
    filled with the stack's masks, equal to the one-action definition."""
    cat = fixtures.catalog()
    n = 0
    for K, T, _ in _pairs_of_sweep():
        acts = ac.enumerate_actions(T, K)
        assert all("fixed" in vars(a) for a in acts)     # filled, not found on first use
        assert all(a.fixed.base is acts[0].fixed.base is not None for a in acts)
        for a in acts:
            _check_fixed(a)
        n += len(acts)
    assert n == 4165
    action = ac.validate_action(cat["z2"], cat["chain3"], [[0, 1, 2], [0, 1, 2]])
    assert "fixed" in vars(action)
    _check_fixed(action)
    direct = ac.EndoAction(cat["chain2"], cat["z3"], np.array([[0, 1, 2], [0, 2, 1]]))
    assert "fixed" not in vars(direct)
    _check_fixed(direct)


def test_eps_enumerated_once_per_pair(monkeypatch):
    calls = Counter()
    enumerate_eps = ac.enumerate_surjective_eps

    def counted(K, T):
        calls[K, T] += 1
        return enumerate_eps(K, T)

    monkeypatch.setattr(ac, "enumerate_surjective_eps", counted)
    again = fixtures.afr_sweep.__wrapped__(4)
    names = fixtures.sweep_names(4)
    assert len(calls) == len(names) ** 2 and set(calls.values()) == {1}
    key = [(kn, tn, a.act.tobytes(), e.map.tobytes()) for kn, tn, a, e in afr_sweep(4)]
    assert [(kn, tn, a.act.tobytes(), e.map.tobytes()) for kn, tn, a, e in again] == key
    calls.clear()
    labels = [label for label, _ in fixtures.rsd_fixtures.__wrapped__()]
    assert labels == RSD_LABELS
    assert len(calls) == len(fixtures._PRODUCT_PAIRS) and set(calls.values()) == {1}


ACTION_COUNTS = {
    ("z2", "z3"): 3, ("chain2", "chain2"): 5, ("chain3", "chain3"): 46,
    ("z3", "z3"): 2, ("chain2", "fork"): 15,
}


def test_action_counts(catalog):
    for (tn, kn), expect in ACTION_COUNTS.items():
        assert len(ac.enumerate_actions(catalog[tn], catalog[kn])) == expect


def test_clever_matches_naive(catalog):
    pairs = [("chain2", "chain2"), ("z2", "z3"), ("chain3", "fork"),
             ("z3", "chain3"), ("fork", "z2_zero")]
    for tn, kn in pairs:
        T, K = catalog[tn], catalog[kn]
        clever = {a.act.tobytes() for a in ac.enumerate_actions(T, K)}
        naive = {a.act.tobytes() for a in ac.enumerate_actions_naive(T, K)}
        assert clever == naive, (tn, kn)


def test_naive_bound(catalog):
    with pytest.raises(TooLarge):
        ac.enumerate_actions_naive(catalog["square4"], catalog["square4"])


EPS_COUNTS = {
    ("z3", "z2"): 1, ("chain2", "chain2"): 1, ("fork", "chain2"): 2,
    ("b2", "b2"): 0, ("z2_zero", "chain2"): 1, ("chain3", "chain3"): 1,
}


def test_eps_counts(catalog):
    for (kn, tn), expect in EPS_COUNTS.items():
        K, T = catalog[kn], catalog[tn]
        found = ac.enumerate_surjective_eps(K, T)
        assert len(found) == expect
        E, elems = core.idempotent_semilattice(T)
        brute = [elems[m].tolist() for m in _homs(K, E) if len(set(m)) == E.order]
        assert [eps.map.tolist() for eps in found] == brute, (kn, tn)


# The #i and #i.j suffixes are positions in the action and eps enumeration
# orders, so these lists pin both orders.
LSD_LABELS = [
    *(f"lsd(chain2,chain2)#{i}" for i in range(5)),
    *(f"lsd(z2,chain2)#{i}" for i in range(3)),
    *(f"lsd(chain2,z2)#{i}" for i in range(3)),
    *(f"lsd(z3,z2)#{i}" for i in range(3)),
    *(f"lsd(chain3,chain2)#{i}" for i in range(6)),
    *(f"lsd(z2_zero,chain2)#{i}" for i in range(6)),
    *(f"lsd(fork,chain2)#{i}" for i in range(6)),
    *(f"lsd(chain2,fork)#{i}" for i in range(6)),
    *(f"lsd(z2,z2)#{i}" for i in range(2)),
    *(f"lsd(chain2,chain3)#{i}" for i in range(6)),
]

RSD_LABELS = [
    "rsd(chain2,chain2)#1.0", "rsd(chain2,z2)#1.0", "rsd(z3,z2)#1.0",
    "rsd(z3,z2)#2.0", "rsd(chain3,chain2)#3.1", "rsd(chain3,chain2)#8.0",
    "rsd(z2_zero,chain2)#2.0", "rsd(fork,chain2)#5.1", "rsd(fork,chain2)#7.0",
    "rsd(z2,z2)#1.0", "rsd(P(z2,chain2),chain2)",
]


def test_fixture_labels_pin_enumeration_order(lsd_fixtures, rsd_fixtures):
    assert len(LSD_LABELS) == 46
    assert [label for label, _ in lsd_fixtures] == LSD_LABELS
    assert [label for label, _ in rsd_fixtures] == RSD_LABELS


def test_validate_eps_rejections(catalog):
    fork, chain2, i2 = catalog["fork"], catalog["chain2"], catalog["i2"]
    ac.validate_eps(fork, chain2, [0, 0, 1])
    with pytest.raises(ValueError, match=r"^eps\(2\) = 5 is not an idempotent$"):
        ac.validate_eps(fork, i2, [0, 0, 5])
    # the least offending element is named, values outside [0, |T|) included
    for values, msg in (([0, 5, 1], r"eps\(1\) = 5"), ([0, -1, 9], r"eps\(1\) = -1"),
                        ([7, 0, 1], r"eps\(0\) = 7")):
        with pytest.raises(ValueError, match=f"^{msg} is not an idempotent$"):
            ac.validate_eps(fork, i2, values)
    with pytest.raises(morphisms.NotMultiplicative):
        ac.validate_eps(fork, chain2, [0, 1, 1])
    from invsem.congruences import NotSurjective
    with pytest.raises(NotSurjective, match=r"^eps misses the idempotent 1$"):
        ac.validate_eps(fork, chain2, [0, 0, 0])
    with pytest.raises(ValueError):
        ac.validate_eps(fork, chain2, [0, 0])


def test_axiom_forms_agree(catalog):
    """The fixed-range axiom, its elementwise variant, and the classwise
    variant accept and reject exactly the same (action, eps) pairs."""
    names = ["trivial", "chain2", "z2", "chain3", "fork", "z3", "z2_zero"]
    passes = 0
    fail_seen = False
    for tn in names:
        for kn in names:
            T, K = catalog[tn], catalog[kn]
            eps_list = ac.enumerate_surjective_eps(K, T)
            if not eps_list:
                continue
            for action in ac.enumerate_actions(T, K):
                for eps in eps_list:
                    afr, w = ac.check_AFR(action, eps)
                    ae, w2 = ac.check_AE7_AE8(action, eps)
                    mod, w3 = ac.check_modified(action, _eps_decomposition(eps))
                    assert afr == ae == mod, (tn, kn)
                    if afr:
                        passes += 1
                    else:
                        fail_seen = True
                        assert w is not None and w2 is not None and w3 is not None
    assert passes == len(afr_sweep(3))
    assert fail_seen


def test_strong_semilattice_rebuild():
    for kn, tn, action, eps in afr_sweep(3):
        ssl = ac.strong_semilattice(action, eps)
        assert np.array_equal(ac.rebuild_from_structure(ssl), action.K.table)
        # the fibers over the idempotents of T partition K, and none is empty
        sizes = np.bincount(ssl.eps.map, minlength=action.T.order)[list(action.T.idempotents)]
        assert sizes.sum() == action.K.order and sizes.all()


def test_strong_semilattice_needs_axiom(catalog):
    # an action violating the fixed-range axiom is rejected up front
    z3, z2 = catalog["z3"], catalog["z2"]
    eps = ac.enumerate_surjective_eps(z3, z2)[0]
    bad = None
    for action in ac.enumerate_actions(z2, z3):
        if not ac.check_AFR(action, eps)[0]:
            bad = action
            break
    assert bad is not None
    with pytest.raises(ac.AFRViolated):
        ac.strong_semilattice(bad, eps)


_LEAVES_FIBER = """
import numpy as np
from invsem import actions, fixtures
cat = fixtures.catalog()
chain2, chain3 = cat["chain2"], cat["chain3"]
eps = actions.validate_eps(chain3, chain2, [0, 1, 1])
bad = actions.EndoAction(chain2, chain3, np.array([[0, 2, 1], [0, 1, 2]]))
try:
    actions.strong_semilattice(bad, eps)
except actions.LawViolated as exc:
    print(exc.witness, exc)
"""


def test_gluing_laws_survive_python_O(catalog):
    chain2, chain3 = catalog["chain2"], catalog["chain3"]
    eps = ac.validate_eps(chain3, chain2, [0, 1, 1])
    # not an action (0.(1*2) = 0.1 = 2, but (0.1)*(0.2) = 2*1 = 1), yet it passes
    # the fixed-range condition; 0 maps 1 into the fiber over 1, not over 0
    bad = ac.EndoAction(chain2, chain3, np.array([[0, 2, 1], [0, 1, 2]]))
    assert ac.check_AFR(bad, eps) == (True, None)
    with pytest.raises(ac.LawViolated, match="structure map leaves its fiber") as e:
        ac.strong_semilattice(bad, eps)
    assert e.value.witness == (1, 0, 1)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _LEAVES_FIBER], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{e.value.witness} {e.value}\n"


# Tables of afr_sweep(4) with a cell or two changed.  Each still passes
# check_AFR, except in the own-class cases: check_AFR at e = eps(a) is
# eps(a).a = a, which they break.  The rows are T's elements; eps is unchanged.
AXIOM_FORM_CASES = [
    # (K, T, act, eps, check_AE7_AE8 witness, check_modified witness)
    ("chain2", "trivial", [[1, 1]], [0, 0], ("fix-own-class", 0), ("class-fix", 0)),
    ("chain4", "chain3", [[0, 1, 1, 1], [0, 1, 1, 2], [0, 1, 2, 3]], [0, 0, 1, 2],
     ("fix-own-class", 2), ("class-fix", 2)),
    ("chain3", "chain2", [[0, 2, 0], [0, 1, 2]], [0, 1, 1],
     ("range-transport", 0, 1), ("class-transport", 0, 1)),
    # row 2 is z2_zero's non-idempotent g, which check_AFR does not read
    ("chain3", "z2_zero", [[0, 0, 0], [0, 1, 2], [0, 0, 0]], [0, 1, 1],
     ("range-transport", 2, 1), ("class-transport", 2, 1)),
]


def test_axiom_form_witnesses(catalog):
    for kn, tn, act, values, ae, mod in AXIOM_FORM_CASES:
        K, T = catalog[kn], catalog[tn]
        action, eps = ac.EndoAction(T, K, np.array(act)), ac.validate_eps(K, T, values)
        assert ac.check_AFR(action, eps)[0] == (ae[0] == "range-transport"), (kn, tn)
        assert ac.check_AE7_AE8(action, eps) == (False, ae), (kn, tn)
        assert ac.check_modified(action, _eps_decomposition(eps)) == (False, mod), (kn, tn)


GLUING_CASES = [
    # (K, T, act, eps, reason, witness)
    # (e, f, a): 0.1 = 2 and 0.2 = 1 both leave fiber(0); a = 2 comes first,
    # as its fiber e = 1 precedes the fiber e = 2 of a = 1
    ("fork", "fork", [[0, 2, 1], [0, 0, 2], [0, 1, 0]], [0, 2, 1],
     "structure map leaves its fiber", (1, 0, 2)),
    # (e, f, g, a): 0.(1.3) = 0.2 = 0, but 0.3 = 1
    ("chain4", "chain3", [[0, 1, 0, 1], [0, 1, 2, 2], [0, 1, 2, 3]], [0, 0, 1, 2],
     "structure maps do not compose down a chain", (2, 1, 0, 3)),
    # (a, b): (0.1)(0.2) = 1.0 = 0, but 1.2 = 1
    ("chain3", "chain2", [[0, 1, 0], [0, 1, 2]], [0, 0, 1],
     "product does not factor through the meet fiber", (1, 2)),
    # (2, 1) comes first: its fibers (0, 1) precede those of (1, 2), which are (1, 0)
    ("square4", "chain2", [[0, 2, 2, 0], [0, 1, 2, 3]], [0, 1, 0, 1],
     "product does not factor through the meet fiber", (2, 1)),
]


def test_gluing_law_witnesses(catalog):
    for kn, tn, act, values, reason, witness in GLUING_CASES:
        K, T = catalog[kn], catalog[tn]
        action, eps = ac.EndoAction(T, K, np.array(act)), ac.validate_eps(K, T, values)
        assert ac.check_AFR(action, eps) == (True, None), (kn, tn)
        with pytest.raises(ac.LawViolated) as e:
            ac.strong_semilattice(action, eps)
        assert (e.value.reason, e.value.witness) == (reason, witness), (kn, tn)


def test_chain_law_names_the_first_chain_in_fiber_order(catalog):
    """z2 x chain_n over chain_n by the second coordinate, acted on by
    t.(x, b) = (x, min(t, b)), with two cells of row 0 changed so that
    g.(f.a) != g.a at two or more cells.  The witness is the least
    (e, f, g, a), as the loops find it.  Over chain4 a scan in the
    mask's own (g, f, a) order would name (3, 1, 0, 3) first."""
    for n, cells, failing in (
            (3, {(0, 1): 3, (0, 4): 0}, [(2, 1, 0, 2), (2, 1, 0, 5)]),
            (4, {(0, 3): 4, (0, 6): 0}, [(2, 1, 0, 6), (3, 1, 0, 3), (3, 2, 0, 3), (3, 2, 0, 7)])):
        T = catalog[f"chain{n}"]
        K = core.direct_product(catalog["z2"], T)       # (x, b) is element x * n + b
        x, b = np.divmod(np.arange(K.order), n)
        act = x * n + np.minimum(np.arange(n)[:, None], b)
        ac.validate_action(T, K, act)
        eps = ac.validate_eps(K, T, b)
        for cell, v in cells.items():
            act[cell] = v
        bad = ac.EndoAction(T, K, act)
        assert ac.check_AFR(bad, eps) == (True, None)
        assert sorted((int(eps.map[a]), f, g, a) for g in T.idempotents for f in T.idempotents
                      for a in range(K.order) if T.leq[g, f] and T.leq[f, eps.map[a]]
                      and act[g, act[f, a]] != act[g, a]) == failing
        for check in (ac.strong_semilattice, strong_semilattice_by_loops):
            with pytest.raises(ac.LawViolated) as e:
                check(bad, eps)
            assert (e.value.reason, e.value.witness) == \
                ("structure maps do not compose down a chain", failing[0]), (n, check)


def strong_semilattice_by_loops(action, eps):
    """The per-pair loops that the mask passes replaced, kept as their oracle:
    raise LawViolated as strong_semilattice does, else return the rebuilt table."""
    T, K, A = action.T, action.K, action.act
    idems = sorted(set(eps.map.tolist()))
    classes = {e: np.flatnonzero(eps.map == e) for e in idems}
    maps = {}
    for e in idems:
        for f in idems:
            if not T.leq[f, e]:
                continue
            img = A[f, classes[e]]
            out = eps.map[img] != f
            if out.any():
                raise ac.LawViolated("structure map leaves its fiber",
                                     (e, f, int(classes[e][out.argmax()])))
            maps[(e, f)] = img
    pos = {e: {int(a): i for i, a in enumerate(classes[e])} for e in idems}
    for e in idems:
        moved = maps[(e, e)] != classes[e]
        if moved.any():
            raise ac.LawViolated("structure map of a fiber to itself moves an element",
                                 (e, int(classes[e][moved.argmax()])))
    for e in idems:
        for f in idems:
            if not T.leq[f, e]:
                continue
            for g in idems:
                if not T.leq[g, f]:
                    continue
                step = np.array([maps[(f, g)][pos[f][int(x)]] for x in maps[(e, f)]])
                differ = step != maps[(e, g)]
                if differ.any():
                    raise ac.LawViolated("structure maps do not compose down a chain",
                                         (e, f, g, int(classes[e][differ.argmax()])))
    for e in idems:
        for f in idems:
            ef = int(T.table[e, f])
            for i, a in enumerate(classes[e]):
                for j, b in enumerate(classes[f]):
                    glued = K.table[maps[(e, ef)][i], maps[(f, ef)][j]]
                    if glued != K.table[a, b]:
                        raise ac.LawViolated("product does not factor through the meet fiber",
                                             (int(a), int(b)))
    out = np.empty((K.order, K.order), dtype=np.int64)
    for a in range(K.order):
        e = int(eps.map[a])
        for b in range(K.order):
            f = int(eps.map[b])
            ef = int(T.table[e, f])
            out[a, b] = K.table[maps[(e, ef)][pos[e][a]], maps[(f, ef)][pos[f][b]]]
    return out


@cache
def _free_cells():
    """(action, eps, cells) for each entry of afr_sweep(4), listed once per cell
    (f, a) that check_AFR leaves free: f is idempotent and not above eps(a), so
    f.a may be anything but a.  Entries with more such cells, where chains of
    three idempotents occur, are drawn more often."""
    out = []
    for kn, tn, action, eps in afr_sweep(4):
        T = action.T
        free = [(f, a) for f in T.idempotents for a in range(action.K.order)
                if not T.leq[eps.map[a], f]]
        out += [(action, eps, free)] * len(free)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gluing_laws_match_loops(data):
    action, eps, free = data.draw(st.sampled_from(_free_cells()))
    T, K = action.T, action.K
    act = action.act.copy()
    inside = data.draw(st.booleans())   # keep f.a in fiber(f) where f < eps(a)
    for f, a in data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=4)):
        if inside and T.leq[f, eps.map[a]]:
            act[f, a] = data.draw(st.sampled_from(np.flatnonzero(eps.map == f).tolist()))
        else:
            act[f, a] = data.draw(st.sampled_from([v for v in range(K.order) if v != a]))
    bad = ac.EndoAction(T, K, act)
    assert ac.check_AFR(bad, eps) == (True, None)
    try:
        expect = strong_semilattice_by_loops(bad, eps)
    except ac.LawViolated as exc:
        with pytest.raises(ac.LawViolated) as got:
            ac.strong_semilattice(bad, eps)
        assert (got.value.reason, got.value.witness) == (exc.reason, exc.witness)
    else:
        rebuilt = ac.rebuild_from_structure(ac.strong_semilattice(bad, eps))
        assert np.array_equal(rebuilt, expect)


def test_check_modified_needs_embedding(catalog):
    action = ac.enumerate_actions(catalog["chain2"], catalog["chain2"])[0]
    eps = ac.enumerate_surjective_eps(catalog["chain2"], catalog["chain2"])[0]
    decomp = _eps_decomposition(eps)
    with pytest.raises(ValueError, match="must embed its semilattice"):
        ac.check_modified(action, SimpleNamespace(eta=decomp.eta, embed=None))


def test_induced_kernel_action(rsd_fixtures):
    for name, P in rsd_fixtures:
        ka = ac.induced_kernel_action(P)
        assert ac.check_AFR(ka.action, ka.eps)[0], name
        # the pairs are exactly the product elements in kernel positions
        assert np.array_equal(P.elements[ka.product_indices], ka.pairs), name
        assert np.array_equal(ka.eps.map, ka.pairs[:, 1]), name


def homomorphism_by_scan(values, S, S2):
    """is_homomorphism's law over all |S|^2 cells, kept as the oracle for the
    proof on the rows of S's generators."""
    values = np.asarray(values, dtype=np.int64)
    bad = values[S.table] != S2.table[values[:, None], values[None, :]]
    if bad.any():
        raise morphisms.NotMultiplicative(*(int(i) for i in np.argwhere(bad)[0]))


@cache
def _generator_path_cases():
    """Semigroups over order 50, so that validate keeps their generators,
    with homomorphisms from them, eps maps on them and actions on them:
    hwr(z3,chain4) (order 120), the order-81 power of lwr(z3,chain4), and
    hwr(z3,b2) (order 111), where a one-cell change can break the law first
    in a row that is not a generator's."""
    cat = fixtures.catalog()
    K, T, B = cat["z3"], cat["chain4"], cat["b2"]
    hw, lw, hb = products.build_hwr(K, T), products.build_lwr(K, T), products.build_hwr(K, B)
    P, W = lw.power, hw.pkt.sg
    homs = [(hw.sg, T, hw.pi2.map), (hw.sg, hw.sg, np.arange(hw.sg.order)),
            (P, K, lw.digits[:, 0]), (P, P, np.arange(P.order)), (hb.sg, B, hb.pi2.map)]
    eps = [(W, T, hw.pkt.eps.map), (P, T, np.full(P.order, T.idempotents[0])),
           (hb.pkt.sg, B, hb.pkt.eps.map)]
    acts = [(T, W, hw.pkt.action.act), (T, P, lw.action.act), (B, hb.pkt.sg, hb.pkt.action.act)]
    return homs, eps, acts


def _law_outcome(check, *args):
    try:
        check(*args)
    except (morphisms.NotMultiplicative, ac.NotEndomorphism, ac.NotActionHom) as exc:
        return type(exc), str(exc), exc.witness
    except congruences.NotSurjective:
        pass
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_laws_on_generators_match_the_full_scan(data):
    """One cell of a homomorphism, an eps map or an action row changed: the
    proof on the generator rows raises what the n^2 scan raises, with the
    same witness, or nothing when the scan finds nothing."""
    homs, eps, acts = _generator_path_cases()
    kind = data.draw(st.sampled_from(["hom", "eps", "action"]))
    if kind == "action":
        T, K, act = data.draw(st.sampled_from(acts))
        assert K.generators is not None
        bad = act.copy()
        t = data.draw(st.integers(0, T.order - 1))
        a = data.draw(st.integers(0, K.order - 1))
        bad[t, a] = data.draw(st.integers(0, K.order - 1))
        assert _law_outcome(ac.validate_action, T, K, bad) == \
            _law_outcome(validate_by_loop, T, K, bad)
        return
    S, S2, values = data.draw(st.sampled_from(homs if kind == "hom" else eps))
    assert S.generators is not None
    bad = values.copy()
    a = data.draw(st.integers(0, S.order - 1))
    targets = list(S2.idempotents) if kind == "eps" else range(S2.order)
    bad[a] = data.draw(st.sampled_from(targets))
    if kind == "hom":
        got = _law_outcome(morphisms.is_homomorphism, bad, S, S2)
    else:
        got = _law_outcome(ac.validate_eps, S, S2, bad)
    assert got == _law_outcome(homomorphism_by_scan, bad, S, S2)


def test_least_witness_can_lie_off_the_generators():
    """Every one-cell change of hwr(z3,b2)'s second projection: the witness
    is the scan's, also where its row is not a generator's."""
    homs, _, _ = _generator_path_cases()
    S, B, pi2 = homs[-1]
    rows = Counter()
    for a, v in product(range(S.order), range(B.order)):
        bad = pi2.copy()
        bad[a] = v
        got = _law_outcome(morphisms.is_homomorphism, bad, S, B)
        assert got == _law_outcome(homomorphism_by_scan, bad, S, B)
        rows[None if got is None else got[2][0] in S.generators] += 1
    assert rows == {True: 432, False: 12, None: 111}
