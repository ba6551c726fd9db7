import numpy as np
import pytest

from invsem import billhardt as bh, congruences as cg
from invsem import core, morphisms as mo, trhull as th
from invsem.core import TooLarge


# the coordinate formulas of one pair (left, right), the oracle for the hull table


def compose(w1, w2):
    return w1[0][w2[0]], w2[1][w1[1]]


def inverse(S, w):
    # left'(s) = ((s^-1)rho)^-1 and (s)right' = (lam(s^-1))^-1
    lam, rho = w
    return S.inv[rho[S.inv]], S.inv[lam[S.inv]]


def same(w1, w2):
    return np.array_equal(w1[0], w2[0]) and np.array_equal(w1[1], w2[1])


def natural_leq(S, w1, w2):
    return same(compose(compose(w1, inverse(S, w1)), w2), w1)


def pairs(h):
    return list(zip(h.left, h.right))


def index_of(h, w):
    hits = [i for i, v in enumerate(pairs(h)) if same(v, w)]
    assert len(hits) == 1
    return hits[0]


HULL_ORDERS = {
    "trivial": (1, 1), "chain2": (2, 2), "z2": (2, 2), "chain3": (3, 3),
    "fork": (4, 3), "z3": (3, 3), "z2_zero": (3, 3), "chain4": (4, 4),
    "square4": (4, 4), "clifford4": (4, 4), "b2": (7, 5), "i2": (7, 7),
}


def test_hull_orders(catalog):
    for name, (order, inner_count) in HULL_ORDERS.items():
        h = th.enumerate_hull(catalog[name])
        assert h.sg.order == order, name
        assert len({int(i) for i in h.inner_of}) == inner_count, name
        # monoids are exactly the fixtures with no outer pairs
        has_identity = any(
            (catalog[name].table[e] == np.arange(order and catalog[name].order)).all()
            for e in catalog[name].idempotents)
        assert (order == inner_count) == has_identity, name


def test_backtracking_matches_naive(catalog):
    for name, S in catalog.items():
        try:
            slow = th.naive_hull(S)
        except TooLarge:
            continue
        fast = th.enumerate_hull(S)
        assert np.array_equal(fast.left, slow.left), name
        assert np.array_equal(fast.right, slow.right), name
        assert np.array_equal(fast.sg.table, slow.sg.table), name


def test_rows_sorted_by_distinct_left_parts(catalog):
    for name in HULL_ORDERS:
        h = th.enumerate_hull(catalog[name])
        rows = [tuple(r) for r in h.left.tolist()]
        assert rows == sorted(set(rows)), name
        assert len({tuple(r) for r in h.right.tolist()}) == len(rows), name
        assert h.left.dtype == h.right.dtype == np.int64, name


def test_hull_bounds(catalog, zero_with_atoms, peak_traced):
    """The bound counts array cells, not elements."""
    big = core.direct_product(catalog["square4"], catalog["square4"])
    assert th.enumerate_hull(big).sg.order == 16
    assert th.enumerate_hull(zero_with_atoms(8)).sg.order == 256

    def refuse():
        # order 20, hull of order 2^19: refused before the translation stack grows past the bound
        with pytest.raises(TooLarge, match="hull enumeration cells") as e:
            th.enumerate_hull(zero_with_atoms(19))
        assert e.value.size > e.value.bound == th.HULL_BOUND

    assert peak_traced(refuse) < 24 * 2**20
    with pytest.raises(TooLarge, match="hull enumeration cells"):
        th.enumerate_hull(zero_with_atoms(9))
    # the naive oracle's n^n maps: 5^5 * 25 cells pass, 6^6 * 36 do not
    th.naive_hull(catalog["b2"])
    with pytest.raises(TooLarge):
        th.naive_hull(core.direct_product(catalog["z3"], catalog["chain2"]))


def test_hull_is_found_once_per_semigroup(catalog, monkeypatch):
    S = core.direct_product(catalog["fork"], catalog["chain2"])
    calls = []
    enumerate_hull = th.enumerate_hull
    monkeypatch.setattr(th, "enumerate_hull", lambda S: calls.append(S) or enumerate_hull(S))
    for theta in cg.enumerate_congruences(S):
        assert th.hull_of_extension(S, theta).hull is S.hull
    assert calls == [S]


def test_brandt_hull_is_the_symmetric_monoid(catalog):
    h = th.enumerate_hull(catalog["b2"])
    assert mo.all_isomorphisms(h.sg, catalog["i2"])


def test_pair_laws(catalog):
    for name in ["fork", "z2_zero", "b2", "i2"]:
        S = catalog[name]
        h = th.enumerate_hull(S)
        assert (h.left[h.identity] == np.arange(S.order)).all()
        assert (h.right[h.identity] == np.arange(S.order)).all()
        assert th.is_bitranslation(S, h.left, h.right).all()
        for i, w in enumerate(pairs(h)):
            assert th.is_bitranslation(S, *w)
            assert h.sg.inv[i] == index_of(h, inverse(S, w))
            for j, v in enumerate(pairs(h)):
                assert h.sg.table[i, j] == index_of(h, compose(w, v))
                # the coordinate order formula matches the table-level order
                assert natural_leq(S, w, v) == bool(h.sg.leq[i, j])


def canonical_pi(hull):
    """The inner embedding s -> pi_s, injective for inverse semigroups."""
    return mo.is_homomorphism(hull.inner_of, hull.S, hull.sg)


def test_inner_embedding_and_ideal(catalog):
    for name in ["chain3", "fork", "z2_zero", "b2", "i2"]:
        h = th.enumerate_hull(catalog[name])
        phi = canonical_pi(h)
        assert phi.injective
        assert th.inner_is_ideal(h)


def test_hull_identities(catalog):
    for name in ["chain2", "z2", "fork", "z2_zero", "b2", "i2"]:
        got = th.hull_identities(th.enumerate_hull(catalog[name]))
        assert all(got.values()), (name, got)


def test_fork_gains_exactly_the_identity(catalog):
    fork = catalog["fork"]
    h = th.enumerate_hull(fork)
    outer = set(range(4)) - {int(i) for i in h.inner_of}
    assert outer == {h.identity}
    assert h.sg.names[h.identity] == "id"


def test_every_pair_respects_every_congruence(catalog):
    for name in HULL_ORDERS:
        S = catalog[name]
        h = th.enumerate_hull(S)
        for theta in cg.enumerate_congruences(S):
            assert th.respects(h.left, h.right, theta).all(), name
            for w in pairs(h):
                assert th.respects(*w, theta), name


def test_downharp_sends_inner_to_inner(catalog):
    i2 = catalog["i2"]
    rees = cg.enumerate_congruences(i2)[1]
    Q, qmap = rees.quotient
    for s in range(i2.order):
        got = th.downharp(*th.inner(i2, s), rees)
        assert same(got, th.inner(Q, int(qmap[s])))
    # stacked pairs give stacked induced pairs
    lam, rho = th.downharp(*th.inner(i2, np.arange(i2.order)), rees)
    assert np.array_equal(lam, Q.table[qmap]) and np.array_equal(rho, Q.table.T[qmap])


def test_quotient_is_built_once_per_congruence(catalog, monkeypatch):
    # a fresh copy, with a fresh congruence, so that nothing is cached on them
    S = core.validate(catalog["i2"].table)
    theta = cg.enumerate_congruences(S)[1]
    built = []
    real = cg.quotient
    monkeypatch.setattr(cg, "quotient", lambda c: built.append(c) or real(c))
    he = th.hull_of_extension(S, theta)
    assert all(th.prop35_check(he).values())
    assert mo.solves(mo.induced_triple(theta), theta)[0]
    assert built == [theta, he.omega]
    Q, qmap = theta.quotient
    assert Q is he.Q and qmap is he.qmap
    with pytest.raises(ValueError, match="read-only"):
        qmap[0] = 0


def test_downharp_rejects_torn_pair(catalog):
    z2z = catalog["z2_zero"]
    theta = cg.congruence_from_map(z2z, [0, 1, 1])
    fake = (np.array([0, 1, 0]), np.array([0, 1, 0]))
    assert not th.respects(*fake, theta)
    with pytest.raises(th.DoesNotRespect) as e:
        th.downharp(*fake, theta)
    assert e.value.witness == 2
    # in a stack, the witness is (row, element)
    with pytest.raises(th.DoesNotRespect) as e:
        th.downharp(np.array([[0, 1, 2], fake[0]]), np.array([[0, 1, 2], fake[1]]), theta)
    assert e.value.witness == (1, 2)


def test_hull_needs_every_inner_pair(catalog):
    fork = catalog["fork"]
    h = th.enumerate_hull(fork)
    keep = np.arange(h.sg.order) != h.identity
    with pytest.raises(th.HullInvalid, match="identity pair missing") as e:
        th._hull_from_pairs(fork, h.left[keep], h.right[keep])
    assert e.value.witness == fork.order          # the slot after the inner pairs
    twice = np.r_[np.arange(h.sg.order), 0]
    with pytest.raises(th.HullInvalid, match="left part fails") as e:
        th._hull_from_pairs(fork, h.left[twice], h.right[twice])


def test_extension_hull_membership(catalog):
    fork, b2, i2 = catalog["fork"], catalog["b2"], catalog["i2"]
    he = th.hull_of_extension(fork, cg.diagonal(fork))
    assert len(he.members) == 3          # the adjoined identity is not inner downstairs
    assert sorted(he.down) == [0, 1, 2]
    # the inner pair of s projects to the class of s
    assert np.array_equal(he.down[he.pi_member], he.qmap)
    he = th.hull_of_extension(b2, cg.diagonal(b2))
    assert len(he.members) == 5          # exactly the inner part
    assert sorted(he.members) == sorted(int(i) for i in he.hull.inner_of)
    rees = cg.enumerate_congruences(i2)[1]
    he = th.hull_of_extension(i2, rees)
    assert len(he.members) == 7          # the whole hull respects and lands inner
    assert sorted(len(c) for c in he.omega.classes()) == [1, 1, 5]


def test_projection_realizes_the_quotient(catalog):
    cases = [
        ("fork", cg.diagonal(catalog["fork"])),
        ("b2", cg.diagonal(catalog["b2"])),
        ("i2", cg.enumerate_congruences(catalog["i2"])[1]),
        ("z2_zero", cg.congruence_from_map(catalog["z2_zero"], [0, 1, 1])),
    ]
    for name, theta in cases:
        he = th.hull_of_extension(catalog[name], theta)
        got = th.prop35_check(he)
        assert all(got.values()), (name, got)
        assert np.array_equal(th.omega_relation_signature(he), he.omega.class_of), name


def test_shift_pairs(rsd_fixtures):
    for name, P in rsd_fixtures:
        got = th.shift_pairs_are_translations(P)
        assert all(got.values()), (name, got)
        got = th.shift_embedding_check(P)
        assert all(got.values()), (name, got)
        got = th.shift_order_and_conjugation_check(P)
        assert all(got.values()), (name, got)


def test_forward_transversal_needs_classes_within_fibers(rsd_fixtures):
    # over the diagonal congruence, a fiber of pi2 with two elements meets two classes
    label, P = next((lb, P) for lb, P in rsd_fixtures if P.sg.order > P.T.order)
    he = th.hull_of_extension(P.sg, cg.diagonal(P.sg))
    with pytest.raises(bh.TransversalInvalid, match="fiber of pi2 meets two classes"):
        bh.theorem310_forward(P, he=he)
