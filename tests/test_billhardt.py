import dataclasses
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from invsem import billhardt as bh, cli, core
from invsem import congruences as cg
from invsem import morphisms as mo, products as pr, trhull as th
from invsem.core import TooLarge
from invsem.fixtures import sweep_names


def chosen_are_dominant_reps(tr):
    """Restated dominance: each chosen pair is a dom-maximum of its fiber
    inside the generated part."""
    he = tr.he
    leq = he.sg.leq
    doms = he.sg.doms
    return all(leq[doms[w], doms[tr.xi[int(he.down[w])]]] for w in bh.sbar_members(tr))


def _xis(transversals):
    return [tr.xi.tolist() for tr in transversals]


def test_transversal_existence_at_order_5(catalog):
    """Exactly one pair below order 6 has no valid choice: the square
    semilattice with both atoms collapsed into the zero class."""
    missing = []
    for name in sweep_names(5):
        S = catalog[name]
        for theta in cg.enumerate_congruences(S):
            he = th.hull_of_extension(S, theta)
            tr = bh.find_transversal(S, theta, he=he)
            if tr is None:
                missing.append((name, tuple(int(x) for x in theta.class_of)))
            else:
                assert tr.record["B1"] and tr.record["B2"]
    assert missing == [("square4", (0, 0, 0, 1))]


def test_brandt_universal_is_almost_but_not_classical(catalog):
    """An order-5 instance admitting a transversal whose every valid choice
    uses an outer pair, so the inner-valued (classical) form is impossible."""
    b2 = catalog["b2"]
    univ = cg.universal(b2)
    plain = list(bh.enumerate_transversals(b2, univ))
    split = list(bh.enumerate_transversals(b2, univ, want_split=True))
    assert len(plain) == 2 and len(split) == 1
    assert _xis(split) == _xis(tr for tr in plain if bh.xi_multiplicative(tr)[0])
    assert all(bh.classify_classical(tr) == "neither" for tr in plain + split)
    ok, reps = bh.classical_billhardt_on(b2, univ)
    assert not ok and reps is None
    # intrinsic reason: no element's domain dominates every domain
    assert bh.dominant_rep_candidates(b2, univ) == [[]]


def test_fork_universal_needs_the_adjoined_identity(catalog):
    fork = catalog["fork"]
    univ = cg.universal(fork)
    plain = list(bh.enumerate_transversals(fork, univ))
    assert len(plain) == 1 and bh.classify_classical(plain[0]) == "neither"
    split = list(bh.enumerate_transversals(fork, univ, want_split=True))
    assert _xis(split) == _xis(tr for tr in plain if bh.xi_multiplicative(tr)[0])
    he = plain[0].he
    xi_left = he.hull.left[he.members[plain[0].xi[0]]]
    assert (xi_left == np.arange(3)).all()          # it is the identity pair
    assert not bh.classical_billhardt_on(fork, univ)[0]


def test_rees_extension_of_degree2_monoid_has_none(catalog):
    """Collapsing the rank<=1 ideal of the order-7 monoid leaves no valid
    choice at all: no member over the big class has a dominating domain."""
    i2 = catalog["i2"]
    rees = cg.enumerate_congruences(i2)[1]
    assert bh.find_transversal(i2, rees) is None
    assert bh.find_transversal(i2, rees, want_split=True) is None
    assert not bh.classical_billhardt_on(i2, rees)[0]
    out = bh.prop39_check(i2, rees)
    assert out["plain"] == (False, False) and out["plain_equivalent"]
    assert out["split"] == (False, False) and out["split_equivalent"]


def test_inner_valued_cases_are_classical(catalog):
    cases = [
        ("b2", cg.diagonal(catalog["b2"])),
        ("clifford4", cg.congruence_from_map(catalog["clifford4"], [0, 1, 0, 1])),
        ("z2_zero", cg.congruence_from_map(catalog["z2_zero"], [0, 1, 1])),
    ]
    for name, theta in cases:
        S = catalog[name]
        tr = bh.find_transversal(S, theta, want_split=True)
        assert bh.classify_classical(tr) == "split-billhardt", name
        ok, reps = bh.classical_billhardt_on(S, theta, want_split=True)
        assert ok
        # the representative system is multiplicatively closed
        for a in reps:
            for b in reps:
                assert int(S.table[a, b]) in reps, name
        got = bh.split_closure_check(tr)
        assert all(got.values()), name
        assert chosen_are_dominant_reps(tr), name


def test_validate_rejections(catalog):
    b2 = catalog["b2"]
    univ = cg.universal(b2)
    he = th.hull_of_extension(b2, univ)
    # a non-idempotent choice cannot be multiplicative over the point quotient;
    # a transversal is checked where it is made
    pos_a12 = int(he.pi_member[2])
    with pytest.raises(bh.TransversalInvalid) as e:
        bh.Transversal(he, np.array([pos_a12]), True)
    assert e.value.reason == "not-multiplicative"
    # an inner zero pair fails dominance
    pos_zero = int(he.pi_member[0])
    with pytest.raises(bh.TransversalInvalid) as e:
        bh.Transversal(he, np.array([pos_zero]), False)
    assert e.value.reason == "dominance-failure"
    assert e.value.witness == (0, 1)    # (class, least generated pair it fails to dominate)
    # wrong fiber
    i2 = catalog["i2"]
    rees = cg.enumerate_congruences(i2)[1]
    he2 = th.hull_of_extension(i2, rees)
    xi = np.array([0, 0, 0])
    with pytest.raises(bh.TransversalInvalid) as e:
        bh.Transversal(he2, xi, False)
    assert e.value.reason == "induced-pair-mismatch"


def test_transversals_are_checked_once_where_made(catalog, monkeypatch):
    """validate_transversal runs once per Transversal constructed, and the
    rebuilds of Thm 3.10 and Thm 4.2 trust the record: on b2's diagonal they
    ran it again, three times in all per transversal."""
    checked = []
    check = bh.validate_transversal
    monkeypatch.setattr(bh, "validate_transversal", lambda tr: checked.append(tr) or check(tr))
    b2 = catalog["b2"]
    diag = cg.diagonal(b2)
    made = []
    init = bh.Transversal.__init__

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(bh.Transversal, "__init__", counting_init)
    tr = bh.find_transversal(b2, diag, want_split=True)
    assert checked == made and tr in made
    del checked[:]
    bh.theorem310_backward(b2, diag, tr)
    bh.thm42_embedding(b2, diag, tr)
    assert checked == []
    assert tr.record == {"B1": True, "B2": True, "multiplicative": True, "sB2": True}
    again = bh.Transversal(tr.he, tr.xi, True)
    assert checked == [again] and again.record == tr.record


def test_thm42_embedding_builds_no_idempotent_semilattice(catalog, monkeypatch):
    # the extension problem is the eps map Ker theta ->> E(S/theta) itself
    def refuse(self):
        raise AssertionError("thm42_embedding built E(T)")

    b2 = catalog["b2"]
    for theta in (cg.diagonal(b2), cg.universal(b2)):
        tr = bh.find_transversal(b2, theta)
        with monkeypatch.context() as m:
            m.setattr(core.InverseSemigroup, "semilattice", property(refuse))
            assert bh.thm42_embedding(b2, theta, tr).psi.injective


def test_search_cap(catalog, monkeypatch):
    b2 = catalog["b2"]
    monkeypatch.setattr(bh, "SEARCH_CAP", 1)
    with pytest.raises(TooLarge):
        list(bh.enumerate_transversals(b2, cg.universal(b2)))


def test_roundtrip_on_restricted_products(rsd_fixtures):
    for name, P in rsd_fixtures:
        theta = cg.congruence_from_map(P.sg, P.pi2.map)
        tr = bh.theorem310_forward(P)
        assert tr.split
        prod, phi = bh.theorem310_backward(P.sg, theta, tr)
        assert prod.sg.order == P.sg.order and phi.bijective, name


def test_backward_requires_multiplicative(catalog):
    b2 = catalog["b2"]
    univ = cg.universal(b2)
    plain = [tr for tr in bh.enumerate_transversals(b2, univ) if not tr.split]
    with pytest.raises(bh.NotSplit):
        bh.theorem310_backward(b2, univ, plain[0])


def test_recovery_identity(catalog):
    b2 = catalog["b2"]
    tr = bh.find_transversal(b2, cg.diagonal(b2), want_split=True)
    s = np.arange(5)
    assert bh.recovery_identity_holds(tr, s).tolist() == [True] * 5
    # the printed formula, xi(u)^-1 f_u xi(t)^-1, reverses the final factor:
    # it breaks recovery on the non-idempotents
    he = tr.he
    tab, inv = he.sg.table, he.sg.inv
    t = he.qmap[s]
    u = he.Q.rans[t]
    f_u = bh._transversal_conjugate(tr, u, s, he.Q.table[u, t])
    printed = tab[tab[inv[tr.xi[u]], f_u], inv[tr.xi[t]]] == he.pi_member[s]
    assert printed.tolist() == [True, True, False, False, True]


def _ideal_values(emb):
    """(s, x, value of psi(s)'s map at x) over the ideal of each psi(s)."""
    pkt = emb.hwr_eta.pkt
    out = []
    for s, (p, _) in enumerate(emb.hwr_eta.elements[emb.psi.map].tolist()):
        e = int(pkt.eps.map[p])
        values = pkt.values[e][p - pkt.blocks[e][0]]
        out += [(s, int(x), int(v)) for x, v in zip(pkt.ideals[e], values)]
    return out


def test_wreath_embedding(catalog):
    b2 = catalog["b2"]
    diag = cg.diagonal(b2)
    tr = bh.find_transversal(b2, diag, want_split=True)
    emb = bh.thm42_embedding(b2, diag, tr)
    K, Q = emb.hwr_eta.K, emb.hwr_eta.T
    assert K.order == 3 and Q.order == 5
    assert emb.hwr_eta.sg.order == 5
    assert emb.psi.injective and bh.total_map_route_agrees(b2, diag, tr, emb)
    cells = _ideal_values(emb)
    assert len(cells) == 13
    # each value lies in the kernel class over the range of its argument
    kelems = sorted(cg.kernel(diag))
    for s, x, v in cells:
        assert int(tr.he.qmap[kelems[v]]) == int(Q.rans[x])


def test_thm42_embedding_builds_only_hwr_eta(catalog, monkeypatch):
    # the plain and lambda wreaths belong to the total-map route alone
    def refuse(*args):
        raise AssertionError("thm42_embedding built a total-map wreath")

    for name in ("build_hwr", "build_lwr", "Psi_remark"):
        monkeypatch.setattr(pr, name, refuse)
    cases = [("b2", cg.diagonal), ("b2", cg.universal), ("chain3", cg.universal),
             ("fork", lambda S: cg.congruence_from_map(S, [0, 1, 0]))]
    for name, theta_of in cases:
        S = catalog[name]
        theta = theta_of(S)
        tr = bh.find_transversal(S, theta)
        assert bh.thm42_embedding(S, theta, tr).psi.injective


def test_total_map_route_can_fail(catalog, monkeypatch):
    b2 = catalog["b2"]
    diag = cg.diagonal(b2)
    tr = bh.find_transversal(b2, diag)
    emb = bh.thm42_embedding(b2, diag, tr)
    psi = dataclasses.replace(emb.psi, map=np.roll(emb.psi.map, 1))
    rolled = dataclasses.replace(emb, psi=psi)
    assert bh.total_map_route_agrees(b2, diag, tr, emb)
    assert not bh.total_map_route_agrees(b2, diag, tr, rolled)
    monkeypatch.setattr(bh, "thm42_embedding", lambda *args: rolled)
    assert cli._wreath_embedding((b2, diag)) == (False, "route-divergence")


_MISPLACED_PAIRS = """
import dataclasses
import numpy as np
from invsem import billhardt, congruences, fixtures
b2 = fixtures.catalog()["b2"]
diag = congruences.diagonal(b2)
tr = billhardt.find_transversal(b2, diag, want_split=True)
he = dataclasses.replace(tr.he, members=np.roll(tr.he.members, 1))
for rebuild in (billhardt.theorem310_backward, billhardt.thm42_embedding):
    try:
        rebuild(b2, diag, billhardt.Transversal(he, tr.xi, True))
    except billhardt.TransversalInvalid as exc:
        print(exc.witness, exc)
"""


def test_rebuild_verdicts_survive_python_O(catalog):
    # rolling the member positions hands each member the pair of its
    # neighbour: the transversal axioms, read off the hull table, still
    # hold, but the pairs no longer translate as their table entries do
    b2 = catalog["b2"]
    diag = cg.diagonal(b2)
    tr = bh.find_transversal(b2, diag, want_split=True)
    he = dataclasses.replace(tr.he, members=np.roll(tr.he.members, 1))
    bad = bh.Transversal(he, tr.xi, True)
    with pytest.raises(bh.TransversalInvalid, match="conjugation differs") as e1:
        bh.theorem310_backward(b2, diag, bad)
    assert e1.value.witness == (1, 1)
    with pytest.raises(bh.TransversalInvalid, match="one-sided application orders") as e2:
        bh.thm42_embedding(b2, diag, bad)
    assert e2.value.witness == (1, 1)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _MISPLACED_PAIRS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "".join(f"{e.value.witness} {e.value}\n" for e in (e1, e2))


def test_round_trip_survives_python_O():
    # the forward map labels each fiber of pi2 by its quotient class outside any assert
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-m", "invsem", "verify", "thm-3.10"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "ok (11/11 checks" in out.stdout


def test_rebuild_refuses_another_extension(catalog):
    b2 = catalog["b2"]
    diag, univ = cg.diagonal(b2), cg.universal(b2)
    tr = bh.find_transversal(b2, diag, want_split=True)
    for rebuild in (bh.theorem310_backward, bh.thm42_embedding):
        with pytest.raises(bh.TransversalInvalid, match="over another extension") as e:
            rebuild(b2, univ, tr)
        assert e.value.witness == "theta"


def test_wreath_embedding_point_quotient(catalog):
    # collapsing everything embeds the semigroup into its own one-point power
    b2 = catalog["b2"]
    univ = cg.universal(b2)
    tr = bh.find_transversal(b2, univ, want_split=True)
    emb = bh.thm42_embedding(b2, univ, tr)
    assert emb.hwr_eta.sg.order == 5
    assert emb.psi.injective and bh.total_map_route_agrees(b2, univ, tr, emb)
    assert mo.all_isomorphisms(emb.hwr_eta.sg, b2)


def test_embedding_without_split(catalog):
    # the wreath embedding needs only the dominance axioms, not multiplicativity
    b2 = catalog["b2"]
    univ = cg.universal(b2)
    plain = [tr for tr in bh.enumerate_transversals(b2, univ) if not tr.split]
    emb = bh.thm42_embedding(b2, univ, plain[0])
    assert emb.psi.injective


def test_prop39_positive_cases(catalog):
    cases = [
        ("b2", cg.universal(catalog["b2"])),
        ("fork", cg.universal(catalog["fork"])),
        ("z2_zero", cg.congruence_from_map(catalog["z2_zero"], [0, 1, 1])),
        ("clifford4", cg.congruence_from_map(catalog["clifford4"], [0, 1, 0, 1])),
    ]
    for name, theta in cases:
        out = bh.prop39_check(catalog[name], theta)
        assert out["plain_equivalent"] and out["split_equivalent"], name
        assert out["plain"] == (True, True), name


def test_closure_memo_dies_with_its_hull(catalog):
    S = catalog["b2"]
    theta = cg.universal(S)
    he = th.hull_of_extension(S, theta)
    assert bh.find_transversal(S, theta, he=he) is not None
    assert he in bh._SBAR
    gone = weakref.ref(he)
    del he
    gc.collect()
    assert gone() is None
    # the thm-4.2 sweep leaves no hull in the memo behind it
    before = len(bh._SBAR)
    cli.verify("thm-4.2", max_order=4)
    gc.collect()
    assert len(bh._SBAR) == before
