import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from invsem import actions as ac
from invsem import congruences as cg
from invsem import core, morphisms as mo, products as pr
from invsem.core import TooLarge


def test_lsd_meet_action_carrier(catalog):
    chain2 = catalog["chain2"]
    meet = ac.validate_action(chain2, chain2, [[0, 0], [0, 1]])
    P = pr.build_lsd(chain2, chain2, meet)
    assert P.elements.tolist() == [[0, 0], [0, 1], [1, 1]]
    assert mo.all_isomorphisms(P.sg, catalog["chain3"])


def test_rsd_group_case_is_symmetric_group(catalog):
    z3, z2 = catalog["z3"], catalog["z2"]
    invert = ac.validate_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
    eps = ac.enumerate_surjective_eps(z3, z2)[0]
    R = pr.build_rsd(z3, z2, invert, eps)
    assert R.sg.order == 6
    assert R.sg.idempotents == (0,)     # a single idempotent: it is a group
    T = R.sg.table
    assert any(T[a, b] != T[b, a] for a in range(6) for b in range(6))


def test_rsd_requires_fixed_range(catalog):
    z3, z2 = catalog["z3"], catalog["z2"]
    eps = ac.enumerate_surjective_eps(z3, z2)[0]
    bad = next(a for a in ac.enumerate_actions(z2, z3) if not ac.check_AFR(a, eps)[0])
    with pytest.raises(ac.AFRViolated):
        pr.build_rsd(z3, z2, bad, eps)


def test_kernel_formulas_agree(lsd_fixtures, rsd_fixtures, kernels):
    for name, P in lsd_fixtures:
        fibers = kernels.lsd(P)
        union = sorted(i for mem in fibers.values() for i in mem)
        assert union == sorted(kernels.via_congruence(P)), name
    for name, P in rsd_fixtures:
        fibers = kernels.rsd(P)
        union = sorted(i for mem in fibers.values() for i in mem)
        assert union == sorted(kernels.via_congruence(P)), name


def test_kernel_fibers_are_disjoint(rsd_fixtures, kernels):
    for name, P in rsd_fixtures:
        fibers = kernels.rsd(P)
        seen = [i for mem in fibers.values() for i in mem]
        assert len(seen) == len(set(seen)), name


def test_quotient_by_second_projection(rsd_fixtures):
    for name, P in rsd_fixtures[:4]:
        Q, _ = cg.quotient(P.pi2_congruence)
        assert mo.all_isomorphisms(Q, P.T), name


def test_pi2_congruence_is_built_once_per_product(rsd_fixtures, monkeypatch):
    """The Thm 3.10 round trip, Prop 4.1's power and Lemma 3.6's shift pairs
    read one congruence of pi2, so S/theta is built once a product: each of
    them built its own before."""
    from invsem import cli, trhull
    calls = []
    quotient = cg.quotient
    monkeypatch.setattr(cg, "quotient", lambda theta: calls.append(theta) or quotient(theta))
    for name, P in rsd_fixtures:
        P = replace(P)              # a copy with nothing cached on it
        theta = P.pi2_congruence
        assert theta is P.pi2_congruence
        assert np.array_equal(theta.class_of, cg.congruence_from_map(P.sg, P.pi2.map).class_of)
        del calls[:]
        assert cli._round_trip(P) and cli._fiber_compatible_power_closed(P)
        assert all(trhull.shift_pairs_are_translations(P).values())
        assert calls == [theta], name


def test_unrestricted_rebuilds_as_restricted(lsd_fixtures):
    for name, P in lsd_fixtures:
        psi, rsd, ka = pr.psi_lemma21(P)
        pos = {p: j for j, p in enumerate(map(tuple, ka.pairs.tolist()))}
        for i, (a, t) in enumerate(P.elements.tolist()):
            j = pos[(a, int(P.T.rans[t]))]
            assert rsd.elements[int(psi.map[i])].tolist() == [j, t], name


class PFunContext:
    """The oracle for build_pkt, one map at a time: a map is a pair
    (e, values) of an idempotent e and its values on the ideal Te."""

    def __init__(self, K, T):
        self.K = K
        self.T = T
        self.ideals = {e: tuple(sorted({int(x) for x in T.table[:, e]})) for e in T.idempotents}
        self.pos = {e: {x: i for i, x in enumerate(ideal)} for e, ideal in self.ideals.items()}

    def apply(self, al, x):
        e, values = al
        return values[self.pos[e][int(x)]]

    def oplus(self, al, be):
        """Pointwise product on the intersection of the two ideals."""
        e = int(self.T.table[al[0], be[0]])
        return e, tuple(int(self.K.table[self.apply(al, x), self.apply(be, x)])
                        for x in self.ideals[e])

    def act(self, t, al):
        """Precompose with right multiplication by t; the ideal moves to ran(t e)."""
        Tt = self.T.table
        e2 = int(self.T.rans[Tt[t, al[0]]])
        return e2, tuple(self.apply(al, Tt[x, t]) for x in self.ideals[e2])

    def inv(self, al):
        return al[0], tuple(int(self.K.inv[v]) for v in al[1])


def _decoded(pkt):
    """Each element of the power as (e, values on Te), in element order."""
    return [(e, tuple(row)) for e in pkt.blocks for row in pkt.values[e].tolist()]


def test_pfun_objectwise_laws(catalog):
    assert pr.build_pkt(catalog["z2"], catalog["chain2"]).blocks == {0: (0, 2), 1: (2, 4)}
    for kn, tn in [("z2", "chain2"), ("chain2", "chain3"), ("z2", "z2_zero")]:
        K, T = catalog[kn], catalog[tn]
        pkt = pr.build_pkt(K, T)
        ctx = PFunContext(K, T)
        assert {e: tuple(x.tolist()) for e, x in pkt.ideals.items()} == ctx.ideals
        # the default fibers give every map Te -> K, in lexicographic order
        elements = _decoded(pkt)
        assert elements == [(e, v) for e in sorted(T.idempotents)
                            for v in itertools.product(range(K.order), repeat=len(ctx.ideals[e]))]
        assert pkt.eps.map.tolist() == [e for e, _ in elements]
        index = {al: i for i, al in enumerate(elements)}
        for e, (off, count) in pkt.blocks.items():
            assert pkt.encode(e, pkt.values[e]).tolist() == list(range(off, off + count))
        # extend gives each map the value at x of x e; locate finds it again
        p = np.arange(pkt.sg.order)
        total = pkt.extend(p)
        assert total.tolist() == [[dict(zip(ctx.ideals[e], v))[int(T.table[x, e])]
                                   for x in range(T.order)] for e, v in elements]
        assert pkt.locate(pkt.eps.map, total).tolist() == p.tolist()
        for i, al in enumerate(elements):
            assert index[ctx.inv(al)] == pkt.sg.inv[i]
            for j, be in enumerate(elements):
                assert index[ctx.oplus(al, be)] == pkt.sg.table[i, j]
            for t in range(T.order):
                assert index[ctx.act(t, al)] == pkt.action.act[t, i]


def test_pkt_satisfies_fixed_range(catalog):
    for kn, tn in [("z2", "chain2"), ("chain2", "chain3"), ("z2", "z2_zero")]:
        pkt = pr.build_pkt(catalog[kn], catalog[tn])
        assert ac.check_AFR(pkt.action, pkt.eps)[0]


def test_hwr_orders(catalog, kernels):
    cases = [("z2", "chain2", 6), ("z2", "z2", 8), ("chain2", "chain3", 14)]
    for kn, tn, expect in cases:
        K, T = catalog[kn], catalog[tn]
        assert pr.wreath_order(K, T) == expect
        hw = pr.build_hwr(K, T)
        assert hw.sg.order == expect
        # group base: the single fiber is the whole power
        if len(T.idempotents) == 1:
            fibers = kernels.rsd(hw.rsd)
            (mem,) = fibers.values()
            assert len(mem) == K.order ** T.order


def test_encode_names_the_first_value_outside_its_fiber(catalog):
    """The witness is the first bad cell in row-major order over (operands,
    point): row 1's second point, not row 2's first."""
    pkt = pr.build_pkt(catalog["chain2"], catalog["chain2"], [np.array([0]), np.array([1])])
    assert pkt.rank.dtype == np.int8
    assert pkt.encode(1, np.array([[0, 1]])).tolist() == [1]
    with pytest.raises(pr.ProductInvalid) as e:
        pkt.encode(1, np.array([[0, 1], [0, 0], [1, 1]]))
    assert e.value.witness == {"operands": (1,), "point": 1, "value": 0}


def test_hwr_build_of_order_780_stays_under_24_MiB(catalog, peak_traced):
    # the int64 intermediates peaked at 56.1 MiB: the action-law check alone
    # held two (4, 780, 780) int64 arrays
    built = []
    assert peak_traced(lambda: built.append(pr.build_hwr(catalog["b2"], catalog["chain4"]))) \
        < 24 * 2**20
    (hw,) = built
    assert hw.sg.order == hw.pkt.sg.order == 780
    assert hw.sg.table.dtype == hw.pkt.sg.table.dtype == hw.pkt.action.act.dtype == np.int64


def test_total_and_ideal_forms_are_isomorphic(catalog):
    for kn, tn in [("z2", "chain2"), ("z2_zero", "chain2"), ("chain2", "chain2")]:
        K, T = catalog[kn], catalog[tn]
        lwr = pr.build_lwr(K, T)
        hwr = pr.build_hwr(K, T)
        psi = pr.Psi_remark(lwr, hwr)
        phi = pr.hbar_inverse(lwr, hwr)
        assert (psi.map[phi.map] == np.arange(len(hwr.elements))).all()
        assert (phi.map[psi.map] == np.arange(len(lwr.elements))).all()


ORACLE_CAP = 400     # the filter route builds the whole power; keep it small


def _p_eta_by_filter(eta):
    """The route P_eta was once built by: the whole pointwise power, then
    the maps sending each x into the kernel fiber over ran(x), re-indexed."""
    T = eta.T
    with mock.patch.object(pr, "WREATH_CAP", ORACLE_CAP):
        pkt = pr.build_pkt(eta.K, T)
    allowed = T.rans[:, None] == eta.map[None, :]     # [x, a]
    members = [i for i, (e, values) in enumerate(_decoded(pkt))
               if all(allowed[x, v] for x, v in zip(pkt.ideals[e].tolist(), values))]
    sub, pelems = core.subsemigroup(pkt.sg, members)
    pos = {int(p): i for i, p in enumerate(pelems)}
    act = np.vectorize(pos.__getitem__, otypes=[np.int64])(pkt.action.act[:, pelems])
    return pkt, pelems, sub, act


def _extension_problems(catalog, rsd_fixtures):
    for name, S in catalog.items():
        for i, th in enumerate(cg.enumerate_congruences(S)):
            yield f"{name}#cong{i}", mo.induced_triple(th)
    for label, P in rsd_fixtures:
        yield label, mo.induced_triple(P.pi2_congruence)


def test_range_compatible_power(catalog, rsd_fixtures):
    compared = 0
    for label, eta in _extension_problems(catalog, rsd_fixtures):
        T = eta.T
        peta = pr.build_p_eta(eta)
        # over e it is the direct product of the kernel classes over ran(x), x in Te
        fiber = np.bincount(eta.map, minlength=T.order)
        assert peta.sg.order == sum(math.prod(int(fiber[T.rans[x]]) for x in peta.ideals[e])
                                    for e in T.idempotents), label
        try:
            pkt, pelems, sub, act = _p_eta_by_filter(eta)
        except TooLarge:
            continue
        whole = _decoded(pkt)
        assert _decoded(peta) == [whole[p] for p in pelems], label
        assert np.array_equal(peta.sg.table, sub.table), label
        assert np.array_equal(peta.sg.inv, sub.inv), label
        assert peta.sg.idempotents == sub.idempotents, label
        assert np.array_equal(peta.action.act, act), label
        assert np.array_equal(peta.eps.map, pkt.eps.map[pelems]), label
        if sub.names is not None:
            assert peta.sg.names == sub.names, label
        compared += 1
    # all 57 but i2's identity congruence, whose whole power has order 16,516
    assert compared == 56


def test_eta_wreath_labels(catalog):
    cf, chain2 = catalog["clifford4"], catalog["chain2"]
    hwe = pr.build_hwr_eta(ac.validate_eps(cf, chain2, [0, 1, 0, 1]))
    assert hwe.sg.order == 6 and hwe.pkt.sg.order == 6
    # the whole power over chain3 has order 6 + 36 + 216 > NAME_CAP; P_eta has 14
    K, T = core.direct_product(catalog["z2"], catalog["chain3"]), catalog["chain3"]
    hwe = pr.build_hwr_eta(ac.validate_eps(K, T, np.arange(K.order) % 3))
    assert hwe.pkt.sg.order == 14 and hwe.sg.order == 14
    assert hwe.sg.names[:4] == ("({0>(1,0)}|0)", "({0>(g,0)}|0)",
                                "({0>(1,0),1>(1,1)}|1)", "({0>(1,0),1>(g,1)}|1)")


_OUTSIDE_FIBERS = """
from dataclasses import replace
import numpy as np
from invsem import actions, fixtures, products
cat = fixtures.catalog()
z2, trivial = cat["z2"], cat["trivial"]
fake = replace(z2, inv=np.array([0, 0]))
for build in (lambda: products.build_pkt(z2, trivial, [np.array([1])]),
              lambda: products._build_pair_product(
                  z2, trivial, actions.validate_action(trivial, z2, [[0, 1]]),
                  None, np.array([[False], [True]])),
              lambda: products.build_lwr(fake, trivial),
              lambda: products.build_lsd(
                  trivial, trivial, actions.validate_action(trivial, z2, [[0, 1]]))):
    try:
        build()
    except products.ProductInvalid as exc:
        print(exc.witness, exc)
"""


def test_verdicts_survive_python_O(catalog):
    z2, trivial = catalog["z2"], catalog["trivial"]
    # g.g = 1 leaves the fiber {g}, and the carrier {(g, e)}
    with pytest.raises(pr.ProductInvalid, match="product value outside its fiber") as e1:
        pr.build_pkt(z2, trivial, [np.array([1])])
    assert e1.value.witness == {"operands": (0, 0), "point": 0, "value": 0}
    with pytest.raises(pr.ProductInvalid, match="carrier not closed") as e2:
        pr._build_pair_product(z2, trivial, ac.validate_action(trivial, z2, [[0, 1]]),
                               None, np.array([[False], [True]]))
    assert e2.value.witness == ((1, 0), (1, 0))
    # Z2 built by hand with the inverse of g given as 1: the power's inverse
    # map disagrees with core.validate's at g
    fake = replace(z2, inv=np.array([0, 0]))
    with pytest.raises(pr.ProductInvalid, match="power inverse differs") as e3:
        pr.build_lwr(fake, trivial)
    assert e3.value.witness == (1,)
    # an action on Z2 handed over as an action on the trivial semigroup
    with pytest.raises(pr.ProductInvalid, match="action is over another K") as e4:
        pr.build_lsd(trivial, trivial, ac.validate_action(trivial, z2, [[0, 1]]))
    assert e4.value.witness == "action.K"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _OUTSIDE_FIBERS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "".join(f"{e.value.witness} {e.value}\n" for e in (e1, e2, e3, e4))


def reduce_first_factor(K, T, action):
    """Shrink K to the union of the idempotent images; the action restricts."""
    act = action.act
    Ksub, kelems = core.subsemigroup(K, np.unique(act[list(T.idempotents)]))
    pos = np.full(K.order, -1, dtype=np.int64)
    pos[kelems] = np.arange(len(kelems))
    # no (t, a) with a in the union and t.a outside it
    assert not ((pos[act] < 0) & (pos >= 0)).any()
    return Ksub, kelems, ac.validate_action(T, Ksub, pos[act[:, kelems]])


def test_reduce_first_factor(catalog):
    z3, z2 = catalog["z3"], catalog["z2"]
    const = ac.validate_action(z2, z3, [[0, 0, 0], [0, 0, 0]])
    Ksub, kelems, sub = reduce_first_factor(z3, z2, const)
    assert Ksub.order == 1 and list(kelems) == [0]
    assert sub.act.shape == (2, 1)


def test_size_caps(catalog):
    with pytest.raises(TooLarge) as e:
        pr.build_pkt(catalog["b2"], catalog["i2"])
    assert e.value.bound == pr.WREATH_CAP
    with pytest.raises(TooLarge) as e:
        pr.build_lwr(catalog["i2"], catalog["i2"])
    assert e.value.bound == pr.WREATH_CAP


def test_eta_wreath_shares_the_wreath_cap(catalog, monkeypatch):
    # P_eta of the constant eta has order 2^3 = 8; the wreath over it, 3 * 8
    eta = ac.validate_eps(catalog["chain2"], catalog["z3"], [0, 0])
    assert pr.build_p_eta(eta).sg.order == 8
    assert pr.wreath_order(eta.K, eta.T, pr._eta_fibers(eta)) == 24
    monkeypatch.setattr(pr, "WREATH_CAP", 8)
    with pytest.raises(TooLarge) as e:
        pr.build_hwr_eta(eta)
    assert (e.value.what, e.value.size, e.value.bound) == ("wreath order", 24, 8)
    with pytest.raises(TooLarge) as e:
        pr.build_hwr(eta.K, eta.T)
    assert (e.value.what, e.value.size, e.value.bound) == ("wreath order", 24, 8)
