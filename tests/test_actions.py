from itertools import product

import numpy as np
import pytest

from invsem import actions as ac
from invsem import core, morphisms
from invsem.cli import _eps_decomposition
from invsem.core import TooLarge
from invsem.fixtures import afr_sweep


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
    with pytest.raises(ValueError):
        ac.validate_eps(fork, i2, [0, 0, 5])  # 5 is not idempotent
    with pytest.raises(morphisms.NotMultiplicative):
        ac.validate_eps(fork, chain2, [0, 1, 1])
    from invsem.congruences import NotSurjective
    with pytest.raises(NotSurjective):
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
        # fibers partition K
        total = sum(len(c) for c in ssl.classes.values())
        assert total == action.K.order


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


def test_induced_kernel_action(rsd_fixtures):
    for name, P in rsd_fixtures:
        ka = ac.induced_kernel_action(P)
        assert ac.check_AFR(ka.action, ka.eps)[0], name
        # the pairs are exactly the product elements in kernel positions
        for j, idx in enumerate(ka.product_indices):
            assert P.elements[int(idx)] == ka.pairs[j]
        assert np.array_equal(ka.eps.map, np.array([e for (_, e) in ka.pairs]))
