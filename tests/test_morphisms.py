from itertools import permutations

import numpy as np
import pytest

from invsem import congruences as cg
from invsem import core, morphisms as mo
from invsem.core import TooLarge, validate


def test_homomorphism_validation(catalog):
    chain2, z2 = catalog["chain2"], catalog["z2"]
    with pytest.raises(mo.NotMultiplicative) as e:
        mo.is_homomorphism([0, 1], chain2, z2)
    assert e.value.witness == (0, 1)
    with pytest.raises(ValueError):
        mo.is_homomorphism([0], chain2, z2)
    with pytest.raises(ValueError):
        mo.is_homomorphism([0, 5], chain2, z2)
    m = mo.is_homomorphism([0, 0], chain2, z2)
    assert not m.injective and not m.surjective and m(1) == 0


def test_identity_morphism(catalog):
    m = mo.identity_morphism(catalog["b2"])
    assert m.bijective and m(3) == 3


def test_iso_search_positive(catalog):
    for name in ["chain3", "fork", "z3", "clifford4", "b2", "i2"]:
        S = catalog[name]
        m = mo.isomorphism_search(S, S)
        assert m is not None and m.bijective
    # a relabeled copy is found and the map transports the table
    z3 = catalog["z3"]
    perm = np.array([1, 2, 0])
    inv_perm = np.argsort(perm)
    copy = validate(perm[z3.table[np.ix_(inv_perm, inv_perm)]])
    m = mo.isomorphism_search(z3, copy)
    f = m.map
    assert (f[z3.table] == copy.table[f[:, None], f[None, :]]).all()


def test_iso_search_negative(catalog):
    pairs = [("z2", "chain2"), ("z3", "chain3"), ("fork", "chain3"),
             ("square4", "clifford4"), ("chain4", "square4")]
    for a, b in pairs:
        assert mo.isomorphism_search(catalog[a], catalog[b]) is None


def test_chain2_is_degree1_monoid(catalog):
    m = mo.isomorphism_search(catalog["chain2"], catalog["i1"])
    assert m is not None


def test_automorphism_counts(catalog):
    expect = {"trivial": 1, "z2": 1, "z3": 2, "chain3": 1,
              "square4": 2, "b2": 2, "i2": 2}
    for name, k in expect.items():
        S = catalog[name]
        assert len(mo.all_isomorphisms(S, S)) == k, name


def test_all_isomorphisms_match_permutation_filter(catalog):
    for a, S in catalog.items():
        for b, S2 in catalog.items():
            if S.order != S2.order:
                continue
            brute = set()
            for p in permutations(range(S.order)):
                f = np.array(p)
                if (f[S.table] == S2.table[f[:, None], f[None, :]]).all():
                    brute.add(p)
            found = {tuple(m.tolist()) for m in mo.all_isomorphisms(S, S2)}
            assert found == brute, (a, b)


def test_iso_bound(catalog):
    big = core.direct_product(catalog["square4"], catalog["square4"])
    with pytest.raises(TooLarge):
        mo.isomorphism_search(big, big)


def test_induced_triple_and_solves(catalog):
    i2 = catalog["i2"]
    rees = cg.enumerate_congruences(i2)[1]
    sol = mo.ExtensionSolution(i2, rees)
    triple = sol.induced_triple
    assert triple.K.order == 6 and triple.T.order == 3
    ok, wit = mo.solves(triple, sol)
    assert ok
    beta, chi = wit["beta"], wit["chi"]
    # re-check the witness by hand
    Q, qmap = sol.quotient
    Ksub, kelems = sol.kernel_sub
    assert (beta[triple.eta_in_t] == qmap[kelems][chi]).all()
    assert mo.is_homomorphism(beta, triple.T, Q).bijective
    assert mo.is_homomorphism(chi, triple.K, Ksub).bijective


def test_solves_rejections(catalog, monkeypatch):
    i2 = catalog["i2"]
    rees = cg.enumerate_congruences(i2)[1]
    triple = mo.ExtensionSolution(i2, rees).induced_triple
    bad = mo.ExtensionSolution(catalog["z2_zero"], cg.diagonal(catalog["z2_zero"]))
    ok, wit = mo.solves(triple, bad)
    assert not ok and wit == "kernel-order-mismatch"
    smaller = mo.ExtensionSolution(catalog["chain2"], cg.diagonal(catalog["chain2"]))
    ok, wit = mo.solves(triple, smaller)
    assert not ok and wit == "quotient-order-mismatch"
    monkeypatch.setattr(mo, "SOLUTION_BOUND", 2)
    with pytest.raises(TooLarge):
        mo.solves(triple, mo.ExtensionSolution(i2, rees))


def test_make_triple_errors(catalog):
    chain2, i2 = catalog["chain2"], catalog["i2"]
    with pytest.raises(ValueError):
        mo.make_triple(chain2, i2, [0, 5])  # 5 is not idempotent in the codomain
    with pytest.raises(cg.NotSurjective):
        mo.make_triple(chain2, i2, [0, 0])


def test_solution_embedding(catalog):
    chain2, chain3 = catalog["chain2"], catalog["chain3"]
    s1 = mo.ExtensionSolution(chain2, cg.diagonal(chain2))
    s3 = mo.ExtensionSolution(chain3, cg.diagonal(chain3))
    assert mo.solution_embedding([0, 1], s1, s3)
    assert not mo.solution_embedding([0, 1], s1, s3, iso=True)
    assert mo.solution_embedding([0, 1], s1, s1, iso=True)
    # relatedness must be reflected, not just preserved
    s3u = mo.ExtensionSolution(chain3, cg.universal(chain3))
    assert not mo.solution_embedding([0, 1], s1, s3u)
    with pytest.raises(mo.NotInjective) as e:
        mo.solution_embedding([0, 0], s1, s1)
    assert e.value.witness == (0, 1)
