import random
from itertools import permutations

import numpy as np
import pytest

from invsem import actions as ac
from invsem import billhardt as bh
from invsem import congruences as cg
from invsem import core, fixtures, morphisms as mo
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


def identity_morphism(S):
    return mo.Morphism(S, S, np.arange(S.order), True, True)


def test_identity_morphism(catalog):
    m = identity_morphism(catalog["b2"])
    assert m.bijective and m(3) == 3


def test_iso_search_positive(catalog):
    for name in ["chain3", "fork", "z3", "clifford4", "b2", "i2"]:
        S = catalog[name]
        m = mo.all_isomorphisms(S, S)[0]
        assert mo.is_homomorphism(m, S, S).bijective
    # a relabeled copy is found and the map transports the table
    z3 = catalog["z3"]
    perm = np.array([1, 2, 0])
    inv_perm = np.argsort(perm)
    copy = validate(perm[z3.table[np.ix_(inv_perm, inv_perm)]])
    f = mo.all_isomorphisms(z3, copy)[0]
    assert (f[z3.table] == copy.table[f[:, None], f[None, :]]).all()


def test_iso_search_negative(catalog):
    pairs = [("z2", "chain2"), ("z3", "chain3"), ("fork", "chain3"),
             ("square4", "clifford4"), ("chain4", "square4")]
    for a, b in pairs:
        assert mo.all_isomorphisms(catalog[a], catalog[b]) == []


def test_chain2_is_degree1_monoid(catalog):
    assert mo.all_isomorphisms(catalog["chain2"], catalog["i1"])


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
    Q, qmap = sol.theta.quotient
    Ksub, kelems, _ = sol.theta.kernel_sub
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


def test_solves_draws_isomorphisms_lazily(zero_with_atoms, monkeypatch):
    """The first compatible pair ends the search: 2 maps, not the 8! + 1
    that listing every isomorphism T -> S/theta first would draw."""
    T = zero_with_atoms(8)
    triple = mo.make_triple(T, T, np.arange(T.order))
    drawn = []
    iso_search = mo._iso_search

    def spy(*args, **kwargs):
        for m in iso_search(*args, **kwargs):
            drawn.append(m)
            yield m

    monkeypatch.setattr(mo, "_iso_search", spy)
    ok, _ = mo.solves(triple, mo.ExtensionSolution(T, cg.diagonal(T)))
    assert ok and len(drawn) == 2


def _with_z2_over(k, e):
    """The zero 0 with k atoms 1..k, and a Z2 {e, g} over the idempotent e, g = k + 1."""
    t = np.zeros((k + 2, k + 2), dtype=np.int64)
    t[np.arange(k + 1), np.arange(k + 1)] = np.arange(k + 1)
    g = k + 1
    for x in range(k + 1):
        t[g, x] = t[x, g] = g if t[e, x] == e else t[e, x]
    t[g, g] = e
    return validate(t)


def _count_iso_searches(monkeypatch):
    calls = []
    iso_search = mo._iso_search

    def spy(*args, **kwargs):
        calls.append(args)
        return iso_search(*args, **kwargs)

    monkeypatch.setattr(mo, "_iso_search", spy)
    return calls


def test_solves_refuses_before_drawing_isomorphisms(zero_with_atoms, catalog, monkeypatch):
    """Without a compatible pair, the kernels' profiles or the fibre sizes by
    profile differ, and solves says so without drawing every beta: a loop over
    beta made 5,041 isomorphism searches on the zero with 7 atoms below."""
    calls = _count_iso_searches(monkeypatch)
    # K has its Z2 over an atom, Ker theta = S over the zero
    k = 7
    T = zero_with_atoms(k)
    triple = mo.make_triple(_with_z2_over(k, 1), T, list(range(k + 1)) + [1])
    S = _with_z2_over(k, 0)
    sol = mo.ExtensionSolution(S, cg.is_congruence(S, list(range(k + 1)) + [0]))
    assert mo.solves(triple, sol) == (False, "no-compatible-isomorphism-pair")
    assert len(calls) <= 1
    # Ker theta is K = chain3, but eta puts two elements over the top of
    # chain2 and theta two over the bottom
    chain2, chain3 = catalog["chain2"], catalog["chain3"]
    del calls[:]
    triple = mo.make_triple(chain3, chain2, [0, 1, 1])
    sol = mo.ExtensionSolution(chain3, cg.is_congruence(chain3, [0, 0, 1]))
    assert mo.solves(triple, sol) == (False, "no-compatible-isomorphism-pair")
    assert calls == []


def test_solves_matches_a_loop_over_every_isomorphism_pair(catalog):
    """Every triple induced by a congruence of a small catalog semigroup,
    against every solution of matching orders: solves agrees with trying
    every pair (beta, chi), and its yes comes with a compatible pair."""
    sols = [mo.ExtensionSolution(S, theta) for name, S in catalog.items() if S.order <= 5
            for theta in cg.enumerate_congruences(S)]
    checked = refused = 0
    for triple in (s.induced_triple for s in sols):
        for sol in sols:
            Q, qmap = sol.theta.quotient
            Ksub, kelems, _ = sol.theta.kernel_sub
            if (Q.order, Ksub.order) != (triple.T.order, triple.K.order):
                continue
            kernel_class = qmap[kelems]
            expect = any((kernel_class[chi] == beta[triple.eta_in_t]).all()
                         for beta in mo.all_isomorphisms(triple.T, Q)
                         for chi in mo.all_isomorphisms(triple.K, Ksub))
            ok, wit = mo.solves(triple, sol)
            assert ok == expect
            if ok:
                assert (kernel_class[wit["chi"]] == wit["beta"][triple.eta_in_t]).all()
            else:
                assert wit == "no-compatible-isomorphism-pair"
                refused += 1
            checked += 1
    assert checked > refused > 0


def test_make_triple_errors(catalog):
    chain2, i2 = catalog["chain2"], catalog["i2"]
    with pytest.raises(ValueError):
        mo.make_triple(chain2, i2, [0, 5])  # 5 is not idempotent in the codomain
    with pytest.raises(cg.NotSurjective, match="misses the idempotent"):
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
    # a morphism between other semigroups is refused, by name of the side
    phi = mo.is_homomorphism([0, 1], chain2, chain3)
    with pytest.raises(ValueError, match="source"):
        mo.solution_embedding(phi, s3, s3)
    with pytest.raises(ValueError, match="target"):
        mo.solution_embedding(phi, s1, s1)


def search_by_worklist(src, dst, domains, order=None, injective=False):
    """The worklist search that the compiled plan replaced, kept as its oracle."""
    src, dst = np.asarray(src).tolist(), np.asarray(dst).tolist()
    n = len(src)
    domains = [[int(b) for b in d] for d in domains]
    allowed = [set(d) for d in domains]
    order = range(n) if order is None else order
    m = [-1] * n
    trail = []
    used = set()

    def assign(a, b):
        work = [(a, b)]
        while work:
            a, b = work.pop()
            if m[a] != -1:
                if m[a] != b:
                    return False
                continue
            if b not in allowed[a] or b in used:
                return False
            m[a] = b
            if injective:
                used.add(b)
            trail.append(a)
            for x in trail:
                work.append((src[a][x], dst[b][m[x]]))
                work.append((src[x][a], dst[m[x]][b]))
        return True

    def undo(mark):
        while len(trail) > mark:
            a = trail.pop()
            used.discard(m[a])
            m[a] = -1

    def dfs(i):
        if i == n:
            yield np.array(m, dtype=np.int64)
            return
        a = order[i]
        if m[a] != -1:
            yield from dfs(i + 1)
            return
        for b in domains[a]:
            mark = len(trail)
            if assign(a, b):
                yield from dfs(i + 1)
            undo(mark)

    yield from dfs(0)


def _search_calls(run):
    """The arguments of every search_homomorphisms call that run() makes."""
    calls = []
    real = mo.search_homomorphisms

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mo, "search_homomorphisms", spy)
        run()
    return calls


def _matches_oracle(calls):
    """Each call gives the oracle's maps, in the oracle's order; returns the map count."""
    total = 0
    for args, kwargs in calls:
        got = list(mo.search_homomorphisms(*args, **kwargs))
        assert all(m.dtype == np.int64 for m in got)
        assert [m.tolist() for m in got] == \
            [m.tolist() for m in search_by_worklist(*args, **kwargs)]
        total += len(got)
    return total


def test_kernel_matches_oracle_on_actions_and_eps(catalog):
    # fresh copies, so that no End(K) is cached yet
    fresh = [core.validate(S.table) for S in catalog.values()]

    def run():
        for T in fresh:
            for K in fresh:
                ac.enumerate_actions(T, K)
                ac.enumerate_surjective_eps(K, T)
    calls = _search_calls(run)
    # per pair: the actions over End(K)'s composition table, the eps maps;
    # End(K) itself once per K
    assert len(calls) == 2 * len(fresh) ** 2 + len(fresh)
    assert _matches_oracle(calls) > 0


def test_kernel_matches_oracle_on_endomorphisms_and_isomorphisms(catalog):
    def run():
        for S in catalog.values():
            ac.enumerate_endomorphisms(S)
            for S2 in catalog.values():
                mo.all_isomorphisms(S, S2)
    calls = _search_calls(run)
    assert any(kw.get("injective") or len(a) == 5 and a[4] for a, kw in calls)
    assert _matches_oracle(calls) > 0


def test_kernel_matches_oracle_on_split_transversals(rsd_fixtures):
    def run():
        for _, P in rsd_fixtures:
            theta = cg.congruence_from_map(P.sg, P.pi2.map)
            list(bh.enumerate_transversals(P.sg, theta, want_split=True))
            bh.classical_billhardt_on(P.sg, theta, want_split=True)
    calls = _search_calls(run)
    assert calls
    assert _matches_oracle(calls) > 0


def test_kernel_matches_oracle_on_catalog_homomorphisms(catalog):
    # every map S -> S2 between catalog instances, free variables in three
    # orders, injective on and off: a forced value can then repeat an
    # earlier one in a map that is otherwise a homomorphism (fork -> chain2)
    rng = random.Random(7)
    calls = []
    for S in catalog.values():
        n = S.order
        for S2 in catalog.values():
            for order in (None, list(range(n))[::-1], rng.sample(range(n), n)):
                for injective in (False, True):
                    calls.append(((S.table, S2.table, [range(S2.order)] * n, order, injective),
                                  {}))
    assert _matches_oracle(calls) > 0


def _random_table(rng, n):
    kind = rng.randrange(4)
    if kind == 0:           # any magma
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if kind == 1:           # left projection: m[x*y] = m[x] is all it asks
        return [[x for _ in range(n)] for x in range(n)]
    if kind == 2:           # a relabelled catalog semigroup
        S = rng.choice([S for S in fixtures.catalog().values() if S.order <= n])
        perm = list(range(S.order))
        rng.shuffle(perm)
        inv = np.argsort(perm)
        return np.array(perm)[S.table[np.ix_(inv, inv)]].tolist()
    return [[min(x, y) for y in range(n)] for x in range(n)]


def test_kernel_matches_oracle_on_random_magmas():
    rng = random.Random(20240)
    total = 0
    for _ in range(400):
        src = _random_table(rng, rng.randint(1, 6))
        dst = _random_table(rng, rng.randint(1, 6))
        n, k = len(src), len(dst)
        domains = [rng.sample(range(k), rng.randint(0 if rng.random() < 0.05 else 1, k))
                   for _ in range(n)]
        order = rng.sample(range(n), n) if rng.random() < 0.7 else None
        total += _matches_oracle([((src, dst, domains, order, rng.random() < 0.5), {})])
    assert total > 400
