"""Homomorphisms, the homomorphism search, and extension problems.

An extension problem is a kernel semigroup K, a quotient T, and a
surjection from K onto the idempotents of T.  A candidate answer is a
semigroup with a congruence; `solves` decides whether it realizes the
problem and returns the witnessing pair of isomorphisms.

`search_homomorphisms` is the one search behind every enumerator that
looks for a product-preserving map: endomorphisms, actions and eps maps
in `actions`, isomorphisms here, split transversals in `billhardt`.  It
compiles a plan once per call: for each free variable, the variables its
choice forces and the products left to check, so each search node runs
two straight loops.  Candidates are first filtered by the monogenic
relation a^(i+p) = a^i of the variable they would be the image of.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import congruences, core
from .core import InverseSemigroup, TooLarge

SOLUTION_BOUND = 64


class NotMultiplicative(Exception):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"map breaks the product at ({a},{b})")


class NotInjective(Exception):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"{a} and {b} share an image")


@dataclass(frozen=True, eq=False)
class Morphism:
    source: InverseSemigroup
    target: InverseSemigroup
    map: np.ndarray
    injective: bool
    surjective: bool

    def __call__(self, a):
        return int(self.map[a])

    @property
    def bijective(self):
        return self.injective and self.surjective


def is_homomorphism(values, S, S2):
    """The map a -> values[a] from S to S2 as a Morphism, or NotMultiplicative
    at the least (a, b) with values[ab] != values[a]values[b].

    The law is proved on the rows of S's generators against every b
    (`InverseSemigroup.law_witness`), |A| |S| cells; all |S|^2 are read only
    when a generator row fails, to name the least witness.
    """
    m = np.asarray(values, dtype=np.int64)
    if m.shape != (S.order,):
        raise ValueError(f"map must assign all {S.order} elements")
    if len(m) and (m.min() < 0 or m.max() >= S2.order):
        raise ValueError("map values out of range")
    # the values lie in [0, |S2|), so they are compared in S2's narrow dtype
    narrow = m.astype(S2.narrow.dtype)
    w = S.law_witness(lambda a: narrow[S.table[a]] != S2.narrow[m[a, None], m])
    if w is not None:
        raise NotMultiplicative(*w)
    distinct = len(set(m.tolist()))
    return Morphism(S, S2, m, distinct == S.order, distinct == S2.order)


def _powers_match(src, dst, a, b, allowed, injective):
    """False when no homomorphism can send a to b.  One would send a's left
    powers a, a*a, (a*a)*a, ... (the first repeat is a^(i+p) = a^i) to b's,
    so b^(i+p) = b^i, each b^k lies in the domain of a^k, and when injective
    b, ..., b^(i+p-1) are distinct.  Holds in any magma."""
    x, y, seen = a, b, {a: b}
    while True:
        x, y = src[x][a], dst[y][b]
        if x in seen:
            return seen[x] == y
        if not allowed[x] >> y & 1 or injective and y in seen.values():
            return False
        seen[x] = y


def _compile(src, order):
    """Per free variable f of `order`: the variables that choosing f forces,
    each with the product (x, y) that gives its value, and the products
    (x, y, z) with a new factor that are left to check.  The forced variables
    are the closure of the assigned set under src's products, so none of
    this depends on the values chosen."""
    seen = [False] * len(src)
    closed = []                 # assigned variables, in derivation order
    plan = []
    for f in order:
        if seen[f]:
            continue
        seen[f] = True
        i = len(closed)
        closed.append(f)
        forced, checks = [], []
        while i < len(closed):
            v = closed[i]
            for u in closed[:i + 1]:
                for x, y in ((v, u), (u, v)) if u != v else ((v, v),):
                    z = src[x][y]
                    if seen[z]:
                        checks.append((x, y, z))
                    else:
                        seen[z] = True
                        closed.append(z)
                        forced.append((z, x, y))
            i += 1
        plan.append((f, forced, checks))
    return plan


def search_homomorphisms(src, dst, domains, order=None, injective=False):
    """Every map m with m[x] in domains[x] and m[src[x, y]] = dst[m[x], m[y]].

    Depth-first over the free variables of `order` (default 0..n-1), trying
    each one's candidates in the order listed, so the maps come out in
    lexicographic order.  A plan compiled once per call (`_compile`) lists
    what each free choice forces and checks; a forced value must lie in its
    domain and, when injective, be unused.  Candidates whose powers cannot
    match (`_powers_match`) are dropped first.  Yields each map as an int64
    array.
    """
    src, dst = np.asarray(src).tolist(), np.asarray(dst).tolist()
    n = len(src)
    domains = [[int(b) for b in d] for d in domains]
    allowed = [sum(1 << b for b in set(d)) for d in domains]
    plan = [(f, [b for b in domains[f] if _powers_match(src, dst, f, b, allowed, injective)],
             forced, checks)
            for f, forced, checks in _compile(src, range(n) if order is None else order)]
    m = [0] * n

    def descend(level, used):
        if level == len(plan):
            yield np.array(m, dtype=np.int64)
            return
        f, candidates, forced, checks = plan[level]
        for b in candidates:
            if injective and used >> b & 1:
                continue
            m[f] = b
            now = used | 1 << b
            for z, x, y in forced:
                c = dst[m[x]][m[y]]
                if not allowed[z] >> c & 1 or injective and now >> c & 1:
                    break
                m[z] = c
                now |= 1 << c
            else:
                for x, y, z in checks:
                    if dst[m[x]][m[y]] != m[z]:
                        break
                else:
                    yield from descend(level + 1, now)

    yield from descend(0, 0)


def _iso_search(S, S2, allowed=None):
    """Isomorphisms S -> S2 that respect the profiles and `allowed`, lazily."""
    n = S.order
    if S2.order != n:
        return
    p1, p2 = S.profiles, S2.profiles
    if sorted(p1) != sorted(p2):
        return
    cand = [[b for b in range(n) if p1[a] == p2[b]
             and (allowed is None or allowed[a][b])] for a in range(n)]
    order = sorted(range(n), key=lambda a: len(cand[a]))
    yield from search_homomorphisms(S.table, S2.table, cand, order, injective=True)


def all_isomorphisms(S, S2):
    return list(_iso_search(S, S2))


@dataclass(frozen=True, eq=False)
class NormalExtensionTriple:
    K: InverseSemigroup
    T: InverseSemigroup
    eta: Morphism               # K -> E(T) as a semilattice
    e_in_t: np.ndarray          # semilattice index -> T index

    @property
    def E(self):
        return self.eta.target

    @cached_property
    def eta_in_t(self):
        return self.e_in_t[self.eta.map]


def make_triple(K, T, eta_values_in_t):
    """Package K --eta--> E(T) <= T; eta must be onto the idempotents."""
    E, elems = core.idempotent_semilattice(T)
    pos = {int(t): i for i, t in enumerate(elems)}
    vals = []
    for a, v in enumerate(np.asarray(eta_values_in_t, dtype=np.int64)):
        if int(v) not in pos:
            raise ValueError(f"eta({a}) = {v} is not an idempotent of the codomain")
        vals.append(pos[int(v)])
    eta = is_homomorphism(vals, K, E)
    if not eta.surjective:
        missed = elems[np.bincount(eta.map, minlength=E.order) == 0]
        raise congruences.NotSurjective(f"eta misses the idempotent {int(missed[0])}")
    return NormalExtensionTriple(K, T, eta, elems)


@dataclass(frozen=True, eq=False)
class ExtensionSolution:
    S: InverseSemigroup
    theta: congruences.Congruence

    @cached_property
    def induced_triple(self):
        """The extension problem this pair answers tautologically."""
        Ksub, kelems, _ = self.theta.kernel_sub
        Q, qmap = self.theta.quotient
        return make_triple(Ksub, Q, qmap[kelems])


def _fibres(S, over):
    """Sorted (profile of e, how many entries of over are e) over E(S)."""
    size = np.bincount(over, minlength=S.order)
    return sorted((S.profiles[e], int(size[e])) for e in S.idempotents)


def solves(triple, solution):
    """Does (S, theta) realize the extension problem?  Returns (bool, witness).

    A yes needs isomorphisms beta: T -> S/theta and chi: K -> Ker theta
    with the class of chi(a) equal to beta(eta(a)) for every a.
    """
    K, T = triple.K, triple.T
    if max(K.order, T.order, solution.S.order) > SOLUTION_BOUND:
        raise TooLarge("solution check", solution.S.order, SOLUTION_BOUND)
    Q, qmap = solution.theta.quotient
    if Q.order != T.order:
        return False, "quotient-order-mismatch"
    Ksub, kelems, _ = solution.theta.kernel_sub
    if Ksub.order != K.order:
        return False, "kernel-order-mismatch"
    eta_t = triple.eta_in_t
    kernel_class = qmap[kelems]
    # chi carries eta^-1(e) onto the kernel's fibre over beta(e), and beta
    # keeps profiles: without these, no beta has a chi
    if (sorted(K.profiles) != sorted(Ksub.profiles)
            or _fibres(T, eta_t) != _fibres(Q, kernel_class)):
        return False, "no-compatible-isomorphism-pair"
    for beta in _iso_search(T, Q):
        required = beta[eta_t]          # K-element -> forced class in Q
        allowed = [[bool(kernel_class[p] == required[a]) for p in range(K.order)]
                   for a in range(K.order)]
        chi = next(_iso_search(K, Ksub, allowed=allowed), None)
        if chi is not None:
            return True, {"beta": beta, "chi": chi}
    return False, "no-compatible-isomorphism-pair"


def solution_embedding(phi, sol, sol2, iso=False):
    """Is phi an embedding (or isomorphism) of one solution into another?

    Means: phi injective (raise NotInjective otherwise), phi maps the
    kernel into (onto, when iso) the kernel, and relatedness is both
    preserved and reflected.
    """
    if not isinstance(phi, Morphism):
        phi = is_homomorphism(phi, sol.S, sol2.S)
    if phi.source is not sol.S or phi.target is not sol2.S:
        side = "source" if phi.source is not sol.S else "target"
        raise ValueError(f"phi's {side} is not the semigroup of its solution")
    if not phi.injective:
        m = phi.map
        seen = {}
        for a, v in enumerate(m.tolist()):
            if v in seen:
                raise NotInjective(seen[v], a)
            seen[v] = a
    if iso and not phi.surjective:
        return False
    k2 = congruences.kernel(sol2.theta)
    image_k = {int(phi.map[a]) for a in congruences.kernel(sol.theta)}
    if not (image_k == k2 if iso else image_k <= k2):
        return False
    c1 = congruences._canon(sol.theta.class_of)
    c2 = congruences._canon(sol2.theta.class_of[phi.map])
    return bool(np.array_equal(c1, c2))
