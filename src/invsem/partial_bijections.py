"""Partial injective maps on {0..n-1}; symmetric inverse monoids.

A map is stored as a fixed-length tuple with -1 for "undefined", so
composition and comparison are plain index juggling.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

from .core import TooLarge, validate

UNDEF = -1

SYM_DEGREE_BOUND = 4


class DegreeMismatch(Exception):
    def __init__(self, d1, d2):
        self.witness = (d1, d2)
        super().__init__(f"degrees {d1} and {d2} differ")


@dataclass(frozen=True)
class PartialBijection:
    degree: int
    graph: tuple

    def __post_init__(self):
        g = tuple(int(v) for v in self.graph)
        object.__setattr__(self, "graph", g)
        if len(g) != self.degree:
            raise ValueError(f"graph length {len(g)} != degree {self.degree}")
        defined = [v for v in g if v != UNDEF]
        if any(v < 0 or v >= self.degree for v in defined):
            raise ValueError("image values out of range")
        if len(set(defined)) != len(defined):
            raise ValueError("not injective")

    def __call__(self, x):
        v = self.graph[x]
        return None if v == UNDEF else v

    @property
    def rank(self):
        return sum(1 for v in self.graph if v != UNDEF)

    def name(self):
        pairs = [f"{x}>{v}" for x, v in enumerate(self.graph) if v != UNDEF]
        return ",".join(pairs) if pairs else "empty"


def from_pairs(degree, pairs):
    g = [UNDEF] * degree
    for x, fx in pairs:
        if g[int(x)] != UNDEF:
            raise ValueError(f"duplicate source {x}")
        g[int(x)] = int(fx)
    return PartialBijection(degree, tuple(g))


def identity(degree):
    return PartialBijection(degree, tuple(range(degree)))


def compose(f, g):
    """f after g: x -> f(g(x)) where both sides are defined."""
    if f.degree != g.degree:
        raise DegreeMismatch(f.degree, g.degree)
    out = []
    for x in range(g.degree):
        v = g.graph[x]
        out.append(UNDEF if v == UNDEF else f.graph[v])
    return PartialBijection(f.degree, tuple(out))


def inverse(f):
    g = [UNDEF] * f.degree
    for x, v in enumerate(f.graph):
        if v != UNDEF:
            g[v] = x
    return PartialBijection(f.degree, tuple(g))


def _all_partial_bijections(n):
    out = []
    universe = range(n)
    for k in range(n + 1):
        for dom in combinations(universe, k):
            for img in combinations(universe, k):
                for perm in permutations(img):
                    out.append(from_pairs(n, zip(dom, perm)))
    out.sort(key=lambda b: b.graph)
    return out


def _table_of(bijections):
    index = {b.graph: i for i, b in enumerate(bijections)}
    table = [[index[compose(a, b).graph] for b in bijections] for a in bijections]
    names = tuple(b.name() for b in bijections)
    S = validate(table, names=names)
    return S, {i: b for i, b in enumerate(bijections)}


def symmetric_inverse_monoid(n):
    """All partial bijections of degree n; order is sum C(n,k)^2 k!."""
    if n > SYM_DEGREE_BOUND:
        raise TooLarge("symmetric inverse monoid degree", n, SYM_DEGREE_BOUND)
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        # the empty map alone
        return _table_of([PartialBijection(0, ())])
    return _table_of(_all_partial_bijections(n))
