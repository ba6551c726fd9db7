"""Congruence enumeration, kernels, traces, quotients.

Two independent engines: an exhaustive partition scan for small orders
and a principal-join engine for larger ones.  The join engine computes
the distinct principal congruences theta(a, b), then closes them under
joins, joining each newly found congruence only with the principal ones.
Tests compare the engines where both apply.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .core import ElementSet, InverseSemigroup, TooLarge

PARTITION_BOUND = 8
GENERATED_BOUND = 24


class NotCompatible(Exception):
    def __init__(self, a, a2, b):
        self.witness = (a, a2, b)
        super().__init__(f"{a} ~ {a2} but multiplying by {b} separates the classes")


class NotSemilatticeCodomain(Exception):
    pass


class NotSurjective(Exception):
    pass


def _canon(class_of):
    """Relabel classes in order of first appearance (least member first)."""
    class_of = np.asarray(class_of, dtype=np.int64)
    relabel = {}
    out = np.empty_like(class_of)
    for i, c in enumerate(class_of):
        out[i] = relabel.setdefault(int(c), len(relabel))
    return out


@dataclass(frozen=True, eq=False)
class Congruence:
    parent: InverseSemigroup
    class_of: np.ndarray
    class_count: int

    def related(self, a, b):
        return bool(self.class_of[a] == self.class_of[b])

    def classes(self):
        return [np.flatnonzero(self.class_of == c) for c in range(self.class_count)]

    def reps(self):
        # class ids are canonical, so the least member is the first occurrence
        c = self.class_of
        out = np.empty(self.class_count, dtype=np.int64)
        for j in range(self.class_count):
            out[j] = np.flatnonzero(c == j)[0]
        return out

    def __eq__(self, other):
        return (isinstance(other, Congruence)
                and self.parent is other.parent
                and np.array_equal(self.class_of, other.class_of))

    def __hash__(self):
        return hash((id(self.parent), self.class_of.tobytes()))


def _as_class_of(S, partition):
    if isinstance(partition, Congruence):
        return np.asarray(partition.class_of)
    part = list(partition)
    if len(part) == S.order and all(np.isscalar(x) or isinstance(x, (int, np.integer)) for x in part):
        return np.asarray(part, dtype=np.int64)
    class_of = np.full(S.order, -1, dtype=np.int64)
    for j, cls in enumerate(part):
        for x in cls:
            if class_of[int(x)] != -1:
                raise ValueError(f"element {x} listed twice")
            class_of[int(x)] = j
    if (class_of == -1).any():
        missing = int(np.flatnonzero(class_of == -1)[0])
        raise ValueError(f"element {missing} not covered by the partition")
    return class_of


def _compatible(S, c):
    reps = []
    seen = {}
    for i, x in enumerate(c):
        if int(x) not in seen:
            seen[int(x)] = len(reps)
            reps.append(i)
    lab = np.array([seen[int(x)] for x in c], dtype=np.int64)
    reps = np.array(reps, dtype=np.int64)
    X = lab[S.table[np.ix_(reps, reps)]]
    return bool((lab[S.table] == X[lab[:, None], lab[None, :]]).all())


def _compat_witness(S, c):
    """Least (a, a2, b) with a ~ a2 and a product with b separating them."""
    n = S.order
    T = S.table
    for a in range(n):
        for a2 in range(n):
            if c[a] != c[a2]:
                continue
            for b in range(n):
                if c[T[a, b]] != c[T[a2, b]] or c[T[b, a]] != c[T[b, a2]]:
                    return (a, a2, b)
    return None


def is_congruence(S, partition):
    c = _as_class_of(S, partition)
    if not _compatible(S, c):
        raise NotCompatible(*_compat_witness(S, c))
    c = _canon(c)
    theta = Congruence(S, c, int(c.max()) + 1)
    # inversion compatibility comes for free on inverse semigroups
    rep_of = theta.reps()[c]
    bad = np.flatnonzero(c[S.inv] != c[S.inv[rep_of]])
    if len(bad):
        raise ValueError(f"the inverse of {int(bad[0])} is not in the class of "
                         f"the inverse of its class representative {int(rep_of[bad[0]])}")
    return theta


def congruence_from_map(S, values):
    """Kernel of any map out of S that is multiplicative on classes."""
    c = _canon(values)
    if not _compatible(S, c):
        raise NotCompatible(*_compat_witness(S, c))
    return Congruence(S, c, int(c.max()) + 1)


def diagonal(S):
    return Congruence(S, np.arange(S.order), S.order)


def universal(S):
    return Congruence(S, np.zeros(S.order, dtype=np.int64), 1)


def _restricted_growth_strings(n):
    a = [0] * n

    def rec(i, mx):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def _enumerate_by_partitions(S):
    out = []
    for rgs in _restricted_growth_strings(S.order):
        c = np.array(rgs, dtype=np.int64)
        if _compatible(S, c):
            out.append(c)
    return out


class _UF:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.p[max(rx, ry)] = min(rx, ry)
        return True

    def labels(self):
        return np.array([self.find(x) for x in range(len(self.p))], dtype=np.int64)


def principal_congruence(S, a, b):
    """Least congruence identifying a and b (pair-closure worklist)."""
    n = S.order
    T = S.table
    uf = _UF(n)
    work = [(int(a), int(b))]
    while work:
        x, y = work.pop()
        if not uf.union(x, y):
            continue
        for s in range(n):
            if T[s, x] != T[s, y]:
                work.append((int(T[s, x]), int(T[s, y])))
            if T[x, s] != T[y, s]:
                work.append((int(T[x, s]), int(T[y, s])))
    return _canon(uf.labels())


def _merge_along(c, pairs):
    """Join of the canonical class tuple c with the congruence spanned by pairs.

    Only c's own k class labels are merged, by a quick-find union over them
    that keeps the least label of each group; then one pass relabels the
    elements.  c's labels are in order of first appearance, so ranking the
    surviving labels keeps the result canonical.
    """
    lab = list(range(max(c) + 1))
    merged = False
    for a, b in pairs:
        x, y = lab[c[a]], lab[c[b]]
        if x != y:
            if x > y:
                x, y = y, x
            lab = [x if v == y else v for v in lab]
            merged = True
    if not merged:
        return c
    rank = {v: i for i, v in enumerate(sorted(set(lab)))}
    new = [rank[v] for v in lab]
    return tuple(new[x] for x in c)


def _spanning_pairs(c):
    """(first member, other member) for every non-singleton class of c."""
    first = {}
    pairs = []
    for i, x in enumerate(c):
        if x in first:
            pairs.append((first[x], i))
        else:
            first[x] = i
    return pairs


def _enumerate_by_joins(S):
    """Every congruence, as a join of principal congruences.

    Each congruence is the join of the principal congruences theta(a, b) of
    its related pairs, so the lattice is the closure of the diagonal and the
    distinct principal congruences under joining with a principal one
    (Freese, "Computing congruences efficiently", Algebra Universalis 59,
    2008).  It grows as a frontier: each new congruence is joined with each
    principal congruence, never with the whole lattice found so far.
    """
    n = S.order
    principals = list(dict.fromkeys(
        tuple(principal_congruence(S, a, b).tolist())
        for a in range(n) for b in range(a + 1, n)))
    spans = [_spanning_pairs(p) for p in principals]
    found = set(principals)
    found.add(tuple(range(n)))
    frontier = principals
    while frontier:
        fresh = []
        for x in frontier:
            for pairs in spans:
                j = _merge_along(x, pairs)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    out = [np.array(c, dtype=np.int64) for c in found]
    for c in out:
        if not _compatible(S, c):
            raise NotCompatible(*_compat_witness(S, c))
    return out


def enumerate_congruences(S, method="auto"):
    """All congruences, duplicate-free, diagonal first and universal last."""
    n = S.order
    if method == "auto":
        method = "partitions" if n <= PARTITION_BOUND else "generated"
    if method == "partitions":
        if n > PARTITION_BOUND:
            raise TooLarge("congruence partition scan", n, PARTITION_BOUND)
        raw = _enumerate_by_partitions(S)
    elif method == "generated":
        if n > GENERATED_BOUND:
            raise TooLarge("congruence enumeration", n, GENERATED_BOUND)
        raw = _enumerate_by_joins(S)
    else:
        raise ValueError(f"unknown method {method!r}")
    uniq = {}
    for c in raw:
        c = _canon(c)
        uniq[c.tobytes()] = c
    ordered = sorted(uniq.values(), key=lambda c: (-(int(c.max()) + 1), tuple(c)))
    out = [Congruence(S, c, int(c.max()) + 1) for c in ordered]
    if out[0] != diagonal(S) or out[-1] != universal(S):
        raise ValueError(f"{method} enumeration misses the diagonal or the universal congruence: "
                         f"it runs from {out[0].class_count} classes to {out[-1].class_count}")
    return out


def kernel(theta):
    """Union of the classes that contain an idempotent."""
    S = theta.parent
    c = theta.class_of
    idem_classes = {int(c[e]) for e in S.idempotents}
    members = frozenset(i for i in range(S.order) if int(c[i]) in idem_classes)
    return ElementSet(S, members)


def trace(theta):
    """Restriction to the idempotents, as a congruence on E(S)."""
    S = theta.parent
    E, elems = core.idempotent_semilattice(S)
    c = _canon(theta.class_of[elems])
    return is_congruence(E, c)


def quotient(theta):
    """(S/theta, natural map).  Class names are brace-joined member names."""
    S = theta.parent
    c = theta.class_of
    reps = theta.reps()
    table = c[S.table[np.ix_(reps, reps)]]
    names = None
    if S.names is not None:
        names = tuple(
            "{" + ",".join(S.names[int(x)] for x in np.flatnonzero(c == j)) + "}"
            for j in range(theta.class_count)
        )
    Q = core.validate(table, names=names)
    return Q, c.copy()


@dataclass(frozen=True, eq=False)
class SemilatticeDecomposition:
    eta: object                 # morphism onto a semilattice
    classes: tuple              # classes[e] = members of the fiber over e
    embed: np.ndarray | None = None   # optional: semilattice index -> ambient index


def decomposition_along(eta, embed=None):
    """Split the source of eta into fibers over its semilattice codomain."""
    E = eta.target
    if not core.is_semilattice(E):
        raise NotSemilatticeCodomain(f"codomain of order {E.order} is not a semilattice")
    emap = np.asarray(eta.map)
    hit = np.zeros(E.order, dtype=bool)
    hit[emap] = True
    if not hit.all():
        missing = int(np.flatnonzero(~hit)[0])
        raise NotSurjective(f"semilattice element {missing} has empty fiber")
    K = eta.source
    # fibers multiply into the fiber of the product; this is the morphism law
    bad = np.argwhere(emap[K.table] != E.table[emap[:, None], emap[None, :]])
    if len(bad):
        from .morphisms import NotMultiplicative  # morphisms imports this module
        raise NotMultiplicative(int(bad[0][0]), int(bad[0][1]))
    bad = np.flatnonzero(emap[K.inv] != emap)
    if len(bad):
        raise ValueError(f"element {int(bad[0])} and its inverse lie in different fibers")
    classes = tuple(np.flatnonzero(emap == e) for e in range(E.order))
    if embed is not None:
        embed = np.asarray(embed, dtype=np.int64)
        if len(embed) != E.order:
            raise ValueError(f"embed has {len(embed)} entries for a semilattice of order {E.order}")
    return SemilatticeDecomposition(eta, classes, embed)
