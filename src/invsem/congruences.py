"""Congruence enumeration, kernels, traces, quotients.

Each engine runs as a few whole-array passes over stacks of labellings, one
row per partition, with one compatibility check for every caller.
`principal_congruences` closes all the requested theta(a, b) in one boolean
stack.  Two independent engines list every congruence: a scan of all
restricted growth strings at once for small orders, and a principal-join
engine for larger ones.  Tests compare the engines where both apply.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
from .core import InverseSemigroup, TooLarge

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


def _least_members(C):
    """m[i, x]: the least y labelled like x in row i of a stack of labellings."""
    return (C[:, :, None] == C[:, None, :]).argmax(axis=2)


def _rank(m):
    """Canonical labels from least members: the classes numbered in order of
    their least members, which is their order of first appearance."""
    rank = np.cumsum(m == np.arange(m.shape[-1]), axis=-1) - 1
    return np.take_along_axis(rank, m, axis=-1)


def _canon(class_of):
    """Relabel classes in order of first appearance (least member first)."""
    _, first, inv = np.unique(np.asarray(class_of), return_index=True, return_inverse=True)
    return _rank(first[inv])


@dataclass(frozen=True, eq=False)
class Congruence:
    parent: InverseSemigroup
    class_of: np.ndarray
    class_count: int

    def classes(self):
        return [np.flatnonzero(self.class_of == c) for c in range(self.class_count)]

    def reps(self):
        # class ids are canonical, so the least member is the first occurrence
        return np.unique(self.class_of, return_index=True)[1]

    @cached_property
    def kernel_sub(self):
        """(Ker theta as a subsemigroup, its elements in the parent, kpos),
        kpos[s] the index of s in it: -1 outside it, and at one spare last
        slot, so that -1 maps to -1.  Built once per congruence; read-only."""
        S = self.parent
        Ksub, kelems = core.subsemigroup(S, kernel(self))
        kpos = np.full(S.order + 1, -1, dtype=np.int64)
        kpos[kelems] = np.arange(len(kelems))
        kelems.flags.writeable = kpos.flags.writeable = False
        return Ksub, kelems, kpos

    @cached_property
    def quotient(self):
        """(S/theta, natural map), as `quotient` gives it, built once per
        congruence; the map is read-only."""
        Q, qmap = quotient(self)
        qmap.flags.writeable = False
        return Q, qmap

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


def _compatible(T, C):
    """ok[i] iff the labelling C[i], in [0, n), is a congruence of the table T:
    c(xs) = c(m(x)s) and c(sx) = c(s m(x)) for all x and s, where m(x) is the
    least member of x's class.  In blocks of at most `core.BLOCK_CELLS` cells."""
    n = len(T)
    C = np.asarray(C, dtype=np.min_scalar_type(n - 1)).reshape(-1, n)
    ok = np.empty(len(C), dtype=bool)
    step = max(1, core.BLOCK_CELLS // (n * n))
    for i in range(0, len(C), step):
        c = C[i:i + step]
        m = _least_members(c)
        row = np.arange(len(c))[:, None, None]
        same = c[row, T] == c[row, T[m]]
        same &= c[row, T.T] == c[row, T.T[m]]
        ok[i:i + step] = same.all(axis=(1, 2))
    return ok


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
    c = _canon(_as_class_of(S, partition))
    if not _compatible(S.table, c)[0]:
        raise NotCompatible(*_compat_witness(S, c))
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
    if not _compatible(S.table, c)[0]:
        raise NotCompatible(*_compat_witness(S, c))
    return Congruence(S, c, int(c.max()) + 1)


def diagonal(S):
    return Congruence(S, np.arange(S.order), S.order)


def universal(S):
    return Congruence(S, np.zeros(S.order, dtype=np.int64), 1)


def _growth_strings(n):
    """Every restricted growth string of length n (c[0] = 0, each c[i] at
    most one above max(c[:i])), one per row, in lexicographic order: the
    canonical labellings of all partitions of n elements."""
    C = np.zeros((1, 1), dtype=np.int64)
    top = np.zeros(1, dtype=np.int64)
    for _ in range(1, n):
        width = top + 2
        parent = np.repeat(np.arange(len(C)), width)
        v = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width)
        C = np.column_stack([C[parent], v])
        top = np.maximum(top[parent], v)
    return C


def _enumerate_by_partitions(S):
    C = _growth_strings(S.order)
    return C[_compatible(S.table, C)]


def _closure(rel):
    """Least members of the equivalence closure of each reflexive, symmetric
    relation in the stack rel (k, n, n), squared in place until no row
    changes (float32 products count at most n paths, so they are exact)."""
    active = np.arange(len(rel))
    while len(active):
        f = rel[active].astype(np.float32)
        sq = (f @ f) > 0
        changed = (sq != rel[active]).any(axis=(1, 2))
        active = active[changed]
        rel[active] = sq[changed]
    return rel.argmax(axis=2)


def principal_congruences(S, pairs):
    """theta(a, b), the least congruence identifying a and b, for each pair
    (a, b), as one row of canonical labels each.

    theta(a, b) is the equivalence closure of {(uav, ubv) : u, v in S^1}
    (Howie, *Fundamentals of Semigroup Theory*, 1995, section 1.5).
    """
    n = S.order
    T = S.table
    ar = np.arange(n)
    # uxv, for u and then v running over S^1 in one fixed order for every x
    ux = np.column_stack([ar, T.T])
    uxv = np.concatenate([ux[:, :, None], T[ux]], axis=2).reshape(n, -1)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    out = np.empty((len(pairs), n), dtype=np.int64)
    step = max(1, core.BLOCK_CELLS // (n * n))
    for i in range(0, len(pairs), step):
        a, b = pairs[i:i + step].T
        row = np.arange(len(a))[:, None]
        rel = np.zeros((len(a), n, n), dtype=bool)
        rel[row, uxv[a], uxv[b]] = True
        rel[row, uxv[b], uxv[a]] = True
        rel[:, ar, ar] = True
        out[i:i + step] = _rank(_closure(rel))
    return out


def principal_congruence(S, a, b):
    """Least congruence identifying a and b."""
    return principal_congruences(S, [(a, b)])[0]


def _enumerate_by_joins(S):
    """Every congruence, as a join of principal congruences, one row of least
    members each.

    Each congruence is the join of the principal congruences theta(a, b) of
    its related pairs, so the lattice is the closure of the diagonal and the
    distinct principal congruences under joining with a principal one
    (Freese, "Computing congruences efficiently", Algebra Universalis 59,
    2008).  It grows as a frontier: each new congruence is joined with each
    principal congruence, never with the whole lattice found so far, in one
    stacked closure per block of at most `core.BLOCK_CELLS` cells.
    """
    n = S.order
    found = set()

    def new(C):
        """The rows of C not found before, each once; they count as found now."""
        uniq = dict(zip(C.view(np.dtype((np.void, C.itemsize * n))).ravel().tolist(),
                        range(len(C))))
        fresh = [j for k, j in uniq.items() if k not in found]
        found.update(uniq)
        return C[fresh]

    a, b = np.triu_indices(n, 1)
    rows = [new(np.arange(n)[None]),
            new(_least_members(principal_congruences(S, np.column_stack([a, b]))))]
    principals = frontier = rows[1]
    same = principals[:, :, None] == principals[:, None, :]
    step = max(1, core.BLOCK_CELLS // max(1, len(principals) * n * n))
    while len(frontier):
        frontier = np.concatenate([
            new(_closure(((f[:, None, :, None] == f[:, None, None, :]) | same).reshape(-1, n, n)))
            for f in np.split(frontier, range(step, len(frontier), step))])
        rows.append(frontier)
    out = np.concatenate(rows)
    ok = _compatible(S.table, out)
    if not ok.all():
        raise NotCompatible(*_compat_witness(S, out[np.argmin(ok)]))
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
    C = _rank(_least_members(raw))
    count = C.max(axis=1) + 1
    # most classes first, then lexicographically
    order = np.lexsort(np.vstack([C.T[::-1], -count]))
    out = [Congruence(S, c, int(k)) for c, k in zip(C[order], count[order])]
    if out[0] != diagonal(S) or out[-1] != universal(S):
        raise ValueError(f"{method} enumeration misses the diagonal or the universal congruence: "
                         f"it runs from {out[0].class_count} classes to {out[-1].class_count}")
    return out


def kernel(theta):
    """Union of the classes that contain an idempotent, a frozenset."""
    c = theta.class_of
    return frozenset(np.flatnonzero(np.isin(c, c[list(theta.parent.idempotents)])).tolist())


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
    cell = core.least_cell(emap[K.table] != E.table[emap[:, None], emap[None, :]])
    if cell is not None:
        from .morphisms import NotMultiplicative  # morphisms imports this module
        raise NotMultiplicative(*cell)
    cell = core.least_cell(emap[K.inv] != emap)
    if cell is not None:
        raise ValueError(f"element {cell[0]} and its inverse lie in different fibers")
    classes = tuple(np.flatnonzero(emap == e) for e in range(E.order))
    if embed is not None:
        embed = np.asarray(embed, dtype=np.int64)
        if len(embed) != E.order:
            raise ValueError(f"embed has {len(embed)} entries for a semilattice of order {E.order}")
    return SemilatticeDecomposition(eta, classes, embed)
