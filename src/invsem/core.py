"""Finite inverse semigroups as dense Cayley tables.

Elements are indices 0..n-1, multiplication is an n x n numpy array,
and every derived map (inverse, domain/range idempotents, natural
partial order) is an array as well, so that law checking stays inside
vectorized numpy.

`validate` proves associativity by Light's test (Clifford & Preston,
*The Algebraic Theory of Semigroups* I, section 1.2): if (xa)y = x(ay) for all
x, y and every a in a generating set, the operation is associative, in any
magma.  The check reads 2n^2 cells per generator instead of the n^3 of the
whole cube, so the generating set is taken greedily (`product_generators`)
from the top of the J-order down: elements with the largest row image |aS|
first.  In an inverse semigroup aS = aa^-1 S, and |eS| is constant on a
D-class and strictly smaller below it, so the few maximal D-classes come
first and generate most of the table; a wreath product of order 290 needs 7
generators this way, against 282 in index order.  The closure behind the
greedy search (`product_closure`) multiplies on the right by the seeds
only, about n products per generator.  Tables of at most `CUBE_CELLS`
triples skip the search and compare the whole cube at once.  The inverses
are then found in one array pass; every check reads the uint8 or uint16
copy of the table that `FiniteSemigroup.narrow` keeps.

`validate` keeps the generating set as `InverseSemigroup.generators`, and
every law of the form f(ab) = f(a)f(b), f into an associative target, is
then proved on its rows (`InverseSemigroup.law_witness`): homomorphisms,
eps maps and the endomorphism law of an action.

What a costly search derives from S alone is found once and cached on it:
End(S) (`endomorphisms`), the translational hull (`hull`, refused past
`trhull.HULL_BOUND` cells), the order in which homomorphisms from S are
searched (`search_order`) and the per-element invariants that the
isomorphism search matches (`profiles`).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

BLOCK_CELLS = 1 << 22   # cells a stacked array pass touches at once
CUBE_CELLS = 1 << 17    # up to n^3 this many, associativity reads the whole cube


class NotAssociative(Exception):
    def __init__(self, a, b, c):
        self.witness = (a, b, c)
        super().__init__(f"({a}*{b})*{c} != {a}*({b}*{c})")


class NotRegular(Exception):
    def __init__(self, a):
        self.witness = a
        super().__init__(f"element {a} has no inverse partner")


class IdempotentsDontCommute(Exception):
    def __init__(self, e, f):
        self.witness = (e, f)
        super().__init__(f"idempotents {e} and {f} do not commute")


class Violation(Exception):
    """A construction or a structure map broke its defining property; the
    witness says where."""

    def __init__(self, reason, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason} at {witness}")


class TooLarge(Exception):
    def __init__(self, what, size, bound):
        self.what = what
        self.size = size
        self.bound = bound
        super().__init__(f"{what}: size {size} exceeds bound {bound}")


def least_cell(mask):
    """The least set cell of a boolean mask in row-major order, as a tuple of
    ints, or None when no cell is set."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(mask.argmax(), mask.shape))


def require(mask, violation, reason, label=lambda *cell: cell):
    """Raise violation(reason, witness) at the least set cell of mask, the
    witness being label(*cell)."""
    cell = least_cell(mask)
    if cell is not None:
        raise violation(reason, label(*cell))


@dataclass(frozen=True, eq=False)
class FiniteSemigroup:
    order: int
    table: np.ndarray
    # a read-only copy of the table in the narrowest unsigned dtype that holds
    # order - 1, uint8 up to order 256 and uint16 above: checks that touch
    # n^2 cells gather from it, while the table itself stays int64
    narrow: np.ndarray = field(repr=False)
    names: tuple | None = None


@dataclass(frozen=True, eq=False, kw_only=True)
class InverseSemigroup(FiniteSemigroup):
    inv: np.ndarray
    idempotents: tuple
    # the set Light's test ran on, which generates the semigroup; None when the
    # whole cube was compared, and for tables not built by validate
    generators: tuple | None = None

    @cached_property
    def doms(self):
        n = self.order
        return self.table[self.inv, np.arange(n)]

    @cached_property
    def rans(self):
        n = self.order
        return self.table[np.arange(n), self.inv]

    @cached_property
    def leq(self):
        # leq[a, b] iff a = (a a^-1) b
        n = self.order
        return self.table[self.rans] == np.arange(n)[:, None]

    @cached_property
    def semilattice(self):
        """E(S) as its own semilattice, with the (read-only) element list into S."""
        E, elems = subsemigroup(self, self.idempotents)
        if not is_semilattice(E):
            # E passed validate, so its idempotents commute: some listed element is not one
            a = int(elems[np.flatnonzero(E.table.diagonal() != np.arange(E.order))[0]])
            raise ValueError(f"element {a} is listed as an idempotent, "
                             f"but {a}*{a} = {self.table[a, a]}")
        elems.flags.writeable = False
        return E, elems

    @cached_property
    def endomorphisms(self):
        """(End(S) in lexicographic order, comp), comp[i, j] the index of
        endomorphism i after endomorphism j; both read-only, found once per S."""
        from . import actions       # actions builds on this module
        endos = actions.enumerate_endomorphisms(self)
        # lexicographic order makes the base-n codes of the endomorphisms sorted
        weights = self.order ** np.arange(self.order - 1, -1, -1)
        comp = np.searchsorted(endos @ weights, endos[:, endos] @ weights)
        endos.flags.writeable = comp.flags.writeable = False
        return endos, comp

    @cached_property
    def hull(self):
        """The translational hull Omega(S), found once per S; raises TooLarge
        past `trhull.HULL_BOUND` cells."""
        from . import trhull        # trhull builds on this module
        return trhull.enumerate_hull(self)

    @cached_property
    def search_order(self):
        """The elements with a greedy generating set (`product_generators`
        in index order) first: a homomorphism from S is searched in this
        order, so that the generators force every other value."""
        gens = product_generators(self.table)
        return tuple(gens + [a for a in range(self.order) if a not in gens])

    @cached_property
    def profiles(self):
        """Per element, the isomorphism invariants that the isomorphism
        search matches: its order and inverse data, then how often each such
        profile appears in its row and its column."""
        n = self.order
        idem = np.zeros(n, dtype=np.int64)
        idem[list(self.idempotents)] = 1
        below = self.leq.sum(axis=1)
        above = self.leq.sum(axis=0)
        selfinv = (self.inv == np.arange(n)).astype(np.int64)
        dom_fib = np.bincount(self.doms, minlength=n)
        ran_fib = np.bincount(self.rans, minlength=n)
        base = list(zip(idem, below, above, selfinv, dom_fib[self.doms], ran_fib[self.rans]))
        # one refinement round: fingerprint each row/column of the table by profiles
        ids = {p: i for i, p in enumerate(sorted(set(base)))}
        lab = np.array([ids[p] for p in base])
        out = []
        for a in range(n):
            row = np.bincount(lab[self.table[a]], minlength=len(ids))
            col = np.bincount(lab[self.table[:, a]], minlength=len(ids))
            out.append(base[a] + (tuple(row), tuple(col)))
        return out

    def law_witness(self, bad_rows):
        """Least (a, b) at which a law f(ab) = f(a)f(b) fails, f a map from S
        into an associative target, or None.

        bad_rows(rows) is the mask of failures over (a, b), a in rows (an
        index array or a slice) and b over all of S.  With `generators` known,
        their rows decide: {a : f(ab) = f(a)f(b) for every b} is closed under
        products, so it is all of S once it holds a generating set.  All rows
        are scanned only when a generator row fails, for the least witness.
        """
        if self.generators is not None and not bad_rows(np.array(self.generators)).any():
            return None
        return least_cell(bad_rows(slice(None)))

    def name_of(self, a):
        if self.names is not None:
            return self.names[a]
        return str(a)

    def __repr__(self):
        return f"InverseSemigroup(order={self.order})"


def _light_generators(T):
    """Greedy generating set for Light's test, visiting the elements by
    descending row image |aS|, ties in index order: from the top of the
    J-order down, when T is an inverse semigroup."""
    n = len(T)
    seen = np.zeros((n, n), dtype=bool)
    seen[np.arange(n)[:, None], T] = True      # seen[a, x] iff x in aS
    return product_generators(T, np.argsort(-seen.sum(axis=1), kind="stable"))


def _light_witness(T, gens):
    """Least (a,b,c) with (ab)c != a(bc), or None, given gens that generate
    T as a magma: Light's test on gens decides, and only when it fails are
    the rows scanned, in order, for the least witness."""
    Tt = np.ascontiguousarray(T.T)      # Tt[y, x] = xy: rows of Tt are columns of T
    # (xa)y over the rows of T at Tt[a], x(ay) over the rows of Tt at T[a], as [y, x]
    if all((T[Tt[a]] == Tt[T[a]].T).all() for a in gens):
        return None
    for a in range(len(T)):
        left = T[T[a]]         # left[b,c] = (ab)c
        right = T[a][T]        # right[b,c] = a(bc)
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return (a, int(b), int(c))
    raise AssertionError("Light's test failed on an associative table")


def _assoc_witness(T):
    """Least (a,b,c) with (ab)c != a(bc), or None.

    A small table is compared over the whole cube in one pass, a larger one
    by Light's test on `_light_generators`.
    """
    if len(T) ** 3 <= CUBE_CELLS:
        bad = np.argwhere(T[T] != T[:, T])     # bad[a, b, c]: (ab)c != a(bc)
        return tuple(int(x) for x in bad[0]) if len(bad) else None
    return _light_witness(T, _light_generators(T))


def validate(table, names=None):
    """Check a Cayley table and enrich it into an InverseSemigroup.

    The inverse map is computed, never supplied: one array pass, on the
    narrow copy of the table, finds each a's x with axa = a, xax = x, unique
    once the table is associative and its idempotents commute.
    Past `CUBE_CELLS` the result keeps the set Light's test ran on as its
    `generators`.
    """
    arr = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"table must be a nonempty square array, got shape {arr.shape}")
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("table entries must lie in [0, n)")
    T = arr.astype(np.min_scalar_type(n - 1))
    T.flags.writeable = False
    gens = None if n ** 3 <= CUBE_CELLS else tuple(_light_generators(T))
    w = _assoc_witness(T) if gens is None else _light_witness(T, gens)
    if w is not None:
        raise NotAssociative(*w)
    ar = np.arange(n)
    idem = np.flatnonzero(T[ar, ar] == ar)
    sub = T[idem][:, idem]
    cell = least_cell(sub != sub.T)
    if cell is not None:
        raise IdempotentsDontCommute(*(int(idem[i]) for i in cell))
    # partner[a, x] iff (ax)a = a and (xa)x = x; on an associative table
    # whose idempotents commute, a has at most one (Howie 1995, Thm 5.1.1)
    partner = (T[T, ar[:, None]] == ar[:, None]) & (T[T.T, ar] == ar)
    regular = partner.any(axis=1)
    if not regular.all():
        raise NotRegular(int(regular.argmin()))
    return InverseSemigroup(order=n, table=arr, narrow=T,
                            names=tuple(names) if names is not None else None,
                            inv=partner.argmax(axis=1),
                            idempotents=tuple(int(e) for e in idem), generators=gens)


def product_closure(table, seeds, inside=None):
    """Least set of indices containing the seeds and closed under right
    multiplication by them, as a boolean mask.

    Each member is a product ((s1 s2) s3)... of seeds, so on an associative
    table this is the subsemigroup the seeds generate, and on any table
    seeds whose closure is everything generate it as a magma, which is all
    Light's test needs.  Given `inside`, a mask already closed under right
    multiplication by the seeds it holds, the closure is marked in it in
    place: the members are multiplied by the seeds not inside yet, and each
    new member by every seed, so growing a set one seed at a time to all n
    elements forms about n products per seed.  No associativity is assumed.
    """
    if inside is None:
        inside = np.zeros(len(table), dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    new = seeds[~inside[seeds]]
    fresh = np.zeros_like(inside)
    fresh[table[np.flatnonzero(inside)[:, None], new]] = True
    fresh[new] = True
    frontier = np.flatnonzero(fresh > inside)
    while len(frontier):
        inside[frontier] = True
        fresh[table[frontier[:, None], seeds]] = True
        frontier = np.flatnonzero(fresh > inside)
    return inside


def product_generators(table, order=None):
    """Greedy generating set under products alone: visiting the elements in
    `order` (index order by default), each one not yet in the closure of the
    earlier ones."""
    inside = np.zeros(len(table), dtype=bool)
    gens = []
    for a in range(len(table)) if order is None else order:
        if not inside[a]:
            gens.append(int(a))
            product_closure(table, gens, inside)
    return gens


def generated_subsemigroup(S, gens):
    """Least subset closed under product and inverse containing gens, a frozenset."""
    seed = set(int(g) for g in gens)
    if not seed:
        raise ValueError("gens must be nonempty")
    # (ab)^-1 = b^-1 a^-1, so closing inverse-closed generators under products keeps inverses
    closed = product_closure(S.table, sorted(seed | {int(S.inv[g]) for g in seed}))
    return frozenset(np.flatnonzero(closed).tolist())


def subsemigroup(S, members):
    """Reindex a product-closed subset as its own InverseSemigroup.

    Returns (sub, elems) where elems[i] is the S-index of sub's element i.
    """
    elems = np.array(sorted(set(int(x) for x in members)), dtype=np.int64)
    pos = np.full(S.order, -1, dtype=np.int64)     # -1 outside the subset
    pos[elems] = np.arange(len(elems))
    prod = S.table[elems][:, elems]
    sub_table = pos[prod]
    if (sub_table < 0).any():
        raise ValueError(f"subset not closed under product, "
                         f"e.g. produces {int(prod[sub_table < 0].min())}")
    names = None
    if S.names is not None:
        names = tuple(S.names[int(x)] for x in elems)
    sub = validate(sub_table, names=names)
    return sub, elems


def is_semilattice(S):
    return len(S.idempotents) == S.order and np.array_equal(S.table, S.table.T)


def idempotent_semilattice(S):
    """E(S) as its own semilattice, with the element list into S, built once per S."""
    return S.semilattice


def direct_product(S, S2):
    n1, n2 = S.order, S2.order
    T = (S.table[:, None, :, None] * n2 + S2.table[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    names = None
    if S.names is not None and S2.names is not None:
        names = tuple(f"({a},{b})" for a in S.names for b in S2.names)
    return validate(T, names=names)


def as_dict(S, array=np.ndarray.tolist):
    """JSON-ready instance dict (0-based, bit-exact); `array` converts table and inv."""
    d = {"order": S.order, "table": array(S.table)}
    if S.names is not None:
        d["names"] = list(S.names)
    d["inv"] = array(S.inv)
    d["idempotents"] = list(S.idempotents)
    return d


def from_dict(d):
    if not isinstance(d, dict) or "order" not in d or "table" not in d:
        raise ValueError("instance JSON needs 'order' and 'table'")
    table, names = d["table"], d.get("names")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ValueError("'table' must be a list of rows")
    kinds = set()
    for row in table:
        kinds.update(map(type, row))
    if kinds - {int}:   # bool is a subclass of int, but not a JSON integer
        i, j = next((i, j) for i, row in enumerate(table) for j, x in enumerate(row)
                     if type(x) is not int)
        raise ValueError(f"table cell ({i},{j}) is {table[i][j]!r}, not an integer")
    if names is not None and (not isinstance(names, list) or len(names) != len(table)
                              or not all(isinstance(x, str) for x in names)):
        raise ValueError(f"'names' must be a list of {len(table)} strings, one per element")
    try:
        S = validate(table, names=names)
    except OverflowError:
        raise ValueError("table entries must lie in [0, n)") from None
    if S.order != d["order"]:
        raise ValueError(f"declared order {d['order']} does not match table size {S.order}")
    return S
