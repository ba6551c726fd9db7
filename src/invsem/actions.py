"""Actions by endomorphisms, fixed-range conditions, strong semilattices.

The central predicate is check_AFR: a surjective idempotent-valued map
eps on K matches the action when e.a = a holds exactly for eps(a) <= e.
Everything downstream of the restricted pair product relies on it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import congruences, core, morphisms
from .core import InverseSemigroup, TooLarge

ENDO_BOUND = 7
NAIVE_ACTION_BOUND = 400_000


class NotEndomorphism(Exception):
    def __init__(self, t, a, b):
        self.witness = (t, a, b)
        super().__init__(f"{t} does not preserve the product at ({a},{b})")


class NotActionHom(Exception):
    def __init__(self, t, u, a):
        self.witness = (t, u, a)
        super().__init__(f"({t}*{u}).{a} differs from {t}.({u}.{a})")


class AFRViolated(Exception):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"fixed-range condition fails at {witness}")


class LawViolated(core.Violation):
    """A structure map or an induced action broke its law; the witness says where."""


@dataclass(frozen=True, eq=False)
class EndoAction:
    T: InverseSemigroup
    K: InverseSemigroup
    act: np.ndarray             # act[t, a] = t.a

    @cached_property
    def fixed(self):
        """fixed[a, i]: the i-th idempotent of T fixes a, read-only and in the
        [a, i] orientation of `EpsilonMap.below`.  `_actions` fills it for a
        whole stack of tables at once; built directly, an action finds it on
        first use, from the same `_fixed_masks`."""
        return _fixed_masks(self.T, self.act[None])[0]


def _fixed_masks(T, stack):
    """fixed[s, a, i]: the i-th idempotent of T fixes a in table s of the
    stack (m, |T|, |K|); C-contiguous and read-only."""
    E = list(T.idempotents)
    fixed = np.ascontiguousarray((stack[:, E] == np.arange(stack.shape[2])).transpose(0, 2, 1))
    fixed.flags.writeable = False
    return fixed


@dataclass(frozen=True, eq=False)
class EpsilonMap:
    K: InverseSemigroup
    T: InverseSemigroup
    map: np.ndarray             # K index -> idempotent of T

    @cached_property
    def below(self):
        """below[a, i]: eps(a) <= the i-th idempotent of T."""
        return self.T.leq[np.ix_(self.map, list(self.T.idempotents))]


def _check_laws(T, K, stack):
    """Raise at the first table of the stack (m, |T|, |K|) that is not an action.

    Within a table the endomorphism law t.(ab) = (t.a)(t.b) comes before the
    action law (tu).a = t.(u.a); each raises with its least witness.  The
    endomorphism law is a homomorphism law on K, so, as in
    `InverseSemigroup.law_witness`, it is proved on the rows a of K's
    generators against every b, |K| values a generator in the dtype of K's
    narrow table; all |K|^2 cells are read only for the first table row
    that fails, to name its least witness.
    """
    m, nT, nK = stack.shape
    Kt = K.narrow
    rows = stack.reshape(m * nT, nK)
    values = rows.astype(Kt.dtype)
    gens = np.arange(nK) if K.generators is None else np.array(K.generators)
    endo, first = None, m       # the endomorphism failure and its table
    step = max(1, core.BLOCK_CELLS // max(1, len(gens) * nK))
    for r0 in range(0, len(rows), step):
        blk = rows[r0:r0 + step]
        # bad[r, i, b]: row r0 + r breaks the law at (gens[i], b)
        bad = values[r0:r0 + step][:, K.table[gens]] != Kt[blk[:, gens, None], blk[:, None, :]]
        broken = bad.any(axis=(1, 2))
        if broken.any():
            r = r0 + int(broken.argmax())
            first, t = divmod(r, nT)
            a, b = np.argwhere(values[r][K.table] != Kt[rows[r][:, None], rows[r]])[0]
            endo = NotEndomorphism(t, int(a), int(b))
            break
    step = max(1, core.BLOCK_CELLS // max(1, nT * nT * nK))
    for s0 in range(0, first, step):
        blk = stack[s0:min(s0 + step, first)]
        at = np.arange(len(blk))[:, None, None, None]
        # bad[s, t, u, a]: (tu).a differs from t.(u.a) in table s0 + s
        bad = blk[:, T.table] != blk[at, np.arange(nT)[:, None, None], blk[:, None]]
        if bad.any():
            _, t, u, a = np.argwhere(bad)[0]
            raise NotActionHom(int(t), int(u), int(a))
    if endo is not None:
        raise endo


def _actions(T, K, stack):
    """The actions of a stack of tables, each given its row of the stack's fixed masks."""
    _check_laws(T, K, stack)
    out = [EndoAction(T, K, act) for act in stack]
    for action, fixed in zip(out, _fixed_masks(T, stack)):
        object.__setattr__(action, "fixed", fixed)     # fills the cached property of a frozen class
    return out


def validate_action(T, K, act):
    act = np.asarray(act, dtype=np.int64)
    if act.shape != (T.order, K.order):
        raise ValueError(f"action must be |T| x |K| = {T.order} x {K.order}")
    if len(act.ravel()) and (act.min() < 0 or act.max() >= K.order):
        raise ValueError("action values out of range")
    return _actions(T, K, act[None])[0]


def validate_eps(K, T, values):
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (K.order,):
        raise ValueError("eps must assign every element of K")
    v = values.clip(0, T.order - 1)     # where values leaves [0, |T|), T.table[v, v] != values
    idem = T.table[v, v] == values
    if not idem.all():
        a = int(idem.argmin())
        raise ValueError(f"eps({a}) = {values[a]} is not an idempotent")
    # values are idempotents of T now, so they fit T's narrow dtype
    narrow = values.astype(T.narrow.dtype)
    w = K.law_witness(lambda a: narrow[K.table[a]] != T.narrow[values[a, None], values])
    if w is not None:
        raise morphisms.NotMultiplicative(*w)
    hit = np.zeros(T.order, dtype=bool)
    hit[values] = True
    missed = [e for e in T.idempotents if not hit[e]]
    if missed:
        raise congruences.NotSurjective(f"eps misses the idempotent {missed[0]}")
    return EpsilonMap(K, T, values)


def check_AFR(action, eps):
    """e.a = a iff eps(a) <= e, over all idempotents e and elements a.

    One contiguous compare of the [a, i] masks `EndoAction.fixed` and
    `EpsilonMap.below`.  Returns (True, None) or (False, (a, e)) with the
    least witness in a-major order.
    """
    bad = action.fixed != eps.below
    k = int(bad.argmax())
    if not bad.flat[k]:
        return True, None
    a, i = divmod(k, bad.shape[1])
    return False, (a, int(action.T.idempotents[i]))


def check_AE7_AE8(action, eps):
    """eps fixes its own class, and eps of t.a is ran(t eps(a))."""
    T, A, ar = action.T, action.act, np.arange(action.K.order)
    cell = core.least_cell(A[eps.map, ar] != ar)
    if cell is not None:
        return False, ("fix-own-class", *cell)
    cell = core.least_cell(eps.map[A] != T.rans[T.table[:, eps.map]])
    if cell is not None:
        return False, ("range-transport", *cell)
    return True, None


def check_modified(action, decomp):
    """Classwise form: e fixes its fiber, and t maps fiber(e) into fiber(ran(te))."""
    T, A, ar = action.T, action.act, np.arange(action.K.order)
    eta = decomp.eta
    embed = decomp.embed
    if embed is None:
        raise ValueError("decomposition must embed its semilattice into T")
    e_of = embed[eta.map]               # K element -> its class idempotent in T
    cell = core.least_cell(A[e_of, ar] != ar)
    if cell is not None:
        return False, ("class-fix", *cell)
    class_of = np.full(T.order, -1, dtype=np.int64)    # idempotent of T -> its class
    class_of[embed] = np.arange(len(embed))
    cell = core.least_cell(eta.map[A] != class_of[T.rans[T.table[:, e_of]]])
    if cell is not None:
        return False, ("class-transport", *cell)
    return True, None


@dataclass(frozen=True, eq=False)
class StrongSemilattice:
    K: InverseSemigroup
    eps: EpsilonMap
    maps: np.ndarray            # maps[i, a] = e_i.a for the i-th idempotent e_i of T;
                                # on fiber(e), e_i <= e, it is the structure map to fiber(e_i)


def _require(bad, reason, keys, label=lambda *cell: cell):
    """Raise LawViolated at the set cell of the mask bad that sorts first by
    keys (the most significant first, each broadcast against bad), labelled."""
    cells = np.nonzero(bad)
    if len(cells[0]):
        k = np.lexsort([np.broadcast_to(key, bad.shape)[cells] for key in keys[::-1]])[0]
        raise LawViolated(reason, label(*(int(c[k]) for c in cells)))


def strong_semilattice(action, eps):
    """Structure maps a -> f.a between fibers, with the gluing laws checked.

    The map from fiber(e) to fiber(f), f <= e, is row f of the action, so the
    maps are the action's rows at the idempotents of T.  Each law raises at
    its failing cell that comes first in the order (e, f[, g], a), or (e, f,
    a, b) for products, e and f the fibers of a and b.  That fiber(e) maps
    identically to itself is check_AFR at eps(a) = e.
    """
    ok, w = check_AFR(action, eps)
    if not ok:
        raise AFRViolated(w)
    T, K = action.T, action.K
    E = np.array(T.idempotents)
    maps = action.act[E]
    a, e = np.arange(K.order), eps.map
    under = T.leq[np.ix_(E, e)]             # under[f, a]: the f-th idempotent <= eps(a)
    _require(under & (e[maps] != E[:, None]), "structure map leaves its fiber",
             (e, E[:, None], a), lambda f, x: (int(e[x]), int(E[f]), x))
    # cell [g, f, a]: g <= f <= eps(a), but g.(f.a) differs from g.a
    chain = T.leq[np.ix_(E, E)][:, :, None] & under[None] & (maps[:, maps] != maps[:, None])
    _require(chain, "structure maps do not compose down a chain",
             (e, E[None, :, None], E[:, None, None], a),
             lambda g, f, x: (int(e[x]), int(E[f]), int(E[g]), x))
    ssl = StrongSemilattice(K, eps, maps)
    _require(rebuild_from_structure(ssl) != K.table,
             "product does not factor through the meet fiber",
             (e[:, None], e[None, :], a[:, None], a[None, :]))
    return ssl


def rebuild_from_structure(ssl):
    """Recompute the product table from the structure maps alone: ab is the
    product of the images of a and b in the fiber of eps(a)eps(b)."""
    T, e, a = ssl.eps.T, ssl.eps.map, np.arange(ssl.K.order)
    m = np.searchsorted(T.idempotents, T.table[e[:, None], e[None, :]])
    return ssl.K.table[ssl.maps[m, a[:, None]], ssl.maps[m, a[None, :]]]


@dataclass(frozen=True, eq=False)
class KernelAction:
    product: object
    kernel: InverseSemigroup
    product_indices: np.ndarray     # kernel element -> index in the ambient product
    pairs: np.ndarray               # kernel element -> its (a, t) row
    pairdex: np.ndarray             # (a, t) -> kernel element, -1 off the kernel
    action: EndoAction
    eps: EpsilonMap


def induced_kernel_action(P):
    """Restrict the ambient action to the kernel of the second projection.

    The kernel is found through the congruence machinery, not through the
    fiber formulas, so the two can be compared independently.
    """
    T = P.T
    theta = congruences.congruence_from_map(P.sg, P.pi2.map)
    Ksub, kelems, _ = theta.kernel_sub
    pairs = P.elements[kelems]
    A, E = pairs.T
    pairdex = np.full(P.pairdex.shape, -1, dtype=np.int64)
    pairdex[A, E] = np.arange(len(pairs))
    # t sends the kernel pair (a, e) to (t.a, ran(te))
    act = pairdex[P.action.act[:, A], T.rans[T.table[:, E]]]
    core.require(act < 0, LawViolated, "kernel is not closed under the induced action",
                 lambda t, j: (t, tuple(pairs[j].tolist())))
    action = validate_action(T, Ksub, act)
    eps = validate_eps(Ksub, T, E)
    return KernelAction(P, Ksub, kelems, pairs, pairdex, action, eps)


def enumerate_endomorphisms(K):
    """All product-preserving self-maps, in lexicographic order."""
    n = K.order
    if n > ENDO_BOUND:
        raise TooLarge("endomorphism enumeration", n, ENDO_BOUND)
    return np.array(list(morphisms.search_homomorphisms(K.table, K.table, [range(n)] * n)))


def enumerate_actions(T, K):
    """All actions of T on K by endomorphisms, deterministically ordered.

    An action is a homomorphism from T into End(K) under composition; the
    generators come first in the search, and they force every other value.
    """
    endos, comp = K.endomorphisms
    found = morphisms.search_homomorphisms(T.table, comp, [range(len(endos))] * T.order,
                                           T.search_order)
    return _actions(T, K, endos[np.array(list(found), dtype=np.int64).reshape(-1, T.order)])


def enumerate_actions_naive(T, K):
    """Filter every |T| x |K| table; the dumb oracle for the clever one."""
    m, n = T.order, K.order
    total = n ** (m * n)
    if total > NAIVE_ACTION_BOUND:
        raise TooLarge("naive action enumeration", total, NAIVE_ACTION_BOUND)
    Kt = K.table
    w = n ** np.arange(m * n - 1, -1, -1)
    out = []
    step = max(1, (1 << 21) // max(1, m * n * n))
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total))
        M = (idx[:, None] // w % n).reshape(len(idx), m, n)
        endo = (M[:, :, Kt] == Kt[M[:, :, :, None], M[:, :, None, :]]).all(axis=(1, 2, 3))
        M = M[endo]
        if not len(M):
            continue
        b_idx = np.arange(len(M))[:, None, None, None]
        t_idx = np.arange(m)[None, :, None, None]
        rhs = M[b_idx, t_idx, M[:, None, :, :]]   # rhs[i,t,u,a] = t.(u.a)
        lhs = M[:, T.table, :]                    # lhs[i,t,u,a] = (tu).a
        out.extend(_actions(T, K, M[(lhs == rhs).all(axis=(1, 2, 3))]))
    return out


def enumerate_surjective_eps(K, T):
    """Every surjective idempotent-valued multiplicative map K -> E(T)."""
    E, elems = core.idempotent_semilattice(T)
    found = morphisms.search_homomorphisms(K.table, E.table, [range(E.order)] * K.order)
    return [validate_eps(K, T, elems[m]) for m in found if len(set(m.tolist())) == E.order]
