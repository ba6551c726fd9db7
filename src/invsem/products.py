"""Pair products over an action, pointwise powers, and wreath builds.

Two pair rules share one vectorized table builder: the unrestricted one
keeps (a,t) with ran(t).a = a and multiplies as ((ran(tu).a)(t.b), tu);
the range-restricted one keeps eps(a) = ran(t) and multiplies as
(a(t.b), tu).  On the restricted carrier both rules agree, which the
builder checks.  One pointwise-power builder serves both partial-map
wreaths: a map's value at x ranges over a fiber of K, all of K for hwr and
the kernel class over ran(x) for the eta-wreath, so P_eta is built from
kernel classes, not filtered out of the whole power.  Both wreaths check
their order against WREATH_CAP in `_wreath_over`, before any table exists.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import actions, congruences, core, morphisms
from .actions import AFRViolated, EndoAction, EpsilonMap
from .core import FiniteSemigroup, InverseSemigroup, TooLarge

WREATH_CAP = 20000
POWER_CAP = 4096
NAME_CAP = 200


class ProductInvalid(Exception):
    """A construction broke its defining property; the witness says where."""

    def __init__(self, reason, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason} at {witness}")


def _require(bad, reason, label=int):
    """Raise ProductInvalid at the first cell of the mask bad, labelling
    each of its indices."""
    if bad.any():
        raise ProductInvalid(reason, tuple(label(int(i)) for i in np.argwhere(bad)[0]))


def _require_over(K, T, **maps):
    """Raise ProductInvalid naming the first map over another K or T."""
    for name, m in maps.items():
        for side, S in (("K", K), ("T", T)):
            if getattr(m, side) is not S:
                raise ProductInvalid(f"{name} is over another {side}", f"{name}.{side}")


def _require_bijective(m, what):
    """Raise ProductInvalid at the first target element m hits other than once."""
    _require(np.bincount(m.map, minlength=m.target.order) != 1, f"{what} is not bijective")


@dataclass(frozen=True, eq=False)
class LambdaSemidirectProduct:
    K: InverseSemigroup
    T: InverseSemigroup
    action: EndoAction
    elements: tuple
    index: dict
    sg: InverseSemigroup
    pi2: morphisms.Morphism


@dataclass(frozen=True, eq=False)
class FullRestrictedSemidirectProduct:
    K: InverseSemigroup
    T: InverseSemigroup
    action: EndoAction
    eps: EpsilonMap
    elements: tuple
    index: dict
    sg: InverseSemigroup
    pi2: morphisms.Morphism


def _pair_names(K, T, elements):
    if len(elements) > NAME_CAP:
        return None
    return tuple(f"({K.name_of(a)}|{T.name_of(t)})" for a, t in elements)


def _build_pair_product(K, T, action, elements, restricted):
    act = action.act
    A = np.array([a for a, _ in elements], dtype=np.int64)
    U = np.array([t for _, t in elements], dtype=np.int64)
    m = len(elements)
    index = {p: i for i, p in enumerate(elements)}
    t_new = T.table[U[:, None], U[None, :]]
    second = act[U[:, None], A[None, :]]          # t_i . a_j
    shrunk = act[T.rans[t_new], A[:, None]]       # ran(t_i t_j) . a_i
    if restricted:
        a_new = K.table[np.broadcast_to(A[:, None], (m, m)), second]
        # on the restricted carrier the shrink is a no-op
        _require(a_new != K.table[shrunk, second],
                 "shrinking and restricted rules disagree", elements.__getitem__)
    else:
        a_new = K.table[shrunk, second]
    pairdex = np.full((K.order, T.order), -1, dtype=np.int64)
    pairdex[A, U] = np.arange(m)
    table = pairdex[a_new, t_new]
    _require(table < 0, "carrier not closed under the pair rule", elements.__getitem__)
    sg = core.validate(table, names=_pair_names(K, T, elements))
    # the inverse of (a,t) is (t^-1 . a^-1, t^-1)
    expect = pairdex[act[T.inv[U], K.inv[A]], T.inv[U]]
    _require(sg.inv != expect, "inverse is not (t^-1 . a^-1, t^-1)", elements.__getitem__)
    pi2 = morphisms.is_homomorphism(U, sg, T)
    _require(np.bincount(U, minlength=T.order) == 0, "second projection misses")
    return index, sg, pi2


def build_lsd(K, T, action):
    """Pairs (a,t) with ran(t).a = a under the shrinking rule."""
    _require_over(K, T, action=action)
    act = action.act
    elements = tuple((a, t) for a in range(K.order) for t in range(T.order)
                     if act[T.rans[t], a] == a)
    index, sg, pi2 = _build_pair_product(K, T, action, elements, restricted=False)
    return LambdaSemidirectProduct(K, T, action, elements, index, sg, pi2)


def build_rsd(K, T, action, eps):
    """Pairs (a,t) with eps(a) = ran(t); needs the fixed-range condition."""
    _require_over(K, T, action=action, eps=eps)
    ok, w = actions.check_AFR(action, eps)
    if not ok:
        raise AFRViolated(w)
    elements = tuple((a, t) for a in range(K.order) for t in range(T.order)
                     if eps.map[a] == T.rans[t])
    index, sg, pi2 = _build_pair_product(K, T, action, elements, restricted=True)
    return FullRestrictedSemidirectProduct(K, T, action, eps, elements, index, sg, pi2)


def pi2_congruence(P):
    return congruences.congruence_from_map(P.sg, P.pi2.map)


def kernel_via_congruence(P):
    """Members of the kernel of ker(pi2), through the congruence machinery."""
    return congruences.kernel(pi2_congruence(P))


def kernel_lsd(P):
    """Fiberwise kernel of the unrestricted product: over e it is e.K x {e}."""
    act = P.action.act
    out = {}
    for e in P.T.idempotents:
        image = sorted({int(act[e, a]) for a in range(P.K.order)})
        members = tuple(P.index[(a, e)] for a in image)
        fixed = tuple(i for i, (a, t) in enumerate(P.elements)
                      if t == e and act[e, a] == a)
        if members != fixed:
            raise ProductInvalid("kernel fiber differs from the pairs e fixes",
                                 (e, min(set(members) ^ set(fixed))))
        out[e] = members
    return out


def kernel_rsd(P):
    """Fiberwise kernel of the restricted product: over e it is K_e x {e}."""
    out = {}
    for e in P.T.idempotents:
        fiber = np.flatnonzero(P.eps.map == e)
        out[e] = tuple(P.index[(int(a), e)] for a in fiber)
    return out


def reduce_first_factor(K, T, action):
    """Shrink K to the union of the idempotent images; the action restricts."""
    act = action.act
    members = set()
    for e in T.idempotents:
        members.update(int(x) for x in act[e])
    Ksub, kelems = core.subsemigroup(K, members)
    pos = np.full(K.order, -1, dtype=np.int64)
    pos[kelems] = np.arange(len(kelems))
    # (t, a) with a in the union and t.a outside it
    _require((pos[act] < 0) & (pos >= 0), "image union not closed under the action")
    return Ksub, kelems, actions.validate_action(T, Ksub, pos[act[:, kelems]])


def psi_lemma21(P):
    """(a,t) -> ((a, ran t), t): the unrestricted product, rebuilt as restricted."""
    T = P.T
    ka = actions.induced_kernel_action(P)
    rsd = build_rsd(ka.kernel, T, ka.action, ka.eps)
    pos = {p: j for j, p in enumerate(ka.pairs)}
    values = np.empty(len(P.elements), dtype=np.int64)
    for i, (a, t) in enumerate(P.elements):
        j = pos[(a, int(T.rans[t]))]
        values[i] = rsd.index[(j, t)]
    psi = morphisms.is_homomorphism(values, P.sg, rsd.sg)
    _require_bijective(psi, "psi")
    return psi, rsd, ka


@dataclass(frozen=True)
class PartialFunctionElement:
    domain_generator: int
    values: tuple


class PFunContext:
    """Principal-ideal bookkeeping for maps defined on T-ideals."""

    def __init__(self, K, T):
        self.K = K
        self.T = T
        self.ideals = {}
        self.pos = {}
        for e in T.idempotents:
            ideal = tuple(sorted({int(x) for x in T.table[:, e]}))
            self.ideals[e] = ideal
            self.pos[e] = {x: i for i, x in enumerate(ideal)}

    def apply(self, al, x):
        return al.values[self.pos[al.domain_generator][int(x)]]

    def oplus(self, al, be):
        """Pointwise product on the intersection of the two ideals."""
        e = int(self.T.table[al.domain_generator, be.domain_generator])
        vals = tuple(int(self.K.table[self.apply(al, x), self.apply(be, x)])
                     for x in self.ideals[e])
        return PartialFunctionElement(e, vals)

    def act(self, t, al):
        """Precompose with right multiplication by t; the ideal moves to ran(t e)."""
        Tt = self.T.table
        e2 = int(self.T.rans[Tt[t, al.domain_generator]])
        vals = tuple(self.apply(al, Tt[x, t]) for x in self.ideals[e2])
        return PartialFunctionElement(e2, vals)

    def inv(self, al):
        return PartialFunctionElement(
            al.domain_generator, tuple(int(self.K.inv[v]) for v in al.values))

    def name(self, al):
        e = al.domain_generator
        body = ",".join(f"{self.T.name_of(x)}>{self.K.name_of(v)}"
                        for x, v in zip(self.ideals[e], al.values))
        return "{" + body + "}"


@dataclass(frozen=True, eq=False)
class PointwisePower:
    K: InverseSemigroup
    T: InverseSemigroup
    ctx: PFunContext
    elements: tuple
    index: dict
    blocks: dict                # generator -> (offset, count)
    sg: InverseSemigroup
    action: EndoAction
    eps: EpsilonMap


def build_pkt(K, T, fibers=None):
    """Union over idempotents e of the maps Te -> K under pointwise product,
    where the value at x ranges over fibers[x], an ascending array of K
    elements (all of K when fibers is None).  Each block is a mixed radix
    over the fiber sizes, so its maps come in lexicographic order of their
    values; a product or action value outside its fiber raises."""
    ctx = PFunContext(K, T)
    if fibers is None:
        fibers = [np.arange(K.order)] * T.order
    gens = sorted(T.idempotents)
    radix = {e: tuple(len(fibers[x]) for x in ctx.ideals[e]) for e in gens}
    sizes = {e: math.prod(radix[e]) for e in gens}
    total = sum(sizes.values())
    if total > WREATH_CAP:
        raise TooLarge("pointwise power order", total, WREATH_CAP)
    # rank[x, k]: the digit of value k at point x, -1 outside its fiber
    rank = np.full((T.order, K.order), -1, dtype=np.int64)
    for x, f in enumerate(fibers):
        rank[x, f] = np.arange(len(f))
    blocks, V, points = {}, {}, {}
    off = 0
    for e in gens:
        blocks[e] = (off, sizes[e])
        off += sizes[e]
        points[e] = np.array(ctx.ideals[e], dtype=np.int64)
        digits = np.unravel_index(np.arange(sizes[e]), radix[e])
        V[e] = np.stack([fibers[x][d] for x, d in zip(ctx.ideals[e], digits)], axis=1)

    def encode(g, values, what, operands):
        """Block g's indices of the maps with these values on Tg."""
        d = rank[points[g], values]
        if (d < 0).any():
            *ops, k = (int(i) for i in np.argwhere(d < 0)[0])
            raise ProductInvalid(f"{what} value outside its fiber", {
                "operands": operands(*ops), "point": ctx.ideals[g][k],
                "value": int(values[(*ops, k)])})
        return blocks[g][0] + np.ravel_multi_index(tuple(np.moveaxis(d, -1, 0)), radix[g])

    elements = tuple(PartialFunctionElement(e, tuple(row)) for e in gens
                     for row in V[e].tolist())
    index = {p: i for i, p in enumerate(elements)}
    table = np.empty((total, total), dtype=np.int64)
    for e in gens:
        oe, me = blocks[e]
        for f in gens:
            of, mf = blocks[f]
            g = int(T.table[e, f])
            ixe = np.array([ctx.pos[e][x] for x in ctx.ideals[g]])
            ixf = np.array([ctx.pos[f][x] for x in ctx.ideals[g]])
            Bv = V[f][:, ixf]
            step = max(1, core.BLOCK_CELLS // max(1, mf * len(ixe)))
            for r0 in range(0, me, step):
                Av = V[e][r0:r0 + step][:, ixe]
                C = K.table[Av[:, None, :], Bv[None, :, :]]
                table[oe + r0:oe + r0 + len(Av), of:of + mf] = encode(
                    g, C, "product", lambda i, j: (oe + r0 + i, of + j))
    names = tuple(map(ctx.name, elements)) if total <= NAME_CAP else None
    sg = core.validate(table, names=names)
    act = np.empty((T.order, total), dtype=np.int64)
    for t in range(T.order):
        for e in gens:
            oe, me = blocks[e]
            e2 = int(T.rans[T.table[t, e]])
            cols = np.array([ctx.pos[e][int(T.table[x, t])] for x in ctx.ideals[e2]],
                            dtype=np.int64)
            act[t, oe:oe + me] = encode(e2, V[e][:, cols], "action",
                                        lambda i: (t, oe + i))
    action = actions.validate_action(T, sg, act)
    eps = actions.validate_eps(sg, T, np.repeat(gens, [sizes[e] for e in gens]))
    return PointwisePower(K, T, ctx, elements, index, blocks, sg, action, eps)


@dataclass(frozen=True, eq=False)
class HoughtonWreath:
    K: InverseSemigroup
    T: InverseSemigroup
    pkt: PointwisePower         # P(K,T), or P_eta under the eta-wreath
    elements: tuple             # (power index, t)
    index: dict
    sg: InverseSemigroup
    pi2: morphisms.Morphism
    rsd: FullRestrictedSemidirectProduct


def wreath_order(K, T, fibers=None):
    """Sum over t of the number of maps on T.ran(t) with values in the
    fibers (all of K when fibers is None)."""
    ctx = PFunContext(K, T)
    size = [K.order] * T.order if fibers is None else [len(f) for f in fibers]
    return sum(math.prod(size[x] for x in ctx.ideals[int(T.rans[t])]) for t in range(T.order))


def _wreath_over(K, T, fibers=None):
    """The restricted pair product by T of the pointwise power over fibers.
    Its carrier {(p,t): eps(p) = ran t} has wreath_order elements, which
    are refused past WREATH_CAP before any table is built."""
    total = wreath_order(K, T, fibers)
    if total > WREATH_CAP:
        raise TooLarge("wreath order", total, WREATH_CAP)
    pkt = build_pkt(K, T, fibers)
    rsd = build_rsd(pkt.sg, T, pkt.action, pkt.eps)
    return HoughtonWreath(K, T, pkt, rsd.elements, rsd.index, rsd.sg, rsd.pi2, rsd)


def build_hwr(K, T):
    """Pairs (map on T.ran(t), t), multiplied by pointwise-product-and-shift."""
    return _wreath_over(K, T)


def _eta_fibers(triple):
    """Each x's fiber: the kernel class over ran(x)."""
    T = triple.T
    return [np.flatnonzero(triple.eta_in_t == T.rans[x]) for x in range(T.order)]


def build_p_eta(triple):
    """The pointwise power of the maps sending each x into the kernel fiber
    over ran(x): over e it is the direct product of those kernel classes."""
    return build_pkt(triple.K, triple.T, _eta_fibers(triple))


def build_hwr_eta(triple):
    return _wreath_over(triple.K, triple.T, _eta_fibers(triple))


@dataclass(frozen=True, eq=False)
class LambdaWreath:
    K: InverseSemigroup
    T: InverseSemigroup
    power: InverseSemigroup
    digits: np.ndarray          # power index -> value at each T element
    weights: np.ndarray
    action: EndoAction
    elements: tuple             # (power index, t)
    index: dict
    sg: InverseSemigroup
    pi2: morphisms.Morphism
    lsd: LambdaSemidirectProduct


def build_lwr(K, T):
    """The unrestricted pair product over the full direct power of K."""
    nK, nT = K.order, T.order
    nP = nK ** nT
    if nP > POWER_CAP:
        raise TooLarge("full power order", nP, POWER_CAP)
    D = actions._mixed_radix(np.arange(nP), nT, nK)
    w = nK ** np.arange(nT - 1, -1, -1)
    table = np.empty((nP, nP), dtype=np.int64)
    step = max(1, core.BLOCK_CELLS // max(1, nP * nT))
    for r0 in range(0, nP, step):
        C = K.table[D[r0:r0 + step, None, :], D[None, :, :]]
        table[r0:r0 + len(C)] = C @ w
    inv = K.inv[D] @ w
    kid = np.zeros(nK, dtype=bool)
    kid[list(K.idempotents)] = True
    idem = kid[D].all(axis=1)
    power = InverseSemigroup(FiniteSemigroup(nP, table), inv, tuple(np.flatnonzero(idem).tolist()))
    if nP <= 300:
        checked = core.validate(table)
        _require(checked.inv != inv, "power inverse differs from core.validate's")
        _require(np.isin(np.arange(nP), checked.idempotents) != idem, "power idempotents differ")
    act = np.empty((nT, nP), dtype=np.int64)
    for t in range(nT):
        act[t] = D[:, T.table[:, t]] @ w
    paction = actions.validate_action(T, power, act)
    total = wreath_order(K, T)
    if total > POWER_CAP:
        raise TooLarge("wreath order", total, POWER_CAP)
    lsd = build_lsd(power, T, paction)
    if lsd.sg.order != total:
        raise ProductInvalid("wreath order differs from the formula", (lsd.sg.order, total))
    return LambdaWreath(K, T, power, D, w, paction, lsd.elements, lsd.index, lsd.sg, lsd.pi2, lsd)


def Psi_remark(lwr, hwr):
    """Restrict each total map to the ideal of ran(t); bijective morphism."""
    _require_over(lwr.K, lwr.T, hwr=hwr)
    T = lwr.T
    ctx = hwr.pkt.ctx
    values = np.empty(len(lwr.elements), dtype=np.int64)
    for i, (f, t) in enumerate(lwr.elements):
        e = int(T.rans[t])
        pfe = PartialFunctionElement(e, tuple(int(lwr.digits[f, x]) for x in ctx.ideals[e]))
        values[i] = hwr.index[(hwr.pkt.index[pfe], t)]
    psi = morphisms.is_homomorphism(values, lwr.sg, hwr.sg)
    _require_bijective(psi, "Psi")
    return psi


def hbar_inverse(lwr, hwr):
    """Extend each ideal map to a total one along x -> x.ran(t)."""
    T = lwr.T
    ctx = hwr.pkt.ctx
    values = np.empty(len(hwr.elements), dtype=np.int64)
    for i, (p, t) in enumerate(hwr.elements):
        pfe = hwr.pkt.elements[p]
        e = int(T.rans[t])
        digits = np.array([ctx.apply(pfe, T.table[x, e]) for x in range(T.order)],
                          dtype=np.int64)
        values[i] = lwr.index[(int(digits @ lwr.weights), t)]
    phi = morphisms.is_homomorphism(values, hwr.sg, lwr.sg)
    _require_bijective(phi, "hbar inverse")
    return phi
