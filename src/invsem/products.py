"""Pair products over an action, pointwise powers, and wreath builds.

This module alone decides how an element of a built semigroup is coded.
A pair product's element i is the row elements[i] = (a, t) of an (m, 2)
array, and pairdex[a, t] is i, or -1 off the carrier.  A pointwise power's
element p is the map on the ideal Te, e = eps.map[p], whose values are a
row of values[e]; encode(e, values) gives back p.  Other modules read a
power's elements only through `locate`, the maps that agree with rows of
total maps T -> K, and `extend`, each map as the total map x -> p(x e).
Callers go between elements and coordinates by array gathers on these.

Two pair rules share one vectorized table builder: the unrestricted one
keeps (a,t) with ran(t).a = a and multiplies as ((ran(tu).a)(t.b), tu);
the range-restricted one keeps eps(a) = ran(t) and multiplies as
(a(t.b), tu).  On the restricted carrier both rules agree, which the
builder checks.  One pointwise-power builder serves both partial-map
wreaths: a map's value at x ranges over a fiber of K, all of K for hwr and
the kernel class over ran(x) for the eta-wreath, so P_eta is built from
kernel classes, not filtered out of the whole power.  Every power and
wreath is refused past WREATH_CAP before its table exists: a pair product
of order m holds its m x m int64 table and, while building it, a few m x m
intermediates in the narrow dtypes of K and T.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import actions, congruences, core, morphisms
from .actions import AFRViolated, EndoAction, EpsilonMap
from .core import InverseSemigroup, TooLarge

WREATH_CAP = 4096
NAME_CAP = 200


class ProductInvalid(core.Violation):
    """A construction broke its defining property; the witness says where."""


def _require(bad, reason, label=lambda *cell: cell):
    """Raise ProductInvalid at the first cell of the mask bad, labelled."""
    core.require(bad, ProductInvalid, reason, label)


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
class PairProduct:
    """The pairs (a, t) of K x T under an action; eps is None for the
    unrestricted (lambda) product and the range map of the full
    restricted one."""
    K: InverseSemigroup
    T: InverseSemigroup
    action: EndoAction
    eps: EpsilonMap | None
    elements: np.ndarray        # (m, 2): element i is the pair elements[i]
    pairdex: np.ndarray         # (|K|, |T|): pair -> element, -1 off the carrier
    sg: InverseSemigroup
    pi2: morphisms.Morphism

    @cached_property
    def pi2_congruence(self):
        """The kernel of pi2, built once per product, so that its kernel and
        quotient are too."""
        return congruences.congruence_from_map(self.sg, self.pi2.map)


def _pair_names(K, T, elements):
    if len(elements) > NAME_CAP:
        return None
    return tuple(f"({K.name_of(a)}|{T.name_of(t)})" for a, t in elements.tolist())


def _build_pair_product(K, T, action, eps, carrier):
    """The pairs where the |K| x |T| mask carrier holds, a-major, under the
    restricted rule when eps is given and the shrinking rule otherwise."""
    act = action.act.astype(K.narrow.dtype)       # values in [0, |K|)
    elements = np.argwhere(carrier)
    A, U = elements.T
    m = len(elements)

    def label(*cell):
        return tuple(tuple(elements[i].tolist()) for i in cell)

    # the m x m intermediates hold K and T elements in their narrow dtypes
    rans = T.rans.astype(T.narrow.dtype)
    t_new = T.narrow[U[:, None], U[None, :]]
    second = act[U[:, None], A[None, :]]          # t_i . a_j
    shrunk = act[rans[t_new], A[:, None]]         # ran(t_i t_j) . a_i
    a_new = K.narrow[shrunk, second]
    if eps is not None:
        # on the restricted carrier the shrink is a no-op
        _require(K.narrow[A[:, None], second] != a_new,
                 "shrinking and restricted rules disagree", label)
    pairdex = np.full((K.order, T.order), -1, dtype=np.int64)
    pairdex[A, U] = np.arange(m)
    table = pairdex[a_new, t_new]
    del t_new, second, shrunk, a_new              # before the checks of the table
    _require(table < 0, "carrier not closed under the pair rule", label)
    sg = core.validate(table, names=_pair_names(K, T, elements))
    # the inverse of (a,t) is (t^-1 . a^-1, t^-1)
    expect = pairdex[act[T.inv[U], K.inv[A]], T.inv[U]]
    _require(sg.inv != expect, "inverse is not (t^-1 . a^-1, t^-1)", label)
    pi2 = morphisms.is_homomorphism(U, sg, T)
    _require(np.bincount(U, minlength=T.order) == 0, "second projection misses")
    return PairProduct(K, T, action, eps, elements, pairdex, sg, pi2)


def build_lsd(K, T, action):
    """Pairs (a,t) with ran(t).a = a under the shrinking rule."""
    _require_over(K, T, action=action)
    carrier = (action.act[T.rans] == np.arange(K.order)).T
    return _build_pair_product(K, T, action, None, carrier)


def build_rsd(K, T, action, eps):
    """Pairs (a,t) with eps(a) = ran(t); needs the fixed-range condition."""
    _require_over(K, T, action=action, eps=eps)
    ok, w = actions.check_AFR(action, eps)
    if not ok:
        raise AFRViolated(w)
    return _build_pair_product(K, T, action, eps, eps.map[:, None] == T.rans[None, :])


def psi_lemma21(P):
    """(a,t) -> ((a, ran t), t): the unrestricted product, rebuilt as restricted."""
    ka = actions.induced_kernel_action(P)
    rsd = build_rsd(ka.kernel, P.T, ka.action, ka.eps)
    A, U = P.elements.T
    kernel_pair = ka.pairdex[A, P.T.rans[U]]
    _require(kernel_pair < 0, "(a, ran t) is not a kernel pair")
    psi = morphisms.is_homomorphism(rsd.pairdex[kernel_pair, U], P.sg, rsd.sg)
    _require_bijective(psi, "psi")
    return psi, rsd, ka


def _ideals(T):
    """Each idempotent e of T, ascending, with its principal ideal Te, ascending:
    the x with xe = x."""
    return {e: np.flatnonzero(T.table[:, e] == np.arange(T.order))
            for e in sorted(T.idempotents)}


@dataclass(frozen=True, eq=False)
class PointwisePower:
    """The maps from principal ideals Te into K under pointwise product.
    Element p is the map on ideals[e], e = eps.map[p], whose values are row
    p - blocks[e][0] of values[e]; each block lists its maps in
    lexicographic order of their values' digits."""
    K: InverseSemigroup
    T: InverseSemigroup
    blocks: dict                # e -> (offset, count)
    ideals: dict                # e -> Te, ascending
    values: dict                # e -> (count, |Te|) array: the values of block e's maps
    rank: np.ndarray            # [x, k]: the digit of value k at x, -1 outside its fiber;
                                # a signed dtype just wide enough
    weights: dict               # e -> the place value of each point's digit in block e
    sg: InverseSemigroup
    action: EndoAction
    eps: EpsilonMap

    def encode(self, e, values, what="map", operands=lambda *ix: ix):
        """Indices of the maps on Te with these values (last axis over Te);
        a value outside its fiber raises ProductInvalid naming the operands.
        The digits stay in rank's narrow dtype: einsum sums them into int64
        without an int64 copy of the whole block."""
        points = self.ideals[e]
        d = self.rank[points, values]
        if (d < 0).any():
            *ops, k = (int(i) for i in np.argwhere(d < 0)[0])
            raise ProductInvalid(f"{what} value outside its fiber", {
                "operands": operands(*ops), "point": int(points[k]),
                "value": int(values[(*ops, k)])})
        code = np.einsum("...k,k->...", d, self.weights[e])
        code += self.blocks[e][0]
        return code

    def locate(self, e, values):
        """For each row i of values, an (m, |T|) array, the index of the map on
        the ideal T e[i] with the values that row has there."""
        out = np.empty(len(e), dtype=np.int64)
        for g, points in self.ideals.items():
            rows = np.flatnonzero(e == g)
            out[rows] = self.encode(g, values[rows][:, points])
        return out

    def extend(self, p):
        """Each map p as the total map x -> p(x eps(p)), one row of |T| values
        per element of the array p."""
        e = self.eps.map[p]
        out = np.empty((len(p), self.T.order), dtype=np.int64)
        for g, points in self.ideals.items():
            rows = np.flatnonzero(e == g)
            at = np.searchsorted(points, self.T.table[:, g])   # x -> the position of xg in Tg
            out[rows] = self.values[g][p[rows] - self.blocks[g][0]][:, at]
        return out


def build_pkt(K, T, fibers=None):
    """Union over idempotents e of the maps Te -> K under pointwise product,
    where the value at x ranges over fibers[x], an ascending array of K
    elements (all of K when fibers is None).  Each block is a mixed radix
    over the fiber sizes, so its maps come in lexicographic order of their
    values; a product or action value outside its fiber raises."""
    if fibers is None:
        fibers = [np.arange(K.order)] * T.order
    ideals = _ideals(T)
    radix = {e: [len(fibers[x]) for x in points] for e, points in ideals.items()}
    sizes = {e: math.prod(r) for e, r in radix.items()}
    total = sum(sizes.values())
    if total > WREATH_CAP:
        raise TooLarge("pointwise power order", total, WREATH_CAP)
    rank = np.full((T.order, K.order), -1, dtype=np.min_scalar_type(-K.order))
    for x, f in enumerate(fibers):
        rank[x, f] = np.arange(len(f))
    blocks, V, weights = {}, {}, {}
    off = 0
    for e, points in ideals.items():
        blocks[e] = (off, sizes[e])
        off += sizes[e]
        r = radix[e]
        weights[e] = np.array([math.prod(r[k + 1:]) for k in range(len(r))], dtype=np.int64)
        digits = np.arange(sizes[e])[:, None] // weights[e] % r
        V[e] = np.stack([fibers[x][d] for x, d in zip(points, digits.T)], axis=1)
    pkt = PointwisePower(K, T, blocks, ideals, V, rank, weights, None, None, None)
    table = np.empty((total, total), dtype=np.int64)
    for e, (oe, me) in blocks.items():
        for f, (of, mf) in blocks.items():
            g = int(T.table[e, f])
            Bv = V[f][:, np.searchsorted(ideals[f], ideals[g])]
            ixe = np.searchsorted(ideals[e], ideals[g])
            step = max(1, core.BLOCK_CELLS // max(1, mf * len(ixe)))
            for r0 in range(0, me, step):
                Av = V[e][r0:r0 + step][:, ixe]
                # the pointwise products, in K's narrow dtype
                table[oe + r0:oe + r0 + len(Av), of:of + mf] = pkt.encode(
                    g, K.narrow[Av[:, None, :], Bv[None, :, :]], "product",
                    lambda i, j: (oe + r0 + i, of + j))
    names = None
    if total <= NAME_CAP:
        names = tuple("{" + ",".join(f"{T.name_of(x)}>{K.name_of(v)}"
                                     for x, v in zip(ideals[e].tolist(), row)) + "}"
                      for e in ideals for row in V[e].tolist())
    sg = core.validate(table, names=names)
    act = np.empty((T.order, total), dtype=np.int64)
    for t in range(T.order):
        for e, (oe, me) in blocks.items():
            e2 = int(T.rans[T.table[t, e]])
            # x in T.ran(te) takes the value the map has at xt, a point of Te
            cols = np.searchsorted(ideals[e], T.table[ideals[e2], t])
            act[t, oe:oe + me] = pkt.encode(e2, V[e][:, cols], "action",
                                            lambda i: (t, oe + i))
    action = actions.validate_action(T, sg, act)
    eps = actions.validate_eps(sg, T, np.repeat(list(ideals), list(sizes.values())))
    return dataclasses.replace(pkt, sg=sg, action=action, eps=eps)


@dataclass(frozen=True, eq=False)
class HoughtonWreath:
    K: InverseSemigroup
    T: InverseSemigroup
    pkt: PointwisePower         # P(K,T), or P_eta under the eta-wreath
    elements: np.ndarray        # rows (power index, t)
    sg: InverseSemigroup
    pi2: morphisms.Morphism
    rsd: PairProduct


def wreath_order(K, T, fibers=None):
    """Sum over t of the number of maps on T.ran(t) with values in the
    fibers (all of K when fibers is None)."""
    size = [K.order] * T.order if fibers is None else [len(f) for f in fibers]
    ideals = _ideals(T)
    return sum(math.prod(size[x] for x in ideals[int(T.rans[t])]) for t in range(T.order))


def _wreath_over(K, T, fibers=None):
    """The restricted pair product by T of the pointwise power over fibers.
    Its carrier {(p,t): eps(p) = ran t} has wreath_order elements, which
    are refused past WREATH_CAP before any table is built."""
    total = wreath_order(K, T, fibers)
    if total > WREATH_CAP:
        raise TooLarge("wreath order", total, WREATH_CAP)
    pkt = build_pkt(K, T, fibers)
    rsd = build_rsd(pkt.sg, T, pkt.action, pkt.eps)
    return HoughtonWreath(K, T, pkt, rsd.elements, rsd.sg, rsd.pi2, rsd)


def build_hwr(K, T):
    """Pairs (map on T.ran(t), t), multiplied by pointwise-product-and-shift."""
    return _wreath_over(K, T)


def _eta_fibers(eta):
    """Each x's fiber: the kernel class over ran(x), eta an EpsilonMap K ->> E(T)."""
    T = eta.T
    return [np.flatnonzero(eta.map == T.rans[x]) for x in range(T.order)]


def build_p_eta(eta):
    """The pointwise power of the maps sending each x into the kernel fiber
    over ran(x): over e it is the direct product of those kernel classes."""
    return build_pkt(eta.K, eta.T, _eta_fibers(eta))


def build_hwr_eta(eta):
    return _wreath_over(eta.K, eta.T, _eta_fibers(eta))


@dataclass(frozen=True, eq=False)
class LambdaWreath:
    K: InverseSemigroup
    T: InverseSemigroup
    power: InverseSemigroup
    digits: np.ndarray          # power index -> value at each T element
    weights: np.ndarray
    action: EndoAction
    elements: np.ndarray        # rows (power index, t)
    sg: InverseSemigroup
    pi2: morphisms.Morphism
    lsd: PairProduct


def build_lwr(K, T):
    """The unrestricted pair product over the full direct power of K."""
    nK, nT = K.order, T.order
    nP = nK ** nT
    if nP > WREATH_CAP:
        raise TooLarge("full power order", nP, WREATH_CAP)
    w = nK ** np.arange(nT - 1, -1, -1)
    D = np.arange(nP)[:, None] // w % nK
    table = np.empty((nP, nP), dtype=np.int64)
    step = max(1, core.BLOCK_CELLS // max(1, nP * nT))
    for r0 in range(0, nP, step):
        # coordinatewise products in K's narrow dtype, summed into int64 by einsum
        C = K.narrow[D[r0:r0 + step, None, :], D[None, :, :]]
        table[r0:r0 + len(C)] = np.einsum("...k,k->...", C, w)
    power = core.validate(table)
    # inverses and idempotents are taken coordinatewise
    _require(power.inv != K.inv[D] @ w, "power inverse differs from the coordinate formula")
    kid = np.zeros(nK, dtype=bool)
    kid[list(K.idempotents)] = True
    _require(np.isin(np.arange(nP), power.idempotents) != kid[D].all(axis=1),
             "power idempotents differ from the coordinate formula")
    act = np.empty((nT, nP), dtype=np.int64)
    for t in range(nT):
        act[t] = D[:, T.table[:, t]] @ w
    paction = actions.validate_action(T, power, act)
    total = wreath_order(K, T)
    if total > WREATH_CAP:
        raise TooLarge("wreath order", total, WREATH_CAP)
    lsd = build_lsd(power, T, paction)
    if lsd.sg.order != total:
        raise ProductInvalid("wreath order differs from the formula", (lsd.sg.order, total))
    return LambdaWreath(K, T, power, D, w, paction, lsd.elements, lsd.sg, lsd.pi2, lsd)


def Psi_remark(lwr, hwr):
    """Restrict each total map to the ideal of ran(t); bijective morphism."""
    _require_over(lwr.K, lwr.T, hwr=hwr)
    F, U = lwr.elements.T
    restricted = hwr.pkt.locate(lwr.T.rans[U], lwr.digits[F])
    psi = morphisms.is_homomorphism(hwr.rsd.pairdex[restricted, U], lwr.sg, hwr.sg)
    _require_bijective(psi, "Psi")
    return psi


def hbar_inverse(lwr, hwr):
    """Extend each ideal map to a total one along x -> x.ran(t)."""
    P, U = hwr.elements.T
    # eps(p) = ran(t) on the restricted carrier
    total = hwr.pkt.extend(P)
    phi = morphisms.is_homomorphism(lwr.lsd.pairdex[total @ lwr.weights, U], hwr.sg, lwr.sg)
    _require_bijective(phi, "hbar inverse")
    return phi
