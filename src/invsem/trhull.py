"""Translational hulls: linked pairs of outer translations.

A left translation satisfies lam(st) = lam(s)t, a right one (st)rho =
s((t)rho), and a linked pair additionally s(lam(t)) = ((s)rho)t.  Inner
pairs come from multiplication by a fixed element; the hull is the
inverse monoid of all linked pairs, enumerated by a frontier search over
the idempotent values (which determine a translation on an inverse
semigroup) with a dumb full-scan engine as the oracle.

A pair is two index arrays over S, (left, right), and several pairs are
two stacked arrays whose row i is pair i.  A hull keeps its pairs so, in
lexicographic order of the left part, which determines the pair; its
checks are gathers over those rows.

The one size rule counts cells, since the order of S does not predict the
cost (a zero with k atoms has order k + 1 and a hull of order 2^k): each
array whose size depends on the input is checked against HULL_BOUND before
it is built.  Each semigroup's hull is found once, as `InverseSemigroup.hull`.
"""

from dataclasses import dataclass

import numpy as np

from . import congruences, core, morphisms
from .core import InverseSemigroup, TooLarge

HULL_BOUND = 1 << 20    # cells of any one array built on the way to a hull


class DoesNotRespect(Exception):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"translation is not constant on the classes at {witness}")


class HullInvalid(core.Violation):
    """A hull or an induced pair broke its defining property; the witness says where."""


def _check_cells(cells):
    if cells > HULL_BOUND:
        raise TooLarge("hull enumeration cells", cells, HULL_BOUND)


def _cell(*cell):
    """A witness cell: an int for a 1-D mask, else a tuple."""
    return cell[0] if len(cell) == 1 else cell


def _require(bad, reason):
    core.require(bad, HullInvalid, reason, _cell)


def is_left_translation(S, lam):
    """lam(st) = lam(s)t; one verdict per row of stacked maps."""
    lam = np.asarray(lam)
    return (lam[..., S.table] == S.table[lam]).all(axis=(-2, -1))


def is_right_translation(S, rho):
    """(st)rho = s((t)rho); one verdict per row of stacked maps."""
    rho = np.asarray(rho)
    return (rho[..., S.table] == S.table.T[rho].swapaxes(-2, -1)).all(axis=(-2, -1))


def is_linked(S, lam, rho):
    """s . lam(t) = (s)rho . t; one verdict per row of stacked pairs."""
    return (S.table.T[lam].swapaxes(-2, -1) == S.table[rho]).all(axis=(-2, -1))


def is_bitranslation(S, lam, rho):
    """A linked pair of a left and a right translation; one verdict per row."""
    return is_left_translation(S, lam) & is_right_translation(S, rho) & is_linked(S, lam, rho)


def inner(S, s):
    """The inner pair at s, its row and column of the table; stacked for an array s."""
    return S.table[s], S.table.T[s]


def _inverse(S, left, right):
    # left'(s) = ((s^-1)rho)^-1 and (s)right' = (lam(s^-1))^-1
    return S.inv[right[..., S.inv]], S.inv[left[..., S.inv]]


def _compose(l1, r1, l2, r2):
    """The products (l1, r1)(l2, r2), rows broadcast against each other."""
    return np.take_along_axis(l1, l2, -1), np.take_along_axis(r2, r1, -1)


def _find_rows(keys, rows):
    """The position of each row among the rows of keys, -1 where absent; of
    equal keys the last counts."""
    both = np.concatenate([keys, rows])
    order = np.lexsort(both.T)      # equal rows end up next to each other
    runs = both[order]
    starts = np.ones(len(both), dtype=np.int64)
    starts[1:] = (runs[1:] != runs[:-1]).any(axis=1)
    label = np.empty(len(both), dtype=np.int64)
    label[order] = np.cumsum(starts) - 1
    pos = np.full(len(both), -1, dtype=np.int64)
    pos[label[:len(keys)]] = np.arange(len(keys))
    return pos[label[len(keys):]]


def locate(left, right, lam, rho):
    """The row of each pair (lam, rho) among the pairs (left, right), whose
    left parts are distinct; -1 for a pair not among them."""
    n = left.shape[1]
    pos = _find_rows(left, lam.reshape(-1, n)).reshape(lam.shape[:-1])
    pos[(right[pos] != rho).any(-1)] = -1
    return pos


def _one_sided_translations(table, inv):
    """All maps with lam(st) = lam(s)t, from their values at the idempotents.

    Such a map has lam(e) in Se and lam(e)f = lam(ef) = lam(f)e for
    idempotents e, f, and lam(s) = lam(ran s)s.  A stack of partial choices
    grows one idempotent at a time by the candidates in Se, keeping the rows
    that satisfy the first law against every idempotent chosen before; each
    row then extends by the second, and the translations among them stay.
    """
    n = len(table)
    ar = np.arange(n)
    idems = np.flatnonzero(table[ar, ar] == ar)
    lam = np.zeros((1, n), dtype=np.int64)     # rows: values at the idempotents so far
    for i, e in enumerate(idems.tolist()):
        cand = np.flatnonzero(table[:, e] == ar)   # Se: the x with xe = x
        _check_cells(len(lam) * len(cand) * n)
        lam = np.repeat(lam, len(cand), axis=0)
        lam[:, e] = np.resize(cand, len(lam))
        done = idems[:i]
        lam = lam[(table[lam[:, e, None], done] == table[lam[:, done], e]).all(axis=1)]
    _check_cells(len(lam) * n * n)
    lam = table[lam[:, table[ar, inv]], ar]
    return lam[(lam[:, table] == table[lam]).all(axis=(1, 2))]


@dataclass(frozen=True, eq=False)
class TranslationalHull:
    S: InverseSemigroup
    left: np.ndarray            # (m, |S|): row i is the left translation of pair i
    right: np.ndarray           # (m, |S|): row i is its right translation
    sg: InverseSemigroup
    inner_of: np.ndarray        # s -> row of the inner pair at s
    identity: int


def _hull_from_pairs(S, left, right):
    """The hull on the pairs (left[i], right[i]), rows sorted by left part,
    its table and inverses checked against the coordinate formulas."""
    order = np.lexsort(left.T[::-1])
    left, right = left[order], right[order]
    m, n = left.shape
    _require((left[1:] == left[:-1]).all(axis=1), "left part fails to determine the pair")
    _check_cells(m * m * n)
    # one lookup: each product w_i w_j, the inner pairs, the identity pair,
    # and each inverse pair
    ar = np.arange(n)
    prod_l, prod_r = _compose(left[:, None], right[:, None], left[None], right[None])
    inv_l, inv_r = _inverse(S, left, right)
    found = locate(left, right,
                   np.vstack([prod_l.reshape(m * m, n), S.table, ar, inv_l]),
                   np.vstack([prod_r.reshape(m * m, n), S.table.T, ar, inv_r]))
    table, inner_of, ident, inv = np.split(found, np.cumsum([m * m, n, 1]))
    table = table.reshape(m, m)
    _require(table < 0, "hull not closed under composition")
    _require(found[m * m:m * m + n + 1] < 0, "inner or identity pair missing from the hull")
    ident = int(ident[0])
    names = [f"w{i}" for i in range(m)]
    for s in range(n):
        names[inner_of[s]] = f"pi_{S.name_of(s)}"
    names[ident] = "id"
    sg = core.validate(table, names=tuple(names))
    # as sg.inv is a bijection, this also keeps two pairs from sharing a right part
    _require(inv != sg.inv, "inverse differs from the coordinate formula")
    return TranslationalHull(S, left, right, sg, inner_of, ident)


def enumerate_hull(S):
    """All bitranslations of S; refused when an array on the way would pass
    HULL_BOUND cells.  Read it as S.hull, which finds it once per S."""
    lefts = _one_sided_translations(S.table, S.inv)
    rights = _one_sided_translations(np.ascontiguousarray(S.table.T), S.inv)
    # lam and rho are linked iff the matrices s . lam(t) and (s)rho . t agree
    match = S.table[rights].reshape(len(rights), -1)
    j = _find_rows(match, S.table.T[lefts].swapaxes(-2, -1).reshape(len(lefts), -1))
    return _hull_from_pairs(S, lefts[j >= 0], rights[j[j >= 0]])


def naive_hull(S):
    """Scan all n^n maps for both laws, then link-match; the slow oracle."""
    n = S.order
    _check_cells(n ** n * n * n)
    maps = np.indices((n,) * n).reshape(n, -1).T
    lefts = maps[is_left_translation(S, maps)]
    rights = maps[is_right_translation(S, maps)]
    i, j = np.nonzero(is_linked(S, lefts[:, None], rights[None]))
    return _hull_from_pairs(S, lefts[i], rights[j])


def inner_is_ideal(hull):
    """Products of anything with an inner pair stay inner."""
    is_inner = np.zeros(hull.sg.order, dtype=bool)
    is_inner[hull.inner_of] = True
    tab = hull.sg.table
    return bool(is_inner[tab[hull.inner_of]].all() and is_inner[tab[:, hull.inner_of]].all())


def hull_identities(hull):
    """The element-vs-pair interaction laws, checked exhaustively."""
    S, L, R, sg = hull.S, hull.left, hull.right, hull.sg
    ar = np.arange(S.order)
    E = list(S.idempotents)
    LE = L[:, E]
    coords_idem = ((LE == R[:, E]) & (S.table[LE, LE] == LE)).all(axis=1)
    out = {"idempotent_iff_agree_on_idempotents": bool(np.array_equal(
        coords_idem, sg.table.diagonal() == np.arange(sg.order)))}
    out["inverse_of_applied"] = bool(np.array_equal(S.inv[L], _inverse(S, L, R)[1][:, S.inv]))
    out["pair_times_inner_is_inner"] = bool(
        np.array_equal(sg.table[:, hull.inner_of], hull.inner_of[L])
        and np.array_equal(sg.table[hull.inner_of].T, hull.inner_of[R]))
    out["left_determined_by_idempotents"] = bool(np.array_equal(L, S.table[L[:, S.rans], ar]))
    out["right_determined_by_idempotents"] = bool(np.array_equal(R, S.table[ar, R[:, S.doms]]))
    return out


def _torn(left, right, c, reps):
    """Where a coordinate sends an element out of the class of its class's image."""
    rep_of = reps[c]
    return (c[left] != c[left[..., rep_of]]) | (c[right] != c[right[..., rep_of]])


def respects(left, right, theta):
    """Both coordinates send related elements to related elements; one
    verdict per row of stacked pairs."""
    return ~_torn(left, right, theta.class_of, theta.reps()).any(axis=-1)


def downharp(left, right, theta):
    """The induced pair on the quotient, stacked for stacked pairs; raises
    DoesNotRespect at the least element of a torn class."""
    reps = theta.reps()
    cell = core.least_cell(_torn(left, right, theta.class_of, reps))
    if cell is not None:
        raise DoesNotRespect(_cell(*cell))
    Q, qmap = theta.quotient
    lam, rho = qmap[left[..., reps]], qmap[right[..., reps]]
    _require(np.atleast_1d(~is_bitranslation(Q, lam, rho)), "induced pair is not linked")
    return lam, rho


@dataclass(frozen=True, eq=False)
class HullOfExtension:
    S: InverseSemigroup
    theta: congruences.Congruence
    hull: TranslationalHull
    Q: InverseSemigroup
    qmap: np.ndarray
    members: np.ndarray          # rows of the hull
    sg: InverseSemigroup         # the restricted hull as its own semigroup
    down: np.ndarray             # member -> Q element with induced pair inner
    omega: congruences.Congruence  # classes = fibers of down
    pi_member: np.ndarray        # s -> member position of the inner pair


def hull_of_extension(S, theta):
    """Restrict the hull of S to pairs whose induced quotient pair is inner."""
    hull = S.hull
    Q, qmap = theta.quotient
    # every translation of an inverse semigroup respects every congruence
    q = locate(*inner(Q, np.arange(Q.order)), *downharp(hull.left, hull.right, theta))
    members = np.flatnonzero(q >= 0)
    down = q[members]
    sub, _ = core.subsemigroup(hull.sg, members)
    omega = congruences.congruence_from_map(sub, down)
    posn = np.full(hull.sg.order, -1, dtype=np.int64)
    posn[members] = np.arange(len(members))
    pi_member = posn[hull.inner_of]
    _require(pi_member < 0, "inner pair outside the extension hull")
    return HullOfExtension(S, theta, hull, Q, qmap, members, sub, down, omega, pi_member)


def omega_relation_signature(he):
    """The elementwise relation: same class iff both coordinate actions agree
    on every element up to theta.  Asserted equal to the fibers of down."""
    qc = he.qmap
    rows = np.hstack([qc[he.hull.left[he.members]], qc[he.hull.right[he.members]]])
    return congruences._canon(np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1))


def prop35_check(he):
    """The induced-pair projection is a quotient map realizing Q."""
    out = {}
    down_m = morphisms.is_homomorphism(he.down, he.sg, he.Q)
    out["down_is_morphism"] = True
    out["down_surjective"] = down_m.surjective
    out["down_kernel_is_omega"] = bool(
        np.array_equal(congruences._canon(he.down), he.omega.class_of))
    phi = morphisms.is_homomorphism(he.pi_member, he.S, he.sg)
    out["pi_embeds_solution"] = morphisms.solution_embedding(phi, he.theta, he.omega)
    Qh, qh = he.omega.quotient
    # class q of theta, through its least member, to the class of its inner pair
    iota_m = morphisms.is_homomorphism(qh[he.pi_member[he.theta.reps()]], he.Q, Qh)
    out["iota_bijective_morphism"] = iota_m.bijective
    return out


def omega_bracket(P, t):
    """The pair on a restricted product that multiplies the T part by t;
    stacked, one row per element, for an array t."""
    T = P.T
    act = P.action.act
    X, U = P.elements.T
    t = np.asarray(t)[..., None]
    ut = T.table[U, t]
    lam = P.pairdex[act[t, X], T.table[t, U]]
    rho = P.pairdex[act[T.rans[ut], X], ut]
    off = ((lam < 0) | (rho < 0)).any(axis=-1)
    if off.any():
        raise ValueError(f"the shift by {int(t[off][0, 0])} leaves the carrier")
    return lam, rho


def shift_pairs_are_translations(P):
    """Each T-shift pair is linked, respects the fiber congruence, and
    induces on the T side exactly multiplication by its element."""
    T = P.T
    pi2 = P.pi2.map
    ts = np.arange(T.order)[:, None]
    lam, rho = omega_bracket(P, ts[:, 0])
    return {"linked": bool(is_bitranslation(P.sg, lam, rho).all()),
            "respects_fibers": bool(respects(lam, rho, P.pi2_congruence).all()),
            "induces_shift": bool(np.array_equal(pi2[lam], T.table[ts, pi2])
                                  and np.array_equal(pi2[rho], T.table[pi2, ts]))}


def shift_embedding_check(P):
    """t -> shift pair is injective and multiplicative, and each shift pair
    agrees with every inner pair in its fiber after projecting to T."""
    T = P.T
    pi2 = P.pi2.map
    lam, rho = omega_bracket(P, np.arange(T.order))
    equal = ((lam[:, None] == lam[None]) & (rho[:, None] == rho[None])).all(axis=-1)
    out = {"injective": bool(equal.sum() == T.order)}
    prod = _compose(lam[:, None], rho[:, None], lam[None], rho[None])
    out["multiplicative"] = bool(np.array_equal(prod[0], lam[T.table])
                                 and np.array_equal(prod[1], rho[T.table]))
    # row i: the shift pair over pi2(i) against the inner pair at i
    out["fiber_mates_of_inner"] = bool(np.array_equal(pi2[lam[pi2]], pi2[P.sg.table])
                                       and np.array_equal(pi2[rho[pi2]], pi2[P.sg.table.T]))
    return out


def shift_order_and_conjugation_check(P):
    """dom of a shift pair dominates dom of every inner pair in its fiber,
    and conjugating a kernel element by a shift pair applies the action."""
    S, T = P.sg, P.T
    ts = np.arange(T.order)[:, None]
    lam, rho = omega_bracket(P, ts[:, 0])
    lam_inv, rho_inv = _inverse(S, lam, rho)
    dom_l, dom_r = _compose(lam_inv, rho_inv, lam, rho)
    out = {"dom_formula": bool(np.array_equal(dom_l, lam[T.doms])
                               and np.array_equal(dom_r, rho[T.doms]))}
    # row i: the inner pair a at dom(i) below dom of the shift pair over pi2(i);
    # a is idempotent, so a <= b in the natural order iff ab = a
    a_l, a_r = inner(S, S.doms)
    below = _compose(a_l, a_r, dom_l[P.pi2.map], dom_r[P.pi2.map])
    out["dom_dominates"] = bool(np.array_equal(below[0], a_l) and np.array_equal(below[1], a_r))
    kernel = np.flatnonzero(T.rans[P.elements[:, 1]] == P.elements[:, 1])
    C, E = P.elements[kernel].T
    moved = np.take_along_axis(rho_inv, lam[:, kernel], -1)
    out["conjugation"] = bool(np.array_equal(
        moved, P.pairdex[P.action.act[ts, C], T.rans[T.table[ts, E]]]))
    return out
