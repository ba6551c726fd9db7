"""Translational hulls: linked pairs of outer translations.

A left translation satisfies lam(st) = lam(s)t, a right one (st)rho =
s((t)rho), and a linked pair additionally s(lam(t)) = ((s)rho)t.  Inner
pairs come from multiplication by a fixed element; the hull is the
inverse monoid of all linked pairs, enumerated by backtracking over the
idempotent values (which determine a translation on an inverse
semigroup) with a dumb full-scan engine as the oracle.
"""

from dataclasses import dataclass

import numpy as np

from . import congruences, core, morphisms
from .core import InverseSemigroup, TooLarge

HULL_BOUND = 8
NAIVE_BOUND = 5


class DoesNotRespect(Exception):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"translation is not constant on the classes at {witness}")


@dataclass(frozen=True, eq=False)
class Bitranslation:
    S: InverseSemigroup
    left: np.ndarray
    right: np.ndarray

    def key(self):
        return (self.left.tobytes(), self.right.tobytes())

    def __eq__(self, other):
        return (isinstance(other, Bitranslation) and self.S is other.S
                and self.key() == other.key())

    def __hash__(self):
        return hash((id(self.S), self.key()))


def is_left_translation(S, lam):
    lam = np.asarray(lam)
    return bool(np.array_equal(lam[S.table], S.table[lam]))


def is_right_translation(S, rho):
    rho = np.asarray(rho)
    return bool(np.array_equal(rho[S.table], S.table[:, rho]))


def is_linked(S, lam, rho):
    # s . lam(t) == (s)rho . t
    return bool(np.array_equal(S.table[:, lam], S.table[rho]))


def is_bitranslation(S, omega):
    return (is_left_translation(S, omega.left)
            and is_right_translation(S, omega.right)
            and is_linked(S, omega.left, omega.right))


def inner(S, s):
    return Bitranslation(S, S.table[s].copy(), S.table[:, s].copy())


def compose_bitr(w1, w2):
    S = w1.S
    assert w2.S is S
    return Bitranslation(S, w1.left[w2.left], w2.right[w1.right])


def inverse_bitr(w):
    # left'(s) = ((s^-1)rho)^-1 and (s)right' = (lam(s^-1))^-1
    S = w.S
    return Bitranslation(S, S.inv[w.right[S.inv]], S.inv[w.left[S.inv]])


def natural_leq_bitr(w1, w2):
    prod = compose_bitr(compose_bitr(w1, inverse_bitr(w1)), w2)
    return prod.key() == w1.key()


def _one_sided_translations(table, inv):
    """All maps with lam(st) = lam(s)t, by assigning idempotent values."""
    n = len(table)
    ar = np.arange(n)
    rans = table[ar, inv]
    idems = [e for e in range(n) if table[e, e] == e]
    cand = {e: sorted({int(x) for x in table[:, e]}) for e in idems}
    results = []
    assign = {}
    order = sorted(idems, key=lambda e: len(cand[e]))

    def leaf():
        lam = np.empty(n, dtype=np.int64)
        for s in range(n):
            lam[s] = table[assign[int(rans[s])], s]
        if np.array_equal(lam[table], table[lam]):
            results.append(lam)

    def dfs(i):
        if i == len(order):
            leaf()
            return
        e = order[i]
        for v in cand[e]:
            ok = True
            for f, wf in assign.items():
                g = int(table[e, f])
                if table[v, f] != table[wf, e]:
                    ok = False
                    break
                if g in assign and assign[g] != table[v, f]:
                    ok = False
                    break
            if ok:
                assign[e] = v
                dfs(i + 1)
                del assign[e]

    dfs(0)
    return results


@dataclass(frozen=True, eq=False)
class TranslationalHull:
    S: InverseSemigroup
    elements: tuple             # Bitranslation, canonically ordered
    index: dict                 # key -> position
    sg: InverseSemigroup
    inner_of: np.ndarray        # s -> position of the inner pair at s
    identity: int


def _hull_from_pairs(S, pairs):
    elements = tuple(sorted(pairs, key=lambda w: w.key()))
    index = {w.key(): i for i, w in enumerate(elements)}
    m = len(elements)
    table = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            k = compose_bitr(a, b).key()
            assert k in index, "hull not closed under composition"
            table[i, j] = index[k]
    inner_of = np.empty(S.order, dtype=np.int64)
    for s in range(S.order):
        inner_of[s] = index[inner(S, s).key()]
    names = [f"w{i}" for i in range(m)]
    for s in range(S.order):
        names[inner_of[s]] = f"pi_{S.name_of(s)}"
    ident = index[Bitranslation(S, np.arange(S.order), np.arange(S.order)).key()]
    names[ident] = "id"
    sg = core.validate(table, names=tuple(names))
    # the semigroup inverse must match the coordinate formula
    for i, w in enumerate(elements):
        assert sg.inv[i] == index[inverse_bitr(w).key()]
    return TranslationalHull(S, elements, index, sg, inner_of, ident)


def enumerate_hull(S, bound=None):
    """All bitranslations of S; refused past bound (HULL_BOUND when None)."""
    bound = HULL_BOUND if bound is None else bound
    if S.order > bound:
        raise TooLarge("hull enumeration", S.order, bound)
    lefts = _one_sided_translations(S.table, S.inv)
    opp = np.ascontiguousarray(S.table.T)
    rights = _one_sided_translations(opp, S.inv)
    by_mat = {}
    for rho in rights:
        by_mat.setdefault(S.table[rho].tobytes(), []).append(rho)
    pairs = []
    for lam in lefts:
        match = by_mat.get(S.table[:, lam].tobytes(), [])
        assert len(match) <= 1, "left part fails to determine the pair"
        for rho in match:
            pairs.append(Bitranslation(S, lam, rho))
    # distinct pairs have distinct left parts and distinct right parts
    assert len({w.left.tobytes() for w in pairs}) == len(pairs)
    assert len({w.right.tobytes() for w in pairs}) == len(pairs)
    return _hull_from_pairs(S, pairs)


def naive_hull(S):
    """Scan all n^n maps for both laws, then link-match; the slow oracle."""
    n = S.order
    if n > NAIVE_BOUND:
        raise TooLarge("naive hull enumeration", n, NAIVE_BOUND)
    T = S.table
    lefts, rights = [], []
    for idx in range(n ** n):
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % n)
            rest //= n
        m = np.array(digits[::-1], dtype=np.int64)
        if is_left_translation(S, m):
            lefts.append(m)
        if is_right_translation(S, m):
            rights.append(m)
    pairs = []
    for lam in lefts:
        for rho in rights:
            if is_linked(S, lam, rho):
                pairs.append(Bitranslation(S, lam, rho))
    return _hull_from_pairs(S, pairs)


def inner_is_ideal(hull):
    """Products of anything with an inner pair stay inner."""
    inner_set = set(int(i) for i in hull.inner_of)
    tab = hull.sg.table
    for i in inner_set:
        if not all(int(tab[i, j]) in inner_set and int(tab[j, i]) in inner_set
                   for j in range(hull.sg.order)):
            return False
    return True


def hull_identities(hull):
    """The element-vs-pair interaction laws, checked exhaustively."""
    S = hull.S
    out = {}
    ok = True
    for i, w in enumerate(hull.elements):
        coords_idem = all(
            w.left[e] == w.right[e] and S.is_idempotent(int(w.left[e]))
            for e in S.idempotents)
        if coords_idem != hull.sg.is_idempotent(i):
            ok = False
    out["idempotent_iff_agree_on_idempotents"] = ok
    out["inverse_of_applied"] = all(
        np.array_equal(S.inv[w.left], inverse_bitr(w).right[S.inv])
        for w in hull.elements)
    ok = True
    for i, w in enumerate(hull.elements):
        for s in range(S.order):
            left_prod = hull.sg.table[i, hull.inner_of[s]]
            if left_prod != hull.inner_of[w.left[s]]:
                ok = False
            right_prod = hull.sg.table[hull.inner_of[s], i]
            if right_prod != hull.inner_of[w.right[s]]:
                ok = False
    out["pair_times_inner_is_inner"] = ok
    out["left_determined_by_idempotents"] = all(
        np.array_equal(w.left, S.table[w.left[S.rans], np.arange(S.order)])
        for w in hull.elements)
    out["right_determined_by_idempotents"] = all(
        np.array_equal(w.right, S.table[np.arange(S.order), w.right[S.doms]])
        for w in hull.elements)
    return out


def respects(omega, theta):
    """Both coordinates send related elements to related elements."""
    c = theta.class_of
    rep_of = theta.reps()[c]
    return bool((c[omega.left] == c[omega.left[rep_of]]).all()
                and (c[omega.right] == c[omega.right[rep_of]]).all())


def downharp(omega, theta, quotient_pair=None):
    """The induced pair on the quotient; raises if classes are torn."""
    if not respects(omega, theta):
        c = theta.class_of
        rep_of = theta.reps()[c]
        bad = np.flatnonzero((c[omega.left] != c[omega.left[rep_of]])
                             | (c[omega.right] != c[omega.right[rep_of]]))
        raise DoesNotRespect(int(bad[0]))
    if quotient_pair is None:
        quotient_pair = congruences.quotient(theta)
    Q, qmap = quotient_pair
    reps = theta.reps()
    lam = qmap[omega.left[reps]]
    rho = qmap[omega.right[reps]]
    w = Bitranslation(Q, lam, rho)
    assert is_bitranslation(Q, w)
    return w


@dataclass(frozen=True, eq=False)
class HullOfExtension:
    S: InverseSemigroup
    theta: congruences.Congruence
    hull: TranslationalHull
    Q: InverseSemigroup
    qmap: np.ndarray
    members: np.ndarray          # positions into hull.elements
    sg: InverseSemigroup         # the restricted hull as its own semigroup
    down: np.ndarray             # member -> Q element with induced pair inner
    omega: congruences.Congruence  # classes = fibers of down
    pi_member: np.ndarray        # s -> member position of the inner pair

    def member_bitr(self, i):
        return self.hull.elements[int(self.members[i])]


def hull_of_extension(S, theta, hull=None):
    """Restrict the hull to pairs whose induced quotient pair is inner."""
    if hull is None:
        hull = enumerate_hull(S)
    Q, qmap = congruences.quotient(theta)
    inner_q = {inner(Q, q).key(): q for q in range(Q.order)}
    members = []
    down = []
    for i, w in enumerate(hull.elements):
        # every translation of an inverse semigroup respects every congruence
        assert respects(w, theta)
        dq = downharp(w, theta, (Q, qmap))
        q = inner_q.get(dq.key())
        if q is not None:
            members.append(i)
            down.append(q)
    members = np.array(members, dtype=np.int64)
    down = np.array(down, dtype=np.int64)
    sub, elems = core.subsemigroup(hull.sg, members)
    assert np.array_equal(elems, members)
    omega = congruences.congruence_from_map(sub, down)
    posn = {int(m): i for i, m in enumerate(members)}
    pi_member = np.array([posn[int(hull.inner_of[s])] for s in range(S.order)],
                         dtype=np.int64)
    return HullOfExtension(S, theta, hull, Q, qmap, members, sub, down, omega, pi_member)


def omega_relation_signature(he):
    """The elementwise relation: same class iff both coordinate actions agree
    on every element up to theta.  Asserted equal to the fibers of down."""
    qc = he.qmap
    sig = {}
    out = np.empty(len(he.members), dtype=np.int64)
    for i in range(len(he.members)):
        w = he.member_bitr(i)
        k = (qc[w.left].tobytes(), qc[w.right].tobytes())
        out[i] = sig.setdefault(k, len(sig))
    return congruences._canon(out)


def prop35_check(he):
    """The induced-pair projection is a quotient map realizing Q."""
    out = {}
    down_m = morphisms.is_homomorphism(he.down, he.sg, he.Q)
    out["down_is_morphism"] = True
    out["down_surjective"] = down_m.surjective
    out["down_kernel_is_omega"] = bool(
        np.array_equal(congruences._canon(he.down), he.omega.class_of))
    sol_big = morphisms.ExtensionSolution(he.sg, he.omega)
    sol_small = morphisms.ExtensionSolution(he.S, he.theta)
    phi = morphisms.is_homomorphism(he.pi_member, he.S, he.sg)
    out["pi_embeds_solution"] = morphisms.solution_embedding(phi, sol_small, sol_big)
    Qh, qh = congruences.quotient(he.omega)
    iota = np.empty(he.Q.order, dtype=np.int64)
    for q in range(he.Q.order):
        s = int(np.flatnonzero(he.qmap == q)[0])
        iota[q] = qh[he.pi_member[s]]
    iota_m = morphisms.is_homomorphism(iota, he.Q, Qh)
    out["iota_bijective_morphism"] = iota_m.bijective
    return out


def omega_bracket(P, t):
    """The pair on a restricted product that multiplies the T part by t."""
    T = P.T
    act = P.action.act
    X, U = P.elements.T
    ut = T.table[U, t]
    lam = P.pairdex[act[t, X], T.table[t, U]]
    rho = P.pairdex[act[T.rans[ut], X], ut]
    if (lam < 0).any() or (rho < 0).any():
        raise ValueError(f"the shift by {t} leaves the carrier")
    return Bitranslation(P.sg, lam, rho)


def shift_pairs_are_translations(P):
    """Each T-shift pair is linked, respects the fiber congruence, and
    induces on the T side exactly multiplication by its element."""
    T = P.T
    pi2 = P.pi2.map
    theta = congruences.congruence_from_map(P.sg, pi2)
    out = {"linked": True, "respects_fibers": True, "induces_shift": True}
    for t in range(T.order):
        w = omega_bracket(P, t)
        if not is_bitranslation(P.sg, w):
            out["linked"] = False
        if not respects(w, theta):
            out["respects_fibers"] = False
        if not (np.array_equal(pi2[w.left], T.table[t, pi2])
                and np.array_equal(pi2[w.right], T.table[pi2, t])):
            out["induces_shift"] = False
    return out


def shift_embedding_check(P):
    """t -> shift pair is injective and multiplicative, and each shift pair
    agrees with every inner pair in its fiber after projecting to T."""
    T = P.T
    pi2 = P.pi2.map
    ws = [omega_bracket(P, t) for t in range(T.order)]
    out = {}
    out["injective"] = len({w.key() for w in ws}) == T.order
    out["multiplicative"] = all(
        compose_bitr(ws[t], ws[u]).key() == ws[T.table[t, u]].key()
        for t in range(T.order) for u in range(T.order))
    ok = True
    for i in range(len(P.elements)):
        u = int(pi2[i])
        pi_i = inner(P.sg, i)
        if not (np.array_equal(pi2[ws[u].left], pi2[pi_i.left])
                and np.array_equal(pi2[ws[u].right], pi2[pi_i.right])):
            ok = False
    out["fiber_mates_of_inner"] = ok
    return out


def shift_order_and_conjugation_check(P):
    """dom of a shift pair dominates dom of every inner pair in its fiber,
    and conjugating a kernel element by a shift pair applies the action."""
    T = P.T
    act = P.action.act
    pi2 = P.pi2.map
    ws = [omega_bracket(P, t) for t in range(T.order)]
    out = {"dom_formula": True, "dom_dominates": True, "conjugation": True}
    for t in range(T.order):
        w = ws[t]
        dom_w = compose_bitr(inverse_bitr(w), w)
        if dom_w.key() != ws[T.doms[t]].key():
            out["dom_formula"] = False
        for i in range(len(P.elements)):
            if int(pi2[i]) != t:
                continue
            if not natural_leq_bitr(inner(P.sg, int(P.sg.doms[i])), dom_w):
                out["dom_dominates"] = False
    kernel = np.flatnonzero(T.rans[P.elements[:, 1]] == P.elements[:, 1])
    C, E = P.elements[kernel].T
    for t in range(T.order):
        w, winv = ws[t], inverse_bitr(ws[t])
        moved = winv.right[w.left[kernel]]
        if not np.array_equal(moved, P.pairdex[act[t, C], T.rans[T.table[t, E]]]):
            out["conjugation"] = False
    return out
