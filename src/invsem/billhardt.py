"""Congruence transversals valued in the translational hull.

A transversal picks, for each quotient class t, a hull pair xi(t) whose
induced pair on the quotient is inner at t, such that dom(xi(t))
dominates dom(w) for every other pair w in the generated subsemigroup
lying over t.  Split transversals are additionally multiplicative.
These are the data that let a congruence be rebuilt as a restricted
pair product, and that embed a congruence pair into a wreath product
over the quotient.
"""

import weakref
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import actions, congruences, core, morphisms, products, trhull
from .core import TooLarge

SEARCH_CAP = 200_000
FORWARD_HULL_BOUND = 20
PROP_EXTRAS_CAP = 10
_SBAR = weakref.WeakKeyDictionary()     # hull -> {chosen: _sbar(hull, chosen)}, dies with the hull


class NotSplit(Exception):
    pass


class TransversalInvalid(Exception):
    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason} at {witness}")


@dataclass(frozen=True, eq=False)
class Transversal:
    he: trhull.HullOfExtension
    xi: np.ndarray              # quotient element -> member position
    split: bool

    def xi_pair(self, t):
        return self.he.member_bitr(int(self.xi[t]))


def down_fiber(he, t):
    return [int(i) for i in np.flatnonzero(he.down == t)]


def check_B1(tr):
    """Every chosen pair must induce the inner pair of its own class."""
    he = tr.he
    for t in range(he.Q.order):
        if int(he.down[tr.xi[t]]) != t:
            return False, t
    return True, None


def _sbar(he, img):
    """Members generated by the inner pairs plus the chosen ones, memoised per hull."""
    memo = _SBAR.setdefault(he, {})
    if img not in memo:
        seeds = set(int(i) for i in he.pi_member) | set(img)
        memo[img] = frozenset(core.generated_subsemigroup(he.sg, seeds).members)
    return memo[img]


_sbar.cache_clear = _SBAR.clear     # as on an lru_cache: bench/run.py clears it between passes


def sbar_members(tr):
    return _sbar(tr.he, frozenset(int(i) for i in tr.xi))


def check_B2(tr, sbar=None):
    """dom(xi(t)) dominates dom(w) for every generated pair over t."""
    he = tr.he
    if sbar is None:
        sbar = sbar_members(tr)
    chosen = set(int(i) for i in tr.xi)
    leq = he.sg.leq
    doms = he.sg.doms
    for w in sorted(sbar):
        if w in chosen:
            continue
        t = int(he.down[w])
        if not leq[doms[w], doms[tr.xi[t]]]:
            return False, (t, w)
    return True, None


def check_sB2(tr):
    """Split form: dom(xi(dom t)) dominates every inner dom over dom t."""
    he = tr.he
    leq = he.sg.leq
    for s in range(he.S.order):
        t = int(he.qmap[s])
        dom_t = int(he.Q.doms[t])
        if not leq[he.pi_member[he.S.doms[s]], tr.xi[dom_t]]:
            return False, s
    return True, None


def xi_multiplicative(tr):
    he = tr.he
    tab = he.sg.table
    for t in range(he.Q.order):
        for u in range(he.Q.order):
            if tab[tr.xi[t], tr.xi[u]] != tr.xi[he.Q.table[t, u]]:
                return False, (t, u)
    return True, None


def validate_transversal(tr):
    """Check every axiom; raise on the first failure, return the record."""
    he = tr.he
    ok, w = check_B1(tr)
    if not ok:
        raise TransversalInvalid("induced-pair-mismatch", w)
    # the chosen pair of the inverse class is forced to be the inverse pair
    for t in range(he.Q.order):
        assert int(he.down[he.sg.inv[tr.xi[t]]]) == int(he.Q.inv[t])
    ok2, w2 = check_B2(tr)
    record = {"B1": True, "B2": ok2}
    if tr.split:
        okm, wm = xi_multiplicative(tr)
        if not okm:
            raise TransversalInvalid("not-multiplicative", wm)
        oks, ws = check_sB2(tr)
        record["multiplicative"] = True
        record["sB2"] = oks
        # for multiplicative choices the two dominance forms agree
        assert oks == ok2, (oks, ok2)
    if not ok2:
        raise TransversalInvalid("dominance-failure", w2)
    return record


def split_closure_check(tr):
    """A multiplicative choice adds nothing new to the generated part."""
    he = tr.he
    sbar = sbar_members(tr)
    inner = set(int(i) for i in he.pi_member)
    chosen = set(int(i) for i in tr.xi)
    out = {"no_new_elements": sbar == inner | chosen}
    idem_down = {w for w in sbar if he.Q.is_idempotent(int(he.down[w]))}
    inner_kernel = {int(he.pi_member[s]) for s in range(he.S.order)
                    if he.Q.is_idempotent(int(he.qmap[s]))}
    chosen_idem = {int(tr.xi[e]) for e in he.Q.idempotents}
    out["kernel_part_shape"] = idem_down == inner_kernel | chosen_idem
    return out


def chosen_are_dominant_reps(tr):
    """Restated dominance: each chosen pair is a dom-maximum of its fiber
    inside the generated part."""
    he = tr.he
    sbar = sbar_members(tr)
    leq = he.sg.leq
    doms = he.sg.doms
    return all(leq[doms[w], doms[tr.xi[int(he.down[w])]]] for w in sbar)


def classify_classical(tr):
    """Inner-valued transversals witness the stronger classical property."""
    inner = set(int(i) for i in tr.he.pi_member)
    if not all(int(v) in inner for v in tr.xi):
        return "neither"
    return "split-billhardt" if tr.split else "billhardt"


def enumerate_transversals(S, theta, want_split=False, he=None):
    """All valid choices, classes in quotient order, candidates by position."""
    if he is None:
        he = trhull.hull_of_extension(S, theta)
    Q = he.Q
    cands = [down_fiber(he, t) for t in range(Q.order)]
    total = 1
    for c in cands:
        total *= max(1, len(c))
        if total > SEARCH_CAP:
            raise TooLarge("transversal search space", total, SEARCH_CAP)
    if want_split:
        # a split choice is a homomorphism Q -> hull members inside the fibers
        choices = morphisms.search_homomorphisms(Q.table, he.sg.table, cands)
    else:
        choices = product(*cands)
    for xi in choices:
        tr = Transversal(he, np.array(xi, dtype=np.int64), want_split)
        try:
            validate_transversal(tr)
        except TransversalInvalid:
            continue
        yield tr


def find_transversal(S, theta, want_split=False, he=None):
    return next(enumerate_transversals(S, theta, want_split, he), None)


def dominant_rep_candidates(S, theta):
    """Per class, the elements whose domain dominates the whole class."""
    leq = S.leq
    doms = S.doms
    out = []
    for cls in theta.classes():
        cls = list(cls)
        out.append([m for m in cls if all(leq[doms[x], doms[m]] for x in cls)])
    return out


def classical_billhardt_on(S, theta, want_split=False):
    """Intrinsic test: a dominant representative per class, and for the
    split form a multiplicatively closed system of them."""
    cands = dominant_rep_candidates(S, theta)
    if any(not c for c in cands):
        return False, None
    if not want_split:
        return True, [c[0] for c in cands]
    # a closed system is a homomorphism S/theta -> S choosing within the classes
    reps = theta.reps()
    quotient_table = theta.class_of[S.table[np.ix_(reps, reps)]]
    m = next(morphisms.search_homomorphisms(quotient_table, S.table, cands), None)
    return (False, None) if m is None else (True, m.tolist())


def _subsemigroups_containing_inner(he):
    inner = frozenset(int(i) for i in he.pi_member)
    extras = sorted(set(range(he.sg.order)) - inner)
    if len(extras) > PROP_EXTRAS_CAP:
        raise TooLarge("hull remainder", len(extras), PROP_EXTRAS_CAP)
    seen = set()
    out = []
    for mask in range(1 << len(extras)):
        seeds = set(inner) | {extras[i] for i in range(len(extras))
                              if mask >> i & 1}
        closed = frozenset(core.generated_subsemigroup(he.sg, seeds).members)
        if closed not in seen:
            seen.add(closed)
            out.append(closed)
    return out


def prop39_check(S, theta, he=None):
    """Transversal existence matches the existence of an intermediate
    subsemigroup of the hull on which the fiber congruence has dominant
    (resp. multiplicative dominant) class representatives."""
    if he is None:
        he = trhull.hull_of_extension(S, theta)
    out = {}
    for split in (False, True):
        lhs = find_transversal(S, theta, want_split=split, he=he) is not None
        rhs = False
        for members in _subsemigroups_containing_inner(he):
            sub, elems = core.subsemigroup(he.sg, sorted(members))
            restricted = congruences.congruence_from_map(sub, he.down[elems])
            ok, _ = classical_billhardt_on(sub, restricted, want_split=split)
            if ok:
                rhs = True
                break
        key = "split" if split else "plain"
        out[key] = (lhs, rhs)
        out[f"{key}_equivalent"] = lhs == rhs
    return out


def theorem310_forward(P, he=None):
    """The shift pairs of a restricted pair product form a split choice."""
    theta = congruences.congruence_from_map(P.sg, P.pi2.map)
    if he is None:
        he = trhull.hull_of_extension(
            P.sg, theta, hull=trhull.enumerate_hull(P.sg, FORWARD_HULL_BOUND))
    member_pos = {int(m): i for i, m in enumerate(he.members)}
    xi = np.empty(he.Q.order, dtype=np.int64)
    # the quotient classes are labelled in first-appearance order of pi2
    q_of_t = {}
    for i in range(len(P.elements)):
        t = int(P.pi2.map[i])
        q = int(he.qmap[i])
        assert q_of_t.setdefault(t, q) == q
    for t, q in q_of_t.items():
        w = trhull.omega_bracket(P, t)
        hull_idx = he.hull.index[w.key()]
        xi[q] = member_pos[hull_idx]
    tr = Transversal(he, xi, True)
    validate_transversal(tr)
    return tr


def _inner_element_of(he):
    return {int(he.pi_member[s]): s for s in range(he.S.order)}


def theorem310_backward(S, theta, tr):
    """Rebuild the congruence pair as a restricted pair product and hand
    back the witnessing isomorphism."""
    he = tr.he
    assert he.S is S and he.theta == theta
    if not tr.split:
        raise NotSplit("a multiplicative transversal is required")
    validate_transversal(tr)
    Q, qmap = he.Q, he.qmap
    kelems_set = congruences.kernel(theta).members
    Ksub, kelems = core.subsemigroup(S, sorted(kelems_set))
    kpos = {int(a): i for i, a in enumerate(kelems)}
    elt_of = _inner_element_of(he)
    tab = he.sg.table
    inv_xi = he.sg.inv[tr.xi]

    act = np.empty((Q.order, Ksub.order), dtype=np.int64)
    for t in range(Q.order):
        w = tr.xi_pair(t)
        winv = he.member_bitr(int(inv_xi[t]))
        for i, a in enumerate(kelems):
            pos = int(tab[tab[tr.xi[t], he.pi_member[a]], inv_xi[t]])
            moved = elt_of[pos]
            # conjugating the inner pair equals translating the element
            assert moved == int(w.left[winv.right[a]])
            act[t, i] = kpos[moved]
    action = actions.validate_action(Q, Ksub, act)
    eps = actions.validate_eps(Ksub, Q, qmap[kelems])
    ok, w_afr = actions.check_AFR(action, eps)
    if not ok:
        raise actions.AFRViolated(w_afr)
    prod = products.build_rsd(Ksub, Q, action, eps)

    values = np.empty(S.order, dtype=np.int64)
    for s in range(S.order):
        t = int(qmap[s])
        pos = int(tab[he.pi_member[s], inv_xi[t]])
        a_s = elt_of[pos]
        winv = he.member_bitr(int(inv_xi[t]))
        assert a_s == int(winv.right[s])
        values[s] = prod.index[(kpos[a_s], t)]
    phi = morphisms.is_homomorphism(values, S, prod.sg)
    assert phi.bijective
    sol_src = morphisms.ExtensionSolution(S, theta)
    sol_dst = morphisms.ExtensionSolution(prod.sg, products.pi2_congruence(prod))
    assert morphisms.solution_embedding(phi, sol_src, sol_dst, iso=True)
    return prod, phi


@dataclass(frozen=True, eq=False)
class WreathEmbedding:
    triple: morphisms.NormalExtensionTriple
    hwr_eta: products.HoughtonWreath
    psi: morphisms.Morphism
    f_elements: dict            # (s, t in the ideal) -> element of S
    phi: morphisms.Morphism | None
    route_consistent: bool | None


def _transversal_conjugate(tr, A, s, B):
    """The element whose inner pair is xi(A) . pi_s . xi(B)^-1."""
    he = tr.he
    tab = he.sg.table
    pos = int(tab[tab[tr.xi[A], he.pi_member[s]], he.sg.inv[tr.xi[B]]])
    return pos


def recovery_identity_holds(tr, s, printed_variant=False):
    """Pull the embedded element back out of its class-restricted map."""
    he = tr.he
    tab = he.sg.table
    t = int(he.qmap[s])
    u = int(he.Q.rans[t])
    f_u = _transversal_conjugate(tr, u, s, int(he.Q.table[u, t]))
    last = he.sg.inv[tr.xi[t]] if printed_variant else tr.xi[t]
    pos = int(tab[tab[he.sg.inv[tr.xi[u]], f_u], last])
    return pos == int(he.pi_member[s])


def thm42_embedding(S, theta, tr):
    """Embed the congruence pair into the fiber-compatible wreath product
    of its kernel by its quotient."""
    he = tr.he
    assert he.S is S and he.theta == theta
    validate_transversal(tr)
    Q, qmap = he.Q, he.qmap
    kelems_set = congruences.kernel(theta).members
    Ksub, kelems = core.subsemigroup(S, sorted(kelems_set))
    kpos = {int(a): i for i, a in enumerate(kelems)}
    elt_of = _inner_element_of(he)
    triple = morphisms.make_triple(Ksub, Q, qmap[kelems])

    hwe = products.build_hwr_eta(triple)
    peta = hwe.pkt

    f_elements = {}
    psi_vals = np.empty(S.order, dtype=np.int64)
    for s in range(S.order):
        t = int(qmap[s])
        u = int(Q.rans[t])
        vals = []
        for x in peta.ctx.ideals[u]:
            B = int(Q.table[x, t])
            pos = _transversal_conjugate(tr, x, s, B)
            elt = elt_of[pos]
            # the two one-sided application orders agree
            wA = tr.xi_pair(x)
            wB = he.member_bitr(int(he.sg.inv[tr.xi[B]]))
            assert elt == int(wA.left[wB.right[s]]) == int(wB.right[wA.left[s]])
            # the value lands in the kernel fiber over ran(x)
            assert int(qmap[elt]) == int(Q.rans[x])
            f_elements[(s, int(x))] = elt
            vals.append(kpos[elt])
        pfe = products.PartialFunctionElement(u, tuple(vals))
        psi_vals[s] = hwe.index[(peta.index[pfe], t)]
        assert recovery_identity_holds(tr, s)
    psi = morphisms.is_homomorphism(psi_vals, S, hwe.sg)
    assert psi.injective

    try:
        hwr_plain = products.build_hwr(Ksub, Q)
        lwr = products.build_lwr(Ksub, Q)
    except TooLarge:
        return WreathEmbedding(triple, hwe, psi, f_elements, None, None)
    phi_vals = np.empty(S.order, dtype=np.int64)
    for s in range(S.order):
        t = int(qmap[s])
        u = int(Q.rans[t])
        digits = np.empty(Q.order, dtype=np.int64)
        for x in range(Q.order):
            A = int(Q.table[x, u])
            B = int(Q.table[x, t])
            digits[x] = kpos[elt_of[_transversal_conjugate(tr, A, s, B)]]
        phi_vals[s] = lwr.index[(int(digits @ lwr.weights), t)]
    phi = morphisms.is_homomorphism(phi_vals, S, lwr.sg)
    assert phi.injective
    restrict = products.Psi_remark(lwr, hwr_plain)
    # the two routes must land on the same map, compared by value
    route_consistent = True
    for s in range(S.order):
        p, t = hwr_plain.elements[restrict.map[phi.map[s]]]
        lp, u = hwe.elements[psi.map[s]]
        if (hwr_plain.pkt.elements[p], t) != (peta.elements[lp], u):
            route_consistent = False
    return WreathEmbedding(triple, hwe, psi, f_elements, phi, route_consistent)
