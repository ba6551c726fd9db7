"""Congruence transversals valued in the translational hull.

A transversal picks, for each quotient class t, a hull pair xi(t) whose
induced pair on the quotient is inner at t, such that dom(xi(t))
dominates dom(w) for every other pair w in the generated subsemigroup
lying over t.  Split transversals are additionally multiplicative.
These are the data that let a congruence be rebuilt as a restricted
pair product, and that embed a congruence pair into the fiber-compatible
wreath product hwr-eta over the quotient.  The total-map route through
the lambda-wreath and the plain wreath is a separate cross-check of that
embedding, which builds both wreaths.
"""

import weakref
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import actions, congruences, core, morphisms, products, trhull
from .core import TooLarge

SEARCH_CAP = 200_000
PROP_EXTRAS_CAP = 10
_SBAR = weakref.WeakKeyDictionary()     # hull -> {chosen: _sbar(hull, chosen)}, dies with the hull


class NotSplit(Exception):
    pass


class TransversalInvalid(core.Violation):
    """A transversal broke an axiom; the witness says where."""


@dataclass(frozen=True, eq=False)
class Transversal:
    """A choice checked where it is made: construction runs
    `validate_transversal`, raising TransversalInvalid, and keeps its record."""
    he: trhull.HullOfExtension
    xi: np.ndarray              # quotient element -> member position
    split: bool
    record: dict = field(init=False, repr=False)    # axiom -> verdict

    def __post_init__(self):
        object.__setattr__(self, "record", validate_transversal(self))


def down_fiber(he, t):
    return [int(i) for i in np.flatnonzero(he.down == t)]


def _sbar(he, img):
    """Members generated by the inner pairs plus the chosen ones, memoised per hull."""
    memo = _SBAR.setdefault(he, {})
    if img not in memo:
        seeds = set(int(i) for i in he.pi_member) | set(img)
        memo[img] = core.generated_subsemigroup(he.sg, seeds)
    return memo[img]


_sbar.cache_clear = _SBAR.clear     # as on an lru_cache: bench/run.py clears it between passes


def sbar_members(tr):
    return _sbar(tr.he, frozenset(int(i) for i in tr.xi))


def check_B2(tr):
    """dom(xi(t)) dominates dom(w) for every generated pair over t."""
    he = tr.he
    other = np.zeros(len(he.down), dtype=bool)     # generated, but not chosen
    other[list(sbar_members(tr))] = True
    other[tr.xi] = False
    doms = he.sg.doms
    return _verdict(other & ~he.sg.leq[doms, doms[tr.xi[he.down]]],
                    lambda w: (int(he.down[w]), w))


def check_sB2(tr):
    """Split form: dom(xi(dom t)) dominates every inner dom over dom t."""
    he = tr.he
    return _verdict(~he.sg.leq[he.pi_member[he.S.doms], tr.xi[he.Q.doms[he.qmap]]], int)


def xi_multiplicative(tr):
    return _verdict(tr.he.sg.table[np.ix_(tr.xi, tr.xi)] != tr.xi[tr.he.Q.table])


def validate_transversal(tr):
    """Check every axiom; raise on the first failure, return the record."""
    he = tr.he
    # B1: every chosen pair induces the inner pair of its own class
    _require(he.down[tr.xi] != np.arange(he.Q.order), "induced-pair-mismatch", int)
    # the chosen pair of the inverse class is forced to be the inverse pair
    _require(he.down[he.sg.inv[tr.xi]] != he.Q.inv, "inverse pair lies over another class")
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
        if oks != ok2:
            raise TransversalInvalid("dominance forms disagree", {"B2": w2, "sB2": ws})
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
    idem = he.Q.table.diagonal() == np.arange(he.Q.order)
    idem_down = {w for w in sbar if idem[he.down[w]]}
    inner_kernel = set(he.pi_member[idem[he.qmap]].tolist())
    chosen_idem = {int(tr.xi[e]) for e in he.Q.idempotents}
    out["kernel_part_shape"] = idem_down == inner_kernel | chosen_idem
    return out


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
        try:
            yield Transversal(he, np.array(xi, dtype=np.int64), want_split)
        except TransversalInvalid:
            continue


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
        closed = core.generated_subsemigroup(he.sg, seeds)
        if closed not in seen:
            seen.add(closed)
            out.append(closed)
    return out


def prop39_check(S, theta):
    """Transversal existence matches the existence of an intermediate
    subsemigroup of the hull on which the fiber congruence has dominant
    (resp. multiplicative dominant) class representatives."""
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
    if he is None:
        he = trhull.hull_of_extension(P.sg, P.pi2_congruence)
    # the class of each t in the image of pi2, which must meet one class only
    pi2 = P.pi2.map
    q_of_t = np.full(P.T.order, -1, dtype=np.int64)
    q_of_t[pi2] = he.qmap
    _require(q_of_t[pi2] != he.qmap, "fiber of pi2 meets two classes")
    ts = np.flatnonzero(q_of_t >= 0)
    posn = np.full(he.hull.sg.order + 1, -1, dtype=np.int64)    # a spare last slot: -1 -> -1
    posn[he.members] = np.arange(len(he.members))
    member = posn[trhull.locate(he.hull.left, he.hull.right, *trhull.omega_bracket(P, ts))]
    _require(member < 0, "shift pair outside the extension hull", lambda i: int(ts[i]))
    xi = np.empty(he.Q.order, dtype=np.int64)
    xi[q_of_t[ts]] = member
    return Transversal(he, xi, True)


def _verdict(bad, label=lambda *cell: cell):
    """(True, None), or False with the least cell of the mask bad, labelled."""
    cell = core.least_cell(bad)
    return (True, None) if cell is None else (False, label(*cell))


def _require(bad, reason, label=lambda *cell: cell):
    """Raise TransversalInvalid at the least cell of the mask bad, labelled."""
    core.require(bad, TransversalInvalid, reason, label)


def _require_injective(m, what):
    """Raise TransversalInvalid at the least element whose image repeats."""
    repeat = np.ones(len(m.map), dtype=bool)
    repeat[np.unique(m.map, return_index=True)[1]] = False
    _require(repeat, f"{what} is not injective")


def _inner_element_of(he):
    """Member position -> the element of S whose inner pair it is, -1 if none."""
    out = np.full(he.sg.order, -1, dtype=np.int64)
    out[he.pi_member] = np.arange(he.S.order)
    return out


def _translations(he, positions, side):
    """The left or right translations of the members at positions, one row each."""
    return getattr(he.hull, side)[he.members[positions]]


def _require_extension(he, S, theta):
    """Raise TransversalInvalid unless the transversal's hull is over (S, theta)."""
    if he.S is not S or he.theta != theta:
        raise TransversalInvalid("transversal is over another extension",
                                 "S" if he.S is not S else "theta")


def theorem310_backward(S, theta, tr):
    """Rebuild the congruence pair as a restricted pair product and hand
    back the witnessing isomorphism."""
    he = tr.he
    _require_extension(he, S, theta)
    if not tr.split:
        raise NotSplit("a multiplicative transversal is required")
    Q, qmap = he.Q, he.qmap
    Ksub, kelems, kpos = theta.kernel_sub
    elt_of = _inner_element_of(he)
    L = _translations(he, tr.xi, "left")
    Rinv = _translations(he, he.sg.inv[tr.xi], "right")
    # t moves a to the element whose inner pair is xi(t) pi_a xi(t)^-1,
    # which is also the translate of a by xi(t)^-1 and then xi(t)
    q = np.arange(Q.order)[:, None]
    moved = elt_of[_transversal_conjugate(tr, q, kelems, q)]
    _require(moved != L[q, Rinv[q, kelems]], "conjugation differs from translation",
             lambda t, j: (t, int(kelems[j])))
    action = actions.validate_action(Q, Ksub, kpos[moved])
    eps = actions.validate_eps(Ksub, Q, qmap[kelems])
    prod = products.build_rsd(Ksub, Q, action, eps)
    # s is the pair (a, t) with a = s xi(t)^-1, a kernel element
    a = elt_of[he.sg.table[he.pi_member, he.sg.inv[tr.xi[qmap]]]]
    _require((a != Rinv[qmap, np.arange(S.order)]) | (kpos[a] < 0),
             "kernel part is not the translate by xi(t)^-1")
    phi = morphisms.is_homomorphism(prod.pairdex[kpos[a], qmap], S, prod.sg)
    _require(np.bincount(phi.map, minlength=prod.sg.order) != 1, "phi is not bijective")
    _require(congruences._canon(prod.pi2.map[phi.map]) != congruences._canon(theta.class_of),
             "phi does not carry the classes of theta onto the fibers of pi2")
    return prod, phi


@dataclass(frozen=True, eq=False)
class WreathEmbedding:
    hwr_eta: products.HoughtonWreath
    psi: morphisms.Morphism


def _transversal_conjugate(tr, A, s, B):
    """The member xi(A) . pi_s . xi(B)^-1, elementwise over arrays."""
    he = tr.he
    tab = he.sg.table
    return tab[tab[tr.xi[A], he.pi_member[s]], he.sg.inv[tr.xi[B]]]


def recovery_identity_holds(tr, s):
    """Pull the embedded element back out of its class-restricted map,
    elementwise over an array s."""
    he = tr.he
    tab = he.sg.table
    t = he.qmap[s]
    u = he.Q.rans[t]
    f_u = _transversal_conjugate(tr, u, s, he.Q.table[u, t])
    return tab[tab[he.sg.inv[tr.xi[u]], f_u], tr.xi[t]] == he.pi_member[s]


def _conjugate_digits(S, theta, tr):
    """The kernel of theta with its elements, and for each s and x the index
    in it of f[s, x], the element whose inner pair is xi(xu) pi_s xi(xt)^-1
    for s over t with u = ran t; on the ideal Qu, xu = x and f is s's map."""
    he = tr.he
    _require_extension(he, S, theta)
    Q, qmap = he.Q, he.qmap
    Ksub, kelems, kpos = theta.kernel_sub
    s = np.arange(S.order)[:, None]
    A = Q.table[np.arange(Q.order), Q.rans[qmap][:, None]]
    B = Q.table[np.arange(Q.order), qmap[:, None]]
    f = _inner_element_of(he)[_transversal_conjugate(tr, A, s, B)]
    digits = kpos[f]
    _require(digits < 0, "conjugate is not an inner kernel element")
    ideal = A == np.arange(Q.order)
    L = _translations(he, tr.xi, "left")
    Rinv = _translations(he, he.sg.inv[tr.xi], "right")
    # the two one-sided application orders agree
    _require(ideal & ((f != L[A, Rinv[B, s]]) | (f != Rinv[B, L[A, s]])),
             "one-sided application orders disagree")
    _require(ideal & (qmap[f] != Q.rans[A]), "value outside the kernel fiber over ran(x)")
    _require(~recovery_identity_holds(tr, s[:, 0]), "recovery identity fails")
    return Ksub, kelems, digits


def thm42_embedding(S, theta, tr):
    """Embed the congruence pair into the fiber-compatible wreath product
    of its kernel by its quotient."""
    Ksub, kelems, digits = _conjugate_digits(S, theta, tr)
    Q, qmap = tr.he.Q, tr.he.qmap
    hwe = products.build_hwr_eta(actions.validate_eps(Ksub, Q, qmap[kelems]))
    # s over t goes to (its map on the ideal Q ran(t), t)
    psi_vals = hwe.rsd.pairdex[hwe.pkt.locate(Q.rans[qmap], digits), qmap]
    psi = morphisms.is_homomorphism(psi_vals, S, hwe.sg)
    _require_injective(psi, "psi")
    return WreathEmbedding(hwe, psi)


def total_map_route_agrees(S, theta, tr, emb):
    """Whether S, sent by total maps into the lambda-wreath and restricted
    into the plain wreath, lands where emb's psi does.  Builds both
    wreaths, so it raises TooLarge past WREATH_CAP."""
    Ksub, _, digits = _conjugate_digits(S, theta, tr)
    Q, qmap = tr.he.Q, tr.he.qmap
    hwr = products.build_hwr(Ksub, Q)
    lwr = products.build_lwr(Ksub, Q)
    phi = morphisms.is_homomorphism(lwr.lsd.pairdex[digits @ lwr.weights, qmap], S, lwr.sg)
    _require_injective(phi, "phi")
    restrict = products.Psi_remark(lwr, hwr)
    # psi(s) carried by value into the plain wreath: the same map and t there
    p, t = emb.hwr_eta.elements[emb.psi.map].T
    peta = emb.hwr_eta.pkt
    carried = hwr.rsd.pairdex[hwr.pkt.locate(peta.eps.map[p], peta.extend(p)), t]
    return bool((carried == restrict.map[phi.map]).all())
