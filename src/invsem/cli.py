"""Batch front end: instance I/O, constructions, and statement verifiers.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 a size bound was exceeded.
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import (actions, billhardt, congruences, core, fixtures, morphisms,
               products, trhull)
from .core import TooLarge


@dataclass
class Check:
    name: str
    passed: bool
    witness: object = None
    elapsed: float = field(default=None, compare=False)   # seconds, verify only


@dataclass
class Report:
    command: list
    digests: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    elapsed: float = 0.0
    sweep_s: dict = field(default_factory=dict)     # suite -> seconds, verify only

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return _jsonable({
            "command": self.command,
            "digests": self.digests,
            "checks": [{"name": c.name, "passed": c.passed, "witness": c.witness}
                       | ({} if c.elapsed is None else {"elapsed_s": round(c.elapsed, 3)})
                       for c in self.checks],
            "extra": self.extra,
            "elapsed_s": round(self.elapsed, 3),
            "passed": self.passed,
        } | ({"sweep_s": {k: round(v, 3) for k, v in self.sweep_s.items()}}
             if self.sweep_s else {}))

    def render_text(self):
        lines = []
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            tail = "" if c.witness is None else f"  witness={_jsonable(c.witness)}"
            lines.append(f"{mark}  {c.name.ljust(width)}{tail}")
        for k in sorted(self.extra):
            lines.append(f"{k}: {json.dumps(_jsonable(self.extra[k]), sort_keys=True)}")
        lines.append(f"{'ok' if self.passed else 'FAILED'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks, "
                     f"{self.elapsed:.2f}s)")
        return "\n".join(lines)


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _json_chunks(x, pad="\n"):
    """json.dumps(x, indent=2, sort_keys=True), byte for byte, in pieces, for
    x with string keys, nested at the indent `pad`.  A flat list of ints is
    one str.join, where the stdlib's indenting encoder, in pure Python, makes
    calls per item.  A non-negative signed integer array, 1-D or 2-D, is
    formatted by looking its values up in one array of their decimal strings;
    a 2-D one comes in blocks of rows of about len(x) cells, so a square
    table is never held as text all at once."""
    inner = pad + "  "
    if (isinstance(x, np.ndarray) and x.dtype.kind == "i" and x.ndim in (1, 2) and x.size
            and x.min() >= 0):
        digits = np.array([str(i) for i in range(x.max() + 1)], dtype=object)
        if x.ndim == 1:
            yield f"[{inner}" + f",{inner}".join(digits[x].tolist()) + f"{pad}]"
            return
        step = max(1, len(x) // x.shape[1])
        yield "["
        for r0 in range(0, len(x), step):
            yield ("," if r0 else "") + ",".join(
                f"{inner}[{inner}  " + f",{inner}  ".join(row) + f"{inner}]"
                for row in digits[x[r0:r0 + step]].tolist())
        yield f"{pad}]"
    elif isinstance(x, (list, tuple)) and x:
        if set(map(type, x)) == {int}:
            yield f"[{inner}" + ("," + inner).join(map(str, x)) + f"{pad}]"
            return
        for i, v in enumerate(x):
            yield "," + inner if i else "[" + inner
            yield from _json_chunks(v, inner)
        yield f"{pad}]"
    elif isinstance(x, dict) and x:
        for i, (k, v) in enumerate(sorted(x.items())):
            yield ("," if i else "{") + f"{inner}{json.dumps(k)}: "
            yield from _json_chunks(v, inner)
        yield pad + "}"
    else:
        yield json.dumps(x)     # scalars and empty containers


def _write_json(x, stream):
    """Write json.dumps(x, indent=2, sort_keys=True) and a newline to
    stream, piece by piece."""
    stream.writelines(_json_chunks(x))
    stream.write("\n")


def _read(report, path):
    """The JSON document in the file at path, read once: the sha256 of its
    bytes goes into report.digests, then only its text is kept to parse."""
    with open(path, "rb") as fh:
        data = fh.read()
    report.digests[path] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode()
        del data
        return json.loads(text)
    except ValueError as exc:    # bad JSON, or bytes that are not UTF-8
        raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _field(data, key, path):
    """data[key], or a usage error naming the file that lacks it."""
    if not isinstance(data, dict) or key not in data:
        raise UsageError(f"{path} has no {key!r} key")
    return data[key]


def _instance(data, where):
    """core.from_dict(data), or a usage error naming the source and the witness."""
    try:
        return core.from_dict(data)
    except (ValueError, core.NotAssociative, core.NotRegular,
            core.IdempotentsDontCommute) as exc:
        raise UsageError(f"{where} is not an inverse semigroup: {exc}") from None


def _load_instance(report, path):
    return _instance(_read(report, path), path)


def _congruence(data, where, S):
    """The congruence on S whose labels are data['class_of'], or a usage error."""
    labels = _field(data, "class_of", where)
    if (not isinstance(labels, list) or len(labels) != S.order
            or not all(isinstance(x, int) for x in labels)):
        raise UsageError(f"{where}: 'class_of' must list {S.order} integer labels, "
                         f"one per element")
    try:
        return congruences.is_congruence(S, labels)
    except congruences.NotCompatible as exc:
        raise UsageError(f"{where}: 'class_of' is not a congruence: {exc}") from None


def _int_cells(x):
    return all(map(_int_cells, x)) if isinstance(x, list) else type(x) is int


def _map(data, key, where, build):
    """build(the integer array in data[key]), or a usage error naming where."""
    values = _field(data, key, where)
    if not isinstance(values, list) or not _int_cells(values):
        raise UsageError(f"{where}: {key!r} must be a list of integers")
    try:
        return build(np.asarray(values, dtype=np.int64))
    except (ValueError, OverflowError, actions.NotEndomorphism, actions.NotActionHom,
            morphisms.NotMultiplicative, congruences.NotSurjective, actions.AFRViolated) as exc:
        raise UsageError(f"{where}: {key!r} is rejected: {exc}") from None


def _emit(report, args, stream=None):
    if stream is None:
        stream = sys.stdout
    if getattr(args, "json", False):
        _write_json(report.to_dict(), stream)
    else:
        stream.write(report.render_text() + "\n")


# ---------------------------------------------------------------- subcommands

def cmd_validate(args):
    report = Report(command=["validate", args.instance])
    try:
        S = core.from_dict(_read(report, args.instance))
    except core.NotAssociative as exc:
        report.checks.append(Check("associative", False, exc.witness))
        return report
    except core.NotRegular as exc:
        report.checks.append(Check("every-element-has-inverse", False, exc.witness))
        return report
    except core.IdempotentsDontCommute as exc:
        report.checks.append(Check("idempotents-commute", False, exc.witness))
        return report
    except ValueError as exc:
        report.checks.append(Check("well-formed", False, str(exc)))
        return report
    report.checks += [
        Check("well-formed", True),
        Check("associative", True),
        Check("every-element-has-inverse", True),
        Check("idempotents-commute", True),
    ]
    report.extra["order"] = S.order
    report.extra["idempotents"] = list(S.idempotents)
    report.extra["inv"] = S.inv.tolist()
    return report


def cmd_congruences(args):
    report = Report(command=["congruences", args.instance])
    S = _load_instance(report, args.instance)
    found = congruences.enumerate_congruences(S, method=args.method)
    listing = []
    for th in found:
        tr = congruences.trace(th)
        listing.append({
            "class_of": th.class_of.tolist(),
            "classes": th.class_count,
            "kernel": sorted(congruences.kernel(th)),
            "trace_class_of": tr.class_of.tolist(),
        })
    report.extra["count"] = len(found)
    report.extra["congruences"] = listing
    report.checks.append(Check("enumerated", True))
    return report


def cmd_product(args):
    report = Report(command=["product", args.kind])
    K = _load_instance(report, args.k)
    T = _load_instance(report, args.t)
    if args.kind in ("lsd", "rsd"):
        if not args.action:
            raise UsageError(f"product {args.kind} requires --action")
        action = _map(_read(report, args.action), "act", args.action,
                      partial(actions.validate_action, T, K))
    if args.kind == "lsd":
        P = products.build_lsd(K, T, action)
    elif args.kind == "rsd":
        if not args.eps:
            raise UsageError("product rsd requires --eps")
        P = _map(_read(report, args.eps), "map", args.eps,   # also rejects a pair failing AFR
                 lambda m: products.build_rsd(K, T, action, actions.validate_eps(K, T, m)))
    elif args.kind == "hwr":
        P = products.build_hwr(K, T)
    elif args.kind == "hwr-eta":
        if not args.eta:
            raise UsageError("product hwr-eta requires --eta")
        triple = _map(_read(report, args.eta), "map", args.eta,
                      partial(morphisms.make_triple, K, T))
        P = products.build_hwr_eta(triple)
    else:
        P = products.build_lwr(K, T)
    out = core.as_dict(P.sg, array=np.asarray)
    out["elements"] = P.elements
    out["provenance"] = {
        "construction": args.kind,
        "k": report.digests[args.k],
        "t": report.digests[args.t],
        "k_order": K.order,
        "t_order": T.order,
    }
    if args.out:
        with open(args.out, "w") as fh:
            _write_json(out, fh)
    else:
        _write_json(out, sys.stdout)
    report.checks.append(Check("validated", True))
    report.extra["order"] = P.sg.order
    return report


def cmd_trhull(args):
    report = Report(command=["trhull", args.instance])
    S = _load_instance(report, args.instance)
    hull = S.hull
    ids = trhull.hull_identities(hull)
    for k, v in sorted(ids.items()):
        report.checks.append(Check(f"identity:{k}", bool(v)))
    report.checks.append(Check("inner-part-is-ideal", trhull.inner_is_ideal(hull)))
    report.extra["hull_order"] = hull.sg.order
    report.extra["inner_order"] = S.order
    outer = np.ones(hull.sg.order, dtype=bool)
    outer[hull.inner_of] = False
    report.extra["non_inner"] = [{"left": lam, "right": rho} for lam, rho in
                                 zip(hull.left[outer].tolist(), hull.right[outer].tolist())]
    if args.congruence:
        theta = _congruence(_read(report, args.congruence), args.congruence, S)
        respecting = int(trhull.respects(hull.left, hull.right, theta).sum())
        report.extra["respecting_order"] = respecting
        report.checks.append(Check("all-pairs-respect", respecting == hull.sg.order))
        he = trhull.hull_of_extension(S, theta)
        report.extra["extension_hull_order"] = len(he.members)
        report.extra["identified_classes"] = he.omega.class_count
        chk = trhull.prop35_check(he)
        for k, v in sorted(chk.items()):
            report.checks.append(Check(f"quotient-map:{k}", bool(v)))
    return report


def cmd_check_afr(args):
    report = Report(command=["check-afr", args.action, args.eps])
    K = _load_instance(report, args.k)
    T = _load_instance(report, args.t)
    action = _map(_read(report, args.action), "act", args.action,
                  partial(actions.validate_action, T, K))
    eps = _map(_read(report, args.eps), "map", args.eps, partial(actions.validate_eps, K, T))
    ok, w = actions.check_AFR(action, eps)
    report.checks.append(Check("fixed-range-axiom", ok, w))
    ok2, w2 = actions.check_AE7_AE8(action, eps)
    report.checks.append(Check("classwise-equivalent", ok == ok2, w2))
    if ok:
        ssl = actions.strong_semilattice(action, eps)
        rebuilt = actions.rebuild_from_structure(ssl)
        report.checks.append(Check("structure-maps-rebuild-product",
                                   bool(np.array_equal(rebuilt, K.table))))
    return report


def cmd_check_solution(args):
    report = Report(command=["check-solution", args.triple, args.solution])
    tdata = _read(report, args.triple)
    K = _instance(_field(tdata, "k", args.triple), f"{args.triple} 'k'")
    T = _instance(_field(tdata, "t", args.triple), f"{args.triple} 't'")
    triple = _map(tdata, "eta", args.triple, partial(morphisms.make_triple, K, T))
    sdata = _read(report, args.solution)
    S = _instance(_field(sdata, "s", args.solution), f"{args.solution} 's'")
    theta = _congruence(_field(sdata, "theta", args.solution), args.solution, S)
    sol = morphisms.ExtensionSolution(S, theta)
    ok, witness = morphisms.solves(triple, sol)
    report.checks.append(Check("solves", ok, witness))
    return report


def _transversal_descriptor(tr):
    rows = tr.he.members[tr.xi]
    return [{"class": t, "left": lam, "right": rho} for t, (lam, rho) in
            enumerate(zip(tr.he.hull.left[rows].tolist(), tr.he.hull.right[rows].tolist()))]


def cmd_billhardt(args):
    report = Report(command=["billhardt", args.mode, args.instance, args.congruence])
    S = _load_instance(report, args.instance)
    theta = _congruence(_read(report, args.congruence), args.congruence, S)
    he = trhull.hull_of_extension(S, theta)
    tr = billhardt.find_transversal(S, theta, want_split=args.split, he=he)
    if tr is None:
        report.checks.append(Check("transversal-exists", False))
        return report
    report.checks.append(Check("transversal-exists", True))
    record = billhardt.validate_transversal(tr)
    for k, v in sorted(record.items()):
        report.checks.append(Check(f"axiom:{k}", bool(v)))
    report.extra["certificate"] = {
        "xi": _transversal_descriptor(tr),
        "axioms": record,
        "classification": billhardt.classify_classical(tr),
    }
    if tr.split:
        closure = billhardt.split_closure_check(tr)
        for k, v in sorted(closure.items()):
            report.checks.append(Check(f"closure:{k}", bool(v)))
    if args.mode == "embed":
        emb = billhardt.thm42_embedding(S, theta, tr)
        report.checks.append(Check("embedding-injective", emb.psi.injective))
        report.checks += _route_checks(S, theta, tr, emb)
        out = core.as_dict(emb.hwr_eta.sg)
        report.extra["wreath_instance"] = out
        report.extra["psi_map"] = emb.psi.map.tolist()
    return report


def _route_checks(S, theta, tr, emb):
    """The total-map route's check, none where its wreaths pass WREATH_CAP."""
    try:
        agrees = billhardt.total_map_route_agrees(S, theta, tr, emb)
    except TooLarge:
        return []
    return [Check("total-map-route-agrees", agrees)]


# ------------------------------------------------------------------ verifiers
#
# A suite is one row of SUITES: the prefix of its check names, its default
# max_order, a sweep max_order -> [(label, item)], and a predicate
# item -> bool or (bool, witness).  verify() names each check prefix:label.

def _catalog_upto(max_order):
    cat = fixtures.catalog()
    return [(n, cat[n]) for n in fixtures.sweep_names(max_order)]


def _catalog_pairs(max_order):
    return [(f"{kn}|{tn}", (K, T)) for kn, K in _catalog_upto(max_order)
            for tn, T in _catalog_upto(max_order)]


def _afr_sweep(max_order):
    return [(f"{kn}|{tn}", (action, eps))
            for kn, tn, action, eps in fixtures.afr_sweep(max_order)]


def _lsd_sweep(max_order):
    return [(label, P) for label, P in fixtures.lsd_fixtures()
            if P.sg.order <= max_order]


def _rsd_sweep(max_order):
    return [(label, P) for label, P in fixtures.rsd_fixtures()
            if P.sg.order <= max_order]


def _extensions(max_order):
    """Every congruence of the catalog up to max_order, then the rsd
    fixtures of order <= 8 with the congruence of their projection."""
    out = [(f"{name}#cong{i}", (S, th)) for name, S in _catalog_upto(max_order)
           for i, th in enumerate(congruences.enumerate_congruences(S))]
    for label, P in _rsd_sweep(8):
        out.append((label, (P.sg, congruences.congruence_from_map(P.sg, P.pi2.map))))
    return out


_WREATH_PAIRS = (("z2", "chain2"), ("chain2", "chain2"), ("chain2", "chain3"),
                 ("z3", "z2"), ("chain2", "z2"), ("fork", "chain2"))


def _wreath_pairs(max_order):
    """Remark 4.3's pairs whose total-map power K^|T| fits in max_order."""
    cat = fixtures.catalog()
    return [(f"{kn}|{tn}", (cat[kn], cat[tn])) for kn, tn in _WREATH_PAIRS
            if cat[kn].order ** cat[tn].order <= max_order]


def _lemma21(P):
    """Lemma 2.1's psi onto the restricted product, and both products as
    extension solutions along their second projections."""
    psi, rsd, _ = products.psi_lemma21(P)
    sol_l = morphisms.ExtensionSolution(P.sg, products.pi2_congruence(P))
    sol_r = morphisms.ExtensionSolution(rsd.sg, products.pi2_congruence(rsd))
    return psi, rsd, sol_l, sol_r


def _pair_product_restricts(P):
    psi, _, sol_l, sol_r = _lemma21(P)
    return morphisms.solution_embedding(psi, sol_l, sol_r, iso=True)


def _embeddings_transfer_both_ways(P):
    psi, rsd, sol_l, sol_r = _lemma21(P)
    back = np.empty(rsd.sg.order, dtype=np.int64)
    back[psi.map] = np.arange(P.sg.order)
    phi = morphisms.is_homomorphism(back, rsd.sg, P.sg)
    return (morphisms.solution_embedding(psi, sol_l, sol_r, iso=True)
            and morphisms.solution_embedding(phi, sol_r, sol_l, iso=True))


def _eps_decomposition(eps):
    E, elems = core.idempotent_semilattice(eps.T)
    pos = {int(t): i for i, t in enumerate(elems)}
    vals = [pos[int(v)] for v in eps.map]
    eta = morphisms.is_homomorphism(vals, eps.K, E)
    return congruences.decomposition_along(eta, embed=elems)


def _three_forms_agree(pair):
    K, T = pair
    for action in actions.enumerate_actions(T, K):
        for eps in actions.enumerate_surjective_eps(K, T):
            afr, w = actions.check_AFR(action, eps)
            ae, w2 = actions.check_AE7_AE8(action, eps)
            mod, w3 = actions.check_modified(action, _eps_decomposition(eps))
            if not (afr == ae == mod):
                return False, {"afr": (afr, w), "elementwise": (ae, w2),
                               "classwise": (mod, w3)}
    return True, None


def _gluing_rebuilds_product(action_eps):
    action, eps = action_eps
    rebuilt = actions.rebuild_from_structure(actions.strong_semilattice(action, eps))
    return bool(np.array_equal(rebuilt, action.K.table))


def _hull_projects_onto_quotient(S):
    for th in congruences.enumerate_congruences(S):
        he = trhull.hull_of_extension(S, th)
        sig = trhull.omega_relation_signature(he)
        if not np.array_equal(sig, he.omega.class_of):
            return False, "relation-mismatch"
        chk = trhull.prop35_check(he)
        if not all(chk.values()):
            return False, chk
    return True, None


def _all_values(check, P):
    out = check(P)
    return all(out.values()), out


def _intermediate_subsemigroup_criterion(S):
    for th in congruences.enumerate_congruences(S):
        out = billhardt.prop39_check(S, th)
        if not (out["plain_equivalent"] and out["split_equivalent"]):
            return False, out
    return True, None


def _round_trip(P):
    theta = congruences.congruence_from_map(P.sg, P.pi2.map)
    tr = billhardt.theorem310_forward(P)
    _, phi = billhardt.theorem310_backward(P.sg, theta, tr)
    return phi.bijective


def _fiber_compatible_power_closed(P):
    sol = morphisms.ExtensionSolution(P.sg, congruences.congruence_from_map(P.sg, P.pi2.map))
    try:
        products.build_p_eta(sol.induced_triple)
    except products.ProductInvalid as exc:
        return False, exc.witness
    return True


def _wreath_embedding(extension):
    S, th = extension
    tr = billhardt.find_transversal(S, th)
    if tr is None:
        return True, "no-transversal"
    emb = billhardt.thm42_embedding(S, th, tr)
    ok = emb.psi.injective and all(c.passed for c in _route_checks(S, th, tr, emb))
    return ok, None if ok else "route-divergence"


def _embedding_sweep_nonvacuous(checks):
    """At least two extensions of the sweep had a transversal to embed."""
    hits = sum(c.witness != "no-transversal" for c in checks)
    return [Check("embedding-sweep-nonvacuous", hits >= 2, hits)]


def _restriction_iso_roundtrip(pair):
    K, T = pair
    lwr = products.build_lwr(K, T)
    hwr = products.build_hwr(K, T)
    psi = products.Psi_remark(lwr, hwr)
    phi = products.hbar_inverse(lwr, hwr)
    identity = np.arange(lwr.sg.order)
    return (bool(np.array_equal(phi.map[psi.map], identity))
            and bool(np.array_equal(psi.map[phi.map], identity)))


class Suite(NamedTuple):
    prefix: str
    max_order: int
    sweep: Callable
    predicate: Callable
    summary: Callable = None    # checks -> further checks, run after the sweep


# `verify all` runs the suites in this order
SUITES = {
    "prop-2.2": Suite("embeddings-transfer-both-ways", 24, _lsd_sweep,
                      _embeddings_transfer_both_ways),
    "lemma-2.1": Suite("pair-product-restricts", 24, _lsd_sweep, _pair_product_restricts),
    "prop-3.1": Suite("three-forms-agree", 3, _catalog_pairs, _three_forms_agree),
    "cor-3.4": Suite("gluing-rebuilds-product", 4, _afr_sweep, _gluing_rebuilds_product),
    "prop-3.5": Suite("hull-projects-onto-quotient", 6, _catalog_upto,
                      _hull_projects_onto_quotient),
    "lemma-3.6": Suite("shifts-are-linked-pairs", 20, _rsd_sweep,
                       partial(_all_values, trhull.shift_pairs_are_translations)),
    "lemma-3.7": Suite("shift-map-embeds", 20, _rsd_sweep,
                       partial(_all_values, trhull.shift_embedding_check)),
    "lemma-3.8": Suite("shift-dominance-and-conjugation", 20, _rsd_sweep,
                       partial(_all_values, trhull.shift_order_and_conjugation_check)),
    "prop-3.9": Suite("intermediate-subsemigroup-criterion", 5, _catalog_upto,
                      _intermediate_subsemigroup_criterion),
    "thm-3.10": Suite("round-trip", 20, _rsd_sweep, _round_trip),
    "prop-4.1": Suite("fiber-compatible-power-closed", 20, _rsd_sweep,
                      _fiber_compatible_power_closed),
    "thm-4.2": Suite("wreath-embedding", 7, _extensions, _wreath_embedding,
                     _embedding_sweep_nonvacuous),
    "remark-4.3": Suite("restriction-iso-roundtrip", 4096, _wreath_pairs,
                        _restriction_iso_roundtrip),
}


def verify(name, max_order=None):
    """The checks of suite `name` over its sweep at max_order (the suite's
    default when None), each timed."""
    return timed_verify(name, max_order)[0]


def timed_verify(name, max_order=None):
    """verify(), and the seconds that building the suite's sweep took."""
    suite = SUITES[name]
    t0 = time.perf_counter()
    items = suite.sweep(suite.max_order if max_order is None else max_order)
    sweep_s = time.perf_counter() - t0
    checks = []
    for label, item in items:
        t0 = time.perf_counter()
        result = suite.predicate(item)
        elapsed = time.perf_counter() - t0
        ok, witness = result if isinstance(result, tuple) else (result, None)
        checks.append(Check(f"{suite.prefix}:{label}", bool(ok), witness, elapsed))
    if suite.summary:
        checks += suite.summary(checks)
    # a sweep that checked nothing has shown nothing
    return checks or [Check("sweep-nonvacuous", False, {"max_order": max_order})], sweep_s


def cmd_verify(args):
    if args.sweep and not pathlib.Path(args.sweep).is_dir():
        raise UsageError(f"--sweep {args.sweep} is not a directory")
    report = Report(command=["verify", args.name])
    for name in list(SUITES) if args.name == "all" else [args.name]:
        checks, report.sweep_s[name] = timed_verify(name, args.max_order)
        report.checks += [replace(c, name=f"{name}:{c.name}") for c in checks]
    if args.sweep:
        report.extra["sweep_note"] = _sweep_extra(args.sweep, report)
    return report


def _sweep_extra(directory, report):
    """Extra instances: validate each and run the hull/congruence basics.
    An entry that cannot be read as an instance is a failed check."""
    names = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        path = str(path)
        try:
            S = _load_instance(report, path)
        except (UsageError, OSError) as exc:
            report.checks.append(Check(f"sweep:valid:{path}", False, str(exc)))
            continue
        report.checks.append(Check(f"sweep:valid:{path}", True))
        try:
            naive = trhull.naive_hull(S)
        except TooLarge:
            pass        # past the oracle's reach: nothing to compare
        else:
            same = (np.array_equal(S.hull.left, naive.left)
                    and np.array_equal(S.hull.right, naive.right))
            report.checks.append(Check(f"sweep:hull-engines-agree:{path}", same))
        names.append(path)
    return names


class UsageError(Exception):
    pass


@cache
def build_parser():
    """The parser, built once per process: parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="invsem",
        description="workbench for finite inverse semigroups: products, "
                    "translational hulls, congruence transversals")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    # after the subcommand too; no default there, so it cannot undo a --json before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the report as JSON")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("validate", parents=[common], help="check a multiplication table")
    q.add_argument("instance")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("congruences", parents=[common], help="list all congruences of an instance")
    q.add_argument("instance")
    q.add_argument("--method", default="auto",
                   choices=["auto", "partitions", "generated"])
    q.set_defaults(fn=cmd_congruences)

    q = sub.add_parser("product", parents=[common], help="build a semidirect or wreath product")
    q.add_argument("kind", choices=["lsd", "rsd", "hwr", "hwr-eta", "lwr"])
    q.add_argument("--k", required=True, help="first-factor instance JSON")
    q.add_argument("--t", required=True, help="acting instance JSON")
    q.add_argument("--action", help='JSON {"act": [[...]]} indexed [t][a]')
    q.add_argument("--eps", help='JSON {"map": [...]} of idempotent targets')
    q.add_argument("--eta", help='JSON {"map": [...]} fiber map for hwr-eta')
    q.add_argument("--out", "-o", help="write the instance here instead of stdout")
    q.set_defaults(fn=cmd_product)

    q = sub.add_parser("trhull", parents=[common], help="enumerate the translational hull")
    q.add_argument("instance")
    q.add_argument("--congruence", help='JSON {"class_of": [...]}')
    q.set_defaults(fn=cmd_trhull)

    q = sub.add_parser("check-afr", parents=[common], help="test the fixed-range axiom")
    q.add_argument("action")
    q.add_argument("eps")
    q.add_argument("--k", required=True)
    q.add_argument("--t", required=True)
    q.set_defaults(fn=cmd_check_afr)

    q = sub.add_parser("check-solution", parents=[common],
                       help="does a congruence pair answer an extension problem")
    q.add_argument("triple", help='JSON {"k": inst, "t": inst, "eta": [...]}')
    q.add_argument("solution", help='JSON {"s": inst, "theta": {"class_of": [...]}}')
    q.set_defaults(fn=cmd_check_solution)

    q = sub.add_parser("billhardt", parents=[common], help="find or use a congruence transversal")
    q.add_argument("mode", choices=["find", "embed"])
    q.add_argument("instance")
    q.add_argument("congruence")
    q.add_argument("--split", action="store_true",
                   help="require a multiplicative transversal")
    q.set_defaults(fn=cmd_billhardt)

    q = sub.add_parser("verify", parents=[common], help="run a statement verifier suite")
    q.add_argument("name", choices=list(SUITES) + ["all"])
    q.add_argument("--max-order", type=int, default=None)
    q.add_argument("--sweep", help="directory of extra instance JSONs")
    q.set_defaults(fn=cmd_verify)

    return p


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0), None
    t0 = time.time()
    try:
        report = args.fn(args)
    except TooLarge as exc:
        report = Report(command=[args.cmd])
        report.checks.append(Check("within-bounds", False,
                                   {"what": exc.what, "size": exc.size,
                                    "bound": exc.bound}))
        report.elapsed = time.time() - t0
        _emit(report, args)
        return 3, report
    except (UsageError, OSError) as exc:     # OSError: a path that cannot be read or written
        sys.stderr.write(f"usage error: {exc}\n")
        return 2, None
    report.elapsed = time.time() - t0
    _emit(report, args)
    return (0 if report.passed else 1), report


def main(argv=None):
    sys.exit(run(argv)[0])


if __name__ == "__main__":
    main()
