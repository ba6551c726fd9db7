"""The three workloads: fixed, exhaustive inputs and the checks on their outputs.

Each workload has
  setup()               build the inputs (timed as set-up);
  prepare_checks(seed)  once per run, untimed: reference results for the checks;
  run_pass()            one pass over the inputs (timed), returning a PassResult;
  check_pass(result)    untimed checks on that pass's outputs, as a list of problems.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checks
import invsem
from invsem import (actions, billhardt, cli, congruences, core, fixtures,
                    morphisms, trhull)


@dataclass
class PassResult:
    attempted: int
    failed: int = 0
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _min_table(n):
    return [[min(i, j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------- action-sweep

@dataclass
class PairOutput:
    kname: str
    tname: str
    acts: list          # EndoAction
    epss: list          # EpsilonMap
    afr: list           # check_AFR verdict per (action, eps), action-major
    rebuilt: list       # (action, eps, table rebuilt from the structure maps)


class ActionSweep:
    """Every ordered pair (K, T) of catalog instances of order <= 4: actions,
    idempotent-valued maps, the fixed-range filter, and K rebuilt from the
    strong-semilattice structure maps (Prop 3.1, Cor 3.4).  One operation is
    one pair."""

    def __init__(self, workdir):
        pass

    def setup(self):
        self.cat = fixtures.catalog()
        names = fixtures.sweep_names(4)
        self.pairs = [(k, t) for t in names for k in names]

    def prepare_checks(self, seed):
        src = os.path.dirname(os.path.dirname(invsem.__file__))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "oracle.py"), src],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            return [f"action-count oracle failed: {proc.stderr.strip()[-500:]}"]
        self.expected = json.loads(proc.stdout.strip().splitlines()[-1])
        return []

    def run_pass(self):
        res = PassResult(attempted=len(self.pairs))
        for kname, tname in self.pairs:
            K, T = self.cat[kname], self.cat[tname]
            try:
                acts = actions.enumerate_actions(T, K)
                epss = actions.enumerate_surjective_eps(K, T)
                afr, rebuilt = [], []
                for i, act in enumerate(acts):
                    for j, eps in enumerate(epss):
                        ok = actions.check_AFR(act, eps)[0]
                        afr.append(ok)
                        if ok:
                            ssl = actions.strong_semilattice(act, eps)
                            rebuilt.append((i, j, actions.rebuild_from_structure(ssl)))
            except Exception as exc:
                res.failed += 1
                res.errors.append(f"{kname}|{tname}: {exc!r}")
                continue
            res.outputs.append(PairOutput(kname, tname, acts, epss, afr, rebuilt))
        return res

    def check_pass(self, res):
        problems = []
        for p in res.outputs:
            K, T = self.cat[p.kname], self.cat[p.tname]
            key = f"{p.kname}|{p.tname}"
            tables = [a.act for a in p.acts]
            problems += check_actions(K.table, T.table, tables, self.expected[key][1], key)
            for i, j, table in p.rebuilt:
                if not np.array_equal(table, K.table):
                    problems.append(f"{key}: action {i}, eps {j} rebuilds another table")
            problems += self._three_forms(p, key)
        return problems

    @staticmethod
    def _three_forms(p, key):
        """The direct fixed-range test here, check_AFR, the elementwise form and
        the classwise form give one verdict on every (action, eps)."""
        problems = []
        decomps = [_eps_decomposition(e) for e in p.epss]
        verdicts = iter(p.afr)
        for i, act in enumerate(p.acts):
            for j, eps in enumerate(p.epss):
                forms = (next(verdicts),
                         checks.afr_direct(act.K.table, act.T.table, act.act, eps.map),
                         actions.check_AE7_AE8(act, eps)[0],
                         actions.check_modified(act, decomps[j])[0])
                if len(set(forms)) != 1:
                    problems.append(f"{key}: action {i}, eps {j}: forms disagree {forms}")
        return problems


def check_actions(K, T, tables, expected_count, key):
    problems = []
    bad = checks.action_law_failures(K, T, tables)
    if bad:
        problems.append(f"{key}: {len(bad)} tables break an action law, first {bad[0]}")
    if checks.duplicate_count(tables):
        problems.append(f"{key}: an action is listed twice")
    if len(tables) != expected_count:
        problems.append(f"{key}: {len(tables)} actions, the oracle counts {expected_count}")
    return problems


def _eps_decomposition(eps):
    E, elems = core.idempotent_semilattice(eps.T)
    pos = {int(t): i for i, t in enumerate(elems)}
    eta = morphisms.is_homomorphism([pos[int(v)] for v in eps.map], eps.K, E)
    return congruences.decomposition_along(eta, embed=elems)


# ---------------------------------------------------------------- wreath-ladder

# (kind, K, T): wreath products of order 14 to 780, through the command line.
# hwr-eta uses K = A x T' fibred over T by the second coordinate.
RUNGS = (
    ("hwr", "z3", "chain4"),
    ("lwr", "z3", "chain4"),
    ("hwr-eta", "b2xchain2", "chain2"),
    ("hwr-eta", "z2xchain3", "chain3"),
    ("hwr", "chain2", "i2"),
    ("lwr", "chain2", "i2"),
    ("hwr", "chain4", "chain4"),
    ("lwr", "chain4", "chain4"),
    ("hwr", "b2", "chain4"),
)
ASSOC_SAMPLE = 20_000


@dataclass
class RungOutput:
    kind: str
    kname: str
    tname: str
    path: str
    report: dict        # the `validate --json` report


class WreathLadder:
    """`invsem product KIND ... -o FILE`, then `invsem validate FILE`, for each
    rung.  One operation is one command; a non-zero exit is a failure."""

    def __init__(self, workdir):
        self.dir = workdir

    def _write(self, name, doc):
        path = os.path.join(self.dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        cat = dict(fixtures.catalog())
        cat["b2xchain2"] = core.direct_product(cat["b2"], cat["chain2"])
        cat["z2xchain3"] = core.direct_product(cat["z2"], cat["chain3"])
        self.tables = {}
        self.paths = {}
        self.eta = {}
        for kind, k, t in RUNGS:
            for name in (k, t):
                if name not in self.paths:
                    self.tables[name] = cat[name].table
                    self.paths[name] = self._write(name, core.as_dict(cat[name]))
            if kind == "hwr-eta":
                # (a, b) has index a * |T| + b in the direct product; eta sends it to b
                n = cat[t].order
                self.eta[k] = np.arange(cat[k].order) % n
                self.paths[f"eta-{k}"] = self._write(f"eta-{k}", {"map": self.eta[k].tolist()})

    def prepare_checks(self, seed):
        self.rng_seed = seed
        return []

    def _out_path(self, kind, k, t):
        return os.path.join(self.dir, f"{kind}({k},{t}).out.json")

    def _cli(self, argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc, _ = cli.run(argv)
        except Exception as exc:
            return -1, repr(exc)
        return rc, buf.getvalue()

    def run_pass(self):
        res = PassResult(attempted=2 * len(RUNGS))
        for kind, k, t in RUNGS:
            out = self._out_path(kind, k, t)
            if os.path.exists(out):
                os.remove(out)
            argv = ["product", kind, "--k", self.paths[k], "--t", self.paths[t], "-o", out]
            if kind == "hwr-eta":
                argv += ["--eta", self.paths[f"eta-{k}"]]
            rc, text = self._cli(argv)
            if rc != 0:
                res.failed += 2
                res.errors.append(f"product {kind}({k},{t}) exited {rc}: {text[-300:]}")
                continue
            rc, text = self._cli(["validate", "--json", out])
            if rc != 0:
                res.failed += 1
                res.errors.append(f"validate {kind}({k},{t}) exited {rc}: {text[-300:]}")
                continue
            res.outputs.append(RungOutput(kind, k, t, out, json.loads(text)))
        return res

    def check_pass(self, res):
        problems = []
        docs = {}
        for r in res.outputs:
            label = f"{r.kind}({r.kname},{r.tname})"
            with open(r.path) as fh:
                doc = json.load(fh)
            docs[(r.kind, r.kname, r.tname)] = doc
            rng = np.random.default_rng([self.rng_seed, RUNGS.index((r.kind, r.kname, r.tname))])
            problems += check_wreath_doc(doc, r.report, self.tables[r.kname],
                                         self.tables[r.tname], self.eta.get(r.kname), rng, label)
        for (kind, k, t), lwr in docs.items():
            hwr = docs.get(("hwr", k, t))
            if kind == "lwr" and hwr is not None:
                problems += [f"remark 4.3 on ({k},{t}): {p}" for p in
                             checks.remark43_problems(self.tables[k], self.tables[t], lwr, hwr)]
        return problems


def check_wreath_doc(doc, report, K, T, eta, rng, label):
    """Order and idempotents against the formula, inverses, sampled associativity."""
    problems = []
    table = np.asarray(doc["table"], dtype=np.int64)
    order, idem = checks.wreath_counts(K, T, eta)
    found = checks.idempotents(table)
    if not (len(table) == doc["order"] == report["extra"]["order"] == order):
        problems.append(f"{label}: order {len(table)}, the formula gives {order}")
    if not (len(found) == idem and found.tolist() == sorted(doc["idempotents"])
            == sorted(report["extra"]["idempotents"])):
        problems.append(f"{label}: {len(found)} idempotents, the formula gives {idem}")
    if not checks.inverse_identities_hold(table, doc["inv"]):
        problems.append(f"{label}: x x^-1 x = x fails")
    if not checks.associates_on(table, checks.sample_triples(len(table), rng, ASSOC_SAMPLE)):
        problems.append(f"{label}: a sampled triple does not associate")
    return problems


# ---------------------------------------------------------------- extension-embed

@dataclass
class ExtensionOutput:
    label: str
    is_product: bool    # theta is the pi2-congruence of a restricted product
    S: object
    class_of: np.ndarray
    plain: bool
    split: bool
    psi: np.ndarray | None = None          # Thm 4.2 embedding S -> wreath
    wreath: np.ndarray | None = None
    second: np.ndarray | None = None       # second coordinate of each wreath element
    phi: np.ndarray | None = None          # Thm 3.10 isomorphism S -> product
    product: np.ndarray | None = None


@dataclass
class LatticeOutput:
    name: str
    S: object
    class_ofs: list


class ExtensionEmbed:
    """Part 1: every congruence of each catalog instance of order <= 5, and the
    pi2-congruence of each restricted-product fixture of order <= 8; each
    extension gets its hull, plain and split transversals, the Thm 4.2 wreath
    embedding and the Thm 3.10 round trip.  Part 2: full congruence lattices
    by the join engine.  One operation is one extension or one lattice."""

    def __init__(self, workdir):
        pass

    def setup(self):
        cat = fixtures.catalog()
        self.catalog = [(name, cat[name]) for name in fixtures.sweep_names(5)]
        self.products = [(label, P.sg, P.pi2.map) for label, P in fixtures.rsd_fixtures()
                         if P.sg.order <= 8]
        # semilattice-rich instances of order 9 to 12, for the join engine
        self.lattices = [
            ("chain9", core.validate(_min_table(9))),
            ("chain3xchain3", core.direct_product(cat["chain3"], cat["chain3"])),
            ("forkxchain3", core.direct_product(cat["fork"], cat["chain3"])),
            ("clifford4xchain3", core.direct_product(cat["clifford4"], cat["chain3"])),
        ]
        # chains whose elements are ordered by index: their congruences are the interval partitions
        self.chains = {"chain2": 2, "chain3": 3, "chain4": 4, "chain9": 9}

    def prepare_checks(self, seed):
        """Join engine and partition scan agree on every instance of order <= 8."""
        problems = []
        self.reference = {}
        small = self.catalog + [(label, S) for label, S, _ in self.products]
        for name, S in small:
            joins = {checks.canonical(th.class_of)
                     for th in congruences.enumerate_congruences(S, method="generated")}
            scan = {checks.canonical(th.class_of)
                    for th in congruences.enumerate_congruences(S, method="partitions")}
            if joins != scan:
                problems.append(f"{name}: join engine finds {len(joins)}, partition scan {len(scan)}")
            self.reference[name] = joins
        return problems

    @staticmethod
    def _extension(label, is_product, S, theta):
        he = trhull.hull_of_extension(S, theta)
        plain = billhardt.find_transversal(S, theta, he=he)
        split = billhardt.find_transversal(S, theta, want_split=True, he=he)
        out = ExtensionOutput(label, is_product, S, theta.class_of,
                              plain is not None, split is not None)
        if plain is not None:
            emb = billhardt.thm42_embedding(S, theta, plain)
            out.psi = emb.psi.map
            out.wreath = emb.hwr_eta.sg.table
            out.second = np.array([t for _, t in emb.hwr_eta.elements])
        if split is not None:
            prod, phi = billhardt.theorem310_backward(S, theta, split)
            out.phi, out.product = phi.map, prod.sg.table
        return out

    def run_pass(self):
        res = PassResult(attempted=len(self.catalog) + len(self.products) + len(self.lattices))
        for name, S in self.catalog:
            try:
                thetas = congruences.enumerate_congruences(S)
            except Exception as exc:
                res.failed += 1
                res.errors.append(f"congruences of {name}: {exc!r}")
                continue
            res.outputs.append(LatticeOutput(name, S, [th.class_of for th in thetas]))
            res.attempted += len(thetas)
            for i, theta in enumerate(thetas):
                label = f"{name}#{i}"
                self._op(res, label, lambda: self._extension(label, False, S, theta))
        for label, S, pi2 in self.products:
            self._op(res, label, lambda: self._extension(
                label, True, S, congruences.congruence_from_map(S, pi2)))
        for name, S in self.lattices:
            self._op(res, name, lambda: LatticeOutput(name, S, [
                th.class_of for th in congruences.enumerate_congruences(S, method="generated")]))
        return res

    @staticmethod
    def _op(res, label, fn):
        try:
            res.outputs.append(fn())
        except Exception as exc:
            res.failed += 1
            res.errors.append(f"{label}: {exc!r}")

    def check_pass(self, res):
        problems = []
        for out in res.outputs:
            if isinstance(out, LatticeOutput):
                problems += check_lattice(out.name, out.S.table, out.class_ofs,
                                          self.chains.get(out.name), self.reference.get(out.name))
            else:
                problems += check_extension(out)
        return problems


def check_lattice(name, table, class_ofs, chain_length, reference):
    problems = []
    found = [checks.canonical(c) for c in class_ofs]
    bad = [c for c in found if not checks.is_compatible(table, c)]
    if bad:
        problems.append(f"{name}: {len(bad)} listed partitions are not congruences, e.g. {bad[0]}")
    if len(set(found)) != len(found):
        problems.append(f"{name}: a congruence is listed twice")
    if chain_length is not None and set(found) != checks.interval_partitions(chain_length):
        problems.append(f"{name}: {len(set(found))} congruences, a chain of "
                        f"{chain_length} has {2 ** (chain_length - 1)}")
    if reference is not None and set(found) != reference:
        problems.append(f"{name}: the lattice differs from the join engine's")
    return problems


def check_extension(out):
    problems = []
    S, label = out.S, out.label
    if not checks.is_compatible(S.table, out.class_of):
        problems.append(f"{label}: theta is not a congruence")
    theta = _congruence(S, out.class_of)
    plain_expected = out.is_product or billhardt.classical_billhardt_on(S, theta)[0]
    split_expected = out.is_product or billhardt.classical_billhardt_on(
        S, theta, want_split=True)[0]
    if plain_expected and not out.plain:
        problems.append(f"{label}: no transversal found")
    if split_expected and not out.split:
        problems.append(f"{label}: no split transversal found")
    if out.psi is not None:
        if not checks.is_injective_homomorphism(out.psi, S.table, out.wreath):
            problems.append(f"{label}: psi is not an injective homomorphism")
        elif not np.array_equal(out.second[out.psi], checks.canonical(out.class_of)):
            problems.append(f"{label}: psi(s) does not lie over the class of s")
    if out.phi is not None and not checks.is_bijective_homomorphism(out.phi, S.table, out.product):
        problems.append(f"{label}: phi is not a bijective homomorphism")
    return problems


def _congruence(S, class_of):
    c = np.asarray(checks.canonical(class_of), dtype=np.int64)
    return congruences.Congruence(S, c, int(c.max()) + 1)


WORKLOADS = {
    "action-sweep": ActionSweep,
    "wreath-ladder": WreathLadder,
    "extension-embed": ExtensionEmbed,
}
