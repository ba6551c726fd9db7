"""The benchmark's checks pass on invsem's outputs and fail on corrupted ones.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from invsem import actions, congruences, core, fixtures, products  # noqa: E402

CAT = fixtures.catalog()


def changed(table, i, j, value=None):
    out = np.array(table, copy=True)
    out[i, j] = (out[i, j] + 1) % len(out) if value is None else value
    return out


# ---------------------------------------------------------------- action-sweep

@pytest.fixture(scope="module")
def sweep():
    wl = workloads.ActionSweep(None)
    wl.setup()
    wl.pairs = [("z3", "z2"), ("chain2", "chain2"), ("clifford4", "chain2")]
    wl.expected = {f"{k}|{t}": ["test", len(actions.enumerate_actions(CAT[t], CAT[k]))]
                   for k, t in wl.pairs}
    return wl


def test_action_sweep_checks_pass_on_program_output(sweep):
    res = sweep.run_pass()
    assert res.failed == 0 and sweep.check_pass(res) == []


def test_count_actions_matches_enumerator():
    for k, t in (("z3", "z2"), ("chain3", "fork"), ("b2", "chain2"), ("square4", "z2")):
        assert checks.count_actions(CAT[k].table, CAT[t].table) == len(
            actions.enumerate_actions(CAT[t], CAT[k]))


def test_swapped_action_rows_break_a_law():
    K, T = CAT["z3"], CAT["z2"]
    tables = [a.act for a in actions.enumerate_actions(T, K)]
    assert checks.action_law_failures(K.table, T.table, tables) == []
    inversion = next(i for i, a in enumerate(tables) if not np.array_equal(a[0], a[1]))
    tables[inversion] = tables[inversion][::-1].copy()
    assert checks.action_law_failures(K.table, T.table, tables) == [inversion]


def test_action_list_checks_catch_duplicates_and_miscounts():
    K, T = CAT["z3"], CAT["z2"]
    tables = [a.act for a in actions.enumerate_actions(T, K)]
    assert workloads.check_actions(K.table, T.table, tables, len(tables), "k") == []
    problems = workloads.check_actions(K.table, T.table, tables + tables[:1], len(tables), "k")
    assert any("twice" in p for p in problems) and any("oracle" in p for p in problems)


def test_action_sweep_checks_catch_corrupted_pass(sweep):
    good = sweep.run_pass()
    pair = next(p for p in good.outputs if p.rebuilt and len(p.acts) > 1)

    def corrupt(edit):
        res = copy.deepcopy(good)
        edit(next(p for p in res.outputs if p.kname == pair.kname and p.tname == pair.tname))
        return sweep.check_pass(res)

    def table_entry(p):
        i, j, table = p.rebuilt[0]
        p.rebuilt[0] = (i, j, changed(table, 0, 0))

    def row_swap(p):
        i = next(i for i, a in enumerate(p.acts) if not np.array_equal(a.act[0], a.act[-1]))
        act = p.acts[i]
        p.acts[i] = actions.EndoAction(act.T, act.K, act.act[::-1].copy())

    def verdict(p):
        p.afr[0] = not p.afr[0]

    assert any("rebuilds" in p for p in corrupt(table_entry))
    assert any("action law" in p for p in corrupt(row_swap))
    assert any("forms disagree" in p for p in corrupt(verdict))


def test_afr_direct_matches_check_afr():
    K, T = CAT["chain2"], CAT["chain2"]
    for act in actions.enumerate_actions(T, K):
        for eps in actions.enumerate_surjective_eps(K, T):
            assert checks.afr_direct(K.table, T.table, act.act, eps.map) == \
                actions.check_AFR(act, eps)[0]


# ---------------------------------------------------------------- wreath-ladder

def wreath_doc(P):
    doc = core.as_dict(P.sg)
    doc["elements"] = [list(map(int, e)) for e in P.elements]
    return doc


def validate_report(doc):
    return {"extra": {"order": doc["order"], "idempotents": doc["idempotents"]}}


@pytest.fixture(scope="module")
def wreaths():
    K, T = CAT["z2"], CAT["chain2"]
    return K, T, wreath_doc(products.build_hwr(K, T)), wreath_doc(products.build_lwr(K, T))


def check_doc(doc, K, T, eta=None):
    return workloads.check_wreath_doc(doc, validate_report(doc), K.table, T.table, eta,
                                      np.random.default_rng(0), "w")


def test_wreath_checks_pass_on_program_output(wreaths):
    K, T, hwr, lwr = wreaths
    assert checks.wreath_counts(K.table, T.table) == (2 + 4, 1 + 1)
    assert check_doc(hwr, K, T) == [] and check_doc(lwr, K, T) == []
    assert checks.remark43_problems(K.table, T.table, lwr, hwr) == []


def test_wreath_eta_counts_match_program():
    K = core.direct_product(CAT["b2"], CAT["chain2"])
    T = CAT["chain2"]
    eta = np.arange(K.order) % 2
    from invsem import morphisms
    P = products.build_hwr_eta(morphisms.make_triple(K, T, eta))
    assert check_doc(wreath_doc(P), K, T, eta) == []


def test_wreath_checks_catch_one_changed_entry(wreaths):
    K, T, hwr, lwr = wreaths
    table = np.array(hwr["table"])
    e = hwr["idempotents"][-1]
    idem = dict(hwr, table=changed(table, e, e).tolist())
    assert any("idempotents" in p for p in check_doc(idem, K, T))
    x = next(x for x in range(len(table)) if x not in hwr["idempotents"])
    xinv = hwr["inv"][x]
    inv = next(dict(hwr, table=changed(table, x, xinv, y).tolist()) for y in range(len(table))
               if y != table[x, xinv] and changed(table, x, xinv, y)[y, x] != x)
    assert any("x^-1" in p for p in check_doc(inv, K, T))
    bad = dict(hwr, table=changed(table, 0, 0).tolist())
    assert not checks.associates_on(bad["table"], checks.sample_triples(len(table), None, 10 ** 6))
    assert any("associate" in p for p in check_doc(bad, K, T))
    assert checks.remark43_problems(K.table, T.table, lwr, dict(hwr, table=changed(table, x, x)))


# ---------------------------------------------------------------- extension-embed

def merged(class_of, a, b):
    c = np.array(class_of, copy=True)
    c[c == c[b]] = c[a]
    return c


def test_lattice_checks_pass_and_catch_merged_classes():
    S = CAT["chain4"]
    found = [th.class_of for th in congruences.enumerate_congruences(S)]
    ref = {checks.canonical(c) for c in found}
    assert len(ref) == 8 and ref == checks.interval_partitions(4)
    assert workloads.check_lattice("chain4", S.table, found, 4, ref) == []
    # diagonal with the classes of 0 and 2 merged: not a congruence, not an interval
    bad = found[:1] + [merged(found[0], 0, 2)] + found[2:]
    problems = workloads.check_lattice("chain4", S.table, bad, 4, ref)
    assert any("not congruences" in p for p in problems)
    assert any("chain of 4" in p for p in problems)
    assert any("join engine" in p for p in problems)
    # merging two neighbouring classes gives another congruence, listed twice
    i = next(i for i, c in enumerate(found) if c.max() == 2)
    twice = found[:i] + [merged(found[i], 0, int(np.flatnonzero(found[i] == 1)[0]))] + found[i + 1:]
    assert any("twice" in p for p in workloads.check_lattice("chain4", S.table, twice, 4, ref))


@pytest.fixture(scope="module")
def extension():
    wl = workloads.ExtensionEmbed(None)
    wl.setup()
    label, S, pi2 = next((lab, S, m) for lab, S, m in wl.products if S.order == 6)
    out = wl._extension(label, True, S, congruences.congruence_from_map(S, pi2))
    assert out.psi is not None and out.phi is not None
    return out


def test_extension_checks_pass_on_program_output(extension):
    assert workloads.check_extension(extension) == []


def test_extension_checks_catch_corrupted_outputs(extension):
    out = extension

    def problems(**edit):
        return workloads.check_extension(dataclasses.replace(out, **edit))

    classes = out.class_of
    a = 0
    b = next(x for x in range(len(classes)) if classes[x] != classes[a])
    assert any("not a congruence" in p or "class of s" in p
               for p in problems(class_of=merged(classes, a, b)))
    psi = out.psi
    assert any("psi" in p for p in problems(wreath=changed(out.wreath, psi[0], psi[0])))
    assert any("phi" in p for p in problems(product=changed(out.product, out.phi[0], out.phi[0])))
    assert any("phi" in p for p in problems(phi=np.roll(out.phi, 1)))
    assert any("no transversal" in p for p in problems(plain=False))
    assert any("no split" in p for p in problems(split=False))
