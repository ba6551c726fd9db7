"""One test per acceptance criterion; `pytest -v` gives the per-criterion line.

Each test reruns the underlying sweep from scratch-or-cache and asserts
every check passes, plus the stated wall-clock budget where one is pinned.
"""

import time

import numpy as np

from invsem import cli, congruences, fixtures, products, trhull


def _all_pass(checks):
    assert checks, "empty check list"
    bad = [c for c in checks if not c.passed]
    assert not bad, bad
    return len(checks)


def test_criterion_01_construction_soundness():
    t0 = time.time()
    built = 0
    for kname, tname, action in fixtures.action_sweep(4):
        P = products.build_lsd(action.K, action.T, action)  # validates internally
        assert P.sg.order == len(P.elements)
        built += 1
    for kname, tname, action, eps in fixtures.afr_sweep(4):
        P = products.build_rsd(action.K, action.T, action, eps)
        assert P.sg.order == len(P.elements)
        built += 1
    assert built > 100
    assert time.time() - t0 < 30


def test_criterion_02_kernel_formulas_exact(kernels):
    for label, P in fixtures.lsd_fixtures():
        union = {i for mem in kernels.lsd(P).values() for i in mem}
        assert union == kernels.via_congruence(P), label
    for label, P in fixtures.rsd_fixtures():
        union = {i for mem in kernels.rsd(P).values() for i in mem}
        assert union == kernels.via_congruence(P), label


def test_criterion_03_unrestricted_product_restricts():
    t0 = time.time()
    _all_pass(cli.verify("lemma-2.1"))
    assert time.time() - t0 < 10


def test_criterion_04_axiom_forms_equivalent_exhaustively():
    t0 = time.time()
    _all_pass(cli.verify("prop-3.1", max_order=3))
    assert time.time() - t0 < 60


def test_criterion_05_strong_semilattice_decomposition():
    _all_pass(cli.verify("cor-3.4", max_order=4))


def test_criterion_06_hull_projects_onto_quotient_hull():
    t0 = time.time()
    _all_pass(cli.verify("prop-3.5", max_order=6))
    assert time.time() - t0 < 120


def test_criterion_07_shift_pairs():
    _all_pass(cli.verify("lemma-3.6", max_order=20))
    _all_pass(cli.verify("lemma-3.7", max_order=20))
    _all_pass(cli.verify("lemma-3.8", max_order=20))


def test_criterion_08_transversal_roundtrip():
    _all_pass(cli.verify("thm-3.10", max_order=20))


def test_criterion_09_wreath_embedding():
    t0 = time.time()
    checks = cli.verify("thm-4.2", max_order=5)
    _all_pass(checks)
    # the sweep embedded at least two genuine instances
    assert checks[-1].name == "embedding-sweep-nonvacuous"
    assert time.time() - t0 < 120


def test_criterion_10_total_map_form_isomorphic():
    _all_pass(cli.verify("remark-4.3", max_order=4096))


def test_criterion_11_oracle_redundancy():
    for name in fixtures.sweep_names(5):
        S = fixtures.catalog()[name]
        fast = trhull.enumerate_hull(S)
        slow = trhull.naive_hull(S)
        assert np.array_equal(fast.left, slow.left), name
        assert np.array_equal(fast.right, slow.right), name
    for name in fixtures.sweep_names(7):
        S = fixtures.catalog()[name]
        by_part = congruences.enumerate_congruences(S, method="partitions")
        by_join = congruences.enumerate_congruences(S, method="generated")
        assert ([tuple(c.class_of) for c in by_part]
                == [tuple(c.class_of) for c in by_join]), name
