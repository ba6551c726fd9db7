import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from invsem import actions, cli, congruences, core, fixtures


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def inst(tmp_path, name, S):
    return write(tmp_path, name, core.as_dict(S))


MIN3 = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]


def dumps(x):
    """What cli writes for x, without the closing newline."""
    return "".join(cli._json_chunks(x))


def test_validate_good(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", {"order": 3, "table": MIN3})
    code, report = cli.run(["validate", path])
    assert code == 0 and report.passed
    assert report.extra["idempotents"] == [0, 1, 2]
    out = capsys.readouterr().out
    assert "PASS" in out and "ok (4/4 checks" in out


def test_validate_failures(tmp_path, capsys):
    cases = [
        ([[0, 1], [0, 0]], "associative"),
        ([[0, 0], [0, 0]], "every-element-has-inverse"),
        ([[0, 0], [1, 1]], "idempotents-commute"),
        ([[0, 9], [1, 0]], "well-formed"),
    ]
    for table, expected in cases:
        path = write(tmp_path, "bad.json", {"order": 2, "table": table})
        code, report = cli.run(["validate", path])
        assert code == 1
        assert [c.name for c in report.checks] == [expected]
        assert not report.checks[0].passed
        assert "FAIL" in capsys.readouterr().out


def test_missing_file(tmp_path, capsys):
    """A path that cannot be opened, a missing file or a directory, is a
    usage error, whether it is read or, with -o, written."""
    c2 = write(tmp_path, "c2.json", {"order": 2, "table": [[0, 0], [0, 1]]})
    missing, directory = str(tmp_path / "nope.json"), str(tmp_path)
    for argv in (["validate", missing], ["validate", directory],
                 ["trhull", c2, "--congruence", missing],
                 ["trhull", c2, "--congruence", directory],
                 ["product", "hwr", "--k", directory, "--t", c2],
                 ["product", "hwr", "--k", c2, "--t", c2, "-o", directory]):
        code, report = cli.run(argv)
        assert code == 2 and report is None, argv
        assert capsys.readouterr().err.startswith("usage error: "), argv


def test_malformed_input_is_usage_error(tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"order": 2, "table": [[0, 1], [1')
    code, report = cli.run(["validate", str(truncated)])
    assert code == 2 and report is None

    chain2 = {"order": 2, "table": [[0, 0], [0, 1]]}
    k = write(tmp_path, "k.json", chain2)
    no_act = write(tmp_path, "act.json", {"action": [[0, 0], [0, 1]]})
    eps = write(tmp_path, "eps.json", {"map": [0, 1]})
    code, report = cli.run(["product", "rsd", "--k", k, "--t", k,
                            "--action", no_act, "--eps", eps])
    assert code == 2 and report is None
    assert "'act'" in capsys.readouterr().err


def test_invalid_instance_is_usage_error(tmp_path, capsys):
    chain2 = {"order": 2, "table": [[0, 0], [0, 1]]}
    nonassoc = {"order": 2, "table": [[0, 1], [0, 0]]}
    good = write(tmp_path, "chain2.json", chain2)
    bad = write(tmp_path, "bad.json", nonassoc)
    triple = write(tmp_path, "triple.json", {"k": nonassoc, "t": chain2, "eta": [0, 1]})
    sol = write(tmp_path, "sol.json", {"s": chain2, "theta": {"class_of": [0, 1]}})
    for argv in (["congruences", bad],
                 ["product", "hwr", "--k", bad, "--t", good],
                 ["check-solution", triple, sol]):
        code, report = cli.run(argv)
        assert code == 2 and report is None
        assert "(1*0)*1 != 1*(0*1)" in capsys.readouterr().err
    # validate still reports the same instance as a failed check
    code, report = cli.run(["validate", bad])
    assert code == 1 and report.checks == [cli.Check("associative", False, (1, 0, 1))]


def test_bad_cell_or_names_is_rejected(tmp_path, capsys):
    chain2 = write(tmp_path, "chain2.json", {"order": 2, "table": [[0, 0], [0, 1]]})
    act = write(tmp_path, "act.json", {"act": [[0, 1], [0, 1]]})
    eps = write(tmp_path, "eps.json", {"map": [0, 1]})
    cong = write(tmp_path, "cong.json", {"class_of": [0, 0]})
    cases = [
        ({"order": 1, "table": [[None]]}, "table cell (0,0) is None, not an integer"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "names": 5}, "'names' must be a list of 2 strings"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "names": ["g"]}, "'names' must be a list of 2 strings"),
    ]
    for obj, problem in cases:
        bad = write(tmp_path, "bad.json", obj)
        code, report = cli.run(["validate", bad])
        assert code == 1
        assert [(c.name, c.passed) for c in report.checks] == [("well-formed", False)]
        assert problem in report.checks[0].witness
        capsys.readouterr()
        triple = write(tmp_path, "triple.json", {"k": obj, "t": obj, "eta": [0]})
        sol = write(tmp_path, "sol.json", {"s": obj, "theta": {"class_of": [0]}})
        for argv in (["congruences", bad],
                     ["trhull", bad],
                     ["product", "hwr", "--k", bad, "--t", chain2],
                     ["check-afr", act, eps, "--k", chain2, "--t", bad],
                     ["billhardt", "find", bad, cong],
                     ["check-solution", triple, sol]):
            code, report = cli.run(argv)
            assert code == 2 and report is None, argv
            assert problem in capsys.readouterr().err, argv


def test_bad_class_of_is_usage_error(tmp_path, capsys):
    chain3 = write(tmp_path, "chain3.json", {"order": 3, "table": MIN3})
    triple = write(tmp_path, "triple.json", {"k": {"order": 3, "table": MIN3},
                                             "t": {"order": 3, "table": MIN3},
                                             "eta": [0, 1, 2]})
    # too short, too long, not integers, JSON booleans, not a congruence
    for labels in ([0], [0, 1, 2, 3], ["a", "b", "c"], [True, True, False], [0, 1, 0]):
        cong = write(tmp_path, "cong.json", {"class_of": labels})
        sol = write(tmp_path, "sol.json", {"s": {"order": 3, "table": MIN3},
                                           "theta": {"class_of": labels}})
        for argv in (["trhull", chain3, "--congruence", cong],
                     ["billhardt", "find", chain3, cong],
                     ["check-solution", triple, sol]):
            code, report = cli.run(argv)
            assert code == 2 and report is None
            assert "'class_of'" in capsys.readouterr().err


# K = chain2 under T = z2_zero (idempotents 0 and 1, g = 2); eta is for
# K = clifford4, whose element 2a+b lies over b
GOOD_MAPS = {"act": [[0, 0], [0, 1], [0, 1]], "eps": [0, 1], "eta": [0, 1, 0, 1]}


@pytest.mark.parametrize("kind,values", [
    ("eta", [0, 1, 0]),                 # too short
    ("eta", [0, 1, 0, 1, 0]),           # too long
    ("eta", [0, 2, 0, 1]),              # g is not idempotent
    ("eta", [1, 0, 1, 0]),              # not a morphism
    ("eta", [1, 1, 1, 1]),              # misses the idempotent 0
    ("eta", [0, "a", 0, 1]),            # string cell
    ("eta", [[0, 1], [0]]),             # ragged
    ("act", [[0, 1]]),                  # wrong shape
    ("act", [[1, 0], [0, 1], [0, 1]]),  # 0 acts by a non-endomorphism
    ("act", [[0, 1], [0, 0], [0, 1]]),  # (g g).1 differs from g.(g.1)
    ("act", [["a", 1], [0, 1], [0, 1]]),
    ("eps", [0, 1, 0]),                 # wrong length
    ("eps", [0, 2]),                    # g is not idempotent
    ("eps", [1, 0]),                    # not a morphism
    ("eps", "01"),
])
def test_bad_map_file_is_usage_error(tmp_path, capsys, catalog, kind, values):
    k = inst(tmp_path, "chain2.json", catalog["chain2"])
    cf = inst(tmp_path, "clifford4.json", catalog["clifford4"])
    t = inst(tmp_path, "z2_zero.json", catalog["z2_zero"])
    maps = dict(GOOD_MAPS, **{kind: values})
    act = write(tmp_path, "act.json", {"act": maps["act"]})
    eps = write(tmp_path, "eps.json", {"map": maps["eps"]})
    eta = write(tmp_path, "eta.json", {"map": maps["eta"]})
    triple = write(tmp_path, "triple.json", {"k": core.as_dict(catalog["clifford4"]),
                                             "t": core.as_dict(catalog["z2_zero"]),
                                             "eta": maps["eta"]})
    sol = write(tmp_path, "sol.json", {"s": core.as_dict(catalog["chain2"]),
                                       "theta": {"class_of": [0, 1]}})
    bad = {"act": act, "eps": eps, "eta": eta}[kind]
    if kind == "eta":
        runs = [(["product", "hwr-eta", "--k", cf, "--t", t, "--eta", eta], eta),
                (["check-solution", triple, sol], triple)]
    else:
        runs = [(["product", "rsd", "--k", k, "--t", t, "--action", act, "--eps", eps], bad),
                (["check-afr", act, eps, "--k", k, "--t", t], bad)]
    if kind == "act":
        runs.append((["product", "lsd", "--k", k, "--t", t, "--action", act], act))
    for argv, bad in runs:
        code, report = cli.run(argv)
        assert code == 2 and report is None, argv
        assert bad in capsys.readouterr().err, argv


def test_bad_arguments(tmp_path, capsys):
    assert cli.run([])[0] == 2
    assert cli.run(["verify", "bogus-token"])[0] == 2
    k = write(tmp_path, "k.json", {"order": 2, "table": [[0, 0], [0, 1]]})
    code, _ = cli.run(["product", "lsd", "--k", k, "--t", k])
    assert code == 2  # --action is required for lsd


def test_json_output(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", {"order": 3, "table": MIN3})
    code, _ = cli.run(["validate", path, "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {"associative", "well-formed"}
    assert path in data["digests"]


def test_congruences_cmd(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", {"order": 3, "table": MIN3})
    code, report = cli.run(["congruences", path])
    assert code == 0 and report.extra["count"] == 4
    code, report = cli.run(["congruences", path, "--method", "partitions"])
    assert report.extra["count"] == 4
    listing = report.extra["congruences"]
    assert listing[0]["class_of"] == [0, 1, 2]
    assert listing[-1]["classes"] == 1


def test_product_round_trip(tmp_path, capsys):
    chain2 = {"order": 2, "table": [[0, 0], [0, 1]]}
    k = write(tmp_path, "k.json", chain2)
    t = write(tmp_path, "t.json", chain2)
    act = write(tmp_path, "act.json", {"act": [[0, 0], [0, 1]]})
    out = str(tmp_path / "prod.json")
    code, report = cli.run(["product", "lsd", "--k", k, "--t", t,
                            "--action", act, "--out", out])
    assert code == 0 and report.extra["order"] == 3
    data = json.loads((tmp_path / "prod.json").read_text())
    assert data["provenance"]["construction"] == "lsd"
    assert data["elements"] == [[0, 0], [0, 1], [1, 1]]
    # the emitted instance is itself valid
    code, _ = cli.run(["validate", out])
    assert code == 0


def assert_stdlib_dump(path):
    text = Path(path).read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_product_kinds(tmp_path, capsys, catalog):
    z2 = inst(tmp_path, "z2.json", catalog["z2"])
    chain2 = inst(tmp_path, "chain2.json", catalog["chain2"])
    cf = inst(tmp_path, "cf.json", catalog["clifford4"])
    z3 = inst(tmp_path, "z3.json", catalog["z3"])
    out = str(tmp_path / "o.json")

    code, report = cli.run(["product", "hwr", "--k", z2, "--t", chain2, "--out", out])
    assert code == 0 and report.extra["order"] == 6
    assert_stdlib_dump(out)

    act = write(tmp_path, "act.json", {"act": [[0, 1, 2], [0, 2, 1]]})
    eps = write(tmp_path, "eps.json", {"map": [0, 0, 0]})
    code, report = cli.run(["product", "rsd", "--k", z3, "--t", z2,
                            "--action", act, "--eps", eps, "--out", out])
    assert code == 0 and report.extra["order"] == 6
    assert_stdlib_dump(out)

    code, report = cli.run(["product", "lsd", "--k", z3, "--t", z2, "--action", act, "--out", out])
    assert code == 0 and report.extra["order"] == 6
    assert_stdlib_dump(out)

    eta = write(tmp_path, "eta.json", {"map": [0, 1, 0, 1]})
    code, report = cli.run(["product", "hwr-eta", "--k", cf, "--t", chain2,
                            "--eta", eta, "--out", out])
    assert code == 0 and report.extra["order"] == 6
    assert_stdlib_dump(out)

    code, report = cli.run(["product", "lwr", "--k", z2, "--t", chain2, "--out", out])
    assert code == 0 and report.extra["order"] == 6
    assert_stdlib_dump(out)


def test_afr_failure_is_usage_error(tmp_path, capsys, catalog):
    # each map is valid on its own, but the identity action with eps = the
    # identity fails the fixed-range condition at (1, 0)
    k = inst(tmp_path, "chain2.json", catalog["chain2"])
    t = inst(tmp_path, "z2_zero.json", catalog["z2_zero"])
    act = write(tmp_path, "act.json", {"act": [[0, 1], [0, 1], [0, 1]]})
    eps = write(tmp_path, "eps.json", {"map": [0, 1]})
    code, report = cli.run(["product", "rsd", "--k", k, "--t", t, "--action", act, "--eps", eps])
    assert code == 2 and report is None
    assert f"{eps}: 'map' is rejected: fixed-range condition fails at (1, 0)" in (
        capsys.readouterr().err)
    code, report = cli.run(["check-afr", act, eps, "--k", k, "--t", t])
    assert code == 1 and [c.witness for c in report.checks if not c.passed] == [(1, 0)]


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers() | st.integers(min_value=-2**80, max_value=2**80),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers(), min_size=1)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_dumps_matches_the_stdlib(x):
    assert dumps(x) == json.dumps(x, indent=2, sort_keys=True)


def test_dumps_examples():
    for x in ([], {}, (), [[]], [{}], {"": ()}, [1, True], [2**70, -1], {"é": "ü\n"},
              [1.5, float("nan"), float("-inf")], {"b": [{"a": [0]}], "a": None}):
        assert dumps(x) == json.dumps(x, indent=2, sort_keys=True), x


@pytest.mark.parametrize("x", [np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.int64),
                               np.array([3, 0, 256, 1000, 255]),
                               np.arange(12).reshape(3, 4) * 300,
                               np.array([[1, 0], [0, 1], [5, 2]]),
                               np.arange(14).reshape(7, 2)])   # rows in blocks of 3, 3, 1
def test_dumps_of_integer_arrays_matches_the_stdlib(x):
    assert x.dtype == np.int64
    assert dumps(x) == json.dumps(x.tolist(), indent=2, sort_keys=True)
    nested = {"a": [x.tolist()], "t": x.tolist()}
    assert dumps({"a": [x], "t": x}) == json.dumps(nested, indent=2, sort_keys=True)


def test_product_file_is_the_stdlib_indented_dump(tmp_path, capsys, catalog):
    k = inst(tmp_path, "chain2.json", catalog["chain2"])
    t = inst(tmp_path, "i2.json", catalog["i2"])
    out = tmp_path / "hwr.json"
    code, report = cli.run(["product", "hwr", "--k", k, "--t", t, "--out", str(out)])
    assert code == 0 and report.extra["order"] == 290
    text = out.read_text()
    expected = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    # lists of lines, so that a failure names the first differing line
    # instead of diffing two 80,000-line strings
    assert text.splitlines(True) == expected.splitlines(True)


def test_product_of_order_780_stays_under_24_MiB(tmp_path, capsys, catalog, peak_traced):
    k = inst(tmp_path, "b2.json", catalog["b2"])
    t = inst(tmp_path, "chain4.json", catalog["chain4"])
    out = tmp_path / "hwr.json"
    argv = ["product", "hwr", "--k", k, "--t", t, "-o", str(out)]
    # building the file as one string, then copying it, peaked at 56.2 MiB
    assert peak_traced(lambda: cli.run(argv)) < 24 * 2**20
    assert json.loads(out.read_text())["order"] == 780


def test_trhull_cmd(tmp_path, capsys, catalog, zero_with_atoms):
    b2 = inst(tmp_path, "b2.json", catalog["b2"])
    code, report = cli.run(["trhull", b2])
    assert code == 0
    assert report.extra["hull_order"] == 7 and report.extra["inner_order"] == 5
    assert len(report.extra["non_inner"]) == 2

    cong = write(tmp_path, "diag.json", {"class_of": [0, 1, 2, 3, 4]})
    code, report = cli.run(["trhull", b2, "--congruence", cong])
    assert code == 0
    assert report.extra["respecting_order"] == 7
    assert report.extra["extension_hull_order"] == 5
    names = {c.name for c in report.checks}
    assert "all-pairs-respect" in names and "quotient-map:down_surjective" in names

    # order 13, but a hull of order 2^12
    atoms = inst(tmp_path, "atoms12.json", zero_with_atoms(12))
    code, report = cli.run(["trhull", atoms])
    assert code == 3
    assert report.checks[0].name == "within-bounds" and not report.checks[0].passed
    assert report.checks[0].witness["what"] == "hull enumeration cells"


_hull_factors = st.one_of(st.tuples(st.just("atoms"), st.integers(0, 40)),
                          st.tuples(st.just("chain"), st.integers(1, 40)))


@given(st.lists(_hull_factors, min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_trhull_stays_within_bounds(tmp_path_factory, zero_with_atoms, peak_traced, factors):
    """On semilattices of a zero and atoms, chains, and their direct products,
    the hull is built or refused, and memory stays bounded either way."""
    parts = [zero_with_atoms(k) if kind == "atoms" else core.validate(fixtures._min_table(k))
             for kind, k in factors]
    # the input table and its JSON are n² cells before any hull array: keep
    # them small, so that the peak measures the hull
    assume(np.prod([S.order for S in parts]) <= 256)
    S = parts[0] if len(parts) == 1 else core.direct_product(*parts)
    path = inst(tmp_path_factory.mktemp("hull"), "s.json", S)
    codes = []
    assert peak_traced(lambda: codes.append(cli.run(["trhull", path])[0])) < 80 * 2**20
    assert codes[0] in (0, 3)


def test_check_afr(tmp_path, capsys, catalog):
    z3 = inst(tmp_path, "z3.json", catalog["z3"])
    z2 = inst(tmp_path, "z2.json", catalog["z2"])
    act = write(tmp_path, "act.json", {"act": [[0, 1, 2], [0, 2, 1]]})
    eps = write(tmp_path, "eps.json", {"map": [0, 0, 0]})
    code, report = cli.run(["check-afr", act, eps, "--k", z3, "--t", z2])
    assert code == 0
    assert {c.name for c in report.checks} == {
        "fixed-range-axiom", "classwise-equivalent", "structure-maps-rebuild-product"}

    bad = write(tmp_path, "bad.json", {"act": [[0, 0, 0], [0, 0, 0]]})
    code, report = cli.run(["check-afr", bad, eps, "--k", z3, "--t", z2])
    assert code == 1
    by_name = {c.name: c for c in report.checks}
    assert not by_name["fixed-range-axiom"].passed
    assert by_name["classwise-equivalent"].passed  # both forms reject it


_bad_cells = (st.integers(-2, 5) | st.booleans() | st.floats() | st.text(max_size=2)
              | st.none() | st.sampled_from([2**70, -2**70]))


@st.composite
def _map_json(draw, key, rows):
    """A file for `key` ({"act": ...} or {"map": ...}): mostly one of the
    `rows` (the enumerated actions or eps maps) with up to two cells
    replaced by bad ones, else a nest of bad cells of any shape; mostly
    under `key`, else under another key or in no object."""
    cells = np.array(draw(st.sampled_from(rows)), dtype=object)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        cells[draw(st.tuples(*(st.integers(0, d - 1) for d in cells.shape)))] = draw(_bad_cells)
    value = cells.tolist() if draw(st.integers(0, 4)) else draw(st.recursive(
        _bad_cells, lambda inner: st.lists(inner, max_size=5), max_leaves=20))
    return draw(st.sampled_from([{key: value}] * 4 + [{key: value, "other": 0},
                                                      {"other": value}, value, [{key: value}]]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_check_afr_exit_codes_on_any_map_file(tmp_path_factory, data):
    """check-afr exits 0, 1 or 2, and raises nothing, whatever its map files
    hold, on every ordered pair of catalog instances of order <= 4."""
    cat = fixtures.catalog()
    kn, tn = data.draw(st.tuples(*[st.sampled_from(fixtures.sweep_names(4))] * 2))
    K, T = cat[kn], cat[tn]
    acts = [a.act for a in actions.enumerate_actions(T, K)]
    epss = [e.map for e in actions.enumerate_surjective_eps(K, T)] or [np.zeros(K.order, int)]
    tmp = tmp_path_factory.mktemp("afr")
    argv = ["check-afr", write(tmp, "act.json", data.draw(_map_json("act", acts))),
            write(tmp, "eps.json", data.draw(_map_json("map", epss))),
            "--k", inst(tmp, "k.json", K), "--t", inst(tmp, "t.json", T)]
    assert cli.run(argv)[0] in (0, 1, 2)


@st.composite
def _instance_json(draw, S):
    """S's instance file, mostly as it is, else with one table cell replaced
    by a bad cell (or by another element, which may still validate)."""
    doc = core.as_dict(S)
    if draw(st.integers(0, 3)):
        return doc
    table = [row[:] for row in doc["table"]]
    table[draw(st.integers(0, S.order - 1))][draw(st.integers(0, S.order - 1))] = draw(
        _bad_cells)
    return dict(doc, table=table)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_eta_file_exit_codes(tmp_path_factory, data):
    """product hwr-eta exits 0, 1, 2 or 3 whatever its --eta file holds, and
    check-solution whatever its triple file's eta, k and t hold, on every
    ordered pair of catalog instances of order <= 4; neither raises."""
    cat = fixtures.catalog()
    names = fixtures.sweep_names(4)
    kn, tn, sn = data.draw(st.tuples(*[st.sampled_from(names)] * 3))
    K, T, S = cat[kn], cat[tn], cat[sn]
    etas = [e.map for e in actions.enumerate_surjective_eps(K, T)] or [np.zeros(K.order, int)]
    tmp = tmp_path_factory.mktemp("eta")
    k, t = inst(tmp, "k.json", K), inst(tmp, "t.json", T)
    eta = write(tmp, "eta.json", data.draw(_map_json("map", etas)))
    argv = ["product", "hwr-eta", "--k", k, "--t", t, "--eta", eta, "-o", str(tmp / "w.json")]
    assert cli.run(argv)[0] in (0, 1, 2, 3), argv
    triple = data.draw(_map_json("eta", etas))
    if isinstance(triple, dict):
        triple = {"k": data.draw(_instance_json(K)), "t": data.draw(_instance_json(T))} | triple
    theta = data.draw(st.sampled_from(congruences.enumerate_congruences(S)))
    sol = write(tmp, "sol.json", {"s": core.as_dict(S),
                                  "theta": {"class_of": theta.class_of.tolist()}})
    argv = ["check-solution", write(tmp, "triple.json", triple), sol]
    assert cli.run(argv)[0] in (0, 1, 2, 3), argv


def test_check_solution(tmp_path, capsys):
    chain2 = {"order": 2, "table": [[0, 0], [0, 1]]}
    triple = write(tmp_path, "triple.json", {"k": chain2, "t": chain2, "eta": [0, 1]})
    good = write(tmp_path, "good.json",
                 {"s": chain2, "theta": {"class_of": [0, 1]}})
    code, report = cli.run(["check-solution", triple, good, "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["witness"]["beta"] == [0, 1]

    bad = write(tmp_path, "bad.json",
                {"s": chain2, "theta": {"class_of": [0, 0]}})
    code, report = cli.run(["check-solution", triple, bad])
    assert code == 1
    assert report.checks[0].witness == "quotient-order-mismatch"


def test_check_solution_reports_the_largest_order_past_the_bound(tmp_path, capsys):
    """K is a chain of 65 over the trivial T, S is chain2: the size that
    exceeds the bound is K's, not S's."""
    n = 65
    chain = {"order": n, "table": [[min(a, b) for b in range(n)] for a in range(n)]}
    triple = write(tmp_path, "triple.json", {"k": chain, "t": {"order": 1, "table": [[0]]},
                                             "eta": [0] * n})
    sol = write(tmp_path, "sol.json", {"s": {"order": 2, "table": [[0, 0], [0, 1]]},
                                       "theta": {"class_of": [0, 0]}})
    code, report = cli.run(["check-solution", triple, sol])
    assert code == 3
    assert report.checks[0].witness == {"what": "solution check", "size": n, "bound": 64}


@st.composite
def _congruence_json(draw, S):
    """A congruence file for S: mostly one of its congruences, its labels
    shifted by any integer, with up to two labels replaced by bad cells,
    else a nest of bad cells of any shape; mostly under "class_of", else
    under another key or in no object."""
    thetas = [c.class_of.astype(object) + draw(st.integers(-2**70, 2**70))
              for c in congruences.enumerate_congruences(S)]
    labels = np.array(draw(st.sampled_from(thetas)), dtype=object)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        labels[draw(st.integers(0, S.order - 1))] = draw(_bad_cells)
    value = labels.tolist() if draw(st.integers(0, 4)) else draw(st.recursive(
        _bad_cells, lambda inner: st.lists(inner, max_size=5), max_leaves=20))
    return draw(st.sampled_from([{"class_of": value}] * 4 + [
        {"class_of": value, "other": 0}, {"other": value}, value, [{"class_of": value}]]))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_congruence_file_exit_codes(tmp_path_factory, data):
    """trhull --congruence, billhardt find and check-solution's theta exit 0,
    1 or 2, and raise nothing, whatever the congruence file holds, on every
    catalog instance of order <= 4."""
    S = fixtures.catalog()[data.draw(st.sampled_from(fixtures.sweep_names(4)))]
    tmp = tmp_path_factory.mktemp("cong")
    s = inst(tmp, "s.json", S)
    cong = data.draw(_congruence_json(S))
    f = write(tmp, "f.json", cong)
    triple = write(tmp, "triple.json", {"k": core.as_dict(S), "t": core.as_dict(S),
                                        "eta": S.doms.tolist()})
    sol = write(tmp, "sol.json", {"s": core.as_dict(S), "theta": cong})
    for argv in (["trhull", s, "--congruence", f], ["billhardt", "find", s, f],
                 ["check-solution", triple, sol]):
        assert cli.run(argv)[0] in (0, 1, 2), argv


def test_billhardt_find(tmp_path, capsys, catalog):
    b2 = inst(tmp_path, "b2.json", catalog["b2"])
    univ = write(tmp_path, "univ.json", {"class_of": [0, 0, 0, 0, 0]})
    code, report = cli.run(["billhardt", "find", b2, univ])
    assert code == 0
    assert report.extra["certificate"]["classification"] == "neither"

    code, report = cli.run(["billhardt", "find", b2, univ, "--split"])
    assert code == 0
    names = {c.name for c in report.checks}
    assert "axiom:multiplicative" in names and "closure:no_new_elements" in names

    i2 = inst(tmp_path, "i2.json", catalog["i2"])
    rees = write(tmp_path, "rees.json", {"class_of": [0, 0, 0, 0, 1, 0, 2]})
    code, report = cli.run(["billhardt", "find", i2, rees])
    assert code == 1
    assert report.checks == [cli.Check("transversal-exists", False)]


def test_billhardt_embed(tmp_path, capsys, catalog):
    b2 = inst(tmp_path, "b2.json", catalog["b2"])
    diag = write(tmp_path, "diag.json", {"class_of": [0, 1, 2, 3, 4]})
    code, report = cli.run(["billhardt", "embed", b2, diag, "--split"])
    assert code == 0
    names = {c.name for c in report.checks}
    assert "embedding-injective" in names and "total-map-route-agrees" in names
    assert report.extra["wreath_instance"]["order"] == 5
    assert report.extra["psi_map"] == [0, 1, 2, 3, 4]


def test_verify_tokens(capsys):
    code, report = cli.run(["verify", "lemma-2.1"])
    assert code == 0 and len(report.checks) >= 10
    assert all(c.name.startswith("lemma-2.1:") for c in report.checks)
    out = capsys.readouterr().out
    assert out.count("PASS") == len(report.checks)

    code, report = cli.run(["verify", "prop-3.1", "--max-order", "2"])
    assert code == 0
    code, report = cli.run(["verify", "prop-3.5", "--max-order", "3"])
    assert code == 0


def test_verify_empty_sweep_fails(capsys):
    for name, max_order in (("remark-4.3", "3"), ("lemma-3.6", "1")):
        code, report = cli.run(["verify", name, "--max-order", max_order])
        assert code == 1, name
        assert [c.name for c in report.checks] == [f"{name}:sweep-nonvacuous"]
        assert not report.checks[0].passed


def test_verify_sweep_dir(tmp_path, capsys):
    d = tmp_path / "extra"
    d.mkdir()
    (d / "chain2.json").write_text(json.dumps({"order": 2, "table": [[0, 0], [0, 1]]}))
    code, report = cli.run(["verify", "remark-4.3", "--max-order", "16",
                            "--sweep", str(d)])
    assert code == 0
    names = {c.name for c in report.checks}
    assert any(n.startswith("sweep:hull-engines-agree") for n in names)

    (d / "broken.json").write_text(json.dumps({"order": 2, "table": [[0, 1], [0, 0]]}))
    code, report = cli.run(["verify", "remark-4.3", "--max-order", "16",
                            "--sweep", str(d)])
    assert code == 1
    bad = [c for c in report.checks if not c.passed]
    assert len(bad) == 1 and "broken" in bad[0].name

    # an entry that is a directory is a failed check, not a crash
    (d / "broken.json").unlink()
    (d / "x.json").mkdir()
    code, report = cli.run(["verify", "remark-4.3", "--max-order", "16",
                            "--sweep", str(d)])
    assert code == 1
    bad = [c for c in report.checks if not c.passed]
    assert [c.name for c in bad] == [f"sweep:valid:{d / 'x.json'}"]

    # a sweep that is missing or not a directory is bad input
    for path in (tmp_path / "nonexistent", d / "chain2.json"):
        code, report = cli.run(["verify", "remark-4.3", "--sweep", str(path)])
        assert code == 2 and report is None
        assert str(path) in capsys.readouterr().err


# per suite of `verify all` at default sizes: check count, first and last check
VERIFY_ALL = [
    ("prop-2.2", 46, "embeddings-transfer-both-ways:lsd(chain2,chain2)#0",
     "embeddings-transfer-both-ways:lsd(chain2,chain3)#5"),
    ("lemma-2.1", 46, "pair-product-restricts:lsd(chain2,chain2)#0",
     "pair-product-restricts:lsd(chain2,chain3)#5"),
    ("prop-3.1", 49, "three-forms-agree:trivial|trivial", "three-forms-agree:z2_zero|z2_zero"),
    ("cor-3.4", 78, "gluing-rebuilds-product:trivial|trivial",
     "gluing-rebuilds-product:clifford4|clifford4"),
    ("prop-3.5", 11, "hull-projects-onto-quotient:trivial", "hull-projects-onto-quotient:b2"),
    ("lemma-3.6", 11, "shifts-are-linked-pairs:rsd(chain2,chain2)#1.0",
     "shifts-are-linked-pairs:rsd(P(z2,chain2),chain2)"),
    ("lemma-3.7", 11, "shift-map-embeds:rsd(chain2,chain2)#1.0",
     "shift-map-embeds:rsd(P(z2,chain2),chain2)"),
    ("lemma-3.8", 11, "shift-dominance-and-conjugation:rsd(chain2,chain2)#1.0",
     "shift-dominance-and-conjugation:rsd(P(z2,chain2),chain2)"),
    ("prop-3.9", 11, "intermediate-subsemigroup-criterion:trivial",
     "intermediate-subsemigroup-criterion:b2"),
    ("thm-3.10", 11, "round-trip:rsd(chain2,chain2)#1.0", "round-trip:rsd(P(z2,chain2),chain2)"),
    ("prop-4.1", 11, "fiber-compatible-power-closed:rsd(chain2,chain2)#1.0",
     "fiber-compatible-power-closed:rsd(P(z2,chain2),chain2)"),
    ("thm-4.2", 56, "wreath-embedding:trivial#cong0", "embedding-sweep-nonvacuous"),
    ("remark-4.3", 6, "restriction-iso-roundtrip:z2|chain2",
     "restriction-iso-roundtrip:fork|chain2"),
]


def test_verify_all_is_pinned(capsys):
    code, report = cli.run(["verify", "all", "--json"])
    assert code == 0 and len(report.checks) == 358
    suites = {}
    for c in report.checks:
        suite, name = c.name.split(":", 1)
        suites.setdefault(suite, []).append(name)
    assert [(s, len(n), n[0], n[-1]) for s, n in suites.items()] == VERIFY_ALL
    # every check that ran a predicate carries its time; thm-4.2's summary ran none
    checks = json.loads(capsys.readouterr().out)["checks"]
    untimed = [c["name"] for c in checks if "elapsed_s" not in c]
    assert untimed == ["thm-4.2:embedding-sweep-nonvacuous"]
    assert all(c["elapsed_s"] >= 0 for c in checks if "elapsed_s" in c)

    assert cli.run(["verify", "all", "--jobs", "2"]) == (2, None)


def test_json_flag_before_or_after_the_subcommand(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", {"order": 3, "table": MIN3})
    for argv in (["--json", "validate", path], ["validate", path, "--json"],
                 ["--json", "verify", "remark-4.3"], ["verify", "remark-4.3", "--json"]):
        code, report = cli.run(argv)
        assert code == 0
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(report.to_dict()))
        # every run shares one parser: the flag of one run does not carry over
        cli.run(["validate", path])
        assert capsys.readouterr().out.startswith("PASS")


def test_run_builds_the_parser_once(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", {"order": 3, "table": MIN3})
    cli.build_parser.cache_clear()
    for argv in (["validate", path], ["--json", "congruences", path],
                 ["validate", path, "--json"], ["verify", "remark-4.3"], ["validate"]):
        cli.run(argv)
    assert cli.build_parser.cache_info()[:2] == (4, 1)    # (hits, misses): one build


def test_verify_reports_sweep_time(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", {"order": 3, "table": MIN3})
    cli.run(["verify", "all", "--max-order", "2", "--json"])
    sweep_s = json.loads(capsys.readouterr().out)["sweep_s"]
    assert list(sweep_s) == sorted(cli.SUITES)
    assert all(t >= 0 for t in sweep_s.values())
    # the text report and the other commands' JSON are unchanged
    cli.run(["verify", "cor-3.4", "--max-order", "2"])
    assert "sweep_s" not in capsys.readouterr().out
    cli.run(["--json", "validate", path])
    assert "sweep_s" not in json.loads(capsys.readouterr().out)


def _limit_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, hard))


def test_thm42_at_order_8_fits_in_memory():
    # i2's identity congruence has a P_eta of order 4, whose whole pointwise
    # power (order 16,516, a 2.18 GB table) must never be built
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "invsem", "verify", "thm-4.2",
                          "--max-order", "8"], env=env, capture_output=True, text=True,
                         preexec_fn=_limit_address_space, timeout=300)
    assert "MemoryError" not in out.stderr
    assert out.returncode == 0, out.stderr[-2000:]
    assert "\nok (56/56 checks, " in out.stdout


def test_check_time_is_not_compared_and_not_in_text(capsys):
    checks = cli.verify("remark-4.3")
    assert all(c.elapsed is not None for c in checks)
    assert checks[0] == cli.Check(checks[0].name, True)
    cli.run(["verify", "remark-4.3"])
    assert "elapsed" not in capsys.readouterr().out


def test_eta_wreath_over_the_cap_exits_3(tmp_path, catalog):
    # the constant eta makes P_eta all 2^12 maps Z12 -> chain2: under the
    # pointwise-power cap, but its wreath has order 12 * 4096 (an 18 GiB table)
    k = inst(tmp_path, "chain2.json", catalog["chain2"])
    z12 = [[(a + b) % 12 for b in range(12)] for a in range(12)]
    t = write(tmp_path, "z12.json", {"order": 12, "table": z12})
    eta = write(tmp_path, "eta.json", {"map": [0, 0]})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for kind, extra in (("hwr", []), ("hwr-eta", ["--eta", eta])):
        out = subprocess.run([sys.executable, "-m", "invsem", "product", kind, "--json",
                              "--k", k, "--t", t, *extra], env=env, capture_output=True,
                             text=True, preexec_fn=_limit_address_space, timeout=300)
        assert out.returncode == 3, out.stderr[-2000:]
        check, = json.loads(out.stdout)["checks"]
        assert check["name"] == "within-bounds"
        assert check["witness"] == {"what": "wreath order", "size": 49152, "bound": 4096}


def test_wreath_under_the_old_cap_exits_3(tmp_path, catalog):
    # chain2 by Z10 has wreath order 10 * 2^10 = 10,240: its pair product
    # would need several 800 MiB arrays, so it is refused before any table
    k = inst(tmp_path, "chain2.json", catalog["chain2"])
    z10 = [[(a + b) % 10 for b in range(10)] for a in range(10)]
    t = write(tmp_path, "z10.json", {"order": 10, "table": z10})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "invsem", "product", "hwr", "--json",
                          "--k", k, "--t", t], env=env, capture_output=True,
                         text=True, preexec_fn=_limit_address_space, timeout=300)
    assert out.returncode == 3, out.stderr[-2000:]
    check, = json.loads(out.stdout)["checks"]
    assert check["witness"] == {"what": "wreath order", "size": 10240, "bound": 4096}
