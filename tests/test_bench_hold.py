"""What the benchmark reaches in the package is still there.

`bench/run.py --trace 1` exits 2 when a per-layer metric of BENCHMARK.json
is not measured, and every bench file imports names from `invsem`.  These
tests read BENCHMARK.json and parse bench/*.py without importing them, so a
deletion in the package that the benchmark still needs fails here.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import invsem

ROOT = Path(__file__).resolve().parents[1]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _tracer_layers():
    """The LAYERS tuple of bench/tracing.py: the modules whose functions it wraps."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")


def _chain(node):
    """The dotted names of an attribute chain rooted at a name, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _bench_chains(tree):
    """Each invsem attribute chain the file uses, as dotted names from invsem.

    The roots are the names the file imports from invsem.  A loop over a
    tuple of such chains, `for fn in (mod.f, mod.g): fn.attr`, uses
    mod.f.attr and mod.g.attr."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update({a.asname or a.name: [a.name] for a in node.names
                          if a.name == "invsem"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "invsem":
            roots.update({a.asname or a.name: node.module.split(".") + [a.name]
                          for a in node.names})
    out = [path for path in roots.values()]
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in roots:
            out.append(roots[chain[0]] + chain[1:])
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            items = [_chain(e) for e in node.iter.elts]
            uses = [n.attr for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id == node.target.id]
            out += [roots[c[0]] + c[1:] + [attr] for c in items if c and c[0] in roots
                     for attr in uses]
    return out


def test_per_layer_metrics_name_traced_functions():
    """Each <layer>.<fn>.<stat> of BENCHMARK.json is a public function of
    invsem.<layer> that the tracer wraps: defined there, not a generator."""
    layers = _tracer_layers()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"].split(".") for m in spec["per_layer"]]
    checked = 0
    for layer, fn, _ in (n for n in names if len(n) == 3 and n[0] in layers):
        module = importlib.import_module(f"invsem.{layer}")
        obj = getattr(module, fn, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, f"{layer}.{fn}"
        assert not fn.startswith("_") and not inspect.isgeneratorfunction(obj), f"{layer}.{fn}"
        checked += 1
    assert checked >= 30


def test_bench_attribute_chains_exist():
    """Every invsem name a bench file reaches, through any attribute chain
    rooted at an import, resolves, billhardt._sbar.cache_clear among them."""
    seen = set()
    for path in BENCH:
        for dotted in _bench_chains(ast.parse(path.read_text())):
            obj = invsem
            for i, part in enumerate(dotted[1:], 1):
                if inspect.ismodule(obj) and not hasattr(obj, part):
                    obj = importlib.import_module(".".join(dotted[:i + 1]))
                else:
                    assert hasattr(obj, part), f"{path.name}: {'.'.join(dotted)}"
                    obj = getattr(obj, part)
            seen.add(".".join(dotted))
    assert {"invsem.billhardt._sbar.cache_clear", "invsem.congruences.decomposition_along",
            "invsem.core.idempotent_semilattice", "invsem.core.FiniteSemigroup",
            "invsem.actions.enumerate_actions_naive"} <= seen
