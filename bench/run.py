"""Benchmark of invsem on one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: action-sweep, wreath-ladder, extension-embed (see README.md).
Run from the repository root; the program is imported from ./src.

One process, one thread.  After set-up the run repeats whole passes over
the workload's fixed inputs until the passes add up to --seconds, checks
every pass's outputs, and prints as its last line one JSON object with
"correct", "attempted", "failed" and "metrics".  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones.  --seed only picks the sampled checks.  A copy of the result, and
with --trace 1 the spans, are written under bench/out/.
"""

import time

_START = time.perf_counter()    # set-up is timed from here, imports included

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from functools import cached_property
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("action-sweep", "wreath-ladder", "extension-embed")


def reset_caches():
    """Drop what an earlier pass left behind, so that every pass does the
    same work: the fixtures sweeps, billhardt's transversal closure cache
    and the cached tables on every live InverseSemigroup."""
    from invsem import billhardt, core, fixtures
    for fn in (fixtures.action_sweep, fixtures.afr_sweep, fixtures.lsd_fixtures,
               fixtures.rsd_fixtures, billhardt._sbar):
        fn.cache_clear()
    cached = [k for k, v in vars(core.InverseSemigroup).items()
              if isinstance(v, cached_property)]
    gc.collect()
    for obj in gc.get_objects():
        if type(obj) is core.InverseSemigroup:
            for k in cached:
                obj.__dict__.pop(k, None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "invsem" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"run from a checkout of invsem: need {SRC}/invsem and {spec_path}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import invsem
    if Path(invsem.__file__).resolve().parent != SRC / "invsem":
        sys.stderr.write(f"imported invsem from {invsem.__file__}, not from {SRC}\n")
        return 2
    spec = json.loads(spec_path.read_text())

    import workloads
    wl = workloads.WORKLOADS[args.workload](str(OUT / args.workload))
    wl.setup()
    setup_s = time.perf_counter() - _START

    problems = wl.prepare_checks(args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    passes, attempted, failed, errors = [], 0, 0, []
    while not passes or sum(passes) < args.seconds:
        reset_caches()
        t0 = time.perf_counter()
        if tracer:
            with tracer.active():
                res = wl.run_pass()
        else:
            res = wl.run_pass()
        passes.append(time.perf_counter() - t0)
        attempted += res.attempted
        failed += res.failed
        errors += res.errors
        problems += wl.check_pass(res)
        del res

    if tracer:
        measured = tracer.metrics(passes)
        measured["traced.pass_s"] = statistics.median(passes)
        wanted = spec["per_layer"]
    else:
        measured = {
            "pass_s": statistics.median(passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.stderr.write(f"metrics not measured: {missing}\n")
        return 2
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }

    for line in errors[:20]:
        print(f"failed: {line}")
    for line in problems[:20]:
        print(f"check failed: {line}")
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations, {failed} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    print("  passes: " + " ".join(f"{p:.3f}" for p in passes) + " s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result) + "\n")
    if tracer:
        tracer.write(OUT / f"spans-{stem}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
