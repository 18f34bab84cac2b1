"""Repository benchmark: one seeded workload per run, metrics as JSON.

    python3 repobench/run.py --workload predict-static --seed 1 --seconds 12 --trace 0
    python3 repobench/run.py --report repobench/out/runs.jsonl [other.jsonl]

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` records spans around every call into a layer and prints
every per-layer metric instead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Host-time
metrics are host-normalised (see ``kernel.py``); every run also appends a
record with the raw values to ``repobench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from catalog import WORKLOADS, load_benchmark  # noqa: E402
from record import OUT, append, code_identity, make_record, previous, report  # noqa: E402
from spans import Spans  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", nargs="+", metavar="RUNS_JSONL",
                    help="summarise (one file) or compare (two files) run records")
    args = ap.parse_args(argv)
    if args.report:
        return report(args.report)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    try:
        import direct
        import serve
    except ImportError as exc:
        print(f"repobench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    code = code_identity()
    spans = Spans(bool(args.trace))
    t0 = time.perf_counter()
    if args.workload == "serve-mixed":
        out = serve.run(args.seed, args.seconds, bool(args.trace), spans)
    else:
        out = direct.run(args.workload, args.seed, args.seconds, bool(args.trace), spans)
    checks = out["checks"]

    # deterministic outputs must repeat for one seed on identical code
    rec = previous(args.workload, args.seed, code["code_sha256"])
    if rec is not None:
        checks.check(rec["metrics_all"]["model_err_pct"] == out["metrics"]["model_err_pct"],
                     "model_err_pct repeats for the seed")
        checks.check(rec["db_fingerprint"] == out["extra"]["db_fingerprint"],
                     "campaign DB fingerprint repeats for the seed")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = out["per_layer"] if args.trace else out["metrics"]
    emitted = set(values)
    names = {m["name"] for m in declared}
    if emitted != names:
        print(f"repobench: emitted metrics differ from BENCHMARK.json: "
              f"missing {sorted(names - emitted)}, undeclared {sorted(emitted - names)}",
              file=sys.stderr)
        return 3
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    extra = dict(out["extra"], elapsed_s=time.perf_counter() - t0,
                 failures=checks.failures, host_ref_ms=out["host"].ref_ms(),
                 host_samples_ms=[s * 1e3 for s in out["host"].samples],
                 metrics_all=out["metrics"])
    append(make_record(args, code, result, out["raw"], extra))
    if args.trace:
        spans.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        print(spans.render())
    if checks.failures:
        print(f"failed checks: {json.dumps(checks.failures)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
