"""Run records, output checks, small statistics, and the report mode.

Every run appends one JSON line to ``repobench/out/runs.jsonl`` holding
the host fingerprint, the code identity, the seed, and each metric both
raw and host-normalised, so the drift normalisation removed stays
visible.  ``python3 repobench/run.py --report A.jsonl [B.jsonl]`` prints
median and quartiles per workload and metric, and compares two sets of
runs against the bounds declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import ROOT, load_benchmark

OUT = Path(__file__).resolve().parent / "out"
RUNS = OUT / "runs.jsonl"


class Checks:
    """Counts operations and output checks; a failed one is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] = self.failures.get(what, 0) + 1

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


def finite_positive(times) -> bool:
    return len(times) > 0 and all(math.isfinite(t) and t > 0 for t in times)


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, samples): p95, or the highest of p90/p75/p50
    that still has at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for pct in (95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            break
    k = min(n - 1, max(0, math.ceil(n * pct / 100) - 1))
    return xs[k], pct, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git(*args) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def code_identity() -> dict:
    """Commit and dirty flag when the checkout is a git repository, plus
    a hash of the program's and the benchmark's sources that works
    without one."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*(ROOT / "src").rglob("*.py"), *here.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "code_sha256": h.hexdigest(),
    }


def host_fingerprint() -> dict:
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def previous(workload: str, seed: int, code_sha256: str) -> dict | None:
    """The last earlier record of the same workload and seed on identical
    code, if any."""
    if not RUNS.exists():
        return None
    out = None
    for line in RUNS.read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (
            rec.get("workload") == workload
            and rec.get("seed") == seed
            and rec.get("code", {}).get("code_sha256") == code_sha256
        ):
            out = rec
    return out


def append(rec: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(RUNS, "a") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def make_record(args, code: dict, result: dict, raw: dict, extra: dict) -> dict:
    return {
        "time": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "code": code,
        "argv": sys.argv[1:],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": raw,
        **extra,
    }


# -- report --------------------------------------------------------------------

def _load(path) -> list[dict]:
    recs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            recs.append(json.loads(line))
    return recs


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _table(recs: list[dict]) -> dict[tuple[str, str, int], list[float]]:
    out: dict[tuple[str, str, int], list[float]] = {}
    for rec in recs:
        for name, value in rec["metrics"].items():
            out.setdefault((rec["workload"], name, rec["trace"]), []).append(value)
    return out


def report(paths: list[str]) -> int:
    """Median and quartiles per (workload, metric); with two files, the
    second set's median against the first's, judged by the bounds."""
    bench = load_benchmark()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    sets = [_table(_load(p)) for p in paths]
    bad = 0
    print(f"{'workload':<18}{'metric':<30}{'n':>3}{'median':>13}{'q1':>12}"
          f"{'q3':>12}{'iqr/med':>9}" + ("  B/A-1   verdict" if len(sets) > 1 else ""))
    for key in sorted(sets[0]):
        workload, name, _trace = key
        xs = sets[0][key]
        q1, med, q3 = _quartiles(xs)
        spread = (q3 - q1) / abs(med) if med else 0.0
        line = (f"{workload:<18}{name:<30}{len(xs):>3}{med:>13.6g}{q1:>12.6g}"
                f"{q3:>12.6g}{spread:>9.3f}")
        meta = e2e.get(name)
        if meta is not None and name != "setup_s" and spread > meta["bound"]:
            line += "  SPREAD>BOUND"
            bad += 1
        if len(sets) > 1 and key in sets[1]:
            med_b = _quartiles(sets[1][key])[1]
            change = med_b / med - 1 if med else 0.0
            verdict = ""
            if meta is not None:
                worse = -change if meta["better"] == "higher" else change
                verdict = "WORSE" if worse > meta["bound"] else "ok"
                bad += verdict == "WORSE"
            line += f"  {change:+7.3f}  {verdict}"
        print(line)
    return 1 if bad else 0
