"""What each metric means and what it should move.

Units, directions and bounds live in ``BENCHMARK.json``; this module adds
what that file cannot hold: the workload each per-layer metric is about
and the end-to-end metric a change to that layer should move.  The
self-test checks the two against each other and against what the runner
emits.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

STATIC, DIVERGENT, SERVE = "predict-static", "predict-divergent", "serve-mixed"
WORKLOADS = (STATIC, DIVERGENT, SERVE)
DIRECT = (STATIC, DIVERGENT)

#: programs each direct workload times, in the order they are built
PROGRAMS = {
    STATIC: ("jacobi", "halo", "halo3d", "amg", "fft", "imported"),
    DIVERGENT: ("taskfarm", "imported"),
}
ALL_PROGRAMS = ("jacobi", "halo", "halo3d", "amg", "fft", "taskfarm", "imported")

SERVICE_STAGES = ("request", "admission", "cache", "batch", "engine", "singleflight.wait")

#: per-layer metric -> [(end-to-end metric it should move, workloads)].
#: An empty list marks a diagnostic that should move nothing.  Every
#: traced run emits every per-layer metric; on a workload that does not
#: call a layer its value is 0 (no calls, no time).
MOVES: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "mpibench.sweep_s": [("setup_s", WORKLOADS)],
    "mpibench.samples_per_s": [("setup_s", WORKLOADS)],
    "smpi.run_s": [("setup_s", DIRECT)],
    "timing.build_s": [("setup_s", DIRECT)],
    "timing.tables_s": [("setup_s", DIRECT)],
    "compile.cold_s": [("setup_s", (STATIC,))],
    "compile.ops": [("sim_per_wall", (STATIC,))],
    "compile.messages": [("sim_per_wall", (STATIC,))],
    "compile.divergent": [("sim_per_wall", (DIVERGENT,))],
    "engine.sample_s": [("sim_per_wall", (STATIC,))],
    "engine.sweep_s": [("sim_per_wall", DIRECT)],
    "engine.match_s": [("sim_per_wall", (DIVERGENT,))],
    **{
        f"engine.{p}.ms_per_run": [(
            "sim_per_wall",
            tuple(w for w in DIRECT if p in PROGRAMS[w]),
        )]
        for p in ALL_PROGRAMS
    },
    "engine.msgs_per_s": [("sim_per_wall", (STATIC,))],
    "predict.overhead_ms": [("sim_per_wall", (STATIC,))],
    "serialize_ms": [("serve_p50_ms", (SERVE,))],
    "trace_import.parse_s": [("upload_p50_ms", (SERVE,)), ("setup_s", (DIVERGENT,))],
    "trace_import.events_per_s": [("upload_p50_ms", (SERVE,)), ("setup_s", (DIVERGENT,))],
    **{
        f"service.{s}_ms": [("serve_p50_ms", (SERVE,)), ("serve_tail_ms", (SERVE,))]
        for s in SERVICE_STAGES
    },
    "service.cache_hit_ratio": [("serve_rps", (SERVE,))],
    "service.batch_occupancy": [("serve_rps", (SERVE,))],
    "service.singleflight_joins": [("serve_rps", (SERVE,))],
    "service.rejected": [("ok_ratio", (SERVE,))],
    "host.ref_ms": [],
    "trace.overhead_pct": [],
}

#: how each end-to-end metric is measured on the direct workloads and on
#: serve-mixed (every workload reports every end-to-end metric)
E2E = {
    "setup_s": "direct: DB campaign + timing_from_db + smpi references + trace "
               "import + cold compile + warm-up; serve: spawn to first healthy "
               "/healthz.  Median of several set-ups in the run",
    "sim_per_wall": "simulated processor-seconds per host second (paper s6): "
                    "geometric mean over programs of each one's median call; "
                    "serve: over engine-served responses' own engine wall time",
    "model_err_pct": "mean |predicted - smpi| / smpi over the fixed accuracy "
                     "references (jacobi+fft; taskfarm on predict-divergent)",
    "serve_rps": "direct: predict() calls per second; serve: completed HTTP "
                 "operations per second of load",
    "serve_p50_ms": "direct: geometric mean over programs of each one's "
                    "median predict() call; serve: median /predict latency",
    "serve_tail_ms": "p95 over all predict() calls or /predict requests (a "
                     "lower percentile when fewer than ten samples lie beyond)",
    "upload_p50_ms": "direct: geometric mean over the set-up traces, in both "
                     "formats, of each one's median parse_trace, re-timed every "
                     "round; serve: median valid POST /programs",
    "ok_ratio": "share of operations and output checks that passed",
    "peak_rss_mb": "peak resident set of the benchmark process (direct) or "
                   "the server child (serve)",
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
