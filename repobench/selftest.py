"""Self-tests of the benchmark itself.

    python3 -m pytest -q repobench/selftest.py

Checks that the catalogue, ``BENCHMARK.json`` and what the runner emits
agree; that the seeded generators are deterministic per seed and differ
across seeds; that the malformed uploads really are malformed; and that
host normalisation holds the metrics steady while a CPU-hogging
neighbour, started by the test, slows the raw ones down.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import catalog  # noqa: E402
import gen  # noqa: E402
from catalog import MOVES, NAME_RE, WORKLOADS, load_benchmark  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    doc = load_benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME_RE.match(m["name"]), m["name"]
        assert UNIT_RE.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_catalogue_matches_benchmark_json():
    doc = load_benchmark()
    e2e = {m["name"] for m in doc["end_to_end"]}
    assert e2e == set(catalog.E2E)
    assert [m["name"] for m in doc["per_layer"]] == list(MOVES)
    for name, moves in MOVES.items():
        if name in ("host.ref_ms", "trace.overhead_pct"):
            assert moves == [], "diagnostics move nothing"
            continue
        assert moves, f"{name} names no end-to-end metric it should move"
        for metric, workloads in moves:
            assert metric in e2e
            assert workloads and set(workloads) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload,trace", [
    ("predict-static", 0), ("predict-static", 1),
    ("predict-divergent", 1), ("serve-mixed", 1),
])
def test_runner_emits_exactly_the_catalogue(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    doc = load_benchmark()
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_generators_are_seeded():
    assert gen.serve_slice(7, 0) == gen.serve_slice(7, 0)
    assert gen.serve_slice(7, 0) != gen.serve_slice(8, 0)
    assert gen.serve_slice(7, 0) != gen.serve_slice(7, 1)
    assert gen.static_traces(7) == gen.static_traces(7)
    assert gen.static_traces(7) != gen.static_traces(8)
    a, b = gen.divergent_traces(7), gen.divergent_traces(8)
    assert a == gen.divergent_traces(7)
    assert a[0] == b[0], "the timed reference trace is the same for every seed"
    assert a[1:] != b[1:]


def test_every_slice_serves_the_same_mix():
    def mix(ops):
        return Counter((op["cls"], op["body"]["model"]) if "body" in op else op["cls"]
                       for op in ops)

    first = mix(gen.serve_slice(1, 0))
    for seed, index in ((1, 5), (2, 0), (99, 17)):
        assert mix(gen.serve_slice(seed, index)) == first


def test_generated_traces_import():
    from repro.pevpm import compiled_program_for
    from repro.trace_import import TraceError, parse_trace

    for traces, divergent in ((gen.static_traces(4), False), (gen.divergent_traces(4), True)):
        for name, ranks in traces:
            a = parse_trace(gen.to_jsonl(name, ranks))
            b = parse_trace(gen.to_otf2(name, ranks))
            assert a.fingerprint == b.fingerprint
            assert compiled_program_for(a.model(), a.nprocs).divergent is divergent
    rng = gen.rng_for(4, "bad")
    for kind in range(4):
        with pytest.raises(TraceError):
            parse_trace(gen.malformed_trace(rng, kind))


def _spin() -> None:
    x = 0
    while True:
        x += 1


def test_normalisation_holds_under_a_cpu_hog():
    """Raw sim_per_wall falls by more than its bound while a neighbour
    process hogs every usable CPU; the host-normalised value stays
    within the bound of its quiet value."""
    import direct
    from kernel import HostRef
    from repro.apps import halo_model, parse_jacobi
    from repro.mpibench import BenchSettings, MPIBench
    from repro.pevpm import predict, timing_from_db
    from repro.simnet import perseus

    spec = perseus()
    db = MPIBench(spec, seed=1, settings=BenchSettings(reps=20)).sweep_isend(
        [(1, 2), (2, 1), (8, 1)], [0, 512, 1024, 2048])
    timing = timing_from_db(db)
    jp = {"iterations": 20, "xsize": 256, "serial_time": spec.jacobi_serial_time}
    progs = [("jacobi", parse_jacobi(), 8, jp),
             ("halo", halo_model(iterations=10, nx=64, dims=2, px=2), 8, None)]

    def measure(host, calls, seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            for name, model, nprocs, params in progs:
                ki = host.probe()
                t0 = time.perf_counter()
                pred = predict(model, nprocs, timing, runs=16, seed=len(calls), params=params,
                               vector_runs=True, workers=1)
                calls.append((name, ki, time.perf_counter() - t0, sum(pred.times) * nprocs))

    measure(HostRef(), [], 1.0)  # warm-up
    # alternate quiet and busy phases, so slow drift of the host itself
    # lands on both sides
    host, quiet, busy = HostRef(), [], []
    ctx = multiprocessing.get_context("spawn")
    for _ in range(2):
        measure(host, quiet, 2.5)
        hogs = [ctx.Process(target=_spin, daemon=True) for _ in os.sched_getaffinity(0)]
        for h in hogs:
            h.start()
        try:
            time.sleep(0.3)
            measure(host, busy, 2.5)
        finally:
            for h in hogs:
                h.terminate()
            for h in hogs:
                h.join(timeout=10)
        assert not any(h.is_alive() for h in hogs)
    quiet_raw, busy_raw = (direct.sim_rate(c, lambda ki: 1.0) for c in (quiet, busy))
    quiet_norm, busy_norm = (direct.sim_rate(c, host.factor) for c in (quiet, busy))
    bound = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}["sim_per_wall"]
    print(f"raw {quiet_raw:.1f} -> {busy_raw:.1f}, normalised {quiet_norm:.1f} -> {busy_norm:.1f}")
    assert busy_raw < quiet_raw * (1 - bound), "the neighbour did not slow the raw metric"
    assert abs(busy_norm / quiet_norm - 1) < bound
