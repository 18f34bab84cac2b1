"""The direct workloads: ``predict()`` called in-process.

predict-static times the static-schedule programs, where the compiled
sweep/match and the sampler tables carry the wall time.  predict-divergent
times programs whose wildcard receives race, which run on the generator
interpreter with sub-batch splits and bypass every static-schedule
optimisation.  Both call ``predict()`` as the service does
(``vector_runs=True``, ``compiled=True``, distribution timing) with
``workers=1``, no prediction cache and a fresh seed per call.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

import gen
from catalog import ALL_PROGRAMS, DIVERGENT, SERVICE_STAGES, STATIC
from kernel import HostRef
from record import Checks, finite_positive, geomean, peak_rss_mb, tail

from repro.apps import (
    amg_model, distribute_input, fft_model, fft_smpi, halo_model, jacobi_smpi,
    make_tasks, parse_jacobi, taskfarm_model, taskfarm_smpi,
)
from repro.mpibench import BenchSettings, MPIBench
from repro.obs import merge_phases
from repro.pevpm import (
    RunGroup, as_seed_sequence, clear_compile_cache, compiled_program_for,
    evaluate_groups, predict, timing_from_db,
)
from repro.service.records import PredictRequest, prediction_record
from repro.simnet import perseus
from repro.smpi import run_program
from repro.trace_import import parse_trace

#: the ``repro serve`` start-up campaign, so the direct workloads predict
#: against the database the service serves from
CAMPAIGN_SEED = 1
CAMPAIGN_REPS = 50
CAMPAIGN_CONFIGS = [(1, 2), (2, 1), (8, 1), (16, 1), (32, 1)]
CAMPAIGN_SIZES = [0, 512, 1024, 2048]

SETUP_REPS = 3
RUNS = 16  #: Monte Carlo runs per timed call
ACC_RUNS = 128  #: Monte Carlo runs behind each accuracy reference
ACC_SEED = 3
SMPI_SEEDS = (11, 12, 13, 14)
JACOBI_ITERS = 30


def _fft_program(n_points: int, nprocs: int):
    x = np.random.default_rng(7).normal(size=n_points) + 0j
    chunks = distribute_input(x, nprocs)

    def program(comm):
        _out, elapsed = yield from fft_smpi(comm, chunks[comm.rank], n_points)
        return elapsed

    return program


#: fixed accuracy references: (model, nprocs, model_params as a /predict
#: request names them, smpi program, smpi args).  Fixed rather than
#: seeded, so model_err_pct tracks the code, not the luck of one seed's
#: measured run; its Monte Carlo means use ACC_RUNS.
ACCURACY = {
    STATIC: [
        ("jacobi", 16, {"iterations": 20}, jacobi_smpi, (20,)),
        ("fft", 16, {"n_points": 4096}, _fft_program(4096, 16), ()),
    ],
    DIVERGENT: [
        ("taskfarm", 8, {"n_tasks": 48, "task_seed": 5}, taskfarm_smpi, (make_tasks(48, seed=5),)),
    ],
}


def accuracy_request(name: str, nprocs: int, params: dict) -> dict:
    """The /predict body of one accuracy reference."""
    return {"model": name, "nprocs": nprocs, "model_params": params,
            "runs": ACC_RUNS, "seed": ACC_SEED}


def _programs(kind: str, spec, imported) -> list[tuple]:
    """(name, model, nprocs, params) in catalogue order."""
    if kind == STATIC:
        jp = {"iterations": JACOBI_ITERS, "xsize": 256, "serial_time": spec.jacobi_serial_time}
        progs = [
            ("jacobi", parse_jacobi(), 16, jp),
            ("halo", halo_model(iterations=10, nx=64, dims=2, px=4), 16, None),
            ("halo3d", halo_model(iterations=6, nx=16, dims=3, px=2, reduce_every=2), 8, None),
            ("amg", amg_model(iterations=3, nx=32, dims=2, px=4), 16, None),
            ("fft", fft_model(4096), 32, None),
        ]
    else:
        # a fixed task set, like the reference trace (see gen.divergent_traces)
        progs = [("taskfarm", taskfarm_model(make_tasks(32, seed=0)), 16, None)]
    progs.append(("imported", imported.model(), imported.nprocs, None))
    return progs


class Setup:
    """One complete set-up, timed piece by piece (raw seconds).  The
    calibration kernel is probed between the pieces, so the set-up's
    normalisation factor samples the host across the whole set-up."""

    def __init__(self, kind: str, seed: int, spans, checks: Checks, host: HostRef):
        self.t: dict = {"parse": [], "first": {}}
        spec = self.spec = perseus()
        with spans.span("mpibench.sweep_isend"):
            t0 = time.perf_counter()
            bench = MPIBench(spec, seed=CAMPAIGN_SEED, settings=BenchSettings(reps=CAMPAIGN_REPS))
            self.db = bench.sweep_isend(CAMPAIGN_CONFIGS, CAMPAIGN_SIZES)
            self.t["sweep"] = time.perf_counter() - t0
        host.probe()
        self.samples = sum(
            int(h.counts.sum())
            for op in self.db.ops()
            for cfg in self.db.configs(op)
            for h in self.db.result(op, *cfg).histograms.values()
        )
        with spans.span("pevpm.timing_from_db"):
            t0 = time.perf_counter()
            self.timing = timing_from_db(self.db, mode="distribution")
            self.t["timing"] = time.perf_counter() - t0
        self.measured = {}
        self.t["smpi"] = 0.0
        for name, nprocs, _params, program, args in ACCURACY[kind]:
            walls = []
            for s in SMPI_SEEDS:
                with spans.span("smpi.run_program", rid=name):
                    t0 = time.perf_counter()
                    walls.append(run_program(spec, program, nprocs=nprocs, seed=s, args=args).elapsed)
                    self.t["smpi"] += time.perf_counter() - t0
                host.probe()
            checks.check(finite_positive(walls), "smpi reference finite and positive")
            self.measured[name] = statistics.fmean(walls)
        traces = gen.static_traces(seed) if kind == STATIC else gen.divergent_traces(seed)
        #: (trace name, text) for each set-up trace in both formats
        self.texts = [(name, fmt(name, ranks)) for name, ranks in traces
                      for fmt in (gen.to_jsonl, gen.to_otf2)]
        self.events = 0
        imported = {}
        for name, text in self.texts:
            with spans.span("trace_import.parse_trace", rid=name):
                t0 = time.perf_counter()
                prog = parse_trace(text, name)
                self.t["parse"].append(time.perf_counter() - t0)
            self.events += prog.events
            first = imported.setdefault(name, prog)
            if first is not prog:
                checks.check(first.fingerprint == prog.fingerprint,
                             "trace formats import to one fingerprint")
        self.programs = _programs(kind, spec, imported[traces[0][0]])
        clear_compile_cache()
        self.compiled = {}
        t0 = time.perf_counter()
        for name, model, nprocs, params in self.programs:
            with spans.span("pevpm.compiled_program_for", rid=name):
                self.compiled[name] = compiled_program_for(model, nprocs, params)
        self.t["compile"] = time.perf_counter() - t0
        for name, model, nprocs, params in self.programs:
            host.probe()
            with spans.span("pevpm.predict", rid=f"warmup-{name}"):
                t0 = time.perf_counter()
                pred = predict(model, nprocs, self.timing, runs=RUNS, seed=0, params=params,
                               vector_runs=True, compiled=True, workers=1)
                self.t["first"][name] = time.perf_counter() - t0
            checks.check(finite_positive(pred.times), "predicted times finite and positive")


def model_error(kind: str, setup: Setup, spans) -> float:
    errs = []
    for name, nprocs, params, _program, _args in ACCURACY[kind]:
        with spans.span("pevpm.predict", rid=f"accuracy-{name}"):
            pred = request_predict(accuracy_request(name, nprocs, params), setup.spec, setup.timing)
        errs.append(abs(pred.mean_time - setup.measured[name]) / setup.measured[name])
    return 100.0 * statistics.fmean(errs)


def request_predict(body: dict, spec, timing):
    """A direct ``predict()`` call for a /predict request body, with the
    model built as the service builds it."""
    req = PredictRequest.from_dict(body)
    model, params = req.build_model(spec)
    return predict(model, req.nprocs, timing, runs=req.runs, seed=req.seed, params=params,
                   nic_serialisation=req.nic_serialisation, ppn=req.ppn,
                   vector_runs=req.vector_runs, compiled=req.compiled, workers=1)


def run(kind: str, seed: int, seconds: float, traced: bool, spans) -> dict:
    checks = Checks()
    host = HostRef()
    setups = []
    for _ in range(SETUP_REPS):
        i0 = host.probe(3)
        with spans.span("setup"):
            t0 = time.perf_counter()
            setup = Setup(kind, seed, spans, checks, host)
            wall = time.perf_counter() - t0
        i1 = host.probe(3)
        setups.append((wall, host.factor_between(i0, i1), setup))
    checks.check(
        len({s.db.fingerprint() for _, _, s in setups}) == 1,
        "campaign DB fingerprint repeats",
    )
    checks.check(
        len({json.dumps(s.measured, sort_keys=True) for _, _, s in setups}) == 1,
        "smpi references repeat",
    )
    setup = setups[-1][2]
    err = model_error(kind, setup, spans)
    checks.check(math.isfinite(err) and err > 0, "model error finite")

    rng = gen.rng_for(seed, f"{kind}-order")
    call_seed = gen.rng_for(seed, f"{kind}-seeds").randrange(1 << 40)
    calls = []  # (program, kernel index, wall, simulated proc-seconds, messages, traced)
    parses = []  # (set-up text index, kernel index, wall)
    profiled = []  # (program, kernel index, predict wall, engine wall, phases, messages)
    serialize = []  # (kernel index, wall)
    rounds = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or rounds < 2:
        # traced runs alternate traced and untraced rounds: the
        # difference between them is the tracing overhead
        spans.enabled = traced and rounds % 2 == 0
        for j, (name, text) in enumerate(setup.texts):
            ki = host.probe()
            with spans.span("trace_import.parse_trace", rid=f"{rounds}-{name}"):
                t0 = time.perf_counter()
                parse_trace(text, name)
                parses.append((j, ki, time.perf_counter() - t0))
        order = list(setup.programs)
        rng.shuffle(order)
        for i, (name, model, nprocs, params) in enumerate(order):
            # one kernel probe next to every call: the host's speed
            # changes within tens of milliseconds
            ki = host.probe()
            call_seed += 1
            with spans.span("pevpm.predict", rid=f"{rounds}-{name}"):
                t0 = time.perf_counter()
                pred = predict(model, nprocs, setup.timing, runs=RUNS, seed=call_seed,
                               params=params, vector_runs=True, compiled=True, workers=1)
                wall = time.perf_counter() - t0
            checks.check(finite_positive(pred.times), "predicted times finite and positive")
            msgs = sum(r.messages for r in pred.results)
            calls.append((name, ki, wall, sum(pred.times) * nprocs, msgs, spans.enabled))
            if not (spans.enabled or (rounds % 4 == 0 and i == (rounds // 4) % len(order))):
                continue
            group = RunGroup(model=model, nprocs=nprocs, timing=setup.timing,
                             seed=as_seed_sequence(call_seed), runs=RUNS, params=params,
                             vector_runs=True, compiled=True, profile=True)
            with spans.span("pevpm.evaluate_groups", rid=f"{rounds}-{name}"):
                t0 = time.perf_counter()
                outcomes = evaluate_groups([group], workers=1)[0]
                ewall = time.perf_counter() - t0
            checks.check(
                [o.elapsed for o in outcomes] == list(pred.times),
                "profiled evaluation bit-identical to predict()",
            )
            if spans.enabled:
                profiled.append((name, ki, wall, ewall, merge_phases(outcomes), msgs))
                with spans.span("service.prediction_record", rid=f"{rounds}-{name}"):
                    t0 = time.perf_counter()
                    json.dumps(prediction_record(pred, seed=call_seed, vector_runs=True,
                                                 compiled=True))
                    serialize.append((ki, time.perf_counter() - t0))
        rounds += 1
    spans.enabled = traced

    def e2e(norm: bool) -> tuple[dict, dict]:
        scale = host.factor if norm else (lambda ki: 1.0)
        walls = _group((name, wall * scale(ki)) for name, ki, wall, *_ in calls)
        t_val, t_pct, t_n = tail([w for v in walls.values() for w in v])
        return {
            "setup_s": statistics.median(w * (f if norm else 1.0) for w, f, _ in setups),
            "sim_per_wall": sim_rate(calls, scale),
            "model_err_pct": err,
            "serve_rps": len(calls) / sum(sum(v) for v in walls.values()),
            "serve_p50_ms": geomean([statistics.median(v) for v in walls.values()]) * 1e3,
            "serve_tail_ms": t_val * 1e3,
            "upload_p50_ms": geomean([
                statistics.median(v) for v in
                _group((j, wall * scale(ki)) for j, ki, wall in parses).values()]) * 1e3,
            "ok_ratio": checks.ok_ratio,
            "peak_rss_mb": peak_rss_mb(),
        }, {"tail_pct": t_pct, "tail_samples": t_n}

    metrics, tail_info = e2e(True)
    raw, _ = e2e(False)
    out = {"metrics": metrics, "raw": raw, "checks": checks, "host": host,
           "extra": {"tail": tail_info, "calls": len(calls), "rounds": rounds,
                     "db_fingerprint": setup.db.fingerprint()}}
    if traced:
        out["per_layer"] = _per_layer(host, setups, setup, calls, profiled, serialize)
    return out


def _group(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return out


def sim_rate(calls, scale) -> float:
    """sim_per_wall: geometric mean over programs of each program's median
    call rate (simulated processor-seconds per host second)."""
    rates = _group((name, sim / (wall * scale(ki))) for name, ki, wall, sim, *_ in calls)
    return geomean([statistics.median(v) for v in rates.values()])


def _per_layer(host, setups, setup, calls, profiled, serialize) -> dict:
    f = host.factor

    def setup_median(key):
        return statistics.median(s.t[key] * sf for _, sf, s in setups)

    sweep = setup_median("sweep")
    parse = statistics.median(sum(s.t["parse"]) * sf for _, sf, s in setups)
    warm = {k: statistics.median(v) for k, v in
            _group((name, wall * f(ki)) for name, ki, wall, *_ in calls).items()}
    sf_last = setups[-1][1]
    tables = sum(max(0.0, setup.t["first"][n] * sf_last - warm[n]) for n in warm)
    m = {
        "mpibench.sweep_s": sweep,
        "mpibench.samples_per_s": setup.samples / sweep,
        "smpi.run_s": setup_median("smpi"),
        "timing.build_s": setup_median("timing"),
        "timing.tables_s": tables,
        "compile.cold_s": setup_median("compile"),
        "compile.ops": sum(c.n_ops for c in setup.compiled.values()),
        "compile.messages": sum(c.messages for c in setup.compiled.values()),
        "compile.divergent": sum(1 for c in setup.compiled.values() if c.divergent),
    }
    for p in ("sample", "sweep", "match"):
        per_prog = _group((name, ph.get(p, 0.0) * f(ki)) for name, ki, _w, _e, ph, _m in profiled)
        m[f"engine.{p}_s"] = sum(statistics.median(v) for v in per_prog.values())
    for p in ALL_PROGRAMS:
        m[f"engine.{p}.ms_per_run"] = warm[p] / RUNS * 1e3 if p in warm else 0.0
    engine_s = sum(ew * f(ki) for _, ki, _w, ew, _p, _m in profiled)
    m["engine.msgs_per_s"] = sum(row[5] for row in profiled) / engine_s
    m["predict.overhead_ms"] = statistics.median(
        (w - ew) * f(ki) for _, ki, w, ew, _p, _m in profiled) * 1e3
    m["serialize_ms"] = statistics.median(s * f(ki) for ki, s in serialize) * 1e3
    m["trace_import.parse_s"] = parse
    m["trace_import.events_per_s"] = setup.events / parse
    for s in SERVICE_STAGES:
        m[f"service.{s}_ms"] = 0.0
    m.update({"service.cache_hit_ratio": 0.0, "service.batch_occupancy": 0.0,
              "service.singleflight_joins": 0, "service.rejected": 0})
    m["host.ref_ms"] = host.ref_ms()
    traced_rate = sim_rate([c for c in calls if c[5]], f)
    plain_rate = sim_rate([c for c in calls if not c[5]], f)
    m["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    return m
