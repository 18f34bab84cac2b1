"""The serve-mixed workload: ``repro serve`` under a closed loop.

One server child (no shards, default batching and cache) is driven by two
keep-alive connections -- no more than the host's two CPUs -- over a
seeded operation list: mostly cache-missing ``/predict`` calls on small
static and divergent programs, a minority of repeats, a few requests
against the ``gigabit@v1`` alias, and about one write in ten (trace
uploads, then predictions of the uploaded program, and malformed uploads
that must be refused).  Each engine call is small, so the HTTP funnel,
admission, micro-batcher, cache, registry and trace store carry a large
share of the time.

Load runs in slices with an identical mix.  Between slices both
connections are idle, and the benchmark times the calibration kernel and
runs its output checks then, so neither competes with the load.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import direct
import gen
from catalog import ALL_PROGRAMS, ROOT, SERVICE_STAGES
from kernel import HostRef
from record import OUT, Checks, finite_positive, tail

from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import prediction_from_doc, timing_from_db
from repro.service.records import prediction_record
from repro.simnet import perseus
from repro.smpi import run_program
from repro.trace_import import parse_trace

SETUP_REPS = 3
CONNECTIONS = 2
WARMUP_SLICES = 2
PROBES = 5  #: kernel calls per gap between slices
START_TIMEOUT = 120.0
_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Server:
    """One ``repro serve`` child: spawned, health-checked, stopped."""

    def __init__(self, traced: bool, log_name: str):
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--seed", str(direct.CAMPAIGN_SEED), "--reps", str(direct.CAMPAIGN_REPS)]
        if not traced:
            cmd.append("--no-trace")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.address = None
        self._log = open(OUT / log_name, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self._log.write(line)
            m = _LISTEN_RE.search(line)
            if m and self.address is None:
                self.address = (m.group(1), int(m.group(2)))

    def wait_healthy(self) -> float:
        """Seconds from spawn to the first 200 from ``/healthz``."""
        deadline = self.t0 + START_TIMEOUT
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if self.address is not None:
                try:
                    if self.get("/healthz")[0] == 200:
                        return time.perf_counter() - self.t0
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server did not become healthy")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(*self.address, timeout=60)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = self.connect()
        try:
            return request(conn, "GET", path)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self._log.close()


def request(conn, method: str, path: str, doc=None) -> tuple[int, bytes]:
    body = None if doc is None else json.dumps(doc).encode()
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


# -- load ----------------------------------------------------------------------

def _run_slice(conns, ops: list[dict], spans) -> list[dict]:
    """Run one slice to completion over the connections (closed loop)."""
    results: list[dict] = []
    lock = threading.Lock()
    cursor = [0]

    def call(conn, cls, path, doc, rid):
        with spans.span(f"http.{cls}", rid=rid):
            t0 = time.perf_counter()
            status, body = request(conn, "POST", path, doc)
            res = {"cls": cls, "status": status, "ms": (time.perf_counter() - t0) * 1e3,
                   "body": body, "rid": rid}
        with lock:
            results.append(res)
        return res

    def worker(conn):
        while True:
            with lock:
                if cursor[0] >= len(ops):
                    return
                op = ops[cursor[0]]
                cursor[0] += 1
            if op["op"] == "predict":
                res = call(conn, "predict", "/predict", op["body"], op["rid"])
                res["op"] = op
            elif op["op"] == "bad_upload":
                call(conn, "bad_upload", "/programs", {"trace": op["trace"]}, op["rid"])
            else:
                res = call(conn, "upload", "/programs", {"trace": op["trace"]}, op["rid"])
                res["op"] = op
                if res["status"] == 200:
                    body = dict(op["predict"], model_params={
                        "program": json.loads(res["body"])["fingerprint"]})
                    call(conn, "imported", "/predict", body, op["rid"])["op"] = {"body": body}

    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def scrape(server: Server) -> dict:
    """``/metrics`` as {(name, frozenset(labels)): value}."""
    _, body = server.get("/metrics")
    out = {}
    for line in body.decode().splitlines():
        m = _SAMPLE_RE.match(line)
        if m:
            labels = frozenset(_LABEL_RE.findall(m.group(2) or ""))
            out[(m.group(1), labels)] = float(m.group(3))
    return out


def _counter(before: dict, after: dict, name: str) -> float:
    return sum(v - before.get(k, 0.0) for k, v in after.items() if k[0] == name)


def _stage_p50_ms(before: dict, after: dict, stage: str) -> float:
    """Median of one stage's delta histogram, interpolated in its bucket."""
    rows = []
    for key, v in after.items():
        labels = dict(key[1])
        if key[0] == "repro_stage_seconds_bucket" and labels.get("stage") == stage:
            rows.append((float(labels["le"]), v - before.get(key, 0.0)))
    rows.sort()
    if not rows or rows[-1][1] <= 0:
        return 0.0
    half = rows[-1][1] / 2
    lo_bound, lo_count = 0.0, 0.0
    for bound, count in rows:
        if count >= half:
            if math.isinf(bound):
                return lo_bound * 1e3
            frac = (half - lo_count) / max(count - lo_count, 1e-12)
            return (lo_bound + frac * (bound - lo_bound)) * 1e3
        lo_bound, lo_count = bound, count
    return 0.0


def _stage_mean_s(before: dict, after: dict, stage: str, per: float) -> float:
    key = ("repro_stage_seconds_sum", frozenset({("stage", stage)}))
    return (after.get(key, 0.0) - before.get(key, 0.0)) / max(per, 1.0)


# -- the workload ----------------------------------------------------------------

def run(seed: int, seconds: float, traced: bool, spans) -> dict:
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    host = HostRef()
    t = {}
    spec = perseus()
    i0 = host.probe(3)
    with spans.span("mpibench.sweep_isend"):
        t0 = time.perf_counter()
        db = MPIBench(spec, seed=direct.CAMPAIGN_SEED,
                      settings=BenchSettings(reps=direct.CAMPAIGN_REPS)).sweep_isend(
            direct.CAMPAIGN_CONFIGS, direct.CAMPAIGN_SIZES)
        wall = time.perf_counter() - t0
    t["sweep"] = wall * host.factor_between(i0, host.probe(3))
    samples = sum(int(h.counts.sum()) for op in db.ops() for cfg in db.configs(op)
                  for h in db.result(op, *cfg).histograms.values())
    with spans.span("pevpm.timing_from_db"):
        t0 = time.perf_counter()
        timing = timing_from_db(db, mode="distribution")
        t["timing"] = time.perf_counter() - t0

    servers: list[Server] = []
    try:
        setup_walls = []
        for rep in range(SETUP_REPS):
            # probe only while no server is busy: a kernel timed next to
            # the starting server measures the contention it causes
            i0 = host.probe(PROBES)
            keep = rep == SETUP_REPS - 1 or (traced and rep == SETUP_REPS - 2)
            with spans.span("setup.spawn"):
                srv = Server(traced and rep == SETUP_REPS - 1, f"server-{rep}.log")
                servers.append(srv)
                wall = srv.wait_healthy()
            i1 = host.probe(PROBES)
            setup_walls.append((wall, host.factor_between(i0, i1)))
            status, body = srv.get("/healthz")
            checks.check(status == 200 and json.loads(body)["db_fingerprint"] == db.fingerprint(),
                         "server DB fingerprint equals the direct campaign's")
            if not keep:
                srv.stop()
        live = [s for s in servers if s.proc.poll() is None]
        err, t["smpi"] = _accuracy(live[-1], spec, timing, checks, spans)
        result = _load(seed, seconds, traced, spans, live, host, checks, spec, timing)
        rss = live[-1].peak_rss_mb()
    finally:
        for srv in servers:
            srv.stop()

    norm = {"setup_s": statistics.median(w * f for w, f in setup_walls)}
    raw = {"setup_s": statistics.median(w for w, _ in setup_walls)}
    for key, (nval, rval) in result["e2e"].items():
        norm[key], raw[key] = nval, rval
    for d in (norm, raw):
        d.update(model_err_pct=err, ok_ratio=checks.ok_ratio, peak_rss_mb=rss)
    out = {"metrics": norm, "raw": raw, "checks": checks, "host": host,
           "extra": {"tail": result["tail"], "requests": result["requests"],
                     "slices": result["slices"], "db_fingerprint": db.fingerprint()}}
    if traced:
        m = {k: 0.0 for k in ("timing.tables_s", "compile.cold_s", "compile.ops",
                              "compile.messages", "compile.divergent",
                              "engine.msgs_per_s", "predict.overhead_ms")}
        m.update({f"engine.{p}.ms_per_run": 0.0 for p in ALL_PROGRAMS})
        m["mpibench.sweep_s"] = t["sweep"]
        m["mpibench.samples_per_s"] = samples / t["sweep"]
        m["smpi.run_s"] = t["smpi"] * host.global_factor()
        m["timing.build_s"] = t["timing"] * host.global_factor()
        m.update(result["per_layer"])
        m["host.ref_ms"] = host.ref_ms()
        out["per_layer"] = m
    return out


def _accuracy(server: Server, spec, timing, checks: Checks, spans) -> tuple[float, float]:
    """model_err_pct of served predictions against the smpi references
    the direct workload uses; each served answer must equal ``predict()``."""
    conn = server.connect()
    errs = []
    t_smpi = 0.0
    for name, nprocs, params, program, args in direct.ACCURACY[direct.STATIC]:
        t0 = time.perf_counter()
        walls = []
        for s in direct.SMPI_SEEDS:
            with spans.span("smpi.run_program", rid=name):
                walls.append(run_program(spec, program, nprocs=nprocs, seed=s, args=args).elapsed)
        t_smpi += time.perf_counter() - t0
        measured = statistics.fmean(walls)
        body = direct.accuracy_request(name, nprocs, params)
        status, raw = request(conn, "POST", "/predict", body)
        doc = json.loads(raw) if status == 200 else {}
        checks.check(status == 200, "accuracy /predict answered")
        if status != 200:
            continue
        checks.check(doc["times"] == list(direct.request_predict(body, spec, timing).times),
                     "served /predict equals direct predict()")
        errs.append(abs(doc["mean_time"] - measured) / measured)
    conn.close()
    return 100.0 * statistics.fmean(errs), t_smpi


def _load(seed, seconds, traced, spans, servers, host, checks, spec, timing) -> dict:
    conns = {id(s): [s.connect() for _ in range(CONNECTIONS)] for s in servers}
    for i, srv in enumerate(servers):
        # warm the server's model, timing and sampler caches first
        for j in range(WARMUP_SLICES):
            ops = gen.serve_slice(seed, -1 - j - i * WARMUP_SLICES)
            _check_slice(_run_slice(conns[id(srv)], ops, spans), checks, spec, timing, spans)
    scrapes = {id(s): scrape(s) for s in servers}
    per_slice = []  # (server, slice wall, kernel index before, results)
    parse_s, parse_events, serialize = [], 0, []
    load_s = 0.0
    index = 0
    host.probe(PROBES)
    while load_s < seconds or index < 2:
        srv = servers[index % len(servers)]
        ops = gen.serve_slice(seed, index)
        ki = len(host.samples) - 1
        with spans.span("slice", rid=f"s{index}"):
            t0 = time.perf_counter()
            results = _run_slice(conns[id(srv)], ops, spans)
            wall = time.perf_counter() - t0
        host.probe(PROBES)
        load_s += wall
        per_slice.append((srv, wall, ki, results))
        p_s, p_e, ser = _check_slice(results, checks, spec, timing, spans)
        parse_s += p_s
        parse_events += p_e
        serialize += [(ki, s) for s in ser]
        index += 1
    for cs in conns.values():
        for c in cs:
            c.close()

    def fac(ki):  # slice between samples ki and ki+1, plus one either side
        return host.factor_between(ki - 1, ki + 2)

    def e2e(rows, norm: bool):
        scale = fac if norm else (lambda ki: 1.0)
        lat = [r["ms"] * scale(ki) for _, _, ki, res in rows for r in res
               if r["cls"] in ("predict", "imported")]
        ups = [r["ms"] * scale(ki) for _, _, ki, res in rows for r in res
               if r["cls"] == "upload"]
        sim = wall = 0.0
        for _, _, ki, res in rows:
            for r in res:
                if r["cls"] in ("predict", "imported") and r["status"] == 200:
                    doc = json.loads(r["body"])
                    if doc["served_from"] == "engine":
                        sim += sum(doc["times"]) * doc["nprocs"]
                        wall += doc["wall_time"] * scale(ki)
        t_val, t_pct, t_n = tail(lat)
        n_req = sum(len(res) for *_, res in rows)
        return {
            "sim_per_wall": sim / wall,
            "serve_rps": n_req / sum(w * scale(ki) for _, w, ki, _ in rows),
            "serve_p50_ms": statistics.median(lat),
            "serve_tail_ms": t_val,
            "upload_p50_ms": statistics.median(ups),
        }, {"tail_pct": t_pct, "tail_samples": t_n}, n_req

    e2e_rows = per_slice if not traced else [r for r in per_slice if r[0] is servers[0]]
    norm, tail_info, n_req = e2e(e2e_rows, True)
    raw, _, _ = e2e(e2e_rows, False)
    out = {"e2e": {k: (norm[k], raw[k]) for k in norm}, "tail": tail_info,
           "requests": n_req, "slices": index}
    if traced:
        plain, traced_srv = servers
        after = {id(s): scrape(s) for s in servers}
        tb, ta = scrapes[id(traced_srv)], after[id(traced_srv)]
        m = {}
        for stage in SERVICE_STAGES:
            m[f"service.{stage}_ms"] = _stage_p50_ms(tb, ta, stage) * host.global_factor()
        engine_calls = sum(1 for s, _, _, res in per_slice if s is traced_srv for r in res
                           if r["cls"] in ("predict", "imported") and r["status"] == 200
                           and json.loads(r["body"])["served_from"] == "engine")
        for p in ("sample", "sweep", "match"):
            m[f"engine.{p}_s"] = _stage_mean_s(tb, ta, f"engine.{p}", engine_calls) * host.global_factor()

        def total(name):
            return sum(_counter(scrapes[id(s)], after[id(s)], name) for s in servers)

        hits, misses = total("repro_cache_hits_total"), total("repro_cache_misses_total")
        m["service.cache_hit_ratio"] = hits / max(1.0, hits + misses)
        m["service.batch_occupancy"] = total("repro_batched_requests_total") / max(
            1.0, total("repro_batches_total"))
        m["service.singleflight_joins"] = total("repro_singleflight_hits_total")
        m["service.rejected"] = sum(1 for *_, res in per_slice for r in res
                                    if r["status"] in (429, 503, 504))
        m["serialize_ms"] = statistics.median(s * fac(ki) for ki, s in serialize)
        m["trace_import.parse_s"] = sum(parse_s) * host.global_factor()
        m["trace_import.events_per_s"] = parse_events / m["trace_import.parse_s"]
        p_plain = e2e([r for r in per_slice if r[0] is plain], True)[0]["serve_p50_ms"]
        p_traced = e2e([r for r in per_slice if r[0] is traced_srv], True)[0]["serve_p50_ms"]
        m["trace.overhead_pct"] = (p_traced / p_plain - 1.0) * 100.0
        out["per_layer"] = m
    return out


def _check_slice(results, checks: Checks, spec, timing, spans):
    """Output checks for one finished slice (both connections idle)."""
    first: dict[str, dict] = {}
    cached_bytes: dict[str, bytes] = {}
    parse_s, events, serialize = [], 0, []
    direct_done = False
    for r in sorted(results, key=lambda r: int(r["rid"].split("-")[1])):
        expect = 422 if r["cls"] == "bad_upload" else 200
        checks.check(r["status"] == expect, f"{r['cls']} answered {expect}")
        if r["status"] != 200:
            continue
        if r["cls"] == "upload":
            with spans.span("trace_import.parse_trace", rid=r["rid"]):
                t0 = time.perf_counter()
                prog = parse_trace(r["op"]["trace"])
                parse_s.append(time.perf_counter() - t0)
            events += prog.events
            checks.check(json.loads(r["body"])["fingerprint"] == prog.fingerprint,
                         "uploaded program fingerprint equals local import")
            continue
        if r["cls"] not in ("predict", "imported"):
            continue
        doc = json.loads(r["body"])
        checks.check(finite_positive(doc["times"]), "served times finite and positive")
        with spans.span("service.prediction_record", rid=r["rid"]):
            t0 = time.perf_counter()
            json.dumps(prediction_record(prediction_from_doc(doc), seed=doc["seed"],
                                         vector_runs=True, compiled=True))
            serialize.append((time.perf_counter() - t0) * 1e3)
        body = r["op"]["body"]
        key = json.dumps(body, sort_keys=True)
        stripped = {k: v for k, v in doc.items() if k not in ("served_from", "cached")}
        if key in first:
            checks.check(stripped == first[key], "repeat request returns the same body")
            if doc["served_from"] == "cache":
                if key in cached_bytes:
                    checks.check(r["body"] == cached_bytes[key],
                                 "repeat cache hits are byte-identical")
                cached_bytes[key] = r["body"]
        else:
            first[key] = stripped
        if (not direct_done and r["cls"] == "predict" and "db" not in body
                and doc["served_from"] == "engine"):
            direct_done = True
            checks.check(doc["times"] == list(direct.request_predict(body, spec, timing).times),
                         "served /predict equals direct predict()")
    return parse_s, events, serialize
