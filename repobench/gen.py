"""Seeded input generators.

The seeded inputs of a run are made here from the workload seed: recorded
MPI traces (valid and malformed) and the serving workload's operation
list.  The timed divergent programs are the exception, for the reason
given in :func:`divergent_traces`.  ``random.Random`` seeded with a string
is stable across processes and Python hash seeds, so the same ``(seed,
stream)`` pair always gives the same inputs.
"""

from __future__ import annotations

import json
import random

#: message sizes the set-up campaign measures, so no lookup extrapolates
SIZES = (512, 1024, 2048)


def rng_for(seed: int, stream: str) -> random.Random:
    return random.Random(f"repobench:{seed}:{stream}")


def _compute(rng: random.Random, lo: float = 2e-5, hi: float = 8e-5) -> float:
    return round(rng.uniform(lo, hi), 9)


# -- traces: per-rank event tuples as the importer defines them -------------
#: ("compute", seconds) | ("send", dst, bytes) | ("recv", src), src -1 = any


def shift_trace(rng: random.Random, nprocs: int, rounds: int) -> list[list[tuple]]:
    """A static-schedule trace: every round each rank computes, sends to
    the rank *k* ahead and receives from the rank *k* behind (one seeded
    shift *k* per round).  All receives name their source."""
    ranks: list[list[tuple]] = [[] for _ in range(nprocs)]
    for _ in range(rounds):
        k = rng.randrange(1, nprocs)
        size = rng.choice(SIZES)
        for r in range(nprocs):
            ranks[r].append(("compute", _compute(rng)))
            ranks[r].append(("send", (r + k) % nprocs, size))
            ranks[r].append(("recv", (r - k) % nprocs))
    return ranks


def master_worker_trace(rng: random.Random, nprocs: int, tasks: int) -> list[list[tuple]]:
    """A divergent trace: rank 0 hands out *tasks* tasks and collects the
    results with wildcard receives, so which worker's result it matches
    depends on sampled times.  Worker *w* receives its tasks in the
    recorded hand-out order, computes, and replies; then all stop."""
    workers = list(range(1, nprocs))
    assign = workers + [rng.choice(workers) for _ in range(tasks - len(workers))]
    ranks: list[list[tuple]] = [[] for _ in range(nprocs)]
    master = ranks[0]
    for i, w in enumerate(assign):
        if i >= len(workers):
            master.append(("recv", -1))
        master.append(("send", w, 2048))
        ranks[w] += [("recv", 0), ("compute", _compute(rng, 1e-4, 6e-4)), ("send", 0, 512)]
    master += [("recv", -1)] * len(workers)
    for w in workers:
        master.append(("send", w, 8))
        ranks[w].append(("recv", 0))
    return ranks


def to_jsonl(name: str, ranks: list[list[tuple]]) -> str:
    lines = [json.dumps({"trace": "repro-mpi", "version": 1, "nprocs": len(ranks), "name": name})]
    for r, events in enumerate(ranks):
        for ev in events:
            if ev[0] == "compute":
                doc = {"rank": r, "op": "compute", "seconds": ev[1]}
            elif ev[0] == "send":
                doc = {"rank": r, "op": "send", "dst": ev[1], "bytes": ev[2]}
            else:
                doc = {"rank": r, "op": "recv", "src": "any" if ev[1] < 0 else ev[1]}
            lines.append(json.dumps(doc))
    return "\n".join(lines) + "\n"


def to_otf2(name: str, ranks: list[list[tuple]]) -> str:
    lines = [f"NPROCS {len(ranks)}", f"NAME {name}"]
    for r, events in enumerate(ranks):
        for ev in events:
            if ev[0] == "compute":
                lines.append(f"{r} COMPUTE {ev[1]!r}")
            elif ev[0] == "send":
                lines.append(f"{r} MPI_ISEND {ev[1]} {ev[2]}")
            else:
                lines.append(f"{r} MPI_RECV {'ANY' if ev[1] < 0 else ev[1]}")
    return "\n".join(lines) + "\n"


def malformed_trace(rng: random.Random, kind: int) -> str:
    """An upload the importer must refuse (HTTP 422), one of four kinds."""
    ranks = master_worker_trace(rng, 4, 6)
    kind %= 4
    if kind == 0:  # send to a rank the trace does not have
        ranks[1][-2] = ("send", 9, 512)
    elif kind == 1:  # a result is sent but never received
        ranks[0].remove(("recv", -1))
    elif kind == 2:  # recv-before-send cycle between two ranks
        ranks = [[("recv", 1), ("send", 1, 512)], [("recv", 0), ("send", 0, 512)]]
    else:  # an unreadable event line
        return to_otf2("garbled", ranks).replace("MPI_ISEND", "MPI_FROB", 1)
    return to_jsonl(f"bad-{kind}", ranks)


def divergent_traces(seed: int) -> list[tuple[str, list[list[tuple]]]]:
    """A reference master/worker trace, then two seeded ones.

    How much a divergent program costs depends on how closely its
    results race (each disagreement splits the batch), and that varies
    by 15-30 % between seeded task sets.  The timed program is therefore
    the reference trace, the same for every seed; the seeded traces are
    imported and checked, and timed only as imports."""
    ref = master_worker_trace(rng_for(0, "divergent-reference"), 8, 40)
    rng = rng_for(seed, "divergent-traces")
    return [("mw-ref", ref)] + [
        (f"mw-{i}", master_worker_trace(rng, n, t)) for i, (n, t) in enumerate(((6, 30), (12, 44)))
    ]


def static_traces(seed: int) -> list[tuple[str, list[list[tuple]]]]:
    rng = rng_for(seed, "static-traces")
    return [(f"shift-{i}", shift_trace(rng, n, r)) for i, (n, r) in enumerate(((8, 30), (12, 20), (16, 16)))]


# -- the serving workload's operation list ------------------------------------

#: small engine calls: static-schedule programs plus the divergent task farm
SERVE_MODELS = (
    ("jacobi", {"iterations": 20}),
    ("halo", {"iterations": 5, "px": 2}),
    ("fft", {"n_points": 1024}),
    ("amg", {"iterations": 2, "px": 2}),
    ("taskfarm", {"n_tasks": 16}),  # fixed tasks: see divergent_traces
)
SERVE_NPROCS = 8
SERVE_RUNS = 8

#: one slice's mix, identical in every slice of every run: 26 requests,
#: three of them writes
SLICE_FRESH = 15  #: cache-missing /predict, three per model
SLICE_GIGABIT = 3  #: fresh /predict against the seeded gigabit@v1 alias
SLICE_REPEATS = 2  #: repeats of an earlier request (LRU hit or join)
SLICE_PAIRS = 1  #: back-to-back duplicates (singleflight candidates)
SLICE_UPLOADS = 2  #: POST /programs, then a model=imported /predict
SLICE_BAD = 1  #: malformed uploads, refused with 422


def serve_slice(seed: int, index: int) -> list[dict]:
    """Operation list of slice *index*: a seeded order over a fixed mix.

    Ops: ``{"op": "predict", "body": ...}``, ``{"op": "upload", "trace":
    ..., "predict": ...}`` and ``{"op": "bad_upload", "trace": ...}``.
    ``cls`` names the request class (fresh, gigabit, pair, repeat,
    upload, bad_upload) and ``rid`` the request.  Pairs and repeats copy
    the first fresh request of a fixed model, so every slice holds the
    same classes and models; only seeds, traces and order vary.
    """
    rng = rng_for(seed, f"slice-{index}")

    def fresh(i: int, db: str | None = None) -> dict:
        model, params = SERVE_MODELS[i % len(SERVE_MODELS)]
        body = {
            "model": model, "nprocs": SERVE_NPROCS, "model_params": dict(params),
            "runs": SERVE_RUNS, "seed": rng.randrange(1 << 40),
        }
        if db is not None:
            body["db"] = db
        return {"op": "predict", "cls": "gigabit" if db else "fresh", "body": body}

    ops = [fresh(i) for i in range(SLICE_FRESH)]
    ops += [fresh(i, "gigabit@v1") for i in range(SLICE_GIGABIT)]
    for i in range(SLICE_UPLOADS):
        ranks = master_worker_trace(rng, 5, 10)
        fmt = to_jsonl if (index + i) % 2 == 0 else to_otf2
        ops.append({
            "op": "upload", "cls": "upload", "trace": fmt(f"up-{index}-{i}", ranks),
            "predict": {"model": "imported", "nprocs": len(ranks),
                        "runs": SERVE_RUNS, "seed": rng.randrange(1 << 40)},
        })
    for i in range(SLICE_BAD):
        ops.append({"op": "bad_upload", "cls": "bad_upload",
                    "trace": malformed_trace(rng, index * SLICE_BAD + i)})
    rng.shuffle(ops)
    for k, cls in enumerate(["pair"] * SLICE_PAIRS + ["repeat"] * SLICE_REPEATS):
        model = SERVE_MODELS[k % len(SERVE_MODELS)][0]
        src = next(i for i, op in enumerate(ops)
                   if op["cls"] == "fresh" and op["body"]["model"] == model)
        at = src + 1 if cls == "pair" else rng.randrange(min(src + 2, len(ops)), len(ops) + 1)
        ops.insert(at, dict(ops[src], cls=cls))
    for i, op in enumerate(ops):
        op["rid"] = f"s{index}-{i}"
    return ops
