"""Property-based engine parity for collective directives and the
collectives-era workloads.

Random directive models mixing serial bursts and the collective
directives (bcast / reduce / allreduce / allgather / barrier / scatter /
alltoall, with random sizes and roots), plus random halo-stencil
configurations, are evaluated on
the scalar and batched virtual machines -- each both through the
generator interpreter and through the compiled static schedules.  The
lowered collectives are straight-line point-to-point code (sends are
non-blocking; only receives are decision points), so every config must
compile non-divergent and the compiled run must match the interpreted
run bit-for-bit, under deterministic Hockney timing *and* under
measured distribution timing.  ``coll_gather`` is the exception: its
root's wildcard receives race, so it compiles divergent and both paths
run the generator fallback -- still bit-identically.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import amg_model, halo_model
from repro.collective_schedule import OPS as ALL_OPS, ROOTED_OPS
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import (
    BatchedVirtualMachine,
    Block,
    Collective,
    HockneyTiming,
    Loop,
    Serial,
    VirtualMachine,
    compile_model,
    compile_program,
    parse_annotations,
    predict,
    timing_from_db,
)
from repro.simnet import perseus

OPS = [
    "bcast", "reduce", "allreduce", "allgather", "barrier", "scatter", "alltoall",
]


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(
        perseus(16), seed=3, settings=BenchSettings(reps=30, warmup=3)
    )
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


@st.composite
def collective_models(draw):
    """(Block, nprocs): 1..5 serial/collective directives, maybe looped."""
    nprocs = draw(st.integers(min_value=1, max_value=6))
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.booleans()):
            micros = draw(st.integers(min_value=1, max_value=40))
            body.append(Serial(repr(micros * 1e-6)))
        else:
            op = draw(st.sampled_from(OPS))
            size = draw(st.sampled_from([0, 8, 512, 4096]))
            root = draw(st.integers(min_value=0, max_value=nprocs - 1))
            body.append(Collective(op, str(size), root=str(root)))
    block = Block(body)
    if draw(st.booleans()):
        block = Block([Loop(str(draw(st.integers(1, 3))), block)])
    return block, nprocs


@st.composite
def halo_configs(draw):
    """(Block, nprocs) for a random (valid) halo stencil."""
    dims = draw(st.integers(min_value=1, max_value=3))
    px = draw(st.sampled_from([1, 2]))
    nprocs = draw(st.sampled_from([2, 4, 6]))
    try:
        model = halo_model(
            iterations=draw(st.integers(min_value=1, max_value=3)),
            nx=draw(st.sampled_from([4, 8, 16])),
            halo=draw(st.integers(min_value=1, max_value=2)),
            dims=dims,
            px=px,
            reduce_every=draw(st.sampled_from([0, 1, 2])),
        )
    except ValueError:
        model = None
    return model, nprocs, px


def assert_engine_parity(model, nprocs, timing, seed, divergent=False):
    program = compile_model(model)
    compiled = compile_program(model, nprocs)
    # Straight-line lowerings with fixed-source receives never compile
    # divergent; only coll_gather's racing wildcard receives do.
    assert compiled.divergent == divergent
    a = VirtualMachine(nprocs, timing, seed=seed).run(program)
    b = VirtualMachine(nprocs, timing, seed=seed).run(compiled)
    assert b.elapsed == a.elapsed
    assert b.finish_times == a.finish_times
    assert b.messages == a.messages
    va = BatchedVirtualMachine(nprocs, timing, seed=seed, runs=4).run(program)
    vb = BatchedVirtualMachine(nprocs, timing, seed=seed, runs=4).run(compiled)
    assert [r.elapsed for r in vb] == [r.elapsed for r in va]


@settings(max_examples=25, deadline=None)
@given(collective_models(), st.integers(min_value=0, max_value=2**31 - 1))
def test_collective_hockney_parity(spec, seed):
    model, nprocs = spec
    timing = HockneyTiming(1e-5, 1e8)
    assert_engine_parity(model, nprocs, timing, seed)


@settings(max_examples=15, deadline=None)
@given(collective_models(), st.integers(min_value=0, max_value=2**31 - 1))
def test_collective_distribution_parity(db, spec, seed):
    model, nprocs = spec
    timing = timing_from_db(db, mode="distribution", nprocs=max(nprocs, 2))
    assert_engine_parity(model, nprocs, timing, seed)


@settings(max_examples=15, deadline=None)
@given(halo_configs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_halo_distribution_parity(db, spec, seed):
    model, nprocs, px = spec
    if model is None or nprocs % px:
        return  # invalid (dims, px, nprocs) draw
    timing = timing_from_db(db, mode="distribution", nprocs=nprocs)
    try:
        assert_engine_parity(model, nprocs, timing, seed)
    except ValueError:
        return  # decomposition rejected at trace time for this nprocs


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([2, 4]),
    st.sampled_from([8, 16]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_amg_distribution_parity(db, nprocs, nx, seed):
    model = amg_model(iterations=1, nx=nx, coarse_nx=4)
    timing = timing_from_db(db, mode="distribution", nprocs=nprocs)
    assert_engine_parity(model, nprocs, timing, seed)


@pytest.mark.parametrize("nprocs", [3, 5])
def test_coll_gather_is_divergent_and_matches_interpreted(db, nprocs):
    """The root's wildcard receives race, so the compiler hands the
    program to the generator fallback; results stay bit-identical."""
    model = parse_annotations(
        "// PEVPM Loop iterations = 2\n"
        "// PEVPM {\n"
        "// PEVPM Serial time = 1e-5 * (procnum + 1)\n"
        "// PEVPM coll_gather size = 512 & root = 1\n"
        "// PEVPM coll_bcast size = 8 & root = 1\n"
        "// PEVPM }\n"
    )
    for timing in (
        HockneyTiming(1e-5, 1e8),
        timing_from_db(db, mode="distribution", nprocs=nprocs),
    ):
        assert_engine_parity(model, nprocs, timing, seed=11, divergent=True)


@pytest.mark.parametrize("op", ALL_OPS)
def test_every_coll_directive_predicts(db, op):
    """Each ``coll_*`` directive parses, lowers and predicts, with the
    compiled and interpreted paths agreeing on the scalar and batched
    engines."""
    fields = "" if op == "barrier" else "size = 1024"
    if op in ROOTED_OPS:
        fields += " & root = 2"
    model = parse_annotations(
        "// PEVPM Serial time = 2e-5\n"
        f"// PEVPM coll_{op} {fields}\n"
        "// PEVPM Serial time = 1e-5\n"
    )
    timing = timing_from_db(db, mode="distribution", nprocs=4)
    times = None
    for vector_runs in (False, True):
        for compiled in (False, True):
            pred = predict(model, 4, timing, runs=4, seed=5,
                           vector_runs=vector_runs, compiled=compiled)
            assert all(t > 3e-5 for t in pred.times)
            if compiled:
                assert pred.times == times
            times = pred.times
