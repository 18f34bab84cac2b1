"""The PEVPM collective lowerings mirror ``smpi.collectives`` exactly.

``repro.pevpm.lower_collective`` claims to produce, per rank, the same
point-to-point schedule the simulated MPI collectives execute --
binomial tree for bcast/reduce (same lowest-set-bit parent and mask
walk), allreduce as reduce-to-0 + bcast-from-0, the (P-1)-step ring
allgather, the dissemination barrier, linear gather/scatter and the
shifted pairwise alltoall.  Here each ``smpi`` generator is driven
against a recording stub communicator and its message sequence is
compared against the lowered schedule, operation for operation, across
the awkward tree shapes: a single rank (empty schedule),
non-power-of-two sizes (ragged binomial trees), and roots other than 0.
"""

import ast
import inspect
from types import SimpleNamespace

import pytest

from repro import collective_schedule
from repro.pevpm import lower_collective
from repro.smpi import collectives

NPROCS = [1, 2, 3, 4, 5, 6, 7, 8, 13]


class RecordingComm:
    """Stands in for an smpi communicator: records the message pattern
    instead of simulating it.

    Receives return a ``None`` payload with a status naming the source
    (rank 0 for a wildcard, enough for the gather's indexing), except
    ``wait`` which returns the ``(origin, block)`` tuple the ring
    allgather forwards -- origin 0 keeps its indexing happy without
    simulating delivery.  An ``irecv`` is logged when it completes (at
    ``wait``), matching the lowering's execution-order convention.
    """

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        self.log: list[tuple] = []

    def _next_coll_tag(self) -> int:
        return 4096

    def send(self, size, dest, tag=0, payload=None):
        self.log.append(("send", dest, size))
        return
        yield

    def recv(self, source=None, tag=0):
        self.log.append(("recv", source))
        return (None, SimpleNamespace(source=source or 0))
        yield

    def irecv(self, source=None, tag=0):
        return ("req", source)
        yield

    def wait(self, req):
        self.log.append(("recv", req[1]))
        return ((0, None), None)
        yield

    def sendrecv(
        self, size, dest, source, sendtag=0, recvtag=0, payload=None
    ):
        self.log.append(("send", dest, size))
        self.log.append(("recv", source))
        return (None, None)
        yield


def drive(gen):
    if gen is None:
        return None
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def recorded(op: str, rank: int, nprocs: int, size: int, root: int = 0):
    comm = RecordingComm(rank, nprocs)
    if op == "bcast":
        drive(collectives.bcast(comm, size, root=root))
    elif op == "reduce":
        drive(collectives.reduce(comm, size, root=root))
    elif op == "gather":
        drive(collectives.gather(comm, size, root=root))
    elif op == "scatter":
        drive(collectives.scatter(comm, size, root=root))
    elif op == "allreduce":
        drive(collectives.allreduce(comm, size))
    elif op == "allgather":
        drive(collectives.allgather(comm, size))
    elif op == "alltoall":
        drive(collectives.alltoall(comm, size))
    elif op == "barrier":
        drive(collectives.barrier(comm))
    else:
        raise AssertionError(op)
    return comm.log


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("op", ["bcast", "reduce", "gather", "scatter"])
def test_rooted_tree_matches_lowering_for_every_root(op, nprocs):
    for root in range(nprocs):
        for rank in range(nprocs):
            expected = lower_collective(op, rank, nprocs, 1024, root=root)
            assert recorded(op, rank, nprocs, 1024, root=root) == expected


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("op", ["allreduce", "allgather", "barrier", "alltoall"])
def test_rootless_matches_lowering(op, nprocs):
    for rank in range(nprocs):
        expected = lower_collective(op, rank, nprocs, 512)
        assert recorded(op, rank, nprocs, 512) == expected


def test_single_rank_schedules_are_empty():
    for op in ("bcast", "reduce", "allreduce", "allgather",
               "barrier", "gather", "scatter", "alltoall"):
        assert lower_collective(op, 0, 1, 4096) == []
        assert recorded(op, 0, 1, 4096) == []


def test_non_power_of_two_reduce_root_receives_all_contributions():
    """Ragged binomial tree: every non-root rank sends exactly once and
    the root hears, transitively, from everyone."""
    for nprocs in (3, 5, 6, 7, 13):
        for root in (0, 1, nprocs - 1):
            senders = 0
            for rank in range(nprocs):
                ops = lower_collective("reduce", rank, nprocs, 64, root=root)
                kinds = [o[0] for o in ops]
                if rank == root:
                    assert "send" not in kinds
                else:
                    assert kinds.count("send") == 1
                    assert kinds[-1] == "send"  # sends after combining
                    senders += 1
            assert senders == nprocs - 1


def test_root_shift_is_a_rank_rotation():
    """A root-r bcast is the root-0 tree with every peer shifted by r
    (mod P) -- the relative-rank construction, checked directly."""
    nprocs, size = 6, 256
    for root in range(nprocs):
        for rank in range(nprocs):
            shifted = lower_collective(
                "bcast", (rank - root) % nprocs, nprocs, size, root=0
            )
            expected = [
                (kind, (peer + root) % nprocs, *rest)
                for kind, peer, *rest in shifted
            ]
            assert (
                lower_collective("bcast", rank, nprocs, size, root=root)
                == expected
            )


def test_allgather_ring_shape():
    """P-1 steps, each sending the running block right and completing a
    receive from the left."""
    nprocs = 5
    for rank in range(nprocs):
        ops = lower_collective("allgather", rank, nprocs, 128)
        assert len(ops) == 2 * (nprocs - 1)
        right = (rank + 1) % nprocs
        left = (rank - 1) % nprocs
        assert ops[0::2] == [("send", right, 128)] * (nprocs - 1)
        assert ops[1::2] == [("recv", left)] * (nprocs - 1)


def test_every_op_is_covered_and_the_schedule_is_a_leaf():
    """The recorded comparisons above cover every op of the schedule,
    and the schedule imports nothing from the package (so the model
    side can use it without pulling in the simulator)."""
    assert set(collective_schedule.OPS) == {
        "bcast", "reduce", "gather", "scatter",
        "allreduce", "allgather", "barrier", "alltoall",
    }
    tree = ast.parse(inspect.getsource(collective_schedule))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module == "__future__"
        assert not isinstance(node, ast.Import)


def test_invalid_arguments_raise_per_layer_errors():
    from repro.pevpm import ModelError

    for args in (("bcast", 0, 4, 8, 4), ("gather", 0, 4, 8, -1),
                 ("reduce", 4, 4, 8), ("allgather", 0, 0, 8),
                 ("alltoall", 0, 4, -1), ("scan", 0, 4, 8)):
        with pytest.raises(ValueError):
            collective_schedule.collective_schedule(*args)
        with pytest.raises(ModelError):
            lower_collective(*args)
    # Non-rooted ops ignore the root argument.
    assert lower_collective("allgather", 0, 3, 8, root=7) == lower_collective(
        "allgather", 0, 3, 8
    )
