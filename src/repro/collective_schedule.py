"""The point-to-point schedule of every collective operation.

:func:`collective_schedule` says which messages one rank sends and
receives, in execution order, under the classic MPICH-era algorithms:
binomial trees for bcast/reduce, reduce-to-0 + bcast-from-0 for
allreduce, a dissemination barrier, linear gather/scatter, a ring
allgather and shifted pairwise alltoall.  :mod:`repro.smpi.collectives`
executes this schedule and :mod:`repro.pevpm.patterns` emits it as model
operations, so a PEVPM prediction of a collective replays exactly the
messages the runtime sends.

A step is ``("send", peer, size)``, ``("recv", peer)`` (``peer`` is
``None`` for a wildcard receive) or ``("sendrecv", dest, source, size)``,
a combined exchange whose send and receive proceed concurrently.  The
module imports nothing from :mod:`repro` and raises plain
:class:`ValueError`, so each layer re-raises its own error type.
"""

from __future__ import annotations

__all__ = ["OPS", "ROOTED_OPS", "collective_schedule"]


def _bcast(rank: int, P: int, size: int, root: int) -> list[tuple]:
    relative = (rank - root) % P
    steps: list[tuple] = []
    if relative:
        # Receive from the parent: the rank that differs in our lowest set bit.
        lsb = relative & (-relative)
        steps.append(("recv", (rank - lsb) % P))
        mask = lsb >> 1
    else:
        mask = 1
        while mask < P:
            mask <<= 1
        mask >>= 1
    while mask >= 1:
        if relative + mask < P:
            steps.append(("send", (rank + mask) % P, size))
        mask >>= 1
    return steps


def _reduce(rank: int, P: int, size: int, root: int) -> list[tuple]:
    relative = (rank - root) % P
    steps: list[tuple] = []
    mask = 1
    while mask < P:
        if relative & mask:
            steps.append(("send", (rank - mask) % P, size))
            break
        if relative + mask < P:
            steps.append(("recv", (rank + mask) % P))
        mask <<= 1
    return steps


def _allreduce(rank: int, P: int, size: int, root: int) -> list[tuple]:
    return _reduce(rank, P, size, 0) + _bcast(rank, P, size, 0)


def _barrier(rank: int, P: int, size: int, root: int) -> list[tuple]:
    steps: list[tuple] = []
    mask = 1
    while mask < P:
        steps.append(("sendrecv", (rank + mask) % P, (rank - mask) % P, 0))
        mask <<= 1
    return steps


def _gather(rank: int, P: int, size: int, root: int) -> list[tuple]:
    if rank != root:
        return [("send", root, size)]
    return [("recv", None)] * (P - 1)


def _scatter(rank: int, P: int, size: int, root: int) -> list[tuple]:
    if rank != root:
        return [("recv", root)]
    return [("send", dest, size) for dest in range(P) if dest != root]


def _allgather(rank: int, P: int, size: int, root: int) -> list[tuple]:
    return [("sendrecv", (rank + 1) % P, (rank - 1) % P, size)] * (P - 1)


def _alltoall(rank: int, P: int, size: int, root: int) -> list[tuple]:
    return [
        ("sendrecv", (rank + step) % P, (rank - step) % P, size)
        for step in range(1, P)
    ]


_ALGORITHMS = {
    "barrier": _barrier,
    "bcast": _bcast,
    "reduce": _reduce,
    "allreduce": _allreduce,
    "gather": _gather,
    "scatter": _scatter,
    "allgather": _allgather,
    "alltoall": _alltoall,
}

#: every collective operation
OPS = tuple(_ALGORITHMS)

#: collectives with a meaningful root (the others ignore *root*)
ROOTED_OPS = ("bcast", "reduce", "gather", "scatter")


def collective_schedule(
    op: str, rank: int, nprocs: int, size: int, root: int = 0
) -> list[tuple]:
    """Rank *rank*'s steps for collective *op* over *nprocs* ranks.

    *size* is the per-message payload in bytes (a barrier's messages are
    empty).  A single rank's schedule is empty.  Raises
    :class:`ValueError` for an unknown *op*, a rank or root outside
    ``0..nprocs-1`` or a negative *size*.
    """
    algorithm = _ALGORITHMS.get(op)
    if algorithm is None:
        raise ValueError(f"unknown collective op {op!r}")
    if not 0 <= rank < nprocs:
        raise ValueError(f"rank {rank} outside 0..{nprocs - 1}")
    if size < 0:
        raise ValueError("collective size must be non-negative")
    if op in ROOTED_OPS and not 0 <= root < nprocs:
        raise ValueError(f"collective root {root} outside 0..{nprocs - 1}")
    return algorithm(rank, nprocs, size, root)
