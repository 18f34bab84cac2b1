"""Collective operations, built from point-to-point messages.

Which messages each rank sends and receives comes from
:func:`repro.collective_schedule.collective_schedule` -- the classic
MPICH-era algorithms (binomial trees, dissemination barrier, linear
gather/scatter, ring allgather, shifted pairwise alltoall), chosen
because their message *counts and shapes* determine collective timing on
the simulated fabric exactly as they did on Perseus.  PEVPM models
replay the same schedule, so this module holds only what execution adds
to it: payloads (forwarding, combining with ``op``, indexing gathered
results by source) and the communicator calls each step is issued as.

All functions are generators taking the calling rank's
:class:`~repro.smpi.comm.Comm` and must be driven with ``yield from``; all
ranks must call the same collectives in the same order (as MPI requires) --
tags are drawn from a per-rank sequence counter that stays aligned across
ranks precisely because of that requirement.

Payload semantics: these collectives move *byte counts* for timing, but
also carry optional Python payloads so application examples (e.g. the task
farm) can move real values through them.
"""

from __future__ import annotations

from typing import Any, Callable

from ..collective_schedule import OPS, collective_schedule
from .status import RankError

__all__ = ["Collectives", *OPS]


def _steps(op: str, comm, size: int, root: int = 0) -> list[tuple]:
    try:
        return collective_schedule(op, comm.rank, comm.size, size, root)
    except ValueError as exc:
        raise RankError(f"{op}: {exc}") from None


def barrier(comm):
    """Dissemination barrier: in round k every rank exchanges a 0-byte
    message with the ranks at distance 2**k; after ceil(log2 P) rounds
    everyone transitively heard from everyone."""
    steps = _steps("barrier", comm, 0)
    tag = comm._next_coll_tag()
    for _kind, dest, source, size in steps:
        yield from comm.sendrecv(
            size, dest=dest, source=source, sendtag=tag, recvtag=tag
        )
    return None


def _tree(op: str, comm, size: int, root: int, payload: Any, combine):
    """Run a binomial-tree schedule: each receive folds the incoming
    payload into the running one with *combine*, each send forwards it."""
    steps = _steps(op, comm, size, root)
    tag = comm._next_coll_tag()
    for kind, peer, *_size in steps:
        if kind == "recv":
            received, _status = yield from comm.recv(source=peer, tag=tag)
            payload = combine(payload, received)
        else:
            yield from comm.send(size, dest=peer, tag=tag, payload=payload)
    return payload


def bcast(comm, size: int, root: int = 0, payload: Any = None):
    """Binomial-tree broadcast of *size* bytes from *root*.

    Returns the payload (at every rank).
    """
    result = yield from _tree(
        "bcast", comm, size, root, payload, lambda _own, received: received
    )
    return result


def reduce(
    comm,
    size: int,
    root: int = 0,
    payload: Any = None,
    op: Callable[[Any, Any], Any] | None = None,
):
    """Binomial-tree reduction of *size*-byte contributions to *root*.

    *op* combines two payloads; with the default ``None`` the payloads are
    ignored (timing-only reduction).  Returns the reduced payload at the
    root and ``None`` elsewhere.
    """
    combine = op if op is not None else (lambda acc, _received: acc)
    acc = yield from _tree("reduce", comm, size, root, payload, combine)
    return acc if comm.rank == root else None


def allreduce(
    comm,
    size: int,
    payload: Any = None,
    op: Callable[[Any, Any], Any] | None = None,
):
    """Reduce to rank 0, then broadcast the result (MPICH's small-message
    allreduce).  Returns the reduced payload at every rank."""
    reduced = yield from reduce(comm, size, root=0, payload=payload, op=op)
    result = yield from bcast(comm, size, root=0, payload=reduced)
    return result


def gather(comm, size: int, root: int = 0, payload: Any = None):
    """Linear gather of *size*-byte contributions to *root*.

    Returns the list of payloads indexed by rank at the root, ``None``
    elsewhere.
    """
    steps = _steps("gather", comm, size, root)
    tag = comm._next_coll_tag()
    if comm.rank != root:
        yield from comm.send(size, dest=root, tag=tag, payload=payload)
        return None
    results: list[Any] = [None] * comm.size
    results[root] = payload
    for _step in steps:
        item, status = yield from comm.recv(tag=tag)
        results[status.source] = item
    return results


def scatter(comm, size: int, root: int = 0, payloads: list | None = None):
    """Linear scatter of *size*-byte pieces from *root*.

    *payloads* (root only) is a list of per-rank values; returns this
    rank's piece.
    """
    steps = _steps("scatter", comm, size, root)
    tag = comm._next_coll_tag()
    if comm.rank != root:
        item, _status = yield from comm.recv(source=root, tag=tag)
        return item
    P = comm.size
    if payloads is not None and len(payloads) != P:
        raise ValueError(f"scatter needs {P} payloads, got {len(payloads)}")
    for _kind, dest, _size in steps:
        item = payloads[dest] if payloads is not None else None
        yield from comm.send(size, dest=dest, tag=tag, payload=item)
    return payloads[root] if payloads is not None else None


def allgather(comm, size: int, payload: Any = None):
    """Ring allgather: P-1 steps, each forwarding one *size*-byte block to
    the next rank.  Returns the list of payloads indexed by rank."""
    steps = _steps("allgather", comm, size)
    tag = comm._next_coll_tag()
    results: list[Any] = [None] * comm.size
    results[comm.rank] = payload
    # Each step forwards the block received in the previous step.
    block_origin = comm.rank
    block = payload
    for _kind, right, left, _size in steps:
        rreq = yield from comm.irecv(source=left, tag=tag)
        yield from comm.send(size, dest=right, tag=tag, payload=(block_origin, block))
        (block_origin, block), _status = yield from comm.wait(rreq)
        results[block_origin] = block
    return results


def alltoall(comm, size: int, payloads: list | None = None):
    """Shifted pairwise alltoall: in step k each rank sends its block for
    rank (rank+k) and receives from (rank-k).  Returns the list of blocks
    received, indexed by source rank."""
    steps = _steps("alltoall", comm, size)
    tag = comm._next_coll_tag()
    P = comm.size
    if payloads is not None and len(payloads) != P:
        raise ValueError(f"alltoall needs {P} payloads, got {len(payloads)}")
    results: list[Any] = [None] * P
    results[comm.rank] = payloads[comm.rank] if payloads is not None else None
    for _kind, dest, source, _size in steps:
        item = payloads[dest] if payloads is not None else None
        received, _status = yield from comm.sendrecv(
            size, dest=dest, source=source, sendtag=tag, recvtag=tag, payload=item
        )
        results[source] = received
    return results


class Collectives:
    """The collective methods of a communicator: :class:`Comm` and
    :class:`SubComm` mix this in.  Each is the module function of the
    same name, bound with the communicator as its first argument, so
    ``yield from comm.bcast(size)`` is ``yield from bcast(comm, size)``."""

    barrier = barrier
    bcast = bcast
    reduce = reduce
    allreduce = allreduce
    gather = gather
    scatter = scatter
    allgather = allgather
    alltoall = alltoall
