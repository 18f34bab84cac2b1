"""Collective communication patterns for PEVPM models.

The PEVPM directive language models point-to-point messages; programs
that use MPI collectives are modelled by their constituent messages
(exactly how the runtime implements them).  This module emits
:func:`repro.collective_schedule.collective_schedule` -- the one
schedule :mod:`repro.smpi.collectives` also executes -- as model
operations, so a model of a collective-using program replays the
runtime's messages one for one:

    def program(ctx):
        yield from patterns.bcast(ctx, size=1024, root=0)
        yield ctx.serial(work)
        yield from patterns.allreduce(ctx, size=8)

The same emitter lowers the ``coll_*`` directives in
:mod:`repro.pevpm.interpreter`.  Each pattern is validated against the
measured runtime collectives in ``tests/pevpm/test_patterns.py``.
"""

from __future__ import annotations

from ..collective_schedule import OPS, collective_schedule
from .directives import ModelError
from .machine import ANY_SOURCE, ProcContext

__all__ = ["collective", "emit", "lower_collective", *OPS]


def lower_collective(
    op: str, rank: int, nprocs: int, size: int, root: int = 0
) -> list[tuple]:
    """Rank *rank*'s point-to-point schedule for one collective.

    Returns ``("send", peer, size)`` / ``("recv", peer)`` records in
    execution order (``peer`` is ``None`` for a wildcard receive): the
    collective schedule with each combined exchange split into its send
    followed by its receive -- the machine's sends are non-blocking, so
    the straight-line order cannot deadlock.  Raises :class:`ModelError`
    for invalid arguments.
    """
    try:
        steps = collective_schedule(op, rank, nprocs, size, root)
    except ValueError as exc:
        raise ModelError(str(exc)) from None
    out: list[tuple] = []
    for step in steps:
        if step[0] == "sendrecv":
            out.append(("send", step[1], step[3]))
            out.append(("recv", step[2]))
        else:
            out.append(step)
    return out


def emit(ctx: ProcContext, ops: list[tuple], label: str):
    """Yield lowered ``ops`` (see :func:`lower_collective`) as machine
    operations labelled *label*."""
    for kind, peer, *size in ops:
        if kind == "send":
            yield ctx.send(peer, size[0], label=label)
        else:
            yield ctx.recv(ANY_SOURCE if peer is None else peer, label=label)


def collective(ctx: ProcContext, op: str, size: int = 0, root: int = 0):
    """Process ``ctx.procnum``'s slice of collective *op*, labelled *op*."""
    ops = lower_collective(op, ctx.procnum, ctx.numprocs, size, root)
    return emit(ctx, ops, op)


def barrier(ctx: ProcContext):
    """Dissemination barrier: ceil(log2 P) rounds of 0-byte exchanges."""
    return collective(ctx, "barrier")


def bcast(ctx: ProcContext, size: int, root: int = 0):
    """Binomial-tree broadcast."""
    return collective(ctx, "bcast", size, root)


def reduce(ctx: ProcContext, size: int, root: int = 0):
    """Binomial-tree reduction."""
    return collective(ctx, "reduce", size, root)


def allreduce(ctx: ProcContext, size: int):
    """reduce-to-0 then broadcast, like the runtime (labelled as its two
    halves)."""
    yield from reduce(ctx, size)
    yield from bcast(ctx, size)


def gather(ctx: ProcContext, size: int, root: int = 0):
    """Linear gather to *root*."""
    return collective(ctx, "gather", size, root)


def scatter(ctx: ProcContext, size: int, root: int = 0):
    """Linear scatter from *root*."""
    return collective(ctx, "scatter", size, root)


def allgather(ctx: ProcContext, size: int):
    """Ring allgather: P-1 forwarding steps."""
    return collective(ctx, "allgather", size)


def alltoall(ctx: ProcContext, size: int):
    """Shifted pairwise exchange: P-1 rounds."""
    return collective(ctx, "alltoall", size)
