"""Sub-communicators: ``MPI_Comm_split`` for the simulated runtime.

A :class:`SubComm` presents the full :class:`~repro.smpi.comm.Comm` API
over a subset of the world's ranks, renumbered 0..n-1.  Internally every
operation is translated to world ranks and executed on the world
communicator with the tag shifted into a communicator-private namespace,
so messages (including collective traffic) in different communicators can
never match each other -- the isolation property ``MPI_Comm_split``
guarantees.

Usage (inside a rank program)::

    row = yield from comm.split(color=comm.rank // 4)
    total = yield from row.allreduce(8, payload=x, op=operator.add)

Splitting is itself a collective: every world rank must call it with some
color (``None`` to opt out, like ``MPI_UNDEFINED``).
"""

from __future__ import annotations

from typing import Any

from .collectives import Collectives
from .comm import MAX_USER_TAG, Comm
from .status import ANY_SOURCE, ANY_TAG, RankError, Status, TagError

__all__ = ["SubComm", "TAG_STRIDE", "MAX_SUBCOMM_TAG"]

#: world-tag stride per communicator; sub-communicator user tags must stay
#: below this so shifted tags never collide across communicators.
TAG_STRIDE = 1 << 24
MAX_SUBCOMM_TAG = MAX_USER_TAG  # same user-facing limit as the world comm


class SubComm(Collectives):
    """A communicator over a subset of world ranks.

    Exposes the same generator API as :class:`Comm`; construct via
    ``yield from comm.split(color, key)``.
    """

    def __init__(self, world: Comm, members: list[int], comm_id: int):
        if world.rank not in members:
            raise RankError("this rank is not a member of the sub-communicator")
        self._world = world
        self._members = list(members)
        self._comm_id = comm_id
        self.rank = self._members.index(world.rank)
        self._coll_seq = 0

    # -- introspection ---------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def world_ranks(self) -> list[int]:
        """The world rank of each member, in sub-rank order."""
        return list(self._members)

    @property
    def node(self) -> int:
        return self._world.node

    @property
    def sim(self):
        return self._world.sim

    @property
    def stats(self):
        """Counters are shared with the world communicator (per process)."""
        return self._world.stats

    def clock(self) -> float:
        return self._world.clock()

    def true_time(self) -> float:
        return self._world.true_time()

    def compute(self, seconds: float):
        return self._world.compute(seconds)

    # -- rank/tag translation -----------------------------------------------------
    def _to_world(self, rank: int, what: str) -> int:
        if not 0 <= rank < self.size:
            raise RankError(f"{what} {rank} outside sub-communicator of size {self.size}")
        return self._members[rank]

    def _from_world(self, world_rank: int) -> int:
        try:
            return self._members.index(world_rank)
        except ValueError:
            raise RankError(
                f"world rank {world_rank} is not in this sub-communicator"
            ) from None

    def _shift_tag(self, tag: int, allow_any: bool) -> int:
        if tag == ANY_TAG:
            if allow_any:
                # Wildcards cannot be namespaced with a simple shift; the
                # communicator still isolates because sources are exact
                # world ranks and user code sees only this comm's members.
                raise TagError(
                    "SubComm receives require an explicit tag (ANY_TAG "
                    "cannot be isolated between communicators)"
                )
            raise TagError("invalid tag")
        if not 0 <= tag < MAX_SUBCOMM_TAG:
            raise TagError(f"sub-communicator tags must be in [0, {MAX_SUBCOMM_TAG})")
        return TAG_STRIDE * (self._comm_id + 1) + tag

    # -- point-to-point --------------------------------------------------------------
    def isend(self, size: int, dest: int, tag: int = 0, payload: Any = None):
        world_dest = self._to_world(dest, "destination")
        req = yield from self._world.isend(
            size, world_dest, self._shift_tag(tag, allow_any=False), payload
        )
        return req

    def send(self, size: int, dest: int, tag: int = 0, payload: Any = None):
        req = yield from self.isend(size, dest, tag, payload)
        status = yield from self.wait(req)
        return status

    def irecv(self, source: int = ANY_SOURCE, tag: int = 0):
        world_source = (
            ANY_SOURCE if source == ANY_SOURCE else self._to_world(source, "source")
        )
        shifted = self._shift_tag(tag, allow_any=True)
        req = yield from self._world.irecv(world_source, shifted)
        return req

    def recv(self, source: int = ANY_SOURCE, tag: int = 0):
        req = yield from self.irecv(source, tag)
        result = yield from self.wait(req)
        return result

    def sendrecv(self, size, dest, source, sendtag=0, recvtag=0, payload=None):
        rreq = yield from self.irecv(source, recvtag)
        sreq = yield from self.isend(size, dest, sendtag, payload)
        payload_status = yield from self.wait(rreq)
        yield from self.wait(sreq)
        return payload_status

    def wait(self, req):
        result = yield from self._world.wait(req)
        if result is None:
            return None
        payload, status = result
        # Present the status in this communicator's rank/tag coordinates.
        translated = Status(
            source=self._from_world(status.source),
            tag=status.tag - TAG_STRIDE * (self._comm_id + 1),
            size=status.size,
            transit_time=status.transit_time,
            attempts=status.attempts,
        )
        return payload, translated

    def waitall(self, reqs):
        out = []
        for req in reqs:
            res = yield from self.wait(req)
            out.append(res)
        return out

    def test(self, req) -> bool:
        return self._world.test(req)

    # -- collectives -----------------------------------------------------------------
    def _next_coll_tag(self) -> int:
        # Upper half of the (unshifted) tag range is reserved for
        # collectives; point-to-point shifting namespaces it per comm.
        tag = MAX_SUBCOMM_TAG // 2 + (self._coll_seq % (MAX_SUBCOMM_TAG // 2))
        self._coll_seq += 1
        return tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubComm id={self._comm_id} rank={self.rank}/{self.size} "
            f"world={self._members}>"
        )
