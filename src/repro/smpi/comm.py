"""The simulated MPI communicator: point-to-point operations.

Rank programs are Python generators; every communication call on
:class:`Comm` is itself a generator and must be invoked with ``yield
from``::

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1024, dest=1, tag=7)
        else:
            payload, status = yield from comm.recv(source=0, tag=7)

Protocol semantics mirror MPICH 1.2 over TCP, because those produced the
paper's measurements:

* **eager** (size <= ``spec.eager_threshold``, 16 KB on Perseus): the send
  returns after the sender-side software overhead; the message travels
  asynchronously and is buffered at the receiver if no receive is posted.
* **rendezvous** (larger): the sender issues a ready-to-send (RTS) control
  message, waits for clear-to-send (CTS) -- which the receiver only issues
  once a matching receive is posted -- then transfers the data.  The send
  completes when the data transfer does.  The protocol switch is what
  causes the knee at 16 KB in the paper's Figure 2.
* messages between a given rank pair are delivered in order (one TCP
  connection per pair).

Software costs (per-message overhead plus per-byte copy, from
``spec.host``) are charged to the calling rank's virtual CPU.
"""

from __future__ import annotations

from typing import Any

from ..simnet.engine import Event
from .collectives import Collectives
from .matching import Envelope, EnvelopeKind, Mailbox, PostedRecv
from .request import Request, RequestKind
from .status import ANY_SOURCE, ANY_TAG, RankError, Status, TagError

__all__ = ["Comm", "CommStats", "CTRL_MSG_BYTES", "MAX_USER_TAG"]

#: wire size of RTS / CTS rendezvous control messages
CTRL_MSG_BYTES = 64
#: user tags must stay below this; the collective algorithms use the tag
#: space above it.
MAX_USER_TAG = 1 << 20


class CommStats:
    """Per-rank communication counters (the PMPI profiling view).

    *send_time* counts the CPU time spent inside send calls; *recv_wait*
    the time between calling wait on a receive and its completion
    (including the receive-side copy).  Together with the program's own
    compute time they decompose a rank's wall clock the same way PEVPM's
    loss attribution decomposes its virtual time -- so measurements and
    model attribution are directly comparable.
    """

    __slots__ = (
        "sends", "recvs", "bytes_sent", "bytes_received",
        "send_time", "recv_wait", "compute_time",
    )

    def __init__(self):
        self.sends = 0
        self.recvs = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_time = 0.0
        self.recv_wait = 0.0
        self.compute_time = 0.0

    def as_dict(self) -> dict:
        return {
            "sends": self.sends,
            "recvs": self.recvs,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "send_time": self.send_time,
            "recv_wait": self.recv_wait,
            "compute_time": self.compute_time,
        }

    def comm_time(self) -> float:
        """Total time attributable to communication."""
        return self.send_time + self.recv_wait


class Comm(Collectives):
    """Per-rank communicator handle (the simulated ``MPI_COMM_WORLD``).

    Created by :class:`repro.smpi.runtime.MpiRun`; one instance per rank.
    """

    def __init__(self, runtime, rank: int):
        self._rt = runtime
        self.rank = rank
        self._coll_seq = 0  # per-rank collective sequence number
        #: PMPI-style per-rank communication statistics, updated by every
        #: operation; see :class:`CommStats`.
        self.stats = CommStats()
        self._split_seq = 0  # collective-order counter for comm.split

    # -- introspection ---------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the job (``MPI_Comm_size``)."""
        return self._rt.nprocs

    @property
    def node(self) -> int:
        """Cluster node this rank runs on."""
        return self._rt.node_of(self.rank)

    @property
    def sim(self):
        """The underlying simulator (for timeouts etc.)."""
        return self._rt.sim

    # -- clocks ------------------------------------------------------------------
    def clock(self) -> float:
        """This rank's *local* clock reading -- skewed, like ``MPI_Wtime``
        on a real node.  Benchmark code must synchronise (see
        :mod:`repro.mpibench.clocksync`) before comparing readings across
        ranks."""
        return self._rt.clocks.local_time(self.node, self._rt.sim.now)

    def true_time(self) -> float:
        """Simulator ground-truth time.  Only for validation/tests; a real
        cluster has no such clock."""
        return self._rt.sim.now

    # -- computation ---------------------------------------------------------------
    def compute(self, seconds: float):
        """Occupy this rank's CPU for *seconds* of simulated work."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        if seconds > 0:
            self.stats.compute_time += seconds
            yield self._rt.sim.timeout(seconds)
        return None

    # -- validation helpers -----------------------------------------------------------
    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise RankError(f"{what} {rank} outside communicator of size {self.size}")

    def _check_tag(self, tag: int, allow_any: bool) -> None:
        if tag == ANY_TAG and allow_any:
            return
        if tag < 0:
            raise TagError(f"invalid tag {tag}")

    # -- point-to-point: sends ------------------------------------------------------
    def isend(self, size: int, dest: int, tag: int = 0, payload: Any = None):
        """Nonblocking send (``MPI_Isend``).  Generator; returns a
        :class:`~repro.smpi.request.Request`.

        The sender-side software overhead is charged inline (the calling
        rank is busy for it); the network transfer proceeds concurrently.
        """
        self._check_rank(dest, "destination")
        self._check_tag(tag, allow_any=False)
        if size < 0:
            raise ValueError("message size must be non-negative")
        rt = self._rt
        host = rt.spec.host
        overhead = host.send_overhead + size * host.byte_copy_cost
        self.stats.sends += 1
        self.stats.bytes_sent += size
        self.stats.send_time += overhead
        if overhead > 0:
            yield rt.sim.timeout(overhead)

        if size <= rt.spec.eager_threshold:
            completion = rt.sim.event(name=f"isend-eager:{self.rank}->{dest}")
            completion.succeed(None)  # eager send is locally complete
            rt.spawn_system(
                self._eager_transfer(dest, tag, size, payload),
                name=f"eager:{self.rank}->{dest}:t{tag}",
            )
        else:
            completion = rt.sim.event(name=f"isend-rndv:{self.rank}->{dest}")
            rt.spawn_system(
                self._rendezvous_send(dest, tag, size, payload, completion),
                name=f"rndv:{self.rank}->{dest}:t{tag}",
            )
        return Request(RequestKind.SEND, completion, peer=dest, tag=tag, size=size)

    def send(self, size: int, dest: int, tag: int = 0, payload: Any = None):
        """Blocking send (``MPI_Send``) = isend + wait."""
        req = yield from self.isend(size, dest, tag, payload)
        status = yield from self.wait(req)
        return status

    def issend(self, size: int, dest: int, tag: int = 0, payload: Any = None):
        """Nonblocking *synchronous* send (``MPI_Issend``): the request
        completes only once the matching receive is posted, regardless of
        message size -- i.e. the rendezvous protocol is forced.  Useful to
        expose unsafe send/recv orderings that eager buffering hides."""
        self._check_rank(dest, "destination")
        self._check_tag(tag, allow_any=False)
        if size < 0:
            raise ValueError("message size must be non-negative")
        rt = self._rt
        host = rt.spec.host
        overhead = host.send_overhead + size * host.byte_copy_cost
        self.stats.sends += 1
        self.stats.bytes_sent += size
        self.stats.send_time += overhead
        if overhead > 0:
            yield rt.sim.timeout(overhead)
        completion = rt.sim.event(name=f"issend:{self.rank}->{dest}")
        rt.spawn_system(
            self._rendezvous_send(dest, tag, size, payload, completion),
            name=f"ssend:{self.rank}->{dest}:t{tag}",
        )
        return Request(RequestKind.SEND, completion, peer=dest, tag=tag, size=size)

    def ssend(self, size: int, dest: int, tag: int = 0, payload: Any = None):
        """Blocking synchronous send (``MPI_Ssend``) = issend + wait."""
        req = yield from self.issend(size, dest, tag, payload)
        status = yield from self.wait(req)
        return status

    def _eager_transfer(self, dest: int, tag: int, size: int, payload: Any):
        """System process: move an eager message and deliver it."""
        rt = self._rt
        seq = rt.pair_seq(self.rank, dest)
        delivery = yield rt.network.send(self.node, rt.node_of(dest), size)
        yield from rt.pair_fifo(self.rank, dest, seq)
        env = Envelope(
            kind=EnvelopeKind.EAGER,
            source=self.rank,
            tag=tag,
            size=size,
            payload=payload,
            arrival_time=rt.sim.now,
            transit_time=delivery.transit_time,
            attempts=delivery.attempts,
        )
        rt.deliver(dest, env)

    def _rendezvous_send(
        self, dest: int, tag: int, size: int, payload: Any, completion: Event
    ):
        """System process: RTS -> (receiver CTS) -> data -> completion."""
        rt = self._rt
        src_node, dst_node = self.node, rt.node_of(dest)

        # Ready-to-send control message.
        seq = rt.pair_seq(self.rank, dest)
        yield rt.network.send(src_node, dst_node, CTRL_MSG_BYTES)
        yield from rt.pair_fifo(self.rank, dest, seq)

        def on_match(posted: PostedRecv) -> None:
            rt.spawn_system(
                self._rendezvous_finish(posted, dest, tag, size, payload, completion),
                name=f"rndv-fin:{self.rank}->{dest}",
            )

        env = Envelope(
            kind=EnvelopeKind.RTS,
            source=self.rank,
            tag=tag,
            size=size,
            payload=payload,
            arrival_time=rt.sim.now,
            on_match=on_match,
        )
        rt.deliver(dest, env)

    def _rendezvous_finish(
        self,
        posted: PostedRecv,
        dest: int,
        tag: int,
        size: int,
        payload: Any,
        completion: Event,
    ):
        """System process started when the RTS matches a posted receive:
        CTS back to the sender, then the data transfer."""
        rt = self._rt
        src_node, dst_node = self.node, rt.node_of(dest)

        # Clear-to-send travels receiver -> sender.
        cts_seq = rt.pair_seq(dest, self.rank)
        yield rt.network.send(dst_node, src_node, CTRL_MSG_BYTES)
        yield from rt.pair_fifo(dest, self.rank, cts_seq)

        # Data transfer sender -> receiver.
        data_seq = rt.pair_seq(self.rank, dest)
        delivery = yield rt.network.send(src_node, dst_node, size)
        yield from rt.pair_fifo(self.rank, dest, data_seq)

        env = Envelope(
            kind=EnvelopeKind.EAGER,  # by now it is just data
            source=self.rank,
            tag=tag,
            size=size,
            payload=payload,
            arrival_time=rt.sim.now,
            transit_time=delivery.transit_time,
            attempts=delivery.attempts,
        )
        completion.succeed(delivery)
        posted.event.succeed(env)

    # -- point-to-point: receives -----------------------------------------------------
    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking receive (``MPI_Irecv``).  Generator; returns a
        :class:`~repro.smpi.request.Request`."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        self._check_tag(tag, allow_any=True)
        rt = self._rt
        event = rt.sim.event(name=f"recv:{self.rank}<-{source}:t{tag}")
        posted = PostedRecv(source=source, tag=tag, event=event)
        env = rt.mailbox(self.rank).post(posted)
        if env is not None:
            # An unexpected message was already waiting.
            if env.kind is EnvelopeKind.RTS:
                env.on_match(posted)
            else:
                event.succeed(env)
        return Request(RequestKind.RECV, event, peer=source, tag=tag, size=-1)
        yield  # pragma: no cover -- keeps the comm API uniformly generator-based

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (``MPI_Recv``) = irecv + wait.

        Returns ``(payload, Status)``.
        """
        req = yield from self.irecv(source, tag)
        result = yield from self.wait(req)
        return result

    def sendrecv(
        self,
        size: int,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        payload: Any = None,
    ):
        """Combined exchange (``MPI_Sendrecv``): both directions proceed
        concurrently, avoiding the deadlock of two blocking sends.

        Returns ``(recv_payload, Status)``.
        """
        rreq = yield from self.irecv(source, recvtag)
        sreq = yield from self.isend(size, dest, sendtag, payload)
        result = yield from self.wait(rreq)
        yield from self.wait(sreq)
        return result

    # -- completion -----------------------------------------------------------------
    def wait(self, req: Request):
        """Complete a request (``MPI_Wait``).

        For send requests returns ``None``; for receive requests charges
        the receive-side software overhead and returns ``(payload,
        Status)``.
        """
        if req.consumed:
            raise ValueError("request already waited on")
        t0 = self._rt.sim.now
        value = yield req.completion
        req._mark_consumed()
        if req.kind is RequestKind.SEND:
            self.stats.send_time += self._rt.sim.now - t0
            return None
        env: Envelope = value
        rt = self._rt
        host = rt.spec.host
        overhead = host.recv_overhead + env.size * host.byte_copy_cost
        self.stats.recvs += 1
        self.stats.bytes_received += env.size
        if overhead > 0:
            yield rt.sim.timeout(overhead)
        self.stats.recv_wait += rt.sim.now - t0
        status = Status(
            source=env.source,
            tag=env.tag,
            size=env.size,
            transit_time=env.transit_time,
            attempts=env.attempts,
        )
        return (env.payload, status)

    def waitall(self, reqs: list[Request]):
        """Complete several requests; returns their results in order."""
        results = []
        for req in reqs:
            res = yield from self.wait(req)
            results.append(res)
        return results

    def test(self, req: Request) -> bool:
        """Nonblocking completion check (``MPI_Test`` flag).  Does not
        consume the request; call :meth:`wait` to retrieve the result."""
        return req.complete

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking probe of the unexpected queue (``MPI_Iprobe``).

        Returns a :class:`Status` for the first matching buffered message,
        or ``None``.  Note: only sees messages that have already arrived.
        """
        env = self._rt.mailbox(self.rank).probe(source, tag)
        if env is None:
            return None
        return Status(source=env.source, tag=env.tag, size=env.size)

    # -- collectives (the methods come from collectives.Collectives) -----------------
    def _next_coll_tag(self) -> int:
        """Tag for the next collective: all ranks call collectives in the
        same order, so per-rank counters agree."""
        tag = MAX_USER_TAG + (self._coll_seq % MAX_USER_TAG)
        self._coll_seq += 1
        return tag

    def split(self, color, key: int | None = None):
        """Collective communicator split (``MPI_Comm_split``).

        Every rank of the world communicator must call this; ranks passing
        the same *color* form a new communicator, ordered by (*key*, world
        rank).  Pass ``color=None`` to opt out (``MPI_UNDEFINED``); such
        ranks receive ``None``.  Generator: ``sub = yield from
        comm.split(color)``.
        """
        from .subcomm import SubComm

        key = self.rank if key is None else key
        entries = yield from self.allgather(16, payload=(color, key, self.rank))
        seq = self._split_seq
        self._split_seq += 1
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in entries if c == color
        )
        colors = sorted({c for c, _k, _r in entries if c is not None}, key=repr)
        comm_id = seq * 4096 + colors.index(color)
        return SubComm(self, [r for _k, r in members], comm_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm rank={self.rank}/{self.size} node={self.node}>"
