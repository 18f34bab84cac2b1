"""The front router: one public socket over N shard server processes.

A :class:`ShardRouter` is the portable scale-out path (SO_REUSEPORT is
the zero-hop alternative where available): it accepts client
connections, parses each request with the same HTTP machinery the
shards use, and forwards it to the shard that *owns* the request --
consistent-hash routing (:mod:`.sharding`) on the content-addressed
routing key (:meth:`~.records.PredictRequest.routing_key`).  A key
always lands on the same shard, so the funnel's throughput tiers keep
working cluster-wide: each shard's LRU holds a disjoint key range,
singleflight collapses identical in-flight requests in one process,
and repeat traffic coalesces into its owner's micro-batches.

Fault handling, in preference-ring order:

* **dead shard** -- a transport failure (refused/reset/truncated) marks
  the backend down, fires ``on_down`` (the supervisor restarts it) and
  retries the request against the key's next ring owner.  Only the dead
  shard's hash range moves; every other key keeps its owner, and
  :meth:`mark_up` snaps the range back after restart.
* **shedding shard** -- a 503 (open circuit breaker, draining, or a
  cancelled singleflight leader) is *per-process* state, so the router
  retries once against the key's failover owner instead of bouncing the
  client; 429 admission shedding is returned verbatim (overload must
  stay visible to closed-loop clients).

Every ``/predict`` response gains an ``X-Repro-Shard`` header naming
the serving shard.  ``/metrics`` aggregates all live shards'
expositions (each series already carries its ``shard_id`` label) plus
the router's own; ``/healthz`` reports per-shard health.  Requests are
idempotent by the reproducibility contract, so cross-shard retries can
never change what a client receives -- only which process computes it.
"""

from __future__ import annotations

import asyncio
import json
import threading

from .metrics import ServiceMetrics
from .records import routing_key_for
from .server import (
    BadRequest,
    read_http_request,
    reject_bad_request,
    render_http_response,
)
from .sharding import DEFAULT_REPLICAS, HashRing

__all__ = ["Backend", "RouterThread", "ShardRouter"]

#: shard statuses a router retries against the failover owner: breaker
#: open / draining / leader-cancelled are per-process conditions another
#: shard may well not share.  429 is deliberately absent -- admission
#: shedding is load, and load must surface to the client.
FAILOVER_STATUSES = (503,)

#: headers copied from the client request onto the forwarded request
_FORWARD_HEADERS = (
    "content-type", "x-repro-trace", "x-repro-attempt", "x-repro-tenant",
)


class Backend:
    """One shard server process as the router sees it."""

    def __init__(self, shard_id: int, host: str, port: int):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        #: ``up`` (routable) | ``down`` (dead, range failed over) |
        #: ``draining`` (alive but excluded from new work)
        self.state = "up"
        #: idle keep-alive connections to this shard
        self._pool: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def close_pool(self) -> None:
        for _reader, writer in self._pool:
            writer.close()
        self._pool.clear()


class ShardRouter:
    """Asyncio front router with consistent-hash request routing."""

    def __init__(
        self,
        backends: list[Backend],
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = DEFAULT_REPLICAS,
        backend_timeout: float = 60.0,
        on_down=None,
    ):
        if not backends:
            raise ValueError("router needs at least one backend")
        self.host = host
        self.port = port
        self.backends: dict[int, Backend] = {
            b.shard_id: b for b in backends
        }
        #: ring over *all* configured shards; down/draining members are
        #: skipped at lookup so a recovered shard reclaims its range
        self.ring = HashRing(self.backends, replicas=replicas)
        self.backend_timeout = backend_timeout
        #: callback(shard_id) fired (loop thread) when a backend dies
        self.on_down = on_down
        self.metrics = ServiceMetrics(constant_labels={"shard_id": "router"})
        self.draining = False
        self._rr = 0  # round-robin cursor for keyless requests
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    # -- membership ------------------------------------------------------------
    def routable(self) -> list[Backend]:
        """Backends accepting new requests, in shard-id order."""
        return [
            b for _, b in sorted(self.backends.items()) if b.state == "up"
        ]

    def mark_down(self, shard_id: int) -> None:
        backend = self.backends[shard_id]
        if backend.state != "down":
            backend.state = "down"
            self.metrics.inc("repro_router_backend_down_total")
        backend.close_pool()

    def mark_draining(self, shard_id: int) -> None:
        backend = self.backends[shard_id]
        if backend.state == "up":
            backend.state = "draining"

    def mark_up(self, shard_id: int) -> None:
        self.backends[shard_id].state = "up"

    def _owners_for(self, key: str | None) -> list[Backend]:
        """Preference-ordered live backends for one request.

        With a key: the ring walk, dead/draining members skipped -- the
        first entry is the owner, the second the failover owner.
        Without one (unparseable request, plain GETs): round-robin, so
        validation errors and health probes spread evenly.
        """
        live = self.routable()
        if key is None:
            self._rr += 1
            n = len(live)
            return live[self._rr % n:] + live[: self._rr % n] if n else []
        order = self.ring.owners(key)
        by_id = {b.shard_id: b for b in live}
        return [by_id[sid] for sid in order if sid in by_id]

    # -- backend exchange ------------------------------------------------------
    async def _exchange(
        self, backend: Backend, raw_request: bytes
    ) -> tuple[int, dict, bytes]:
        """One request/response round trip on a pooled connection."""
        if backend._pool:
            reader, writer = backend._pool.pop()
            fresh = False
        else:
            reader, writer = await asyncio.open_connection(*backend.address)
            fresh = True
        try:
            writer.write(raw_request)
            await writer.drain()
            status, headers, payload = await self._read_response(reader)
        except (OSError, asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            if not fresh:
                # A pooled connection may simply have gone stale (shard
                # restarted, idle timeout): one clean retry on a fresh
                # connection before declaring the backend dead.
                reader, writer = await asyncio.open_connection(*backend.address)
                try:
                    writer.write(raw_request)
                    await writer.drain()
                    status, headers, payload = await self._read_response(reader)
                except (OSError, asyncio.IncompleteReadError, ConnectionError):
                    writer.close()
                    raise
            else:
                raise
        if headers.get("connection", "keep-alive") == "close":
            writer.close()
        else:
            backend._pool.append((reader, writer))
        return status, headers, payload

    @staticmethod
    async def _read_response(reader) -> tuple[int, dict, bytes]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("backend closed connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError("malformed backend status line")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        payload = await reader.readexactly(length) if length else b""
        return status, headers, payload

    def _serialise(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> bytes:
        lines = [f"{method} {target} HTTP/1.1", "Connection: keep-alive"]
        for name in _FORWARD_HEADERS:
            value = headers.get(name)
            if value is not None:
                lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + body

    async def _forward(
        self,
        key: str | None,
        method: str,
        target: str,
        headers: dict,
        body: bytes,
        failover: bool = True,
    ) -> tuple[int, dict, bytes, int | None]:
        """Route one request: ``(status, headers, payload, shard_id)``.

        Walks the key's preference ring: transport failures mark the
        backend down (firing ``on_down``) and move on; a
        :data:`FAILOVER_STATUSES` response is retried once against the
        next owner.  Exhausting the ring returns 503.
        """
        raw = self._serialise(method, target, headers, body)
        shed: tuple[int, dict, bytes, int] | None = None
        tried = 0
        for backend in self._owners_for(key):
            try:
                async with asyncio.timeout(self.backend_timeout):
                    status, resp_headers, payload = await self._exchange(
                        backend, raw
                    )
            except (OSError, asyncio.IncompleteReadError, ConnectionError,
                    TimeoutError):
                self.metrics.inc(
                    "repro_router_retries_total", reason="transport"
                )
                self.mark_down(backend.shard_id)
                if self.on_down is not None:
                    self.on_down(backend.shard_id)
                continue
            self.metrics.inc(
                "repro_router_requests_total", shard=str(backend.shard_id)
            )
            tried += 1
            if (
                failover
                and status in FAILOVER_STATUSES
                and shed is None
                and tried <= 1
            ):
                # The owner is shedding for a per-process reason; its
                # failover owner gets one chance before the client does.
                shed = (status, resp_headers, payload, backend.shard_id)
                self.metrics.inc(
                    "repro_router_failovers_total", reason=str(status)
                )
                continue
            return status, resp_headers, payload, backend.shard_id
        if shed is not None:
            return shed
        payload = json.dumps({"error": "no shards available"}).encode()
        return 503, {"retry-after": "1"}, payload, None

    # -- endpoints -------------------------------------------------------------
    async def _healthz(self) -> tuple[int, dict, bytes]:
        shards: dict[str, object] = {}
        up = 0
        for shard_id, backend in sorted(self.backends.items()):
            if backend.state == "down":
                shards[str(shard_id)] = {"status": "down"}
                continue
            try:
                async with asyncio.timeout(5.0):
                    status, _, payload = await self._exchange(
                        backend,
                        self._serialise("GET", "/healthz", {}, b""),
                    )
                doc = json.loads(payload) if status == 200 else {
                    "status": f"http {status}"
                }
            except (OSError, ConnectionError, ValueError, TimeoutError,
                    asyncio.IncompleteReadError):
                doc = {"status": "unreachable"}
            if doc.get("status") == "ok":
                up += 1
            doc["state"] = backend.state
            shards[str(shard_id)] = doc
        doc = {
            "status": "ok" if up else "degraded",
            "router": True,
            "draining": self.draining,
            "shards_up": up,
            "shards": shards,
        }
        return (200 if up else 503), {}, json.dumps(doc).encode()

    async def _metrics_text(self) -> bytes:
        """All live shards' expositions plus the router's own, with
        duplicate ``# TYPE`` headers dropped (each series is already
        unique thanks to the per-shard ``shard_id`` labels)."""
        chunks = [self.metrics.render_prometheus()]
        for backend in self.routable():
            try:
                async with asyncio.timeout(5.0):
                    status, _, payload = await self._exchange(
                        backend,
                        self._serialise("GET", "/metrics", {}, b""),
                    )
                if status == 200:
                    chunks.append(payload.decode())
            except (OSError, ConnectionError, TimeoutError,
                    asyncio.IncompleteReadError):
                continue
        seen_types: set[str] = set()
        lines: list[str] = []
        for chunk in chunks:
            for line in chunk.splitlines():
                if line.startswith("# TYPE"):
                    if line in seen_types:
                        continue
                    seen_types.add(line)
                lines.append(line)
        return ("\n".join(lines) + "\n").encode()

    async def _route(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple[int, dict, bytes, int | None]:
        path = target.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            status, extra, payload = await self._healthz()
            return status, extra, payload, None
        if path == "/metrics" and method == "GET":
            return 200, {"_ctype": "text/plain; version=0.0.4"}, (
                await self._metrics_text()
            ), None
        if path == "/predict":
            if self.draining:
                self.metrics.inc("repro_drain_rejected_total")
                payload = json.dumps({"error": "router draining"}).encode()
                return 503, {"retry-after": "1", "connection": "close"}, (
                    payload
                ), None
            key = None
            if method == "POST":
                try:
                    key = routing_key_for(json.loads(body) if body else {})
                except ValueError:
                    key = None  # the shard answers 400
            return await self._forward(key, method, target, headers, body)
        # Reads against shard state (/distributions, /trace, /chaos...)
        # go to one live shard -- ?shard=N pins a specific one.
        if "shard=" in target:
            try:
                wanted = int(
                    dict(
                        pair.split("=", 1)
                        for pair in target.split("?", 1)[1].split("&")
                        if "=" in pair
                    ).get("shard", "")
                )
            except ValueError:
                wanted = None
            backend = self.backends.get(wanted)
            if backend is not None and backend.state != "down":
                raw = self._serialise(method, target, headers, body)
                try:
                    async with asyncio.timeout(self.backend_timeout):
                        status, resp_headers, payload = await self._exchange(
                            backend, raw
                        )
                    return status, resp_headers, payload, backend.shard_id
                except (OSError, ConnectionError, TimeoutError,
                        asyncio.IncompleteReadError):
                    self.mark_down(backend.shard_id)
                    if self.on_down is not None:
                        self.on_down(backend.shard_id)
            payload = json.dumps({"error": "shard unavailable"}).encode()
            return 503, {"retry-after": "1"}, payload, None
        return await self._forward(None, method, target, headers, body)

    # -- connection handling ---------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except BadRequest as exc:
                    writer.write(reject_bad_request(exc, self.metrics))
                    await writer.drain()
                    break
                except (asyncio.IncompleteReadError, ConnectionError,
                        ValueError):
                    break
                if request is None:
                    break
                method, target, headers, body = request
                try:
                    status, resp_headers, payload, shard_id = await (
                        self._route(method, target, headers, body)
                    )
                except Exception as exc:  # pragma: no cover - last resort
                    self.metrics.inc("repro_router_errors_total")
                    status, resp_headers, shard_id = 502, {}, None
                    payload = json.dumps(
                        {"error": f"router error: {exc}"}
                    ).encode()
                ctype = resp_headers.pop(
                    "_ctype",
                    resp_headers.get("content-type", "application/json"),
                )
                extra = {
                    name: value
                    for name, value in resp_headers.items()
                    if name in ("retry-after", "x-repro-trace")
                }
                if shard_id is not None:
                    extra["X-Repro-Shard"] = str(shard_id)
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    and not self.draining
                )
                writer.write(
                    render_http_response(
                        status, payload, ctype, extra, keep_alive
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.metrics.register_gauge(
            "repro_router_backends_up", lambda: len(self.routable())
        )
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for backend in self.backends.values():
            backend.close_pool()


class RouterThread:
    """Run a :class:`ShardRouter` on a background thread with its own
    event loop -- the supervisor's (and tests') handle on the router.

    Membership mutations from other threads go through
    :meth:`mark_down` / :meth:`mark_up` / :meth:`mark_draining`, which
    hop onto the router's loop so backend state and connection pools
    are only ever touched from one thread.
    """

    def __init__(self, router: ShardRouter):
        self.router = router
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def __enter__(self) -> "RouterThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self.router.host, self.router.port

    def start(self) -> tuple[str, int]:
        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.router.start())
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.router.stop())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-router", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("router failed to start within 30s")
        return self.address

    def _call(self, fn, *args) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(fn, *args)
        else:
            fn(*args)

    def mark_down(self, shard_id: int) -> None:
        self._call(self.router.mark_down, shard_id)

    def mark_up(self, shard_id: int) -> None:
        self._call(self.router.mark_up, shard_id)

    def mark_draining(self, shard_id: int) -> None:
        self._call(self.router.mark_draining, shard_id)

    def set_draining(self) -> None:
        self._call(setattr, self.router, "draining", True)

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self._loop = None
