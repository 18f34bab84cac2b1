"""Malformed HTTP framing is answered, not dropped.

A request line that does not split into method/target/version and a
``Content-Length`` that is not a decimal byte count (``abc``, ``-5``)
each get a ``400`` with ``Connection: close``, and each is counted in
``repro_rejected_requests_total{reason}`` -- on a shard server and on
the front router, which share the request parser.  Raw sockets, since
no well-behaved client can send these.
"""

import asyncio

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.service import PredictionService, ServiceThread
from repro.simnet import perseus
from tests.service.test_sharding import _run_router_scenario

pytestmark = pytest.mark.service

MALFORMED = [
    ("content_length", b"POST /predict HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}"),
    ("content_length", b"POST /predict HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
    ("request_line", b"GARBAGE\r\n\r\n"),
]


async def _raw(host: str, port: int, data: bytes) -> bytes:
    """Send *data*, return everything the peer sends before closing."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    await writer.drain()
    response = await asyncio.wait_for(reader.read(), timeout=10)
    writer.close()
    return response


async def _exchange_all(host: str, port: int) -> str:
    """Send every malformed request, check each answer, then return the
    ``/metrics`` text scraped afterwards on a clean connection."""
    for _reason, data in MALFORMED:
        response = await _raw(host, port, data)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), response[:200]
        assert b"Connection: close" in head
        assert b"malformed request" in body
    # The server is still healthy for well-formed traffic.
    ok = await _raw(
        host, port, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    assert ok.startswith(b"HTTP/1.1 200 ")
    return ok.decode()


def _expected_counts() -> dict[str, int]:
    counts: dict[str, int] = {}
    for reason, _data in MALFORMED:
        counts[reason] = counts.get(reason, 0) + 1
    return counts


def test_server_answers_malformed_framing_with_counted_400():
    db = MPIBench(
        perseus(4), seed=1, settings=BenchSettings(reps=5, warmup=1)
    ).sweep_isend([(2, 1)], sizes=[0, 1024])
    with ServiceThread(PredictionService(db, spec=perseus(4))) as thread:
        host, port = thread.address
        metrics = asyncio.run(_exchange_all(host, port))
    for reason, count in _expected_counts().items():
        assert (
            f'repro_rejected_requests_total{{reason="{reason}"}} {count}'
            in metrics
        )


def test_router_answers_malformed_framing_with_counted_400():
    async def scenario(router, shards, downs):
        metrics = await _exchange_all(router.host, router.port)
        for reason, count in _expected_counts().items():
            assert (
                f'repro_rejected_requests_total{{reason="{reason}",'
                f'shard_id="router"}} {count}' in metrics
            )
        # Nothing malformed was forwarded to a shard.
        assert all(
            target == "/metrics" for shard in shards for target in shard.requests
        )
        assert not downs

    _run_router_scenario(scenario)
