"""The always-on simulation service (``python -m repro serve``).

An asyncio HTTP/1.1 server speaking the thin JSON protocol of
:mod:`repro.serve.protocol`.  Simulation is CPU-bound and synchronous,
so request bodies are validated on the event loop and the actual work
runs on a thread pool, through the same memoized sweep runners the
offline CLI uses — which is what keeps served responses byte-identical
to ``python -m repro``.

Every response is keyed into the process-wide shared cache tier
(:class:`repro.checkpoint.SharedCacheTier`) under its canonical,
context-qualified request key; behind it the tier also holds the memo
runners' sweep points, the job engine's comm phases and node-class
simulations.  The second identical request — from any client, or any
other process pointed at the same cache directory — is a disk read.

Per-request telemetry rides the obs stack: request/hit/miss/error
counters and a latency histogram in the metrics registry, plus one
JSONL record per request in ``<telemetry>/requests.jsonl`` (rendered
by ``python -m repro report`` as a "Service requests" section).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import checkpoint as _checkpoint
from ..harness import (
    attach_runner_store,
    detach_resume,
    experiment_catalog,
)
from ..harness.sweep import run_scaled_vnm, run_smp1, run_vnm
from ..obs import metrics as _metrics
from ..obs.logging import get_logger, kv
from ..parallel import (
    cache_context,
    get_batch_sweep,
    get_vectorize,
    set_batch_sweep,
    warm,
)
from .protocol import (
    PROTOCOL_VERSION,
    ExperimentRequest,
    RequestError,
    SweepRequest,
    request_cache_key,
    request_hash,
)

_log = get_logger("serve")

_REQUESTS = _metrics.counter("serve.requests")
_HITS = _metrics.counter("serve.cache_hits")
_MISSES = _metrics.counter("serve.cache_misses")
_ERRORS = _metrics.counter("serve.errors")
_REQ_SECONDS = _metrics.histogram("serve.request_seconds")

#: Response-cache category in the shared tier.
RESPONSE_CATEGORY = "serve.response"


class _RawResponse(dict):
    """A response whose JSON body is already rendered.

    Behaves like the ``{"request_id", "cache"}`` dict for telemetry,
    but carries the exact bytes to put on the wire so cache hits never
    re-encode the payload.
    """

    __slots__ = ("raw",)

    @classmethod
    def splice(cls, rid: str, cache: str, body: str) -> "_RawResponse":
        # body is a non-empty JSON object rendered by json.dumps, so
        # prepending our fields after its opening brace stays valid
        self = cls({"request_id": rid, "cache": cache})
        self.raw = (f'{{"cache":"{cache}","request_id":"{rid}",'
                    + body[1:] + "\n").encode()
        return self

#: Socket read budget per request (headers and body alike).
_IO_TIMEOUT = 60.0
#: Largest accepted request body.
_MAX_BODY = 4 * 1024 * 1024


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can set."""

    host: str = "127.0.0.1"
    port: int = 0                    #: 0 = ephemeral, see bound_port
    cache_dir: str = ".repro-cache"
    max_records: int = 4096
    max_bytes: int = 512 * 1024 * 1024
    max_active: int = 4              #: concurrently simulating requests
    telemetry_dir: Optional[str] = None
    batch_sweep: bool = False        #: cross-point batched sweep engine
    pin_figures: bool = False        #: pin + pre-fill the figure set


def _execute_sweep(request: SweepRequest) -> Dict[str, Any]:
    """Run every point of one sweep request (thread-pool target).

    The memoized sweep runners are the unit of work: missing points
    warm in one batched pass first (a no-op unless the batched sweep
    engine is on), then each point is collected in request order from
    the caches — the identical code path the offline harness takes.
    """
    warm(run_vnm, [(p.code, p.flag_set(), p.l3_mb, p.problem_class)
                   for p in request.points if p.kind == "vnm"])
    warm(run_smp1, [(p.code, p.flag_set(), p.l3_mb, p.problem_class)
                    for p in request.points if p.kind == "smp1"])
    warm(run_scaled_vnm,
         [(p.code, p.flag_set(), p.num_ranks, p.l3_mb, p.problem_class)
          for p in request.points if p.kind == "scaled"])
    points: List[Dict[str, Any]] = []
    for point in request.points:
        if point.kind == "vnm":
            job = run_vnm(point.code, point.flag_set(), point.l3_mb,
                          point.problem_class)
        elif point.kind == "smp1":
            job = run_smp1(point.code, point.flag_set(), point.l3_mb,
                           point.problem_class)
        else:
            job = run_scaled_vnm(point.code, point.flag_set(),
                                 point.num_ranks, point.l3_mb,
                                 point.problem_class)
        points.append({"point": point.canonical(),
                       "result": job.to_dict()})
    return {"points": points}


def _execute_experiment(request: ExperimentRequest) -> Dict[str, Any]:
    """Run one catalog experiment (thread-pool target)."""
    result = experiment_catalog()[request.experiment_id]()
    return {"id": request.experiment_id, "result": result.to_dict()}


class SimulationService:
    """One running service: socket, scheduler, shared tier, telemetry."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.tier: Optional[_checkpoint.SharedCacheTier] = None
        self._ready = threading.Event()
        self._bound_port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._inflight = 0
        self._telemetry_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._catalog_ids = tuple(experiment_catalog())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> Optional[int]:
        """The actual listening port (after startup; ephemeral-safe)."""
        return self._bound_port

    def run(self) -> int:
        """Serve until shutdown is requested; returns an exit code."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 130
        return 0

    def start_in_thread(self, timeout: float = 30.0) -> threading.Thread:
        """Run the service on a daemon thread; wait until it listens."""
        thread = threading.Thread(target=self.run, name="repro-serve",
                                  daemon=True)
        thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start listening "
                               f"within {timeout}s")
        return thread

    def request_stop(self) -> None:
        """Ask the service to shut down (thread-safe)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _serve(self) -> None:
        config = self.config
        if config.batch_sweep:
            set_batch_sweep(True)
        self.tier = _checkpoint.install_shared_tier(
            config.cache_dir, max_records=config.max_records,
            max_bytes=config.max_bytes)
        attach_runner_store(self.tier)
        if config.pin_figures:
            from ..harness import (
                pin_figure_working_set,
                prefill_figure_working_set,
            )
            pinned = pin_figure_working_set(self.tier)
            filled = prefill_figure_working_set()
            _log.info(kv("serve.figures_pinned", records=pinned,
                         prefilled=filled))
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._sem = asyncio.Semaphore(max(1, config.max_active))
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, config.max_active),
            thread_name_prefix="serve-sim")
        if config.telemetry_dir:
            os.makedirs(config.telemetry_dir, exist_ok=True)
        server = await asyncio.start_server(
            self._handle_connection, config.host, config.port)
        self._bound_port = server.sockets[0].getsockname()[1]
        _log.info(kv("serve.listening", host=config.host,
                     port=self._bound_port,
                     cache_dir=config.cache_dir))
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
                # drain: finish in-flight requests before tearing down
                while self._inflight > 0:
                    await asyncio.sleep(0.01)
        finally:
            self._pool.shutdown(wait=True)
            detach_resume()
            _checkpoint.uninstall_shared_tier()
            if config.batch_sweep:
                set_batch_sweep(False)
            self._export_telemetry()
            self._ready.clear()
            _log.info(kv("serve.stopped", port=self._bound_port))

    def _export_telemetry(self) -> None:
        directory = self.config.telemetry_dir
        if not directory:
            return
        try:
            path = _metrics.REGISTRY.export_json(
                os.path.join(directory, "metrics.json"))
            _log.info(kv("serve.telemetry", path=path))
        except OSError as exc:  # pragma: no cover - disk trouble
            _log.warning(kv("serve.telemetry_failed",
                            error=type(exc).__name__))

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._inflight += 1
        start = time.perf_counter()
        status, payload, path = 500, {"error": "internal error"}, "?"
        try:
            try:
                method, path, body = await self._read_request(reader)
                status, payload = await self._route(method, path, body)
            except RequestError as exc:
                status, payload = 400, {"error": str(exc)}
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ValueError) as exc:
                status, payload = 400, {"error": f"bad request: "
                                        f"{type(exc).__name__}"}
            except Exception as exc:  # noqa: BLE001 - boundary
                _log.warning(kv("serve.request_error", path=path,
                                error=type(exc).__name__,
                                detail=str(exc)[:200]))
                status, payload = 500, {"error": f"internal error: "
                                        f"{type(exc).__name__}"}
            seconds = time.perf_counter() - start
            self._note_request(path, status, seconds,
                               payload.get("cache"),
                               payload.get("request_id"))
            await self._write_response(writer, status, payload)
        finally:
            self._inflight -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        request_line = await asyncio.wait_for(reader.readline(),
                                              _IO_TIMEOUT)
        if not request_line:
            raise RequestError("empty request")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise RequestError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), _IO_TIMEOUT)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise RequestError("bad Content-Length") from None
        if length > _MAX_BODY:
            raise RequestError(f"request body over {_MAX_BODY} bytes")
        body = b""
        if length:
            body = await asyncio.wait_for(reader.readexactly(length),
                                          _IO_TIMEOUT)
        return method, path, body

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              payload: Dict[str, Any]) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 500: "Internal Server Error"}
        if isinstance(payload, _RawResponse):
            body = payload.raw
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing + scheduling
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz" and method == "GET":
            return 200, self._health()
        if path == "/stats" and method == "GET":
            return 200, self._stats()
        if path == "/v1/shutdown" and method == "POST":
            assert self._stop is not None
            self._stop.set()
            return 200, {"ok": True, "stopping": True}
        if path in ("/v1/sweep", "/v1/experiment"):
            if method != "POST":
                return 405, {"error": f"{path} requires POST"}
            try:
                data = json.loads(body.decode() or "null")
            except json.JSONDecodeError as exc:
                raise RequestError(f"body is not JSON: {exc}") from None
            if path == "/v1/sweep":
                request = SweepRequest.from_dict(data)
                return await self._run_cached(request.canonical(),
                                              _execute_sweep, request)
            request = ExperimentRequest.from_dict(data,
                                                  self._catalog_ids)
            return await self._run_cached(request.canonical(),
                                          _execute_experiment, request)
        return 404, {"error": f"no route for {method} {path}"}

    def _health(self) -> Dict[str, Any]:
        from ..groups import get_active_group_name
        return {"ok": True, "protocol": PROTOCOL_VERSION,
                "group": get_active_group_name(),
                "vectorize": get_vectorize(),
                "batch_sweep": get_batch_sweep()}

    def _stats(self) -> Dict[str, Any]:
        usage = self.tier.usage() if self.tier is not None else {}
        return {
            "requests": _REQUESTS.value,
            "cache_hits": _HITS.value,
            "cache_misses": _MISSES.value,
            "errors": _ERRORS.value,
            "tier": {
                "hits": _metrics.counter("checkpoint.tier.hits").value,
                "misses":
                    _metrics.counter("checkpoint.tier.misses").value,
                "evictions":
                    _metrics.counter("checkpoint.tier.evictions").value,
                **usage,
            },
        }

    async def _run_cached(self, canonical: Dict[str, Any],
                          compute: Callable[[Any], Dict[str, Any]],
                          request: Any) -> Tuple[int, Dict[str, Any]]:
        """Serve one validated request through the response cache.

        The cached record holds the *pre-rendered* payload body (one
        JSON string), so a hit is a disk read plus a prefix splice —
        no structured decode/re-encode of a potentially multi-megabyte
        sweep result on the hot path.
        """
        assert self.tier is not None and self._loop is not None
        key = request_cache_key(canonical)
        rid = request_hash(canonical)
        cached = await self._loop.run_in_executor(
            self._pool, self.tier.get, RESPONSE_CATEGORY, key)
        if cached is not None:
            _HITS.inc()
            return 200, _RawResponse.splice(rid, "hit", cached["body"])
        async with self._sem:
            payload = await self._loop.run_in_executor(
                self._pool, compute, request)
        _MISSES.inc()
        body = json.dumps(payload, sort_keys=True)
        await self._loop.run_in_executor(
            self._pool, self.tier.put, RESPONSE_CATEGORY, key,
            {"body": body})
        return 200, _RawResponse.splice(rid, "miss", body)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _note_request(self, path: str, status: int, seconds: float,
                      cache: Optional[str],
                      request_id: Optional[str]) -> None:
        _REQUESTS.inc()
        if status >= 400:
            _ERRORS.inc()
        _REQ_SECONDS.observe(seconds)
        _log.info(kv("serve.request", path=path, status=status,
                     seconds=seconds, cache=cache))
        directory = self.config.telemetry_dir
        if not directory:
            return
        record = {"kind": "request", "path": path, "status": status,
                  "seconds": round(seconds, 6), "cache": cache,
                  "request_id": request_id,
                  "context": [list(pair) for pair in cache_context()]}
        line = json.dumps(record, sort_keys=True)
        with self._telemetry_lock:
            with open(os.path.join(directory, "requests.jsonl"),
                      "a") as fh:
                fh.write(line + "\n")
            # metrics.json tracks the request log incrementally (its
            # export is atomic: temp file + rename), so a crashed or
            # SIGKILLed service still leaves consistent counters behind
            # instead of only exporting at clean shutdown
            try:
                _metrics.REGISTRY.export_json(
                    os.path.join(directory, "metrics.json"))
            except OSError:  # pragma: no cover - disk trouble
                pass
