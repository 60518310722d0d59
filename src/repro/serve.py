"""The compile daemon: ``python -m repro serve``.

A long-lived asyncio server that keeps the compiler warm -- memoized
prelude, per-worker memory caches over one shared on-disk store -- so
clients pay per-request compile cost (or a cache probe) instead of
per-invocation cold start (interpreter boot, imports, prelude compile,
pool spawn).  Two transports speak the same versioned schema
(:mod:`repro.api`):

* a **unix socket** carrying newline-delimited JSON: one request object
  per line, one response object per line, many requests per connection;
* an optional **HTTP** listener: ``POST /`` with the same JSON body,
  ``GET /metrics`` (Prometheus text: the existing compiler exporter over
  running totals, plus server gauges -- queue depth, in-flight count,
  per-op latency histograms, cache hit ratio), ``GET /healthz``.

Compilation is CPU-bound, so requests execute on a thread pool of
``--jobs`` workers; each worker thread owns a
:class:`repro.api.CompilerService` with its own memory LRU over the shared
disk cache and a small response cache keyed by the client-supplied
``cache_key`` (see :func:`repro.api.request_fingerprint`), so a repeated
request is answered without touching the pipeline at all.  The asyncio
side enforces **backpressure**: past ``--max-queue`` waiting requests a
``busy`` error is returned immediately (never a hang), monitoring ops
(``ping``/``stats``) always answer inline, and every queued request
carries a timeout.  Shutdown (signal or ``shutdown`` op) is graceful: the
listeners close, in-flight work drains, then the process exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .api import (
    API_VERSION,
    ApiError,
    CompilerService,
    INLINE_OPS,
    check_request,
    error_response,
    ok_response,
    options_from_wire,
)
from .cache import CompilationCache
from .errors import ReproError
from .options import CompilerOptions
from .trace import merge_diagnostics_totals, new_metric_totals, \
    prometheus_from_totals

#: Histogram bucket upper bounds (seconds) for per-op request latency.
LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0)

#: How many recent request ids the server keeps for the stats payload.
RECENT_REQUEST_IDS = 64

#: Default cap on one request's wire size (socket line or HTTP body).
#: asyncio streams default to a 64 KiB limit, far below a realistic
#: source file; this is also the bound the HTTP handler enforces on
#: Content-Length so a client cannot make the daemon buffer arbitrary
#: amounts of memory.
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024


def request_trace_id(request: Any) -> Optional[str]:
    """The client-supplied ``trace_id`` of a parsed request, if any."""
    if isinstance(request, Mapping):
        value = request.get("trace_id")
        if isinstance(value, str) and value:
            return value
    return None


def tag_response(response: Dict[str, Any], trace_id: Optional[str]
                 ) -> Tuple[Dict[str, Any], str]:
    """Every response envelope identifies its request: the client's
    ``trace_id`` echoed back, or a server-minted ``request_id`` when the
    client sent none.  Both fields are additive, so old clients are
    unaffected; returns ``(response, the id used)``."""
    if trace_id is not None:
        response["trace_id"] = trace_id
        return response, trace_id
    request_id = "req-" + uuid.uuid4().hex[:12]
    response["request_id"] = request_id
    return response, request_id


def _socket_answers(path: str, timeout: float = 0.5) -> bool:
    """True when something accepts connections on the unix socket *path*
    -- distinguishes a live daemon (refuse to steal its address) from a
    stale socket file left by a crash (safe to unlink)."""
    import socket as _socket

    probe = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
    probe.settimeout(timeout)
    try:
        probe.connect(path)
    except OSError:
        return False
    else:
        return True
    finally:
        probe.close()


class ServerMetrics:
    """Thread-safe counters/gauges/histograms for one server, rendered in
    the Prometheus text format next to the compiler's own exporter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.busy = 0
        self.timeouts = 0
        self.latency: Dict[str, List[int]] = {}
        self.latency_sum: Dict[str, float] = {}
        self.diagnostics_totals = new_metric_totals()
        #: Bounded journal of recently answered requests (id, op, seconds,
        #: ok) -- the /metrics-adjacent stats payload exposes it so a
        #: traced client round trip can be located server-side by id.
        self.recent: "deque" = deque(maxlen=RECENT_REQUEST_IDS)
        self.started = time.time()

    def observe(self, op: str, seconds: float, ok: bool) -> None:
        with self._lock:
            self.requests[op] = self.requests.get(op, 0) + 1
            if not ok:
                self.errors[op] = self.errors.get(op, 0) + 1
            buckets = self.latency.setdefault(
                op, [0] * (len(LATENCY_BUCKETS) + 1))
            for index, bound in enumerate(LATENCY_BUCKETS):
                if seconds <= bound:
                    buckets[index] += 1
                    break
            else:
                buckets[-1] += 1
            self.latency_sum[op] = self.latency_sum.get(op, 0.0) + seconds

    def note_request(self, request_id: str, op: str, seconds: float,
                     ok: bool) -> None:
        with self._lock:
            self.recent.append({"id": request_id, "op": op,
                                "seconds": round(seconds, 6), "ok": ok})

    def recent_requests(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self.recent)

    def count_busy(self) -> None:
        with self._lock:
            self.busy += 1

    def count_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def merge_diagnostics(self, diagnostics: Mapping[str, Any]) -> None:
        with self._lock:
            merge_diagnostics_totals(self.diagnostics_totals, diagnostics)

    def cache_hit_ratio(self) -> float:
        with self._lock:
            counters = self.diagnostics_totals["counters"]
            hits = counters.get("cache_hits", 0)
            misses = counters.get("cache_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    def render(self, queue_depth: int, in_flight: int) -> str:
        """The /metrics document: server gauges + the compiler exporter."""
        with self._lock:
            lines = [
                "# HELP repro_server_uptime_seconds Seconds since the "
                "daemon started.",
                "# TYPE repro_server_uptime_seconds gauge",
                f"repro_server_uptime_seconds "
                f"{time.time() - self.started:.3f}",
                "# HELP repro_server_queue_depth Requests waiting for a "
                "worker right now.",
                "# TYPE repro_server_queue_depth gauge",
                f"repro_server_queue_depth {queue_depth}",
                "# HELP repro_server_in_flight Requests executing right "
                "now.",
                "# TYPE repro_server_in_flight gauge",
                f"repro_server_in_flight {in_flight}",
                "# HELP repro_server_requests_total Requests handled, by "
                "op.",
                "# TYPE repro_server_requests_total counter",
            ]
            for op in sorted(self.requests):
                lines.append(f'repro_server_requests_total{{op="{op}"}} '
                             f'{self.requests[op]}')
            lines.append("# HELP repro_server_request_errors_total "
                         "Requests that returned an error envelope, by op.")
            lines.append("# TYPE repro_server_request_errors_total counter")
            for op in sorted(self.errors):
                lines.append(
                    f'repro_server_request_errors_total{{op="{op}"}} '
                    f'{self.errors[op]}')
            lines.append("# HELP repro_server_busy_total Requests refused "
                         "by backpressure (queue full).")
            lines.append("# TYPE repro_server_busy_total counter")
            lines.append(f"repro_server_busy_total {self.busy}")
            lines.append("# HELP repro_server_timeouts_total Requests "
                         "that exceeded the per-request timeout.")
            lines.append("# TYPE repro_server_timeouts_total counter")
            lines.append(f"repro_server_timeouts_total {self.timeouts}")
            lines.append("# HELP repro_server_request_seconds Request "
                         "latency histogram, by op.")
            lines.append("# TYPE repro_server_request_seconds histogram")
            for op in sorted(self.latency):
                cumulative = 0
                for index, bound in enumerate(LATENCY_BUCKETS):
                    cumulative += self.latency[op][index]
                    lines.append(
                        f'repro_server_request_seconds_bucket'
                        f'{{op="{op}",le="{bound}"}} {cumulative}')
                cumulative += self.latency[op][-1]
                lines.append(f'repro_server_request_seconds_bucket'
                             f'{{op="{op}",le="+Inf"}} {cumulative}')
                lines.append(f'repro_server_request_seconds_count'
                             f'{{op="{op}"}} {cumulative}')
                lines.append(f'repro_server_request_seconds_sum'
                             f'{{op="{op}"}} '
                             f'{self.latency_sum.get(op, 0.0):.6f}')
        lines.append("# HELP repro_server_cache_hit_ratio Compilation "
                     "cache hits / probes over the daemon lifetime.")
        lines.append("# TYPE repro_server_cache_hit_ratio gauge")
        lines.append(f"repro_server_cache_hit_ratio "
                     f"{self.cache_hit_ratio():.6f}")
        with self._lock:
            compiler_dump = prometheus_from_totals(self.diagnostics_totals)
        return "\n".join(lines) + "\n" + compiler_dump


class _WorkerState:
    """Per-worker-thread warm state: a CompilerService whose memory LRU
    sits over the shared disk store, plus a bounded response cache."""

    def __init__(self, options: CompilerOptions, cache_dir: Optional[str],
                 response_cache_size: int):
        cache = CompilationCache(directory=cache_dir) if cache_dir \
            else CompilationCache()
        self.service = CompilerService(options=options, cache=cache)
        self.responses: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.response_cache_size = max(0, int(response_cache_size))

    def cached_response(self, key: Optional[str], *,
                        want_diagnostics: bool = False
                        ) -> Optional[Dict[str, Any]]:
        """Cached entries always carry diagnostics (the worker compiles
        with them unconditionally); they are stripped per-request here, so
        a requester asking for diagnostics never gets a cached response
        without them.  A legacy entry lacking them forces a recompile."""
        if key is None or key not in self.responses:
            return None
        response = dict(self.responses[key])
        if want_diagnostics and "diagnostics" not in response:
            return None
        self.responses.move_to_end(key)
        if not want_diagnostics:
            response.pop("diagnostics", None)
        counters = dict(response.get("counters", {}))
        counters["response_cache_hits"] = \
            counters.get("response_cache_hits", 0) + 1
        response["counters"] = counters
        response["served_from"] = "response-cache"
        return response

    def remember_response(self, key: Optional[str],
                          response: Mapping[str, Any]) -> None:
        if key is None or self.response_cache_size == 0:
            return
        self.responses[key] = dict(response)
        while len(self.responses) > self.response_cache_size:
            self.responses.popitem(last=False)


class ReproServer:
    """One daemon instance.  Construct, then either ``run()`` (blocking,
    installs signal handlers) or drive ``start()``/``shutdown()`` from an
    existing event loop (the tests do the latter)."""

    def __init__(self, options: Optional[CompilerOptions] = None,
                 *,
                 socket_path: Optional[str] = None,
                 http_addr: Optional[Tuple[str, int]] = None,
                 cache_dir: Optional[str] = None,
                 jobs: int = 1,
                 max_queue: int = 8,
                 request_timeout: float = 120.0,
                 response_cache_size: int = 128,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES):
        if socket_path is None and http_addr is None:
            raise ValueError("serve needs a unix socket path and/or an "
                             "HTTP address to listen on")
        self.options = options or CompilerOptions()
        self.socket_path = socket_path
        self.http_addr = http_addr
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        self.jobs = max(1, int(jobs))
        self.max_queue = max(0, int(max_queue))
        self.request_timeout = request_timeout
        self.response_cache_size = response_cache_size
        self.max_request_bytes = max(1024, int(max_request_bytes))
        self.metrics = ServerMetrics()
        # One monitoring-only service for ping/stats (no compiles run on
        # it, so answering inline from the event loop is safe and cheap).
        self._monitor = CompilerService(options=self.options)

        self._executor = None
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._queued = 0
        self._in_flight = 0
        self._outstanding = 0          # accepted, response not yet built
        self._draining = False
        self._conn_tasks: set = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- worker side (threads) --------------------------------------------

    def _worker(self) -> _WorkerState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _WorkerState(self.options, self.cache_dir,
                                 self.response_cache_size)
            self._local.state = state
        return state

    def _execute(self, op: str, params: Mapping[str, Any],
                 accepted_at: Optional[float] = None) -> Dict[str, Any]:
        """Runs on a worker thread: one queued wire op.  A traced request
        (one carrying a ``trace_id``) gets ``server_timing`` attached --
        how long it waited for a worker and how long it executed, on the
        server's own clock -- so the client can reconstruct the round
        trip (:func:`repro.trace.build_request_trace`)."""
        with self._counter_lock:
            self._queued -= 1
            self._in_flight += 1
        begun = time.perf_counter()
        try:
            response = self._execute_op(op, params)
            if isinstance(params.get("trace_id"), str):
                response["server_timing"] = {
                    "queue_wait_s": max(begun - accepted_at, 0.0)
                    if accepted_at is not None else 0.0,
                    "execute_s": time.perf_counter() - begun,
                }
            return response
        finally:
            with self._counter_lock:
                self._in_flight -= 1

    def _execute_op(self, op: str, params: Mapping[str, Any]
                    ) -> Dict[str, Any]:
        worker = self._worker()
        request_key = params.get("cache_key")
        if not isinstance(request_key, str):
            request_key = None
        if op == "compile":
            want = bool(params.get("diagnostics", False))
            cached = worker.cached_response(request_key,
                                            want_diagnostics=want)
            if cached is not None:
                return ok_response(op, cached)
            params = {k: v for k, v in params.items()
                      if k != "cache_key"}
            # Always collect diagnostics worker-side: /metrics is fed
            # from them, and the response cache keeps them so a later
            # requester may ask; strip from the response unless asked.
            params = dict(params, diagnostics=True)
            payload = worker.service.handle_op(op, params)
            diagnostics = payload.get("diagnostics")
            if diagnostics is not None:
                self.metrics.merge_diagnostics(diagnostics)
            worker.remember_response(request_key, payload)
            if not want:
                payload = {k: v for k, v in payload.items()
                           if k != "diagnostics"}
            return ok_response(op, payload)
        if op == "batch":
            return ok_response(op, self._execute_batch(worker, params))
        payload = worker.service.handle_op(op, params)
        return ok_response(op, payload)

    def _execute_batch(self, worker: _WorkerState,
                       params: Mapping[str, Any]) -> Dict[str, Any]:
        """The daemon's batch op: like :meth:`CompilerService._handle_batch`
        but each unit may carry a ``cache_key``, answered from (and
        remembered in) the worker's response cache -- this is what makes a
        repeated corpus nearly free."""
        units = params.get("units")
        if not isinstance(units, (list, tuple)) or not units:
            raise ApiError("bad-request",
                           'batch requires a non-empty "units" list of '
                           '{"label", "source"} objects')
        options = options_from_wire(worker.service.options,
                                    params.get("options"))
        prelude = bool(params.get("prelude", False))
        files: List[Dict[str, Any]] = []
        for unit in units:
            if not (isinstance(unit, Mapping)
                    and isinstance(unit.get("source"), str)):
                raise ApiError("bad-request",
                               'each batch unit needs a string "source"')
            label = str(unit.get("label", f"unit-{len(files)}"))
            key = unit.get("cache_key")
            if not isinstance(key, str):
                key = None
            cached = worker.cached_response(key)
            if cached is not None:
                files.append({"path": label, "status": "ok", **cached})
                continue
            try:
                result = worker.service.compile(
                    unit["source"], options=options, load_prelude=prelude,
                    want_diagnostics=True)
            except ReproError as err:
                files.append({"path": label, "status": "error",
                              "error": f"{type(err).__name__}: {err}"})
                continue
            payload = result.to_json()
            diagnostics = payload.get("diagnostics")
            if diagnostics is not None:
                self.metrics.merge_diagnostics(diagnostics)
            # Remember the full payload (diagnostics included) so a later
            # compile op on the same key can ask for them; batch entries
            # themselves never carry per-unit diagnostics.
            worker.remember_response(key, payload)
            slim = {k: v for k, v in payload.items()
                    if k != "diagnostics"}
            files.append({"path": label, "status": "ok", **slim})
        ok = sum(1 for entry in files if entry["status"] == "ok")
        return {"files": files, "ok": ok, "errors": len(files) - ok}

    # -- asyncio side ------------------------------------------------------

    def _queue_depths(self) -> Tuple[int, int]:
        with self._counter_lock:
            return self._queued, self._in_flight

    def _stats_payload(self) -> Dict[str, Any]:
        data = self._monitor.stats()
        queued, in_flight = self._queue_depths()
        data.update({
            "queue_depth": queued,
            "in_flight": in_flight,
            "jobs": self.jobs,
            "max_queue": self.max_queue,
            "draining": self._draining,
            "requests": dict(self.metrics.requests),
            "busy_total": self.metrics.busy,
            "timeouts_total": self.metrics.timeouts,
            "cache_hit_ratio": self.metrics.cache_hit_ratio(),
            "cache_dir": self.cache_dir,
            "recent_requests": self.metrics.recent_requests(),
        })
        return data

    async def _respond(self, request: Any) -> Dict[str, Any]:
        """One parsed request object -> one response object.  Never
        raises: every failure becomes a structured error envelope, and
        every envelope -- success, busy, timeout, internal error --
        carries either the client's echoed ``trace_id`` or a
        server-minted ``request_id``."""
        started = time.perf_counter()
        response = await self._respond_inner(request, started)
        response, request_id = tag_response(response,
                                            request_trace_id(request))
        op = response.get("op") \
            or (response.get("error") or {}).get("code", "?")
        self.metrics.note_request(request_id, op,
                                  time.perf_counter() - started,
                                  bool(response.get("ok")))
        return response

    async def _respond_inner(self, request: Any,
                             accepted_at: float) -> Dict[str, Any]:
        started = accepted_at
        op = "?"
        ok = True
        try:
            op, params = check_request(request)
            if op == "shutdown":
                assert self._loop is not None
                self._loop.create_task(self.shutdown())
                return ok_response("shutdown", {"draining": True})
            if op in INLINE_OPS:
                # Monitoring probes bypass the queue entirely: they must
                # answer even when the worker pool is saturated.
                if op == "ping":
                    return ok_response("ping", self._monitor.ping())
                return ok_response("stats", self._stats_payload())
            if self._draining:
                ok = False
                return error_response(ApiError(
                    "shutting-down", "server is draining; not accepting "
                    "new work"))
            with self._counter_lock:
                if self._queued >= self.max_queue:
                    accepted = False
                else:
                    accepted = True
                    self._queued += 1
                    self._outstanding += 1
            if not accepted:
                self.metrics.count_busy()
                ok = False
                queued, in_flight = self._queue_depths()
                return error_response(ApiError(
                    "busy",
                    f"queue full ({queued} queued, {in_flight} in "
                    f"flight, max-queue {self.max_queue}); retry later"))
            try:
                assert self._loop is not None
                future = self._loop.run_in_executor(
                    self._executor, self._execute, op, dict(params),
                    accepted_at)
                try:
                    response = await asyncio.wait_for(
                        asyncio.shield(future), self.request_timeout)
                except asyncio.TimeoutError:
                    self.metrics.count_timeout()
                    ok = False
                    return error_response(ApiError(
                        "timeout",
                        f"request exceeded {self.request_timeout:.1f}s; "
                        f"the compile keeps running server-side"))
                if not response.get("ok", False):
                    ok = False
                return response
            finally:
                with self._counter_lock:
                    self._outstanding -= 1
        except ApiError as err:
            ok = False
            return error_response(err)
        except Exception as err:  # noqa: BLE001 - envelope, never a crash
            ok = False
            return error_response(err)
        finally:
            self.metrics.observe(op, time.perf_counter() - started, ok)

    # -- unix socket transport (JSON lines) -------------------------------

    async def _handle_socket(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except ValueError:
                    # readline() reports a stream-limit overrun as
                    # ValueError (not LimitOverrunError); the buffered
                    # data is unusable, so answer structurally and drop
                    # the connection.
                    response, _ = tag_response(error_response(ApiError(
                        "too-large",
                        f"request line exceeds the server's "
                        f"{self.max_request_bytes} byte limit")), None)
                    try:
                        writer.write(
                            json.dumps(response).encode("utf-8") + b"\n")
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError,
                            OSError):
                        pass
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = json.loads(line)
                except ValueError as err:
                    response, _ = tag_response(error_response(
                        ApiError("bad-json",
                                 f"unparseable request: {err}")), None)
                else:
                    response = await self._respond(request)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        except asyncio.CancelledError:
            pass  # shutdown drained and is closing idle connections
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    # -- HTTP transport ----------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), 30.0)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    asyncio.LimitOverrunError, ConnectionResetError):
                return
            request_line, _, header_blob = \
                head.decode("latin-1").partition("\r\n")
            parts = request_line.split()
            if len(parts) < 2:
                await self._http_reply(writer, 400, "text/plain",
                                       b"bad request line\n")
                return
            method, path = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            for header in header_blob.split("\r\n"):
                name, _, value = header.partition(":")
                if _:
                    headers[name.strip().lower()] = value.strip()
            if method == "GET" and path.startswith("/metrics"):
                queued, in_flight = self._queue_depths()
                body = self.metrics.render(queued, in_flight)
                await self._http_reply(
                    writer, 200, "text/plain; version=0.0.4",
                    body.encode("utf-8"))
                return
            if method == "GET" and path.startswith("/healthz"):
                body = json.dumps({"ok": True, "api": API_VERSION})
                await self._http_reply(writer, 200, "application/json",
                                       body.encode("utf-8") + b"\n")
                return
            if method != "POST":
                await self._http_reply(writer, 405, "text/plain",
                                       b"use POST / with a JSON body, GET "
                                       b"/metrics, or GET /healthz\n")
                return
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = 0
            length = max(0, length)
            if length > self.max_request_bytes:
                body = json.dumps(tag_response(error_response(ApiError(
                    "too-large",
                    f"request body of {length} bytes exceeds the "
                    f"server's {self.max_request_bytes} byte limit")),
                    None)[0])
                await self._http_reply(writer, 413, "application/json",
                                       body.encode("utf-8") + b"\n")
                return
            try:
                body = await reader.readexactly(length) if length else b""
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            try:
                request = json.loads(body or b"null")
            except ValueError as err:
                response, _ = tag_response(error_response(
                    ApiError("bad-json",
                             f"unparseable request: {err}")), None)
            else:
                response = await self._respond(request)
            status = 200 if response.get("ok") else 400
            await self._http_reply(
                writer, status, "application/json",
                json.dumps(response).encode("utf-8") + b"\n")
        except asyncio.CancelledError:
            pass  # shutdown drained and is closing idle connections
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _http_reply(self, writer: asyncio.StreamWriter, status: int,
                          content_type: str, body: bytes) -> None:
        reason = {200: "OK", 400: "Bad Request",
                  405: "Method Not Allowed",
                  413: "Payload Too Large"}.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        # A daemon exists to be warm: load the Table 1 pipeline (which the
        # lazy package surface defers to the first compile) before the
        # first connection, so no request pays for the import.
        from . import compiler  # noqa: F401

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve")
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                if _socket_answers(self.socket_path):
                    raise ReproError(
                        f"a daemon is already listening on "
                        f"{self.socket_path}; shut it down first "
                        f"(python -m repro client --server "
                        f"{self.socket_path} --shutdown) or pick "
                        f"another --socket")
                os.unlink(self.socket_path)      # stale leftover
            server = await asyncio.start_unix_server(
                self._handle_socket, path=self.socket_path,
                limit=self.max_request_bytes)
            self._servers.append(server)
        if self.http_addr is not None:
            host, port = self.http_addr
            server = await asyncio.start_server(
                self._handle_http, host=host, port=port,
                limit=self.max_request_bytes)
            self._servers.append(server)

    @property
    def http_port(self) -> Optional[int]:
        """The bound HTTP port (useful when constructed with port 0)."""
        if self.http_addr is None:
            return None
        for server in self._servers:
            for sock in server.sockets or ():
                import socket as _socket

                if sock.family in (_socket.AF_INET, _socket.AF_INET6):
                    return sock.getsockname()[1]
        return self.http_addr[1]

    async def shutdown(self, drain_timeout: float = 60.0) -> None:
        """Stop accepting work, drain in-flight requests, release
        everything.  Idempotent."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        deadline = time.monotonic() + drain_timeout
        while time.monotonic() < deadline:
            with self._counter_lock:
                if self._outstanding == 0:
                    break
            await asyncio.sleep(0.02)
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        # Close surviving client connections here, while the loop is still
        # healthy, so asyncio.run's teardown never has to cancel them
        # uncleanly (which logs spurious CancelledError tracebacks).
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        await self.start()
        assert self._stop_event is not None
        try:
            import signal

            self._loop.add_signal_handler(
                signal.SIGTERM,
                lambda: asyncio.ensure_future(self.shutdown()))
            self._loop.add_signal_handler(
                signal.SIGINT,
                lambda: asyncio.ensure_future(self.shutdown()))
        except (NotImplementedError, RuntimeError):
            pass  # platforms/loops without signal support
        await self._stop_event.wait()

    def run(self) -> int:
        """Blocking entry point for the CLI."""
        where = []
        if self.socket_path is not None:
            where.append(f"unix:{self.socket_path}")
        if self.http_addr is not None:
            where.append(f"http://{self.http_addr[0]}:{self.http_addr[1]}")
        print(f"repro serve: api v{API_VERSION}, jobs={self.jobs}, "
              f"max-queue={self.max_queue}, "
              f"cache={self.cache_dir or '(memory only)'}, "
              f"listening on {', '.join(where)}", flush=True)
        try:
            asyncio.run(self.serve_until_stopped())
        except KeyboardInterrupt:
            pass
        except ReproError as err:
            print(f"repro serve: error: {err}", flush=True)
            return 1
        print("repro serve: drained and stopped", flush=True)
        return 0
