"""The compile daemon: ``python -m repro serve``.

A long-lived asyncio server that keeps the compiler warm -- memoized
prelude, one memory cache over the shared on-disk store -- so
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

Queued requests run one at a time on one dispatch thread, which calls
one :class:`repro.api.CompilerService`: one memory LRU over the
``--cache-dir`` store, one response cache on its ``batch`` op, and the
counters ``ping``/``stats`` report.  A ``batch`` op's misses run on the
``--jobs`` worker processes of :class:`repro.batch.WorkerPool`, started
warm before the daemon listens.  The daemon adds
queueing, transport and metrics, nothing semantic.  The asyncio
side enforces **backpressure**: past ``--max-queue`` waiting requests a
``busy`` error is returned immediately (never a hang), monitoring ops
(``ping``/``stats``) always answer inline, and every queued request
carries a timeout.  Shutdown (signal or ``shutdown`` op) is graceful: the
listeners close, in-flight work drains, then the process exits.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .api import (
    API_VERSION,
    ApiError,
    CompilerService,
    INLINE_OPS,
    check_request,
    error_response,
    ok_response,
)
from .batch import WorkerPool
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


async def _send(writer: asyncio.StreamWriter, data: bytes) -> bool:
    """Write *data* to a client; False when the client has hung up, which
    ends that connection instead of raising into asyncio's log."""
    try:
        writer.write(data)
        await writer.drain()
    except OSError:             # ConnectionResetError, BrokenPipeError
        return False
    return True


async def _skip_line(reader: asyncio.StreamReader, timeout: float) -> None:
    """Read and drop the rest of an overlong line: up to its newline or
    EOF, for at most *timeout* seconds."""
    async def skip() -> None:
        while True:
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.LimitOverrunError as overrun:
                await reader.readexactly(overrun.consumed)

    try:
        await asyncio.wait_for(skip(), timeout)
    except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError):
        pass    # EOF, a stalled sender or a hang-up: answer anyway


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

    def merge_diagnostics(self, diagnostics: Any) -> None:
        """Fold one compile's ``Diagnostics`` into the ``/metrics``
        totals."""
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
                "# HELP repro_server_queue_depth Requests waiting for the "
                "dispatch thread right now.",
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


class ReproServer:
    """One daemon instance.  Construct, then either ``run()`` (blocking,
    installs signal handlers) or drive ``start()``/``shutdown()`` from an
    existing event loop (the tests do the latter).

    *response_cache_size* bounds the response cache of the one
    :class:`CompilerService` the dispatch thread calls (entries, least
    recently used evicted first; 0 turns it off)."""

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
        self.pool = WorkerPool(jobs)
        self.jobs = self.pool.jobs
        self.max_queue = max(0, int(max_queue))
        self.request_timeout = request_timeout
        self.max_request_bytes = max(1024, int(max_request_bytes))
        self.metrics = ServerMetrics()
        self.service = CompilerService(
            self.options, CompilationCache(directory=self.cache_dir),
            response_cache_size=response_cache_size,
            on_diagnostics=self.metrics.merge_diagnostics, pool=self.pool)

        self._executor = None
        self._counter_lock = threading.Lock()
        self._queued = 0
        self._in_flight = 0
        self._outstanding = 0          # accepted, response not yet built
        self._draining = False
        self._conn_tasks: set = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- the dispatch thread -----------------------------------------------

    def _execute(self, op: str, params: Mapping[str, Any],
                 accepted_at: Optional[float] = None) -> Dict[str, Any]:
        """Runs on the dispatch thread: one queued wire op.  A traced
        request (one carrying a ``trace_id``) gets ``server_timing``
        attached -- how long it waited in the queue and how long it
        executed, on the server's own clock -- so the client can rebuild
        the round trip (:func:`repro.trace.build_request_trace`)."""
        with self._counter_lock:
            self._queued -= 1
            self._in_flight += 1
        begun = time.perf_counter()
        try:
            response = ok_response(op, self.service.handle_op(op, params))
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

    # -- asyncio side ------------------------------------------------------

    def _queue_depths(self) -> Tuple[int, int]:
        with self._counter_lock:
            return self._queued, self._in_flight

    def _stats_payload(self) -> Dict[str, Any]:
        data = self.service.stats()
        queued, in_flight = self._queue_depths()
        data.update({
            "queue_depth": queued,
            "in_flight": in_flight,
            "jobs": self.jobs,
            "executor": self.pool.executor,
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

    async def _respond(self, raw: bytes) -> Dict[str, Any]:
        """One request's bytes -> one response object.  Never raises:
        every failure becomes a structured error envelope."""
        started = time.perf_counter()
        trace_id = None
        try:
            try:
                request = json.loads(raw)
            except (ValueError, RecursionError) as err:  # or too deep
                raise ApiError("bad-json", f"unparseable request: {err}")
            trace_id = request_trace_id(request)
            op, params = check_request(request)
        except ApiError as err:
            return self._answered(error_response(err), trace_id, err.code,
                                  started)
        response = await self._dispatch(op, params, started)
        return self._answered(response, trace_id, op, started)

    def _answered(self, response: Dict[str, Any], trace_id: Optional[str],
                  label: str, started: float) -> Dict[str, Any]:
        """Every envelope the daemon writes passes here once.  It
        identifies its request -- the client's ``trace_id`` echoed back,
        or a server-minted ``request_id`` (both additive fields, so old
        clients are unaffected) -- and is counted in ``/metrics`` and
        journaled in ``stats`` under *label*: its op, or the error code of
        a request that names none."""
        request_id = trace_id or "req-" + uuid.uuid4().hex[:12]
        response["trace_id" if trace_id else "request_id"] = request_id
        seconds = time.perf_counter() - started
        ok = bool(response.get("ok"))
        self.metrics.observe(label, seconds, ok)
        self.metrics.note_request(request_id, label, seconds, ok)
        return response

    async def _dispatch(self, op: str, params: Dict[str, Any],
                        accepted_at: float) -> Dict[str, Any]:
        try:
            if op == "shutdown":
                assert self._loop is not None
                self._loop.create_task(self.shutdown())
                return ok_response("shutdown", {"draining": True})
            if op in INLINE_OPS:
                # Monitoring probes bypass the queue entirely: they must
                # answer even when the dispatch thread is busy.
                if op == "ping":
                    return ok_response("ping", self.service.ping())
                return ok_response("stats", self._stats_payload())
            if self._draining:
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
                queued, in_flight = self._queue_depths()
                return error_response(ApiError(
                    "busy",
                    f"queue full ({queued} queued, {in_flight} in "
                    f"flight, max-queue {self.max_queue}); retry later"))
            try:
                assert self._loop is not None
                future = self._loop.run_in_executor(
                    self._executor, self._execute, op, params, accepted_at)
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(future), self.request_timeout)
                except asyncio.TimeoutError:
                    self.metrics.count_timeout()
                    return error_response(ApiError(
                        "timeout",
                        f"request exceeded {self.request_timeout:.1f}s; "
                        f"the compile keeps running server-side"))
            finally:
                with self._counter_lock:
                    self._outstanding -= 1
        except Exception as err:  # noqa: BLE001 - envelope, never a crash
            return error_response(err)

    async def _connection(self, handle, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Run one client connection's *handle*; shutdown cancels the
        connections left once it has drained."""
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await handle(reader, writer)
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

    # -- unix socket transport (JSON lines) -------------------------------

    async def _handle_socket(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as eof:
                line = eof.partial      # the last line may lack its newline
            except ConnectionResetError:
                break
            except asyncio.LimitOverrunError:
                # The line is over the limit: drop the rest of it first (a
                # client still sending it would otherwise read a broken
                # pipe, not the envelope), then answer structurally and
                # drop the connection.
                await _skip_line(reader, self.request_timeout)
                response = self._answered(error_response(ApiError(
                    "too-large",
                    f"request line exceeds the server's "
                    f"{self.max_request_bytes} byte limit")), None,
                    "too-large", time.perf_counter())
                await _send(writer,
                            json.dumps(response).encode("utf-8") + b"\n")
                break
            if not line:
                break
            if not line.strip():
                continue
            response = await self._respond(line)
            if not await _send(
                    writer, json.dumps(response).encode("utf-8") + b"\n"):
                break

    # -- HTTP transport ----------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
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
            body = json.dumps(self._answered(error_response(ApiError(
                "too-large",
                f"request body of {length} bytes exceeds the "
                f"server's {self.max_request_bytes} byte limit")),
                None, "too-large", time.perf_counter()))
            await self._http_reply(writer, 413, "application/json",
                                   body.encode("utf-8") + b"\n")
            return
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return
        response = await self._respond(body or b"null")
        status = 200 if response.get("ok") else 400
        await self._http_reply(
            writer, status, "application/json",
            json.dumps(response).encode("utf-8") + b"\n")

    async def _http_reply(self, writer: asyncio.StreamWriter, status: int,
                          content_type: str, body: bytes) -> None:
        reason = {200: "OK", 400: "Bad Request",
                  405: "Method Not Allowed",
                  413: "Payload Too Large"}.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        await _send(writer, head.encode("latin-1") + body)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        # A daemon exists to be warm: load the Table 1 pipeline (which the
        # lazy package surface defers to the first compile) and start the
        # worker processes before the first connection, so no request
        # pays for either.
        from . import compiler  # noqa: F401

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        if self.socket_path is not None and os.path.exists(self.socket_path):
            if _socket_answers(self.socket_path):
                raise ReproError(
                    f"a daemon is already listening on "
                    f"{self.socket_path}; shut it down first "
                    f"(python -m repro client --server "
                    f"{self.socket_path} --shutdown) or pick "
                    f"another --socket")
            os.unlink(self.socket_path)          # stale leftover
        await self._loop.run_in_executor(self._executor, self.pool.start)
        where = f"unix:{self.socket_path}"
        try:
            if self.socket_path is not None:
                self._servers.append(await asyncio.start_unix_server(
                    functools.partial(self._connection, self._handle_socket),
                    path=self.socket_path, limit=self.max_request_bytes))
            if self.http_addr is not None:
                host, port = self.http_addr
                where = f"http://{host}:{port}"
                self._servers.append(await asyncio.start_server(
                    functools.partial(self._connection, self._handle_http),
                    host=host, port=port, limit=self.max_request_bytes))
        except BaseException as err:
            # Release what did start (the other listener, the worker
            # pool, the socket file) so a failed start leaves nothing.
            await self.shutdown()
            if isinstance(err, OSError):
                reason = os.strerror(err.errno) if err.errno else err
                raise ReproError(
                    f"cannot listen on {where}: {reason}") from None
            raise

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
        self.pool.close()
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
        where = []
        if self.socket_path is not None:
            where.append(f"unix:{self.socket_path}")
        if self.http_addr is not None:
            where.append(f"http://{self.http_addr[0]}:{self.http_port}")
        print(f"repro serve: api v{API_VERSION}, jobs={self.jobs}, "
              f"max-queue={self.max_queue}, "
              f"cache={self.cache_dir or '(memory only)'}, "
              f"listening on {', '.join(where)}", flush=True)
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
        """Blocking entry point for the CLI: prints the banner once both
        listeners are bound, or one error line if either cannot bind."""
        try:
            asyncio.run(self.serve_until_stopped())
        except KeyboardInterrupt:
            pass
        except ReproError as err:
            print(f"repro serve: error: {err}", flush=True)
            return 1
        print("repro serve: drained and stopped", flush=True)
        return 0
