"""Client for the compile daemon: ``repro.api.connect()`` and
``python -m repro client``.

:class:`ServiceClient` is a small blocking client that speaks the
versioned JSON schema of :mod:`repro.api` over either transport the
daemon offers (unix-socket JSON lines or HTTP).  It is what the
daemon-backed batch path uses: instead of pickling trees into a cold
process pool, each unit ships its source to a warm server and only
names/counters come back -- compiled artifacts stay in the shared
content-addressed store.
"""

from __future__ import annotations

import json
import socket
import time
import uuid
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .api import API_VERSION, options_to_wire
from .batch import BatchFileResult
from .errors import ReproError
from .options import CompilerOptions


class ServiceUnavailable(ReproError):
    """The daemon could not be reached (not running, wrong address, or it
    hung up mid-request)."""


class ServiceError(ReproError):
    """The daemon answered with an error envelope; carries the structured
    ``code`` so callers can branch (``busy``, ``timeout``, ...)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _is_http(address: str) -> bool:
    return address.startswith("http://") or address.startswith("https://")


def new_trace_id() -> str:
    """A fresh client-generated request trace id.  The daemon echoes it in
    the response envelope and tags its queue-wait/execute timing with it,
    so one Perfetto trace (:func:`repro.trace.build_request_trace`) shows
    the whole round trip under a single id."""
    return "trace-" + uuid.uuid4().hex[:16]


class ServiceClient:
    """A blocking client for one daemon address.

    *address* is a unix-socket path or an ``http://host:port`` URL.  Each
    request opens its own connection, so one client object may be shared
    freely across threads."""

    def __init__(self, address: str, timeout: float = 30.0):
        self.address = address
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def request_raw(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one already-enveloped request object, return the parsed
        response object (which may be an error envelope)."""
        if _is_http(self.address):
            return self._request_http(request)
        return self._request_socket(request)

    def _request_socket(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        payload = json.dumps(request).encode("utf-8") + b"\n"
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            conn.settimeout(self.timeout)
            conn.connect(self.address)
        except OSError as err:
            conn.close()
            raise ServiceUnavailable(
                f"cannot reach daemon at {self.address}: {err}")
        try:
            conn.sendall(payload)
            chunks: List[bytes] = []
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                chunks.append(data)
                if data.endswith(b"\n"):
                    break
        except OSError as err:
            raise ServiceUnavailable(
                f"daemon at {self.address} hung up: {err}")
        finally:
            conn.close()
        raw = b"".join(chunks)
        if not raw:
            raise ServiceUnavailable(
                f"daemon at {self.address} closed the connection without "
                f"answering")
        try:
            return json.loads(raw)
        except ValueError as err:
            raise ServiceUnavailable(
                f"unparseable response from {self.address}: {err}")

    def _request_http(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        from http.client import HTTPConnection
        from urllib.parse import urlparse

        parsed = urlparse(self.address)
        try:
            conn = HTTPConnection(parsed.hostname, parsed.port or 80,
                                  timeout=self.timeout)
            conn.request("POST", parsed.path or "/",
                         body=json.dumps(request),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
        except OSError as err:
            raise ServiceUnavailable(
                f"cannot reach daemon at {self.address}: {err}")
        finally:
            try:
                conn.close()
            except Exception:  # noqa: BLE001 - best-effort close
                pass
        try:
            return json.loads(raw)
        except ValueError as err:
            raise ServiceUnavailable(
                f"unparseable response from {self.address}: {err}")

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send one *op* with *params*; returns the response payload on
        success, raises :class:`ServiceError` on an error envelope."""
        envelope: Dict[str, Any] = {"api": API_VERSION, "op": op}
        envelope.update(params)
        response = self.request_raw(envelope)
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServiceError(error.get("code", "unknown"),
                               error.get("message", "unknown error"))
        return response

    # -- the operations ----------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def compile(self, source: str, *, name: str = "*toplevel*",
                prelude: bool = False,
                options: Optional[Mapping[str, Any]] = None,
                listing: bool = False,
                diagnostics: bool = False,
                trace_id: Optional[str] = None) -> Dict[str, Any]:
        params: Dict[str, Any] = {"source": source, "name": name}
        if prelude:
            params["prelude"] = True
        if options:
            params["options"] = dict(options)
        if listing:
            params["listing"] = True
        if diagnostics:
            params["diagnostics"] = True
        if trace_id is not None:
            params["trace_id"] = trace_id
        return self.request("compile", **params)

    def compile_traced(self, source: str, *, trace_id: Optional[str] = None,
                       **kwargs: Any
                       ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """:meth:`compile` under a generated (or given) ``trace_id``,
        measuring the client-side wall clock.  Returns ``(response,
        record)`` where *record* is what
        :func:`repro.trace.build_request_trace` consumes: the trace id,
        the client span, and the daemon's echoed ``server_timing``."""
        trace_id = trace_id or new_trace_id()
        started = time.perf_counter()
        response = self.compile(source, trace_id=trace_id, **kwargs)
        duration = time.perf_counter() - started
        record = {
            "trace_id": trace_id,
            "client": {"started_s": started, "duration_s": duration},
            "server_timing": response.get("server_timing"),
        }
        return response, record

    def wait_ready(self, timeout: float = 10.0,
                   interval: float = 0.05) -> bool:
        """Poll ping until the daemon answers (used right after spawning
        one); returns False if it never did within *timeout*."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                self.ping()
                return True
            except (ServiceUnavailable, ServiceError):
                time.sleep(interval)
        return False


def _request_with_busy_retry(client: ServiceClient, op: str,
                             params: Mapping[str, Any]) -> Dict[str, Any]:
    """Send *op*, backing off and retrying on the daemon's structured
    ``busy`` response until the client timeout is spent (backpressure is a
    flow-control signal, not a failure, for a batch driver)."""
    deadline = time.monotonic() + client.timeout
    delay = 0.05
    while True:
        try:
            return client.request(op, **dict(params))
        except ServiceError as err:
            if err.code != "busy" or time.monotonic() + delay > deadline:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 1.0)


#: Units per ``batch`` request of a client batch.  Requests go one after
#: another, so per-request timeouts bound a few units, not the corpus, and
#: another client's op waits for one request at most.
UNITS_PER_REQUEST = 8


def compile_units_via_server(
        units: Sequence[Tuple[str, Optional[str]]],
        server: str, *,
        options: Optional[CompilerOptions] = None,
        load_prelude: bool = False,
        timeout: float = 120.0) -> List[BatchFileResult]:
    """The daemon-backed batch engine: ship every ``(label, source)`` unit
    (source read from *label* when None) to the warm server, in ``batch``
    requests of up to :data:`UNITS_PER_REQUEST` units, results in input
    order.

    The daemon answers repeats straight from the response cache of its
    batch op, which it keys itself, and compiles the rest on its own
    workers.  Returns one record per unit, the same
    :class:`repro.batch.BatchFileResult` a local batch builds."""
    records: List[Optional[BatchFileResult]] = []
    sent: List[Dict[str, str]] = []
    for label, source in units:
        try:
            if source is None:
                with open(label, "r", encoding="utf-8") as handle:
                    source = handle.read()
        except OSError as err:
            records.append(BatchFileResult.failure(label, err))
            continue
        records.append(None)
        sent.append({"label": label, "source": source})
    client = ServiceClient(server, timeout=timeout)
    # The daemon compiles with ITS defaults unless the request pins the
    # semantic options, so ship the full declared-semantic set -- otherwise
    # `--target vax` against an s1-defaulted daemon would silently compile
    # for the wrong machine.
    params = {"prelude": load_prelude,
              "options": options_to_wire(options or CompilerOptions())}
    answers: List[BatchFileResult] = []
    for at in range(0, len(sent), UNITS_PER_REQUEST):
        chunk = sent[at:at + UNITS_PER_REQUEST]
        started = time.perf_counter()
        try:
            files = _request_with_busy_retry(
                client, "batch", dict(params, units=chunk)).get("files", [])
            got = [BatchFileResult.from_wire(entry)
                   for entry in files[:len(chunk)]]
        except (ReproError, OSError) as err:
            seconds = (time.perf_counter() - started) / len(chunk)
            got = [BatchFileResult.failure(unit["label"], err, seconds)
                   for unit in chunk]
        answers.extend(got)
        answers.extend(BatchFileResult.failure(unit["label"], ServiceError(
            "short-response", "server returned no result for this unit"))
            for unit in chunk[len(got):])
    replies = iter(answers)
    return [record or next(replies) for record in records]
