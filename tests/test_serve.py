"""Tests for the compile daemon (repro.serve) and its client
(repro.client): wire round trips over both transports, backpressure,
timeouts, graceful shutdown, concurrent shared-disk-cache access,
request identity (``trace_id`` echo / minted ``request_id`` on every
envelope, including busy/timeout/too-large errors), the latency
histogram's exact bucket arithmetic, and the end-to-end traced round
trip that yields one Perfetto trace per request."""

import asyncio
import gc
import json
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Compiler, build_request_trace, parse_prometheus_text
from repro.api import API_VERSION, CompilerService
from repro.batch import BatchFileResult, compile_batch
from repro.cache import CompilationCache
from repro.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.datum import sym
from repro.options import CompilerOptions
from repro.serve import (
    LATENCY_BUCKETS,
    RECENT_REQUEST_IDS,
    ReproServer,
    ServerMetrics,
)
from repro.trace import metric_value


class RunningServer:
    """Run one ReproServer on a private event loop in a daemon thread."""

    def __init__(self, server: ReproServer):
        self.server = server
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        await self.server.start()
        self._ready.set()
        await self.server._stop_event.wait()

    def start(self):
        self._thread.start()
        assert self._ready.wait(10), "server never came up"
        return self

    def stop(self, timeout=30.0):
        loop = self.server._loop
        if loop is not None and not loop.is_closed():
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(), loop)
                future.result(timeout=timeout)
            except RuntimeError:
                pass  # loop already closing: shutdown ran elsewhere
        self._thread.join(timeout=timeout)


class SlowServer(ReproServer):
    """Holds every queued op for `delay` seconds (backpressure tests)."""

    delay = 0.25

    def _execute(self, op, params, accepted_at=None):
        time.sleep(self.delay)
        return super()._execute(op, params, accepted_at)


@pytest.fixture
def server_factory(tmp_path):
    running = []

    def make(server_cls=ReproServer, options=None, **kwargs):
        kwargs.setdefault("socket_path",
                          str(tmp_path / f"daemon{len(running)}.sock"))
        server = server_cls(options or CompilerOptions(), **kwargs)
        handle = RunningServer(server).start()
        running.append(handle)
        return handle

    yield make
    for handle in running:
        handle.stop()


def _raw_socket_request(path, payload: bytes) -> dict:
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(path)
    try:
        conn.sendall(payload)
        chunks = []
        while True:
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
            if data.endswith(b"\n"):
                break
    finally:
        conn.close()
    return json.loads(b"".join(chunks))


class TestSocketTransport:
    def test_ping(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        response = client.ping()
        assert response["pong"] is True
        assert response["api"] == API_VERSION

    def test_compile_round_trip(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        response = client.compile("(defun inc (x) (+ x 1))", listing=True)
        assert response["defined"] == ["inc"]
        assert "inc" in response["listing"]

    def test_response_cache_on_repeat(self, server_factory):
        # The batch op answers a repeated unit from its response cache;
        # a repeated compile op is a per-defun cache hit.
        handle = server_factory(jobs=1)
        client = ServiceClient(handle.server.socket_path)
        source = "(defun inc (x) (+ x 1))"
        units = [{"label": "inc.lisp", "source": source}]
        first = client.request("batch", units=units)["files"][0]
        assert "served_from" not in first
        second = client.request("batch", units=units)["files"][0]
        assert second["served_from"] == "response-cache"
        assert second["counters"] == {"response_cache_hits": 1}
        assert second["defined"] == first["defined"] == ["inc"]
        repeat = client.compile(source)
        assert "served_from" not in repeat
        assert repeat["counters"]["cache_hits"] == 1

    def test_unknown_api_version_is_structured(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        response = client.request_raw({"api": 99, "op": "ping"})
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-api-version"

    def test_unknown_op(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        with pytest.raises(ServiceError) as err:
            client.request("frobnicate")
        assert err.value.code == "unknown-op"

    def test_bad_json_line(self, server_factory):
        handle = server_factory()
        response = _raw_socket_request(handle.server.socket_path,
                                       b"this is not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"

    def test_compile_error_is_enveloped(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        with pytest.raises(ServiceError) as err:
            client.compile("(defun broken (")
        assert err.value.code == "internal-error"

    def test_many_requests_per_connection(self, server_factory):
        handle = server_factory()
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(10)
        conn.connect(handle.server.socket_path)
        try:
            reader = conn.makefile("rb")
            for index in range(3):
                request = {"api": API_VERSION, "op": "compile",
                           "source": f"(defun f{index} () {index})"}
                conn.sendall(json.dumps(request).encode() + b"\n")
                response = json.loads(reader.readline())
                assert response["ok"] is True
                assert response["defined"] == [f"f{index}"]
        finally:
            conn.close()

    def test_large_source_over_socket(self, server_factory):
        # The asyncio default stream limit is 64 KiB; a realistically
        # sized source file must still travel over the socket transport.
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        source = '(defun big () "' + "a" * 200_000 + '")'
        response = client.compile(source)
        assert response["defined"] == ["big"]

    def test_oversized_request_is_structured_error(self, server_factory):
        handle = server_factory(max_request_bytes=4096)
        response = _raw_socket_request(handle.server.socket_path,
                                       b"x" * 10_000 + b"\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "too-large"

    def test_cached_response_still_serves_diagnostics(self, server_factory):
        # A diagnostics-wanting client must never get a cached response
        # without them, whoever populated the cache first.
        handle = server_factory(jobs=1)
        client = ServiceClient(handle.server.socket_path)
        source = "(defun inc (x) (+ x 1))"
        plain = client.compile(source)
        assert "diagnostics" not in plain
        with_diags = client.compile(source, diagnostics=True)
        assert with_diags["counters"]["cache_hits"] == 1
        assert with_diags["diagnostics"] is not None
        # ... and a later plain request still gets a slim response.
        plain_again = client.compile(source)
        assert "diagnostics" not in plain_again
        # /metrics saw every compile, asked-for diagnostics or not.
        totals = handle.server.metrics.diagnostics_totals
        assert totals["compilations"] == 3
        assert totals["counters"]["cache_hits"] == 2

    def test_stats_shape(self, server_factory):
        handle = server_factory(max_queue=3, jobs=2)
        client = ServiceClient(handle.server.socket_path)
        client.compile("(defun f () 1)")
        stats = client.stats()
        assert stats["jobs"] == 2
        assert stats["max_queue"] == 3
        assert stats["draining"] is False
        assert stats["requests"].get("compile", 0) >= 1
        assert 0.0 <= stats["cache_hit_ratio"] <= 1.0

    def test_stats_reads_the_service_that_compiled(self, server_factory,
                                                   tmp_path):
        store = str(tmp_path / "store")
        handle = server_factory(jobs=2, cache_dir=store)
        client = ServiceClient(handle.server.socket_path)
        for _ in range(3):
            client.compile("(defun f (x) (+ x 1))")
        stats = client.stats()
        assert stats["ops"]["compile"] == 3
        assert stats["compile_seconds_total"] > 0.0
        assert stats["cache"]["directory"] == store
        assert stats["cache"]["stats"]["stores"] == 1
        assert client.ping()["pong"] is True
        assert client.stats()["ops"]["ping"] == 1


class TestServerDerivedKeys:
    """The service keys its response cache itself: a ``cache_key`` field
    from the client is ignored, so reusing one cannot fetch another
    request's answer."""

    REUSED = "req-reused-key"

    def test_compile_op_ignores_a_reused_cache_key(self, server_factory):
        handle = server_factory(jobs=1)
        client = ServiceClient(handle.server.socket_path)

        def compile_keyed(source, **params):
            return client.request("compile", source=source,
                                  cache_key=self.REUSED, **params)

        first = compile_keyed("(defun f (x) (+& x 1))")
        assert first["defined"] == ["f"]
        listed = compile_keyed("(defun f (x) (+& x 1))", listing=True)
        assert "f" in listed["listing"]
        assert compile_keyed("(defun g (y) y)")["defined"] == ["g"]
        vax = compile_keyed("(defun f (x) (+& x 1))", listing=True,
                            options={"target": "vax"})
        assert vax["listing"] == client.compile(
            "(defun f (x) (+& x 1))", listing=True,
            options={"target": "vax"})["listing"]
        assert vax["listing"] != listed["listing"]
        for response in (first, listed, vax):
            assert "served_from" not in response

    def test_batch_units_ignore_a_reused_cache_key(self, server_factory):
        handle = server_factory(jobs=1)
        client = ServiceClient(handle.server.socket_path)

        def batch_keyed(source, **params):
            units = [{"label": "u", "source": source,
                      "cache_key": self.REUSED}]
            return client.request("batch", units=units,
                                  **params)["files"][0]

        assert batch_keyed("(defun f (x) (+ x 1))")["defined"] == ["f"]
        assert batch_keyed("(defun g (y) y)")["defined"] == ["g"]
        vax = batch_keyed("(defun f (x) (+ x 1))",
                          options={"target": "vax"})
        assert vax["defined"] == ["f"]
        assert "served_from" not in vax
        assert vax["counters"]["cache_misses"] == 1

    def test_a_hit_reports_only_its_own_work(self, server_factory):
        handle = server_factory(jobs=1)
        units = [(f"u{index}.lisp", f"(defun h{index} (x) (+ x {index}))")
                 for index in range(3)]
        cold = compile_batch(units, server=handle.server.socket_path)
        assert cold.counters()["cache_misses"] == 3
        warm = compile_batch(units, server=handle.server.socket_path)
        assert warm.error_count == 0
        for entry in warm.files:
            assert entry.counters == {"response_cache_hits": 1}
            assert entry.warnings == []
            assert entry.seconds <= warm.seconds


class TestBackpressure:
    def test_busy_never_hang(self, server_factory):
        handle = server_factory(server_cls=SlowServer, jobs=1, max_queue=1)
        path = handle.server.socket_path
        codes = []
        lock = threading.Lock()

        def one(index):
            client = ServiceClient(path, timeout=15)
            try:
                client.compile(f"(defun g{index} () {index})")
                outcome = "ok"
            except ServiceError as err:
                outcome = err.code
            with lock:
                codes.append(outcome)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # Every request got an answer (no hangs, no crashes): some ran,
        # the overflow got an immediate structured busy.
        assert len(codes) == 6
        assert codes.count("ok") >= 1
        assert codes.count("busy") >= 1
        assert set(codes) <= {"ok", "busy"}
        assert handle.server.metrics.busy >= 1

    def test_monitoring_bypasses_full_queue(self, server_factory):
        handle = server_factory(server_cls=SlowServer, jobs=1, max_queue=1)
        path = handle.server.socket_path
        started = [threading.Thread(
            target=lambda i=i: self._swallow(path, i)) for i in range(3)]
        for thread in started:
            thread.start()
        time.sleep(0.05)  # let the queue fill
        # ping and stats must answer inline even while saturated.
        client = ServiceClient(path, timeout=2)
        assert client.ping()["pong"] is True
        assert client.stats()["in_flight"] + client.stats()["queue_depth"] \
            >= 0
        for thread in started:
            thread.join(timeout=30)

    @staticmethod
    def _swallow(path, index):
        try:
            ServiceClient(path, timeout=15).compile(
                f"(defun s{index} () {index})")
        except ServiceError:
            pass

    def test_request_timeout(self, server_factory):
        handle = server_factory(server_cls=SlowServer, jobs=1,
                                request_timeout=0.05)
        client = ServiceClient(handle.server.socket_path, timeout=10)
        with pytest.raises(ServiceError) as err:
            client.compile("(defun slow () 1)")
        assert err.value.code == "timeout"
        assert handle.server.metrics.timeouts >= 1


class TestShutdown:
    def test_needs_a_listener(self):
        with pytest.raises(ValueError):
            ReproServer(CompilerOptions())

    def test_graceful_drain_completes_in_flight(self, server_factory):
        handle = server_factory(server_cls=SlowServer, jobs=1)
        path = handle.server.socket_path
        outcome = {}

        def slow_compile():
            client = ServiceClient(path, timeout=15)
            try:
                outcome["response"] = client.compile("(defun d () 1)")
            except Exception as err:  # noqa: BLE001 - recorded for assert
                outcome["error"] = err

        worker = threading.Thread(target=slow_compile)
        worker.start()
        time.sleep(0.05)  # request is in flight now
        handle.stop()     # drains before tearing down
        worker.join(timeout=30)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["response"]["defined"] == ["d"]
        # And the daemon really is gone afterwards.
        with pytest.raises(ServiceUnavailable):
            ServiceClient(path, timeout=1).ping()

    def test_shutdown_op(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        response = client.shutdown()
        assert response["draining"] is True
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        with pytest.raises(ServiceUnavailable):
            ServiceClient(handle.server.socket_path, timeout=1).ping()


class TestSharedDiskCache:
    def test_many_clients_one_daemon(self, server_factory, tmp_path):
        store = tmp_path / "store"
        handle = server_factory(jobs=4, max_queue=64,
                                cache_dir=str(store))
        path = handle.server.socket_path
        sources = [f"(defun c{index} (x) (+ x {index}))"
                   for index in range(4)]
        errors = []
        lock = threading.Lock()

        def hammer(worker):
            client = ServiceClient(path, timeout=30)
            for round_number in range(3):
                for source in sources:
                    try:
                        response = client.compile(source)
                        assert response["defined"]
                    except Exception as err:  # noqa: BLE001
                        with lock:
                            errors.append((worker, round_number, err))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        # Hit/miss accounting stayed consistent across every client: the
        # same 4 bodies were compiled 96 times, so probes = hits + misses
        # and the overwhelming majority were hits.
        totals = handle.server.metrics.diagnostics_totals["counters"]
        hits = totals.get("cache_hits", 0)
        misses = totals.get("cache_misses", 0)
        assert hits + misses == 8 * 3 * len(sources)
        assert hits > misses
        assert handle.server.metrics.cache_hit_ratio() > 0.5
        # The disk layer survived the concurrent atomic-replace traffic
        # and warms a brand-new daemon immediately.
        second = server_factory(jobs=1, cache_dir=str(store))
        client = ServiceClient(second.server.socket_path)
        client.compile(sources[0])
        totals = second.server.metrics.diagnostics_totals["counters"]
        assert totals.get("cache_hits", 0) >= 1
        assert totals.get("cache_misses", 0) == 0


class TestSharedResponseCache:
    """Every thread that calls one service shares its batch op's response
    cache."""

    @staticmethod
    def on_fresh_thread(call):
        """Run *call* on a thread that has never served a request."""
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(call).result(timeout=30)

    def test_unit_compiled_on_one_thread_is_served_on_another(self,
                                                              tmp_path):
        server = ReproServer(CompilerOptions(),
                             socket_path=str(tmp_path / "unused.sock"),
                             jobs=2)
        unit = {"label": "inc.lisp", "source": "(defun inc (x) (+ x 1))"}

        def batch():
            return server.service.handle_op("batch", {"units": [unit]})

        first = self.on_fresh_thread(batch)["files"][0]
        second = self.on_fresh_thread(batch)["files"][0]
        assert "served_from" not in first
        assert second["served_from"] == "response-cache"
        assert second["counters"] == {"response_cache_hits": 1}
        assert second["defined"] == first["defined"] == ["inc"]

    def test_concurrent_stores_and_probes_keep_the_bound(self):
        service = CompilerService(cache=CompilationCache(),
                                  response_cache_size=4)
        names = [f"k{index}" for index in range(8)]
        errors = []
        hits = []

        def hammer(worker):
            try:
                for step in range(24):
                    name = names[(worker + step // 2) % len(names)]
                    units = [{"label": name,
                              "source": f"(defun {name} () 0)"}]
                    entry = service.handle_op(
                        "batch", {"units": units})["files"][0]
                    if entry["defined"] != [name]:
                        errors.append((name, entry["defined"]))
                    if entry.get("served_from") == "response-cache":
                        hits.append(name)
            except Exception as err:  # noqa: BLE001
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert hits
        assert len(service._responses) <= 4


class TestSocketOwnership:
    def test_refuses_to_steal_live_socket(self, server_factory):
        from repro.errors import ReproError

        handle = server_factory()
        assert ServiceClient(handle.server.socket_path).ping()["pong"]
        second = ReproServer(CompilerOptions(),
                             socket_path=handle.server.socket_path)
        with pytest.raises(ReproError, match="already listening"):
            asyncio.run(second.start())
        # the live daemon kept its address
        assert ServiceClient(handle.server.socket_path).ping()["pong"]

    def test_stale_socket_is_replaced(self, server_factory, tmp_path):
        path = tmp_path / "stale.sock"
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()  # file remains, nothing accepts: a crash relic
        handle = server_factory(socket_path=str(path))
        assert ServiceClient(handle.server.socket_path).ping()["pong"]


class TestListenFailure:
    """An address that cannot be bound ends the start with one error
    line: the other listener, the worker pool and the socket file are
    released, and nothing was announced as listening."""

    @staticmethod
    def held_port():
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        return holder, holder.getsockname()[1]

    def test_start_releases_everything(self, tmp_path):
        from repro.errors import ReproError

        holder, port = self.held_port()
        path = tmp_path / "daemon.sock"
        children = set(multiprocessing.active_children())
        server = ReproServer(CompilerOptions(), socket_path=str(path),
                             http_addr=("127.0.0.1", port), jobs=2)
        try:
            with pytest.raises(ReproError,
                               match=f"cannot listen on http://127.0.0.1:"
                                     f"{port}: Address already in use"):
                asyncio.run(server.start())
        finally:
            holder.close()
        assert not path.exists()
        assert set(multiprocessing.active_children()) <= children

    def test_run_prints_one_error_line(self, tmp_path, capsys):
        holder, port = self.held_port()
        path = tmp_path / "daemon.sock"
        server = ReproServer(CompilerOptions(), socket_path=str(path),
                             http_addr=("127.0.0.1", port))
        try:
            assert server.run() == 1
        finally:
            holder.close()
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            f"repro serve: error: cannot listen on http://127.0.0.1:{port}:"
            f" Address already in use"]
        assert "Traceback" not in err
        assert not path.exists()


class TestHttpTransport:
    @pytest.fixture
    def http_server(self, server_factory):
        handle = server_factory(socket_path=None,
                                http_addr=("127.0.0.1", 0))
        port = handle.server.http_port
        assert port
        return handle, f"http://127.0.0.1:{port}"

    def test_post_compile(self, http_server):
        _, url = http_server
        client = ServiceClient(url)
        response = client.compile("(defun inc (x) (+ x 1))")
        assert response["defined"] == ["inc"]

    def _get(self, url, path):
        from http.client import HTTPConnection
        from urllib.parse import urlparse

        parsed = urlparse(url)
        conn = HTTPConnection(parsed.hostname, parsed.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def test_healthz(self, http_server):
        _, url = http_server
        status, body = self._get(url, "/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True, "api": API_VERSION}

    def test_metrics_document(self, http_server):
        handle, url = http_server
        ServiceClient(url).compile("(defun m (x) (* x x))")
        status, body = self._get(url, "/metrics")
        assert status == 200
        assert "repro_server_uptime_seconds" in body
        assert "repro_server_queue_depth 0" in body
        assert "repro_server_in_flight 0" in body
        assert 'repro_server_requests_total{op="compile"} 1' in body
        assert 'repro_server_request_seconds_bucket{op="compile",le="+Inf"}' \
            in body
        assert "repro_server_cache_hit_ratio" in body
        # the compiler's own exporter rides along, fed by running totals
        assert "repro_compilations_total 1" in body
        assert "repro_phase_seconds_total" in body

    def test_unknown_api_version_is_400(self, http_server):
        _, url = http_server
        from http.client import HTTPConnection
        from urllib.parse import urlparse

        parsed = urlparse(url)
        conn = HTTPConnection(parsed.hostname, parsed.port, timeout=10)
        try:
            conn.request("POST", "/", body=json.dumps(
                {"api": 99, "op": "ping"}))
            response = conn.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            assert payload["error"]["code"] == "unsupported-api-version"
        finally:
            conn.close()

    def test_oversized_body_is_413(self, server_factory):
        from http.client import HTTPConnection

        handle = server_factory(socket_path=None,
                                http_addr=("127.0.0.1", 0),
                                max_request_bytes=2048)
        conn = HTTPConnection("127.0.0.1", handle.server.http_port,
                              timeout=10)
        try:
            conn.request("POST", "/", body=b"x" * 10_000)
            response = conn.getresponse()
            assert response.status == 413
            payload = json.loads(response.read())
            assert payload["error"]["code"] == "too-large"
        finally:
            conn.close()

    def test_other_methods_rejected(self, http_server):
        _, url = http_server
        from http.client import HTTPConnection
        from urllib.parse import urlparse

        parsed = urlparse(url)
        conn = HTTPConnection(parsed.hostname, parsed.port, timeout=10)
        try:
            conn.request("PUT", "/")
            assert conn.getresponse().status == 405
        finally:
            conn.close()


class TestDaemonBackedBatch:
    def test_compile_batch_via_server(self, server_factory, tmp_path):
        handle = server_factory(jobs=1, max_queue=32,
                                cache_dir=str(tmp_path / "store"))
        paths = []
        for index in range(4):
            path = tmp_path / f"unit{index}.lisp"
            path.write_text(f"(defun b{index} (x) (+ x {index}))")
            paths.append(str(path))
        result = compile_batch(paths, server=handle.server.socket_path)
        assert result.executor == "server"
        assert result.error_count == 0
        assert [f.defined for f in result.files] \
            == [[f"b{index}"] for index in range(4)]
        # A repeat of the same workload is answered from the response
        # cache of the daemon's batch op.
        again = compile_batch(paths, server=handle.server.socket_path)
        assert again.error_count == 0
        assert again.counters().get("response_cache_hits", 0) >= 1

    def test_client_options_reach_the_daemon(self, server_factory,
                                             tmp_path):
        # The daemon compiles with ITS defaults unless the request pins
        # the semantic options: a `batch --server --target vax` against
        # an s1-defaulted daemon must ship the full semantic set.
        from repro.client import compile_units_via_server
        from repro.options import SEMANTIC_OPTION_FIELDS

        class RecordingServer(ReproServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.seen = []

            def _execute(self, op, params, accepted_at=None):
                self.seen.append((op, dict(params)))
                return super()._execute(op, params, accepted_at)

        handle = server_factory(server_cls=RecordingServer)
        results = compile_units_via_server(
            [("unit.lisp", "(defun v (x) (+ x 1))")],
            handle.server.socket_path,
            options=CompilerOptions(target="vax"))
        assert results[0].status == "ok"
        batches = [params for op, params in handle.server.seen
                   if op == "batch"]
        assert batches, "no batch op reached the daemon"
        wire = batches[0].get("options")
        assert wire is not None
        assert wire["target"] == "vax"
        # every declared-semantic field is pinned, not just the changed one
        assert set(wire) == set(SEMANTIC_OPTION_FIELDS)

    def test_a_batch_longer_than_the_request_timeout_completes(
            self, server_factory, monkeypatch):
        # A client batch goes out in requests of a few units, one after
        # another, so the daemon's --timeout bounds a request, not the
        # corpus.
        import repro.batch

        compile_unit = repro.batch.compile_unit

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return compile_unit(*args, **kwargs)

        monkeypatch.setattr(repro.batch, "compile_unit", slow)
        handle = server_factory(jobs=1, request_timeout=1.0)
        units = [(f"t{index}.lisp", f"(defun t{index} (x) (+ x {index}))")
                 for index in range(40)]
        started = time.perf_counter()
        result = compile_batch(units, server=handle.server.socket_path)
        assert time.perf_counter() - started > 2.0
        assert result.error_count == 0, result.report()
        assert [f.defined for f in result.files] \
            == [[f"t{index}"] for index in range(40)]
        assert handle.server.metrics.timeouts == 0

    def test_batch_reports_per_file_errors(self, server_factory, tmp_path):
        handle = server_factory()
        good = tmp_path / "good.lisp"
        good.write_text("(defun ok () 1)")
        result = compile_batch(
            [str(good), str(tmp_path / "missing.lisp")],
            server=handle.server.socket_path)
        assert result.files[0].ok
        assert not result.files[1].ok
        assert "missing" in result.files[1].path

    def test_unreachable_daemon_leaves_no_open_socket(self, tmp_path):
        client = ServiceClient(str(tmp_path / "absent.sock"), timeout=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ServiceUnavailable):
                client.ping()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_unreachable_server_is_per_file_error(self, tmp_path):
        good = tmp_path / "good.lisp"
        good.write_text("(defun ok () 1)")
        result = compile_batch([str(good)],
                               server=str(tmp_path / "nothing.sock"))
        assert result.error_count == 1
        assert "ServiceUnavailable" in result.files[0].error


class TestOneUnitRecord:
    """One function builds a batch unit's record in every mode, so the
    same units report the same outcomes inline, on a pool, through the
    service's batch op and through a daemon with and without worker
    processes."""

    @staticmethod
    def corpus():
        deep = "x"
        for _ in range(3000):
            deep = f"(1+ {deep})"
        units = [(f"u{index}.lisp", f"(defun u{index} (x) (+ x {index}))")
                 for index in range(7)]
        units.insert(3, ("deep.lisp", f"(defun deep (x) {deep})"))
        return units

    def outcomes(self, mode, units, server_factory, cache_dir):
        """(path, status, error, counters) per unit under *mode*, each
        mode over its own fresh cache directory."""
        if mode == "service":
            service = CompilerService(cache=cache_dir)
            files = service.handle_op("batch", {"units": [
                {"label": label, "source": source}
                for label, source in units]})["files"]
            return [(f["path"], f["status"], f["error"], f["counters"])
                    for f in files]
        if mode.startswith("daemon"):
            handle = server_factory(jobs=2 if mode == "daemon-pool" else 1,
                                    cache_dir=cache_dir)
            result = compile_batch(units, server=handle.server.socket_path)
        else:
            result = compile_batch(units, jobs=2 if mode == "pool" else 1,
                                   cache_dir=cache_dir)
        return [(f.path, f.status, f.error, f.counters)
                for f in result.files]

    MODES = ("inline", "pool", "service", "daemon", "daemon-pool")

    @pytest.mark.parametrize("mode", MODES)
    def test_a_raising_unit_is_only_its_own_error(self, mode,
                                                  server_factory, tmp_path):
        units = self.corpus()
        outcomes = self.outcomes(mode, units, server_factory,
                                 str(tmp_path / "store"))
        assert [path for path, *_ in outcomes] == \
            [label for label, _ in units]
        failed = [(path, error) for path, status, error, _ in outcomes
                  if status != "ok"]
        assert len(failed) == 1
        assert failed[0][0] == "deep.lisp"
        assert failed[0][1].startswith("RecursionError")

    def test_a_failed_unit_keeps_its_counters_in_every_mode(
            self, server_factory, tmp_path):
        units = [("conv.lisp", "(defun c-ok (x) x)\n(defun c-bad (1) x)"),
                 ("other.lisp", "(defun other (y) y)")]
        seen = {}
        for mode in self.MODES:
            path, status, error, counters = self.outcomes(
                mode, units, server_factory, str(tmp_path / mode))[0]
            assert (path, status) == ("conv.lisp", "error")
            assert error.startswith("ConversionError")
            seen[mode] = counters
        assert all(counters == {"cache_misses": 2, "cache_stores": 1}
                   for counters in seen.values()), seen

    def test_warm_repeat_report_names_the_response_cache(
            self, server_factory, tmp_path):
        handle = server_factory(jobs=1)
        units = [("a.lisp", "(defun a (x) x)"), ("b.lisp", "(defun b (x) x)")]
        compile_batch(units, server=handle.server.socket_path)
        warm = compile_batch(units, server=handle.server.socket_path)
        assert [f.served_from for f in warm.files] == ["response-cache"] * 2
        text = warm.report()
        assert text.count("1 definition(s), response cache") == 2
        assert "0/0" not in text


class TestDaemonPool:
    """``--jobs N`` means N worker processes in the daemon too: a batch
    op's misses run on the pool ``repro batch`` runs, started warm in
    ``start()``, while a ``--jobs 1`` daemon compiles in its own process."""

    @staticmethod
    def units(tag, count=4):
        return [(f"{tag}{index}.lisp", f"(defun {tag}{index} (x) (+ x {index}))")
                for index in range(count)]

    @staticmethod
    def compiling_pids(monkeypatch):
        """The pid of every record the daemon answers, in order (the
        daemon runs in this process; the pid stays off the wire)."""
        pids = []
        to_wire = BatchFileResult.to_wire

        def recording(record):
            pids.append(record.pid)
            return to_wire(record)

        monkeypatch.setattr(BatchFileResult, "to_wire", recording)
        return pids

    @staticmethod
    def children():
        return {child.pid for child in multiprocessing.active_children()}

    def test_misses_compile_on_worker_processes(self, server_factory,
                                                monkeypatch, tmp_path):
        pids = self.compiling_pids(monkeypatch)
        handle = server_factory(jobs=2, cache_dir=str(tmp_path / "store"))
        client = ServiceClient(handle.server.socket_path)
        stats = client.stats()
        assert (stats["executor"], stats["jobs"]) == ("process", 2)
        workers = self.children()
        assert len(workers) == 2        # started in start(), before a request
        cold = compile_batch(self.units("w"), server=handle.server.socket_path)
        assert cold.error_count == 0
        assert cold.counters() == {"cache_misses": 4, "cache_stores": 4}
        assert len(pids) == 4 and set(pids) <= workers
        # Every pool compile is counted: stats, /metrics and the response
        # cache, which answers the warm repeat.
        assert client.stats()["ops"]["compile"] == 4
        assert metric_value(parse_prometheus_text(
            handle.server.metrics.render(0, 0)),
            "repro_compilations_total") == 4
        warm = compile_batch(self.units("w"), server=handle.server.socket_path)
        assert warm.counters() == {"response_cache_hits": 4}
        handle.stop()
        assert not self.children() & workers

    def test_jobs_1_compiles_in_its_own_process(self, server_factory,
                                                monkeypatch):
        pids = self.compiling_pids(monkeypatch)
        before = self.children()
        handle = server_factory(jobs=1)
        result = compile_batch(self.units("i"), server=handle.server.socket_path)
        assert result.error_count == 0
        assert pids == [os.getpid()] * 4
        assert ServiceClient(handle.server.socket_path).stats()[
            "executor"] == "inline"
        assert self.children() == before

    def test_a_killed_worker_costs_at_most_one_request(self, server_factory,
                                                       monkeypatch):
        pids = self.compiling_pids(monkeypatch)
        handle = server_factory(jobs=2)
        client = ServiceClient(handle.server.socket_path)

        def batch(tag):
            return client.request("batch", units=[
                {"label": label, "source": source}
                for label, source in self.units(tag)])["files"]

        assert [f["status"] for f in batch("a")] == ["ok"] * 4
        assert pids[0] in self.children()
        os.kill(pids[0], signal.SIGKILL)
        assert client.ping()["pong"] is True
        assert client.stats()["executor"] == "process"
        # The next request answers one record per unit, never an error
        # envelope (its units may be errors if the death lands under it).
        assert [f["path"] for f in batch("b")] == \
            [label for label, _ in self.units("b")]
        assert client.ping()["pong"] is True
        assert client.stats()["in_flight"] == 0
        # ... and the one after runs on a fresh pool.
        again = batch("c")
        assert [f["status"] for f in again] == ["ok"] * 4
        assert not any("served_from" in f for f in again)
        assert pids[0] not in self.children()
        handle.stop()
        assert not self.children()

    def test_sigint_to_the_workers_is_left_to_the_daemon(
            self, server_factory, monkeypatch):
        # A Ctrl-C reaches the daemon's whole process group; only the
        # daemon acts on it (by draining), so its workers keep compiling.
        pids = self.compiling_pids(monkeypatch)
        handle = server_factory(jobs=2)
        workers = self.children()
        assert len(workers) == 2
        for pid in workers:
            os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        result = compile_batch(self.units("s", count=8),
                               server=handle.server.socket_path)
        assert result.error_count == 0, result.report()
        assert len(pids) == 8 and set(pids) <= workers
        assert self.children() == workers

    def test_client_side_jobs_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            compile_batch(self.units("r"), server=str(tmp_path / "no.sock"),
                          jobs=2)


class TestClientHangUp:
    """A client that leaves before its answer ends its connection; asyncio
    reports nothing and the daemon keeps answering."""

    def test_hang_ups_leave_nothing_in_the_loop_log(self, server_factory):
        handle = server_factory()
        loop = handle.server._loop
        reported = []
        loop.call_soon_threadsafe(loop.set_exception_handler,
                                  lambda _loop, context: reported.append(
                                      context.get("message")))
        path = handle.server.socket_path

        def hang_up(payload):
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.connect(path)
            conn.sendall(payload)
            conn.close()

        hang_up(b'{"api": 1, "op": "comp')             # a partial line
        hang_up(json.dumps({"api": API_VERSION, "op": "compile",
                            "source": "(defun gone (x) x)"}).encode()
                + b"\n")                                # a whole request
        assert _raw_socket_request(path, b"{malformed\n")["error"][
            "code"] == "bad-json"
        # A compile queues behind the abandoned one, so it has been
        # answered into a closed socket by the time this one is.
        assert ServiceClient(path).compile("(defun next (x) x)")[
            "defined"] == ["next"]
        deadline = time.monotonic() + 5
        while handle.server._conn_tasks and time.monotonic() < deadline:
            time.sleep(0.01)
        assert reported == []
        assert ServiceClient(path).ping()["pong"] is True


class TestEveryEnvelopeCounted:
    def test_refusals_are_counted_and_journaled_under_one_label(
            self, server_factory):
        handle = server_factory(max_request_bytes=4096)
        path = handle.server.socket_path
        answers = {
            "bad-json": _raw_socket_request(path, b"not json\n"),
            "unsupported-api-version": _raw_socket_request(
                path, json.dumps({"api": 2, "op": "ping"}).encode() + b"\n"),
            "too-large": _raw_socket_request(path, b"x" * 10_000 + b"\n"),
        }
        journal = {entry["id"]: entry["op"] for entry in
                   ServiceClient(path).stats()["recent_requests"]}
        for label, answer in answers.items():
            assert answer["error"]["code"] == label
            assert journal[answer["request_id"]] == label
        metrics = handle.server.metrics
        assert metrics.requests == {label: 1 for label in answers} \
            | {"stats": 1}
        assert metrics.errors == {label: 1 for label in answers}

    def test_request_far_over_the_limit_gets_the_envelope(
            self, server_factory):
        # The client is still sending when the limit trips: the daemon
        # reads the rest of the line away before it answers, so the
        # client reads the envelope instead of a broken pipe.
        handle = server_factory(max_request_bytes=200_000)
        client = ServiceClient(handle.server.socket_path)
        with pytest.raises(ServiceError) as refused:
            client.compile("(defun f (x) x)" + " " * 1_000_000)
        assert refused.value.code == "too-large"
        journal = [entry["op"] for entry in
                   client.stats()["recent_requests"]]
        assert journal == ["too-large"]
        assert handle.server.metrics.errors == {"too-large": 1}
        assert client.ping()["pong"] is True

    def test_nesting_deeper_than_the_parser_is_bad_json(self,
                                                         server_factory):
        # Far under the size limit, but deeper than json.loads recurses:
        # one more counted bad-json envelope, not a dead connection.
        handle = server_factory()
        path = handle.server.socket_path
        answer = _raw_socket_request(path, b"[" * 100_000 + b"\n")
        assert answer["error"]["code"] == "bad-json"
        journal = {entry["id"]: entry["op"] for entry in
                   ServiceClient(path).stats()["recent_requests"]}
        assert journal[answer["request_id"]] == "bad-json"
        assert handle.server.metrics.errors == {"bad-json": 1}


class TestClientCli:
    def test_ping(self, server_factory, capsys):
        from repro.__main__ import main

        handle = server_factory()
        code = main(["client", "--server", handle.server.socket_path,
                     "--ping"])
        assert code == 0
        assert "pong" in capsys.readouterr().out

    def test_compile_files(self, server_factory, tmp_path, capsys):
        from repro.__main__ import main

        handle = server_factory()
        path = tmp_path / "cli.lisp"
        path.write_text("(defun cli-f (x) x)")
        code = main(["client", str(path),
                     "--server", handle.server.socket_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 ok / 0 failed" in out
        assert "(server)" in out

    def test_no_daemon_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["client", "--ping",
                     "--server", str(tmp_path / "absent.sock")])
        assert code == 2
        assert "error" in capsys.readouterr().out

    def test_shutdown_flag(self, server_factory, capsys):
        from repro.__main__ import main

        handle = server_factory()
        code = main(["client", "--server", handle.server.socket_path,
                     "--shutdown"])
        assert code == 0
        assert "draining" in capsys.readouterr().out
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()


class TestServeCli:
    def test_serve_and_client_subcommands_listed(self):
        from repro.__main__ import SUBCOMMANDS

        assert set(SUBCOMMANDS) == {"repl", "batch", "fuzz", "serve",
                                    "client"}

    def test_serve_help_mentions_shared_flags(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        for flag in ("--cache-dir", "--jobs", "--max-queue", "--socket",
                     "--http", "--target", "--verify"):
            assert flag in out


# ---------------------------------------------------------------------------
# PR 9: request identity on every envelope


class TestRequestIdentity:
    def _raw(self, handle, **fields):
        request = {"api": API_VERSION, **fields}
        return ServiceClient(handle.server.socket_path,
                             timeout=15).request_raw(request)

    def test_trace_id_echoed_on_success(self, server_factory):
        handle = server_factory()
        response = self._raw(handle, op="compile",
                             source="(defun e (x) x)",
                             trace_id="trace-feedface")
        assert response["ok"] is True
        assert response["trace_id"] == "trace-feedface"
        # Traced requests get the server-side timing split too.
        timing = response["server_timing"]
        assert timing["queue_wait_s"] >= 0.0
        assert timing["execute_s"] > 0.0

    def test_request_id_minted_when_untraced(self, server_factory):
        handle = server_factory()
        response = self._raw(handle, op="ping")
        assert response["ok"] is True
        assert response["request_id"].startswith("req-")
        assert "trace_id" not in response
        assert "server_timing" not in response

    def test_trace_id_on_busy_error(self, server_factory):
        handle = server_factory(server_cls=SlowServer, jobs=1, max_queue=1)
        results = []
        lock = threading.Lock()

        def one(index):
            response = self._raw(handle, op="compile",
                                 source=f"(defun b{index} () {index})",
                                 trace_id=f"trace-busy-{index}")
            with lock:
                results.append((index, response))

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        busy = [(i, r) for i, r in results
                if not r["ok"] and r["error"]["code"] == "busy"]
        assert busy, "saturation should refuse at least one request"
        for index, response in busy:
            assert response["trace_id"] == f"trace-busy-{index}"

    def test_trace_id_on_timeout_error(self, server_factory):
        handle = server_factory(server_cls=SlowServer, jobs=1,
                                request_timeout=0.05)
        response = self._raw(handle, op="compile",
                             source="(defun t () 1)",
                             trace_id="trace-timeout")
        assert response["ok"] is False
        assert response["error"]["code"] == "timeout"
        assert response["trace_id"] == "trace-timeout"

    def test_request_id_on_too_large_error(self, server_factory):
        # An oversized request is refused before parsing, so there is no
        # trace_id to echo -- but the envelope still has an identity.
        handle = server_factory(max_request_bytes=4096)
        response = _raw_socket_request(handle.server.socket_path,
                                       b"x" * 10_000 + b"\n")
        assert response["error"]["code"] == "too-large"
        assert response["request_id"].startswith("req-")

    def test_request_id_on_bad_json_error(self, server_factory):
        handle = server_factory()
        response = _raw_socket_request(handle.server.socket_path,
                                       b"not json\n")
        assert response["error"]["code"] == "bad-json"
        assert response["request_id"].startswith("req-")

    def test_http_too_large_has_request_id(self, server_factory):
        from http.client import HTTPConnection

        handle = server_factory(socket_path=None,
                                http_addr=("127.0.0.1", 0),
                                max_request_bytes=2048)
        conn = HTTPConnection("127.0.0.1", handle.server.http_port,
                              timeout=10)
        try:
            conn.request("POST", "/", body=b"x" * 10_000)
            payload = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert payload["error"]["code"] == "too-large"
        assert payload["request_id"].startswith("req-")

    def test_stats_logs_recent_request_ids(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        client.compile("(defun r1 () 1)", trace_id="trace-logged")
        client.compile("(defun r2 () 2)")
        stats = client.stats()
        recent = stats["recent_requests"]
        by_id = {entry["id"]: entry for entry in recent}
        assert "trace-logged" in by_id
        logged = by_id["trace-logged"]
        assert logged["op"] == "compile"
        assert logged["ok"] is True
        assert logged["seconds"] >= 0.0
        # Untraced requests appear under their minted ids.
        assert any(entry["id"].startswith("req-") for entry in recent)

    def test_recent_journal_is_bounded(self):
        metrics = ServerMetrics()
        for index in range(RECENT_REQUEST_IDS + 10):
            metrics.note_request(f"req-{index:04d}", "ping", 0.001, True)
        recent = metrics.recent_requests()
        assert len(recent) == RECENT_REQUEST_IDS
        assert recent[0]["id"] == "req-0010"
        assert recent[-1]["id"] == f"req-{RECENT_REQUEST_IDS + 9:04d}"


# ---------------------------------------------------------------------------
# PR 9: latency histogram arithmetic (validated with the strict parser)


class TestServerMetricsHistogram:
    INJECTED = [0.0005, 0.003, 0.003, 0.02, 0.3, 20.0]

    def _parsed(self, injected=None, op="compile"):
        metrics = ServerMetrics()
        for seconds in injected or self.INJECTED:
            metrics.observe(op, seconds, ok=True)
        return parse_prometheus_text(metrics.render(0, 0))

    def test_bucket_cumulative_counts_exact(self):
        parsed = self._parsed()
        for bound in LATENCY_BUCKETS:
            expected = sum(1 for s in self.INJECTED if s <= bound)
            got = metric_value(parsed, "repro_server_request_seconds_bucket",
                               {"op": "compile", "le": str(bound)})
            assert got == expected, f"le={bound}"

    def test_inf_bucket_equals_count(self):
        parsed = self._parsed()
        inf = metric_value(parsed, "repro_server_request_seconds_bucket",
                           {"op": "compile", "le": "+Inf"})
        count = metric_value(parsed, "repro_server_request_seconds_count",
                             {"op": "compile"})
        assert inf == count == len(self.INJECTED)

    def test_sum_matches_injected_latencies(self):
        parsed = self._parsed()
        total = metric_value(parsed, "repro_server_request_seconds_sum",
                             {"op": "compile"})
        assert total == pytest.approx(sum(self.INJECTED), abs=1e-5)

    def test_ops_tracked_independently(self):
        metrics = ServerMetrics()
        metrics.observe("compile", 0.2, ok=True)
        metrics.observe("ping", 0.0001, ok=True)
        parsed = parse_prometheus_text(metrics.render(0, 0))
        assert metric_value(parsed, "repro_server_request_seconds_count",
                            {"op": "compile"}) == 1
        assert metric_value(parsed, "repro_server_request_seconds_count",
                            {"op": "ping"}) == 1
        assert metric_value(parsed, "repro_server_request_seconds_bucket",
                            {"op": "ping", "le": "0.001"}) == 1
        assert metric_value(parsed, "repro_server_request_seconds_bucket",
                            {"op": "compile", "le": "0.001"}) == 0

    def test_whole_render_parses_strictly(self):
        # The /metrics document, including the compiler exporter trailer,
        # is structurally valid -- every sample under a declared family.
        parsed = self._parsed()
        assert parsed["families"]["repro_server_request_seconds"]["type"] \
            == "histogram"
        assert metric_value(parsed, "repro_server_queue_depth") == 0

    def test_live_metrics_endpoint_parses_strictly(self, server_factory):
        from http.client import HTTPConnection

        handle = server_factory(socket_path=None,
                                http_addr=("127.0.0.1", 0))
        ServiceClient(f"http://127.0.0.1:{handle.server.http_port}") \
            .compile("(defun live (x) x)")
        conn = HTTPConnection("127.0.0.1", handle.server.http_port,
                              timeout=10)
        try:
            conn.request("GET", "/metrics")
            body = conn.getresponse().read().decode()
        finally:
            conn.close()
        parsed = parse_prometheus_text(body)
        assert metric_value(parsed, "repro_server_requests_total",
                            {"op": "compile"}) == 1
        assert metric_value(parsed, "repro_compilations_total") == 1


# ---------------------------------------------------------------------------
# PR 9: the end-to-end traced round trip (acceptance)


class TestEndToEndRequestTrace:
    def test_one_perfetto_trace_per_request(self, server_factory):
        handle = server_factory()
        client = ServiceClient(handle.server.socket_path)
        source = "(defun square (x) (* x x))"
        response, record = client.compile_traced(source, diagnostics=True)
        trace_id = record["trace_id"]
        assert response["trace_id"] == trace_id
        assert record["server_timing"]["execute_s"] > 0.0

        # Execute the compiled function locally with telemetry on: the
        # daemon compiles, the requesting process runs.
        compiler = Compiler()
        compiler.compile_source(source)
        machine = compiler.machine()
        machine.enable_telemetry()
        assert machine.run(sym("square"), [12]) == 144

        trace = build_request_trace(record, response["diagnostics"],
                                    machine.telemetry)
        events = [e for e in trace["traceEvents"] if e.get("ph") != "M"]
        categories = {e["cat"] for e in events}
        assert {"client", "server", "phase", "execution"} <= categories
        names = {e["name"] for e in events}
        assert f"request {trace_id}" in names
        assert {"queue-wait", "execute", "codegen", "run square"} <= names
        # Every span of every layer carries the one trace id.
        for event in events:
            if event["cat"] in ("client", "server", "phase", "execution"):
                assert event["args"]["trace_id"] == trace_id, event
        # Perfetto-loadable: valid JSON, complete spans, ms display unit.
        document = json.loads(json.dumps(trace))
        assert document["displayTimeUnit"] == "ms"
        assert all("dur" in e for e in events if e["ph"] == "X")

        # ... and the daemon logged the same id server-side.
        stats = client.stats()
        assert any(entry["id"] == trace_id
                   for entry in stats["recent_requests"])
