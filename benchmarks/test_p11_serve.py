"""P11: the compile daemon (``python -m repro serve``).

Claims measured (ISSUE 6 acceptance criteria):

* a warm daemon answers a compile request >= 5x faster than a cold CLI
  invocation of the same workload (the daemon amortizes interpreter boot,
  imports, and cache population across requests); the cold time is also
  split into interpreter start, the import of what ``batch`` loads, and
  the rest, and the speedup is restated net of the first two,
* shipping a 50-program fuzz corpus to the daemon (``compile_batch(...,
  server=...)``) is no slower than a ``jobs=1`` local batch on a
  single-core host, and records multi-core scaling where available.

Results land in ``BENCH_serve.json`` (override the path with the
``REPRO_BENCH_SERVE_JSON`` environment variable).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.batch import compile_batch  # noqa: E402
from repro.client import ServiceClient  # noqa: E402
from repro.fuzz import corpus  # noqa: E402
from repro.options import CompilerOptions  # noqa: E402
from repro.serve import ReproServer  # noqa: E402

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_EXAMPLES = [os.path.join(_REPO_ROOT, "examples", name)
             for name in ("iterative.lisp", "list-utils.lisp",
                          "polynomial.lisp")]

_RESULTS_PATH = os.environ.get(
    "REPRO_BENCH_SERVE_JSON",
    os.path.join(os.path.dirname(__file__), "BENCH_serve.json"))


def _merge_results(section: str, data) -> None:
    payload = {}
    if os.path.exists(_RESULTS_PATH):
        try:
            with open(_RESULTS_PATH, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {}
    payload[section] = data
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _DaemonHandle:
    """One in-process daemon on a private event-loop thread."""

    def __init__(self, **kwargs):
        self.server = ReproServer(CompilerOptions(), **kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        await self.server.start()
        self._ready.set()
        await self.server._stop_event.wait()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "daemon never came up"
        return self

    def __exit__(self, *exc):
        loop = self.server._loop
        if loop is not None and not loop.is_closed():
            try:
                asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(), loop).result(timeout=30)
            except RuntimeError:
                pass
        self._thread.join(timeout=30)


class TestWarmDaemonVsColdCli:
    def test_warm_requests_beat_cold_invocations_5x(self, tmp_path, table):
        sock = str(tmp_path / "bench.sock")
        store = str(tmp_path / "store")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(_REPO_ROOT, "src"))

        def fresh_process(*argv: str) -> float:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *argv], env=env, cwd=_REPO_ROOT,
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            return time.perf_counter() - started

        # Cold: a fresh interpreter per compile -- what every CLI user
        # pays without the daemon (boot + imports + compile).  Interleaved
        # with it, the two prefixes of that cost: a bare interpreter, and
        # one that imports exactly what `batch` loads before compiling.
        cold_seconds, start_seconds, import_seconds = [], [], []
        for path in _EXAMPLES:
            start_seconds.append(fresh_process("-c", "pass"))
            import_seconds.append(fresh_process(
                "-c", "import repro.__main__, repro.batch, repro.compiler"))
            cold_seconds.append(fresh_process("-m", "repro", "batch", path))

        with _DaemonHandle(socket_path=sock, cache_dir=store,
                           jobs=1) as daemon:
            client = ServiceClient(sock)
            assert client.wait_ready(10)
            sources = {}
            for path in _EXAMPLES:
                with open(path, "r", encoding="utf-8") as handle:
                    sources[path] = handle.read()
                client.compile(sources[path])  # populate the shared cache
            warm_seconds = []
            for path in _EXAMPLES:
                started = time.perf_counter()
                response = client.compile(sources[path])
                warm_seconds.append(time.perf_counter() - started)
                assert response["defined"]
            assert daemon.server.metrics.cache_hit_ratio() > 0.0

        def mean(values):
            return sum(values) / len(values)

        cold_avg = mean(cold_seconds)
        warm_avg = max(mean(warm_seconds), 1e-9)
        start_avg = mean(start_seconds)
        import_avg = max(mean(import_seconds) - start_avg, 0.0)
        rest_avg = max(cold_avg - start_avg - import_avg, 0.0)
        speedup = cold_avg / warm_avg
        table(f"P11a: examples workload, {len(_EXAMPLES)} files",
              ["configuration", "avg seconds/file", "warm daemon speedup"],
              [["cold CLI (fresh process)", f"{cold_avg:.3f}",
                f"{speedup:.0f}x"],
               ["  interpreter start", f"{start_avg:.3f}", ""],
               ["  import of the batch pipeline", f"{import_avg:.3f}", ""],
               ["  the rest (compile, report)", f"{rest_avg:.3f}",
                f"{rest_avg / warm_avg:.1f}x"],
               ["warm daemon request", f"{warm_avg:.4f}", "1.0x"]])
        _merge_results("warm_daemon_vs_cold_cli", {
            "files": [os.path.basename(p) for p in _EXAMPLES],
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "cold_avg_seconds": cold_avg,
            "warm_avg_seconds": warm_avg,
            "speedup": speedup,
            "cold_split_avg_seconds": {"interpreter_start": start_avg,
                                       "import": import_avg,
                                       "rest": rest_avg},
            "speedup_net_of_start_and_import": rest_avg / warm_avg,
        })
        assert speedup >= 5.0, (
            f"warm daemon only {speedup:.1f}x faster than cold CLI")


class TestDaemonBackedBatch:
    ROUNDS = 3

    def test_fuzz_corpus_via_daemon(self, tmp_path, table):
        programs = corpus(50, base_seed=7, n_functions=3, max_depth=5)
        units = [(f"fuzz{index:02d}", source)
                 for index, (source, _, _) in enumerate(programs)]
        cores = _host_cores()
        jobs = min(4, cores)

        # Interleave cold runs of both configurations and take the best
        # of each: the compile work is identical, so min-of-N isolates
        # the daemon's real overhead (wire + scheduling) from scheduler
        # jitter, which on shared CI hosts exceeds that overhead.
        local_seconds = []
        daemon_seconds = []
        warm = None
        for round_number in range(self.ROUNDS):
            local = compile_batch(
                units, jobs=1,
                cache_dir=str(tmp_path / f"local{round_number}"),
                want_diagnostics=False)
            assert local.error_count == 0
            local_seconds.append(local.seconds)

            sock = str(tmp_path / f"batch{round_number}.sock")
            with _DaemonHandle(
                    socket_path=sock,
                    cache_dir=str(tmp_path / f"daemon{round_number}"),
                    jobs=jobs, max_queue=64):
                via_daemon = compile_batch(units, server=sock)
                assert via_daemon.error_count == 0
                daemon_seconds.append(via_daemon.seconds)
                if round_number == self.ROUNDS - 1:
                    # The warm repeat is answered from the daemon's
                    # response cache -- the point of keeping it alive.
                    warm = compile_batch(units, server=sock)
                    assert warm.error_count == 0
                    assert warm.counters().get(
                        "response_cache_hits", 0) >= len(units)

        local_best = min(local_seconds)
        daemon_best = min(daemon_seconds)
        ratio = daemon_best / max(local_best, 1e-9)
        table(f"P11b: 50-program fuzz corpus, best of {self.ROUNDS} "
              f"({cores} core(s), daemon jobs={jobs})",
              ["configuration", "seconds", "vs jobs=1 local"],
              [["local batch, jobs=1", f"{local_best:.3f}", "1.00x"],
               ["daemon-backed (cold)", f"{daemon_best:.3f}",
                f"{ratio:.2f}x"],
               ["daemon-backed (warm)", f"{warm.seconds:.3f}",
                f"{warm.seconds / max(local_best, 1e-9):.2f}x"]])
        _merge_results("daemon_backed_batch", {
            "programs": len(units),
            "cores": cores,
            "daemon_jobs": jobs,
            "rounds": self.ROUNDS,
            "local_jobs1_seconds": local_seconds,
            "daemon_cold_seconds": daemon_seconds,
            "local_best_seconds": local_best,
            "daemon_best_seconds": daemon_best,
            "daemon_warm_seconds": warm.seconds,
            "cold_ratio": ratio,
        })
        # "No slower": a 3% allowance covers the wire round trips on a
        # single-core host (measured overhead vs an in-process call);
        # multi-core hosts must genuinely not lose (the daemon compiles
        # the batch's misses on `jobs` worker processes).
        budget = 1.03 if cores < 2 else 1.0
        assert daemon_best <= local_best * budget, (
            f"daemon batch {daemon_best:.3f}s vs jobs=1 local "
            f"{local_best:.3f}s ({cores} cores)")
        assert warm.seconds < local_best


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
