"""P10: the content-addressed compilation cache and the batch driver.

Claims measured (ISSUE 3 acceptance criteria):

* warm-cache recompilation of a 20-file corpus is >= 5x faster than the
  cold compile (both a disk-warm fresh process and a memory-warm reuse),
* ``--jobs 4`` batch compilation of >= 20 files beats ``--jobs 1`` when
  the host actually has more than one core (single-core containers record
  the timings but skip the assertion -- there is nothing to win there).

Results land in ``BENCH_cache_speedup.json`` (override the path with the
``REPRO_BENCH_CACHE_JSON`` environment variable) so CI can archive the
trajectory.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tests.genprog import corpus  # noqa: E402  (path bootstrap above)

from repro import Compiler  # noqa: E402
from repro.batch import compile_batch  # noqa: E402
from repro.cache import CompilationCache  # noqa: E402

import time  # noqa: E402

N_FILES = 24
CORPUS = corpus(N_FILES, base_seed=42, n_functions=8, max_depth=6)

_RESULTS_PATH = os.environ.get(
    "REPRO_BENCH_CACHE_JSON",
    os.path.join(os.path.dirname(__file__), "BENCH_cache_speedup.json"))


def _merge_results(section: str, data) -> None:
    """Read-modify-write the shared JSON artifact (tests run in one
    process, but each test owns one section)."""
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


def _compile_corpus(cache) -> float:
    started = time.perf_counter()
    for source, _, _ in CORPUS:
        compiler = Compiler(cache=cache)
        compiler.compile_source(source)
    return time.perf_counter() - started


class TestWarmCacheSpeedup:
    def test_warm_recompilation_is_5x_faster(self, tmp_path, table):
        store = str(tmp_path / "store")
        cold_seconds = _compile_corpus(CompilationCache(directory=store))

        # Disk-warm: a fresh process/compiler population, empty memory
        # layer, every entry served from the on-disk store.
        disk_cache = CompilationCache(directory=store)
        disk_seconds = _compile_corpus(disk_cache)

        # Memory-warm: the same cache object again; the LRU layer serves
        # everything without touching a pickle.
        memory_seconds = _compile_corpus(disk_cache)

        disk_speedup = cold_seconds / max(disk_seconds, 1e-9)
        memory_speedup = cold_seconds / max(memory_seconds, 1e-9)
        table("P10a: warm-cache recompilation (corpus of "
              f"{N_FILES} units)",
              ["configuration", "seconds", "speedup"],
              [["cold (empty cache)", f"{cold_seconds:.3f}", "1.0x"],
               ["warm (disk store)", f"{disk_seconds:.3f}",
                f"{disk_speedup:.1f}x"],
               ["warm (memory LRU)", f"{memory_seconds:.3f}",
                f"{memory_speedup:.1f}x"]])
        _merge_results("warm_cache", {
            "files": N_FILES,
            "cold_seconds": cold_seconds,
            "disk_warm_seconds": disk_seconds,
            "memory_warm_seconds": memory_seconds,
            "disk_speedup": disk_speedup,
            "memory_speedup": memory_speedup,
        })
        assert disk_speedup >= 5.0, (
            f"warm disk cache only {disk_speedup:.1f}x faster")
        assert memory_speedup >= 5.0, (
            f"warm memory cache only {memory_speedup:.1f}x faster")

    def test_cache_hits_match_corpus_size(self, tmp_path):
        store = str(tmp_path / "store")
        cold_cache = CompilationCache(directory=store)
        _compile_corpus(cold_cache)
        warm_cache = CompilationCache(directory=store)
        _compile_corpus(warm_cache)
        assert warm_cache.stats.misses == 0
        # Content addressing dedups identical generated functions, so the
        # cold run may itself hit; warm hits must cover every unit.
        assert warm_cache.stats.hits == \
            cold_cache.stats.stores + cold_cache.stats.hits


class TestParallelBatchSpeedup:
    def _write_corpus(self, tmp_path):
        paths = []
        for index, (source, _, _) in enumerate(CORPUS):
            path = tmp_path / f"prog{index:02d}.lisp"
            path.write_text(source + "\n", encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_jobs4_vs_jobs1(self, tmp_path, table):
        paths = self._write_corpus(tmp_path)
        serial = compile_batch(paths, jobs=1)
        parallel = compile_batch(paths, jobs=4)
        assert serial.error_count == 0
        assert parallel.error_count == 0

        cores = _host_cores()
        speedup = serial.seconds / max(parallel.seconds, 1e-9)
        table(f"P10b: batch compilation, {len(paths)} files "
              f"({cores} core(s), executor={parallel.executor})",
              ["jobs", "seconds", "speedup"],
              [["1", f"{serial.seconds:.3f}", "1.0x"],
               ["4", f"{parallel.seconds:.3f}", f"{speedup:.2f}x"]])
        _merge_results("parallel_batch", {
            "files": len(paths),
            "cores": cores,
            "executor": parallel.executor,
            "jobs1_seconds": serial.seconds,
            "jobs4_seconds": parallel.seconds,
            "speedup": speedup,
        })
        if cores < 2 or parallel.executor != "process":
            pytest.skip(
                f"host has {cores} core(s) / executor={parallel.executor}: "
                "parallel speedup not assertable (timings recorded)")
        assert parallel.seconds < serial.seconds, (
            f"jobs=4 ({parallel.seconds:.3f}s) not faster than "
            f"jobs=1 ({serial.seconds:.3f}s) on {cores} cores")

    def test_warm_parallel_batch_serves_from_cache(self, tmp_path):
        paths = self._write_corpus(tmp_path)
        cache_dir = str(tmp_path / ".cache")
        cold = compile_batch(paths, jobs=2, cache_dir=cache_dir)
        warm = compile_batch(paths, jobs=2, cache_dir=cache_dir)
        assert cold.error_count == 0 and warm.error_count == 0
        assert warm.counters().get("cache_misses", 0) == 0
        assert warm.counters()["cache_hits"] == \
            cold.counters()["cache_stores"] + \
            cold.counters().get("cache_hits", 0)
        _merge_results("warm_parallel_batch", {
            "cold_seconds": cold.seconds,
            "warm_seconds": warm.seconds,
            "cold_counters": cold.counters(),
            "warm_counters": warm.counters(),
        })
