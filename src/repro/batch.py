"""Parallel batch compilation: many files, a worker pool, one report.

``compile_batch`` partitions a list of source files (or ``(label, text)``
pairs) across a ``concurrent.futures`` pool.  Each unit is compiled by its
own :class:`repro.Compiler` instance (workers share nothing but the
content-addressed cache directory, so compilation order cannot change any
result), results are merged back in input order regardless of completion
order, and a failing file is reported as a per-file error instead of
killing the batch.

Process pools are the default for ``jobs > 1`` (compilation is CPU-bound
Python); when the platform cannot provide one (restricted sandboxes), the
driver degrades to a thread pool and records that in the report.  Each
worker process keeps one :class:`repro.cache.CompilationCache` per cache
directory, so the in-memory LRU layer is reused across the files a worker
handles and the on-disk layer is shared by everyone.

The CLI lives in ``python -m repro batch``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .cache import CompilationCache
from .options import CompilerOptions

#: One work unit: a filesystem path, or an explicit (label, source) pair.
BatchItem = Union[str, "os.PathLike[str]", Tuple[str, str]]

#: Option fields that cannot (or must not) cross a process boundary.
_UNPICKLABLE_OPTION_FIELDS = ("cache", "transcript_stream")


def _options_spec(options: CompilerOptions) -> Dict[str, Any]:
    """CompilerOptions as a picklable field dict (cache and stream handles
    are re-attached worker-side)."""
    return {f.name: getattr(options, f.name)
            for f in dataclass_fields(options)
            if f.name not in _UNPICKLABLE_OPTION_FIELDS}


# One cache object per (process, cache directory): the memory LRU layer is
# shared across every file the worker compiles.
_WORKER_CACHES: Dict[str, CompilationCache] = {}


def _worker_cache(cache_dir: Optional[str]) -> Optional[CompilationCache]:
    if cache_dir is None:
        return None
    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = CompilationCache(directory=cache_dir)
        _WORKER_CACHES[cache_dir] = cache
    return cache


@dataclass
class BatchFileResult:
    """Per-file outcome, merged into :class:`BatchResult` in input order."""

    path: str
    status: str                     # "ok" | "error"
    defined: List[str] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None
    #: Diagnostics counters of this file's compile (cache hits/misses/...).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Warnings raised during the compile (cache corruption notes etc.).
    warnings: List[str] = field(default_factory=list)
    #: Worker process id (all equal under jobs=1; several under a pool).
    pid: int = 0
    #: Full ``Diagnostics.to_json()`` of this file's compile (phase spans,
    #: rewrites, counters) -- the trace exporter's per-worker track data.
    diagnostics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "status": self.status,
            "defined": list(self.defined),
            "seconds": self.seconds,
            "error": self.error,
            "counters": dict(self.counters),
            "warnings": list(self.warnings),
            "pid": self.pid,
            "diagnostics": self.diagnostics,
        }


@dataclass
class BatchResult:
    """Everything one ``compile_batch`` call produced."""

    files: List[BatchFileResult]
    jobs: int
    seconds: float
    executor: str                   # "inline" | "process" | "thread"
    cache_dir: Optional[str] = None

    @property
    def ok_count(self) -> int:
        return sum(1 for f in self.files if f.ok)

    @property
    def error_count(self) -> int:
        return len(self.files) - self.ok_count

    def counters(self) -> Dict[str, int]:
        """Diagnostics counters summed over every file."""
        totals: Dict[str, int] = {}
        for result in self.files:
            for counter, amount in result.counters.items():
                totals[counter] = totals.get(counter, 0) + amount
        return totals

    def trace_entries(self) -> List[Tuple[Dict[str, Any], int, int, str]]:
        """(diagnostics, pid, tid, label) tuples for
        :func:`repro.trace.build_chrome_trace`: one pid track per worker
        process, one tid lane per file that worker compiled."""
        lanes: Dict[int, int] = {}
        entries: List[Tuple[Dict[str, Any], int, int, str]] = []
        for result in self.files:
            if result.diagnostics is None:
                continue
            tid = lanes.get(result.pid, 0)
            lanes[result.pid] = tid + 1
            entries.append((result.diagnostics, result.pid, tid, result.path))
        return entries

    def to_json(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "executor": self.executor,
            "seconds": self.seconds,
            "cache_dir": self.cache_dir,
            "ok": self.ok_count,
            "errors": self.error_count,
            "counters": self.counters(),
            "files": [result.to_json() for result in self.files],
        }

    def report(self) -> str:
        lines = [
            f"batch: {len(self.files)} file(s), jobs={self.jobs} "
            f"({self.executor}), {self.seconds:.3f}s, "
            f"{self.ok_count} ok / {self.error_count} failed",
        ]
        for result in self.files:
            if result.ok:
                detail = f"{len(result.defined)} definition(s)"
                hits = result.counters.get("cache_hits", 0)
                if result.counters:
                    detail += (f", cache {hits}/"
                               f"{hits + result.counters.get('cache_misses', 0)}"
                               f" hit")
            else:
                detail = result.error or "unknown error"
            lines.append(f"  {'ok ' if result.ok else 'ERR'} "
                         f"{result.path}  [{result.seconds:.3f}s]  {detail}")
        totals = self.counters()
        if totals:
            rendered = ", ".join(f"{name}={totals[name]}"
                                 for name in sorted(totals))
            lines.append(f"  totals: {rendered}")
        return "\n".join(lines)


def _item_label(item: BatchItem) -> str:
    if isinstance(item, tuple):
        return item[0]
    return os.fspath(item)


def _compile_one(spec: Dict[str, Any], cache_dir: Optional[str],
                 label: str, source: Optional[str],
                 load_prelude: bool,
                 want_diagnostics: bool = True) -> Dict[str, Any]:
    """Worker entry: compile one unit with a fresh Compiler.  Returns a
    plain dict (picklable across the pool boundary)."""
    from .compiler import Compiler

    started = time.perf_counter()
    result: Dict[str, Any] = {
        "path": label, "status": "ok", "defined": [], "error": None,
        "counters": {}, "warnings": [], "pid": os.getpid(),
        "diagnostics": None,
    }
    compiler: Optional[Compiler] = None
    try:
        if source is None:
            with open(label, "r", encoding="utf-8") as handle:
                source = handle.read()
        options = CompilerOptions(**spec, cache=_worker_cache(cache_dir))
        compiler = Compiler(options)
        if load_prelude:
            compiler.load_prelude()
        compiled = compiler.compile(source)
        result["defined"] = [str(name) for name in compiled.defined]
    except Exception as err:  # noqa: BLE001 - per-file status, never die
        result["status"] = "error"
        result["error"] = f"{type(err).__name__}: {err}"
    # Harvest diagnostics for ok AND errored files alike: a compile that
    # died in codegen still probed the cache and raised warnings, and
    # those counters must survive the merge.
    diagnostics = compiler.last_diagnostics if compiler is not None else None
    if diagnostics is not None:
        result["counters"] = dict(diagnostics.counters)
        result["warnings"] = [message.render()
                              for message in diagnostics.warnings]
        # Full diagnostics JSON (phase spans, rewrites) can dwarf the
        # actual outcome; when nothing downstream wants it (no trace/
        # metrics export), keep the cross-process payload lean --
        # compiled artifacts already live in the shared disk cache, so
        # nothing heavy needs to cross the pool boundary at all.
        if want_diagnostics:
            result["diagnostics"] = diagnostics.to_json()
    result["seconds"] = time.perf_counter() - started
    return result


def compile_batch(items: Sequence[BatchItem], *,
                  options: Optional[CompilerOptions] = None,
                  jobs: int = 1,
                  cache_dir: Optional[Union[str, os.PathLike]] = None,
                  load_prelude: bool = False,
                  server: Optional[str] = None,
                  want_diagnostics: bool = True) -> BatchResult:
    """Compile *items* (paths or ``(label, source)`` pairs) and merge the
    per-file outcomes deterministically (input order).

    *jobs* > 1 runs a process pool with per-worker Compiler instances;
    *cache_dir* (or ``options.cache``) shares one content-addressed store
    across workers and across runs.  *server* (a daemon address: unix
    socket path or ``http://host:port``) skips local pools entirely and
    ships ``(source, request fingerprint)`` to a warm ``repro serve``
    daemon over *jobs* concurrent connections -- compiled artifacts stay
    in the daemon's shared cache; only names and counters come back.
    *want_diagnostics=False* drops the per-file diagnostics JSON from the
    results (counters and warnings are always kept), keeping the
    cross-process payload lean when no trace/metrics export needs it."""
    options = options or CompilerOptions()
    spec = _options_spec(options)
    if cache_dir is None and options.cache is not None:
        if isinstance(options.cache, CompilationCache):
            cache_dir = options.cache.directory
        else:
            cache_dir = os.fspath(options.cache)
    cache_dir = os.fspath(cache_dir) if cache_dir is not None else None

    units: List[Tuple[str, Optional[str]]] = []
    for item in items:
        if isinstance(item, tuple):
            units.append((item[0], item[1]))
        else:
            units.append((os.fspath(item), None))

    started = time.perf_counter()
    jobs = max(1, int(jobs))

    if server is not None:
        from .client import compile_units_via_server

        raw_results = compile_units_via_server(
            units, server, options=options, jobs=jobs,
            load_prelude=load_prelude)
        files = [BatchFileResult(**entry) for entry in raw_results]
        return BatchResult(files=files, jobs=jobs,
                           seconds=time.perf_counter() - started,
                           executor="server", cache_dir=cache_dir)

    executor_kind = "inline"
    raw: List[Optional[Dict[str, Any]]] = [None] * len(units)

    if jobs == 1 or len(units) <= 1:
        for index, (label, source) in enumerate(units):
            raw[index] = _compile_one(spec, cache_dir, label, source,
                                      load_prelude, want_diagnostics)
    else:
        import concurrent.futures

        executor_kind, pool = _make_pool(jobs)
        with pool:
            futures = {
                pool.submit(_compile_one, spec, cache_dir, label, source,
                            load_prelude, want_diagnostics): index
                for index, (label, source) in enumerate(units)
            }
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    raw[index] = future.result()
                except Exception as err:  # worker died (pool breakage, ...)
                    raw[index] = {
                        "path": units[index][0], "status": "error",
                        "defined": [], "seconds": 0.0,
                        "error": f"{type(err).__name__}: {err}",
                        "counters": {}, "warnings": [], "pid": 0,
                        "diagnostics": None,
                    }

    files = [BatchFileResult(**entry) for entry in raw if entry is not None]
    return BatchResult(files=files, jobs=jobs,
                       seconds=time.perf_counter() - started,
                       executor=executor_kind, cache_dir=cache_dir)


#: Memoized result of the cheap pre-spawn viability probe (None: not yet
#: probed).  Process-pool viability is a property of the host/sandbox, so
#: one probe per process is enough.
_POOL_VIABLE: Optional[bool] = None


def process_pool_viable() -> bool:
    """Whether this host can actually run a process pool, probed *before*
    paying the pool-spawn cost.

    Restricted sandboxes typically fail at multiprocessing's first
    semaphore (no /dev/shm) or at fork/spawn itself; probing a SemLock and
    a Process object costs microseconds, while spawning a full
    ProcessPoolExecutor only to watch its first task die costs seconds.
    The result is memoized per process."""
    global _POOL_VIABLE
    if _POOL_VIABLE is None:
        try:
            import multiprocessing

            context = multiprocessing.get_context()
            # The pool's call queue needs a working SemLock; this is the
            # canonical failure point in sandboxes without /dev/shm.
            context.Semaphore(1)
            # And it needs to be able to describe a child process at all.
            context.Process(target=int)
            _POOL_VIABLE = True
        except Exception:  # noqa: BLE001 - any failure means "no pool"
            _POOL_VIABLE = False
    return _POOL_VIABLE


def _make_pool(jobs: int):
    """A process pool when the platform allows it, else a thread pool (the
    result notes which, so reports stay honest about parallelism).  The
    cheap :func:`process_pool_viable` probe runs first, skipping straight
    to threads on hosts that cannot spawn; the probe task then surfaces
    platforms where pool creation succeeds but the first spawn fails."""
    import concurrent.futures

    if not process_pool_viable():
        return "thread", concurrent.futures.ThreadPoolExecutor(
            max_workers=jobs)
    try:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
        pool.submit(os.getpid).result(timeout=60)
        return "process", pool
    except Exception:
        return "thread", concurrent.futures.ThreadPoolExecutor(
            max_workers=jobs)
