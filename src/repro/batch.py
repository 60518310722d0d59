"""Parallel batch compilation: many files, a worker pool, one report.

``compile_batch`` partitions a list of source files (or ``(label, text)``
pairs) across a :class:`WorkerPool`.  Each unit is compiled by its own
:class:`repro.Compiler` instance (workers share nothing but the
content-addressed cache directory, so compilation order cannot change any
result), results are merged back in input order regardless of completion
order, and a failing file is reported as a per-file error instead of
killing the batch.  :func:`compile_unit` builds that per-unit record in
every mode, and :meth:`WorkerPool.compile` decides where units run for a
local batch and a daemon's ``batch`` op alike.

``--jobs N`` means N worker processes everywhere: the one-shot CLI starts
a pool per batch, and ``repro serve`` keeps one warm for its ``batch``
misses.  When the platform cannot start processes (restricted sandboxes),
the pool degrades to threads and records that in the report.  Each worker
process keeps one :class:`repro.cache.CompilationCache` per cache
directory, so the in-memory LRU layer is reused across the files a worker
handles and the on-disk layer is shared by everyone.

The CLI lives in ``python -m repro batch``.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple, Union)

from .cache import CompilationCache
from .options import CompilerOptions

if TYPE_CHECKING:
    from .compiler import Compiler
    from .diagnostics import Diagnostics

#: One work unit: a filesystem path, or an explicit (label, source) pair.
BatchItem = Union[str, "os.PathLike[str]", Tuple[str, str]]


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
    """One unit's outcome record: the one shape every batch mode returns
    (:func:`compile_unit` builds it inline, on a pool worker and inside a
    daemon's ``batch`` op), merged into :class:`BatchResult` in input
    order."""

    path: str
    status: str                     # "ok" | "error"
    defined: List[str] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None
    #: Diagnostics counters of this file's compile (cache hits/misses/...).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Warnings raised during the compile (cache corruption notes etc.).
    warnings: List[str] = field(default_factory=list)
    #: "response-cache" when a daemon answered a repeated unit without
    #: compiling it; None when the unit was compiled.
    served_from: Optional[str] = None
    #: Worker process id (all equal under jobs=1; several under a pool).
    pid: int = 0
    #: This file's compile ``Diagnostics`` (phase spans, rewrites,
    #: counters) when something downstream reads it: the trace and metrics
    #: exporters, a daemon's ``/metrics`` hook.  A pool worker returns it
    #: pickled, transcript forms unprinted.
    diagnostics: Optional["Diagnostics"] = None

    @classmethod
    def failure(cls, path: str, err: BaseException,
                seconds: float = 0.0) -> "BatchFileResult":
        return cls(path, "error", seconds=seconds,
                   error=f"{type(err).__name__}: {err}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict[str, Any]:
        """The record as ``--json`` writes it; its diagnostics print here."""
        data = asdict(replace(self, diagnostics=None))
        if self.diagnostics is not None:
            data["diagnostics"] = self.diagnostics.to_json()
        return data

    def to_wire(self) -> Dict[str, Any]:
        """The record as a daemon's batch op answers it (``served_from``
        only on a response-cache answer)."""
        entry = {name: getattr(self, name) for name in _WIRE_FIELDS}
        if self.served_from is None:
            del entry["served_from"]
        return entry

    @classmethod
    def from_wire(cls, entry: Dict[str, Any]) -> "BatchFileResult":
        return cls(**{name: entry[name] for name in _WIRE_FIELDS
                      if name in entry})


#: The record's fields a daemon sends back; the worker pid and the full
#: diagnostics stay server-side.
_WIRE_FIELDS = ("path", "status", "defined", "seconds", "error",
                "counters", "warnings", "served_from")


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

    def trace_entries(self) -> List[Tuple["Diagnostics", int, int, str]]:
        """(diagnostics, pid, tid, label) tuples for
        :func:`repro.trace.build_chrome_trace`: one pid track per worker
        process, one tid lane per file that worker compiled."""
        lanes: Dict[int, int] = {}
        entries: List[Tuple["Diagnostics", int, int, str]] = []
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
                probes = hits + result.counters.get("cache_misses", 0)
                if probes:
                    detail += f", cache {hits}/{probes} hit"
                elif result.served_from == "response-cache":
                    detail += ", response cache"
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


def compile_unit(compiler: "Compiler", label: str,
                 source: Optional[str] = None, *,
                 load_prelude: bool = False,
                 want_diagnostics: bool = False) -> BatchFileResult:
    """Compile one batch unit on a fresh *compiler* and return its record.

    Every batch mode calls this: the inline loop, each pool worker and a
    daemon's ``batch`` op.  *source* None reads the file *label*.  A unit
    that raises anything (a reader error, a missing file, a RecursionError
    from pathological nesting) is that unit's error, never the batch's."""
    started = time.perf_counter()
    try:
        if source is None:
            with open(label, "r", encoding="utf-8") as handle:
                source = handle.read()
        if load_prelude:
            compiler.load_prelude()
        compiled = compiler.compile(source)
        record = BatchFileResult(
            label, "ok", [str(name) for name in compiled.defined])
    except Exception as err:  # noqa: BLE001 - per-unit status, never die
        record = BatchFileResult.failure(label, err)
    # Harvest diagnostics for ok AND errored units alike: a compile that
    # died in codegen still probed the cache and raised warnings, and
    # those counters must survive the merge.
    diagnostics = compiler.last_diagnostics
    if diagnostics is not None:
        record.counters = dict(diagnostics.counters)
        record.warnings = [message.render()
                           for message in diagnostics.warnings]
        # The whole record (phase spans, rewrites) can dwarf the outcome;
        # when nothing downstream reads it (no trace, metrics or hook),
        # keep the cross-process payload lean -- compiled artifacts
        # already live in the shared cache.
        if want_diagnostics:
            record.diagnostics = diagnostics
    record.pid = os.getpid()
    record.seconds = time.perf_counter() - started
    return record


def _compile_one(options: CompilerOptions, cache_dir: Optional[str],
                 label: str, source: Optional[str], load_prelude: bool,
                 want_diagnostics: bool) -> BatchFileResult:
    """Worker entry: one unit on a fresh Compiler over this process's
    cache for *cache_dir* (options and record both pickle whole)."""
    from .compiler import Compiler

    return compile_unit(Compiler(options, cache=_worker_cache(cache_dir)),
                        label, source, load_prelude=load_prelude,
                        want_diagnostics=want_diagnostics)


class WorkerPool:
    """The one pool behind ``--jobs``: *jobs* worker processes that compile
    batch units (threads where the host cannot start processes;
    :attr:`executor` says which, ``"inline"`` while none run).  They start
    at :meth:`start` or on first use, and afresh after a worker dies."""

    def __init__(self, jobs: int):
        self.jobs = max(1, int(jobs))
        self.executor = "inline"
        self._pool: Any = None

    def start(self) -> Any:
        if self._pool is None and self.jobs > 1:
            self.executor, self._pool = _make_pool(self.jobs)
        return self._pool

    def close(self) -> None:
        """Stop the workers once the units they run finish; queued units
        are dropped (an interrupted batch does not compile the rest)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def compile(self, units: Sequence[Tuple[str, Optional[str]]],
                options: CompilerOptions, cache: Optional[CompilationCache],
                load_prelude: bool, want_diagnostics: bool
                ) -> List[BatchFileResult]:
        """One record per unit, in input order.  With one worker or one
        unit, units compile inline over *cache*; otherwise on the workers,
        each over its own cache of *cache*'s directory.  A dead worker's
        units are errors, and the next call starts a new pool."""
        if self.jobs == 1 or len(units) <= 1:
            from .compiler import Compiler

            return [compile_unit(Compiler(options, cache=cache), label,
                                 source, load_prelude=load_prelude,
                                 want_diagnostics=want_diagnostics)
                    for label, source in units]
        from concurrent.futures import BrokenExecutor

        cache_dir = cache.directory if cache is not None else None

        def submit_all():
            pool = self.start()
            return [pool.submit(_compile_one, options, cache_dir, label,
                                source, load_prelude, want_diagnostics)
                    for label, source in units]

        try:
            futures = submit_all()
        except BrokenExecutor:      # a worker died since the last call
            self.close()
            futures = submit_all()
        files = []
        for (label, _), future in zip(units, futures):
            try:
                files.append(future.result())
            except Exception as err:  # the worker died (pool breakage, ...)
                files.append(BatchFileResult.failure(label, err))
                if isinstance(err, BrokenExecutor):
                    self.close()
        return files


def compile_batch(items: Sequence[BatchItem], *,
                  options: Optional[CompilerOptions] = None,
                  jobs: int = 1,
                  cache_dir: Optional[Union[str, os.PathLike]] = None,
                  load_prelude: bool = False,
                  server: Optional[str] = None,
                  want_diagnostics: bool = True) -> BatchResult:
    """Compile *items* (paths or ``(label, source)`` pairs) and merge the
    per-file outcomes deterministically (input order).

    *jobs* > 1 runs a :class:`WorkerPool` with per-worker Compiler
    instances; *cache_dir* shares one content-addressed store across
    workers and across runs.  *server* (a daemon address: unix socket path
    or ``http://host:port``) skips local pools entirely (*jobs* must be 1)
    and ships every unit's source to a warm ``repro serve`` daemon, a few
    units per request -- the daemon compiles with its own workers, cache and
    verification settings, a repeated unit is answered from its response
    cache, and only names and counters come back.
    *want_diagnostics=False* drops the per-file ``Diagnostics`` from the
    results (counters and warnings are always kept), keeping the
    cross-process payload lean when no trace/metrics export needs it."""
    options = options or CompilerOptions()
    cache_dir = os.fspath(cache_dir) if cache_dir is not None else None

    units: List[Tuple[str, Optional[str]]] = [
        item if isinstance(item, tuple) else (os.fspath(item), None)
        for item in items]

    started = time.perf_counter()

    if server is not None:
        if jobs != 1:
            raise ValueError("jobs sizes a local pool; a daemon compiles "
                             "on its own --jobs workers")
        from .client import compile_units_via_server

        files = compile_units_via_server(
            units, server, options=options, load_prelude=load_prelude)
        return BatchResult(files=files, jobs=1,
                           seconds=time.perf_counter() - started,
                           executor="server", cache_dir=cache_dir)

    pool = WorkerPool(jobs)
    try:
        files = pool.compile(units, options, _worker_cache(cache_dir),
                             load_prelude, want_diagnostics)
    finally:
        pool.close()
    return BatchResult(files=files, jobs=pool.jobs,
                       seconds=time.perf_counter() - started,
                       executor=pool.executor, cache_dir=cache_dir)


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


def _worker_init(started: Any) -> None:
    """Each pool worker: leave SIGINT (a Ctrl-C reaches the whole process
    group) to the parent, load the pipeline, and wait on the *started*
    barrier until every worker has loaded it."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from . import compiler  # noqa: F401
    started.wait(timeout=60)


def _make_pool(jobs: int):
    """A process pool when the platform allows it, else a thread pool (the
    result notes which, so reports stay honest about parallelism).  The
    cheap :func:`process_pool_viable` probe runs first, skipping straight
    to threads on hosts that cannot spawn; one probe task per worker then
    returns once every worker has loaded the pipeline, and surfaces
    platforms where pool creation succeeds but a spawn fails.  A process
    that runs threads (the daemon) spawns, since forking it is unsafe."""
    import concurrent.futures
    import multiprocessing
    import threading

    if process_pool_viable():
        context = multiprocessing.get_context(
            "spawn" if threading.active_count() > 1 else None)
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=context,
                initializer=_worker_init, initargs=(context.Barrier(jobs),))
            for probe in [pool.submit(os.getpid) for _ in range(jobs)]:
                probe.result(timeout=60)
            return "process", pool
        except Exception:  # noqa: BLE001 - any failure means threads
            pass
    return "thread", concurrent.futures.ThreadPoolExecutor(max_workers=jobs)
