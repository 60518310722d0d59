"""The curated public API surface: one facade, one wire schema, one version.

This module is the single import path through which every driver -- the
CLI (``python -m repro``), the REPL, the batch driver, the compile daemon
(``python -m repro serve``), and its client -- talks to the compiler.  It
exposes:

* :class:`CompilerService` -- the facade object.  It owns a
  :class:`repro.cache.CompilationCache` (optionally disk-backed and shared),
  hands out fresh per-request :class:`repro.Compiler` instances bound to
  that cache, keeps one persistent *session* compiler for REPL-style use,
  and answers the four wire operations (``compile`` / ``batch`` / ``ping``
  / ``stats``) both as Python calls and as JSON request handlers.  Its
  ``batch`` op carries the response cache, keyed by the service itself,
  and compiles the misses with :meth:`repro.batch.WorkerPool.compile`,
  exactly as a local batch does.
* The **versioned wire schema** (:data:`API_VERSION`): every request is a
  JSON object ``{"api": 1, "op": ..., ...}``; :func:`check_request`
  validates the envelope and rejects unknown versions/ops with a
  *structured* error (:class:`ApiError` -> :func:`error_response`), never a
  stack trace.  The Python API version and the wire version move together:
  bump :data:`API_VERSION` whenever a released response field changes
  meaning.
* :func:`connect` -- the one-call client entry point (returns a
  :class:`repro.client.ServiceClient`).

Stability tiers
---------------

Every name exported by :mod:`repro` / :mod:`repro.api` belongs to one of
three documented tiers (:data:`STABILITY_TIERS`):

* **stable** -- covered by the wire-schema version; changes require an
  ``API_VERSION`` bump and a deprecation note in README.
* **provisional** -- usable, but shape may change between minor versions
  (the changelog will say so).
* **internal** -- anything not exported at all; no compatibility promise.

The option override surface of the wire schema is exactly the *semantic*
field set declared in :mod:`repro.options` -- the same declaration the
cache key hashes -- so a client can never toggle a knob the cache would
not notice.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from . import __version__ as _VERSION
from .cache import CompilationCache, options_fingerprint
from .errors import ReproError
from .options import (
    NON_SEMANTIC_OPTION_FIELDS,
    SEMANTIC_OPTION_FIELDS,
    CompilerOptions,
)

#: The wire-protocol (and public-API) version.  Requests must carry it;
#: responses echo it.
API_VERSION = 1

#: Operations the schema defines, and whether each one queues for the
#: daemon's dispatch thread (``ping``/``stats`` answer inline even when the
#: queue is full -- a monitoring probe must not be subject to backpressure).
WIRE_OPS = ("compile", "batch", "ping", "stats", "shutdown")
INLINE_OPS = frozenset({"ping", "stats"})

#: Documented stability tier per exported name (see module docstring).
STABILITY_TIERS: Dict[str, str] = {
    # the facade and wire schema
    "CompilerService": "stable",
    "ServiceResult": "stable",
    "ApiError": "stable",
    "API_VERSION": "stable",
    "WIRE_OPS": "stable",
    "check_request": "stable",
    "error_response": "stable",
    "ok_response": "stable",
    "connect": "stable",
    "options_from_wire": "stable",
    "options_to_wire": "stable",
    # shape may still move with the daemon's needs
    "INLINE_OPS": "provisional",
    "STABILITY_TIERS": "provisional",
}

if TYPE_CHECKING:
    from .batch import WorkerPool
    from .compiler import Compiler

__all__ = list(STABILITY_TIERS)


# ---------------------------------------------------------------------------
# structured errors


class ApiError(ReproError):
    """A wire-schema violation: carries a machine-readable ``code`` so
    clients can branch without parsing prose."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def to_json(self) -> Dict[str, Any]:
        return {"code": self.code, "message": str(self)}


def error_response(error: Union[ApiError, Exception],
                   code: str = "internal-error") -> Dict[str, Any]:
    """The error envelope every failing request receives."""
    if isinstance(error, ApiError):
        payload = error.to_json()
    else:
        payload = {"code": code,
                   "message": f"{type(error).__name__}: {error}"}
    return {"api": API_VERSION, "ok": False, "error": payload}


def ok_response(op: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The success envelope.  Its fields win over a payload field of the
    same name: the batch op's ``ok`` count (0 when every unit failed)
    must not turn a successful request into a failed one."""
    return {**payload, "api": API_VERSION, "ok": True, "op": op}


def check_request(request: Any) -> Tuple[str, Dict[str, Any]]:
    """Validate one wire request envelope; returns ``(op, params)``.

    Raises :class:`ApiError` with code ``bad-request`` (not an object /
    missing fields), ``unsupported-api-version`` (any ``api`` other than
    :data:`API_VERSION`), or ``unknown-op``.
    """
    if not isinstance(request, Mapping):
        raise ApiError("bad-request",
                       f"request must be a JSON object, got "
                       f"{type(request).__name__}")
    if "api" not in request:
        raise ApiError("bad-request", 'request is missing the "api" field')
    version = request["api"]
    if version != API_VERSION:
        raise ApiError(
            "unsupported-api-version",
            f"this server speaks api version {API_VERSION}, "
            f"request carried {version!r}")
    op = request.get("op")
    if not isinstance(op, str) or op not in WIRE_OPS:
        raise ApiError("unknown-op",
                       f"unknown op {op!r}; expected one of "
                       f"{', '.join(WIRE_OPS)}")
    params = {key: value for key, value in request.items()
              if key not in ("api", "op")}
    return op, params


# ---------------------------------------------------------------------------
# options over the wire


def options_to_wire(options: CompilerOptions) -> Dict[str, Any]:
    """The semantic fields of *options* as a plain JSON-able dict -- the
    only part of CompilerOptions the wire schema carries."""
    return {name: getattr(options, name)
            for name in sorted(SEMANTIC_OPTION_FIELDS)}


def options_from_wire(base: CompilerOptions,
                      overrides: Optional[Mapping[str, Any]]
                      ) -> CompilerOptions:
    """Apply a wire ``options`` object on top of *base*.

    Only declared-semantic fields may be overridden: a non-semantic field
    (``verify_ir``, ``trace_rewrites``, ``tier``, ``timing``) is server
    policy, and an unknown field is a schema violation -- both raise
    :class:`ApiError` (code ``bad-options``)."""
    if overrides is None:
        return base
    if not isinstance(overrides, Mapping):
        raise ApiError("bad-options", '"options" must be a JSON object')
    unknown = set(overrides) - SEMANTIC_OPTION_FIELDS
    if unknown:
        non_semantic = sorted(unknown & NON_SEMANTIC_OPTION_FIELDS)
        if non_semantic:
            raise ApiError(
                "bad-options",
                f"non-semantic option(s) cannot be set over the wire: "
                f"{', '.join(non_semantic)}")
        raise ApiError("bad-options",
                       f"unknown option(s): {', '.join(sorted(unknown))}")
    try:
        return replace(base, **dict(overrides))
    except (ReproError, ValueError) as err:
        # __post_init__ rejected a value, e.g. UnknownTargetError.
        raise ApiError("bad-options", str(err))


# ---------------------------------------------------------------------------
# the facade


@dataclass
class ServiceResult:
    """What one :meth:`CompilerService.compile` call produced, in the same
    shape the wire response carries (everything JSON-able; no IR trees, no
    CodeObjects -- compiled artifacts live in the shared cache)."""

    defined: List[str] = field(default_factory=list)
    seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    #: Only populated when the caller asked for it (it can be large).
    listing: Optional[str] = None
    diagnostics: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "defined": list(self.defined),
            "seconds": self.seconds,
            "counters": dict(self.counters),
            "warnings": list(self.warnings),
        }
        if self.listing is not None:
            payload["listing"] = self.listing
        if self.diagnostics is not None:
            payload["diagnostics"] = self.diagnostics
        return payload


class CompilerService:
    """The one object every driver drives.

    It pairs a (defaulted) :class:`CompilerOptions` with a compilation
    cache -- *cache* is None (no cache), a directory path (a memory LRU
    over an on-disk store there) or a :class:`CompilationCache` to share
    -- and exposes the four wire operations as Python methods.  Each
    ``compile`` runs on a *fresh* compiler bound to the shared cache, so
    requests cannot leak proclaimed specials or globals into each other;
    :meth:`session` returns the one persistent compiler for REPL-style
    accumulation.  Thread-safe, and no lock is held across a compile.

    The wire ``batch`` op answers a repeated unit from a response cache of
    *response_cache_size* entries (least recently used evicted first; 0
    turns it off).  The service keys each unit itself, from exactly the
    inputs of its compile, and compiles the misses on *pool* (internal:
    only :class:`repro.serve.ReproServer` sets it, to its ``--jobs``
    workers) or inline.  *on_diagnostics*, when given, receives every
    successful compile's ``Diagnostics``, a ``batch`` unit's as its worker
    returned it (pickled from a pool process, transcript forms unprinted).
    The daemon folds them into ``/metrics`` without printing the
    transcript."""

    def __init__(self, options: Optional[CompilerOptions] = None,
                 cache: Union[None, str, CompilationCache] = None, *,
                 response_cache_size: int = 128,
                 on_diagnostics: Optional[Callable[[Any], None]] = None,
                 pool: Optional["WorkerPool"] = None):
        self.options = options or CompilerOptions()
        if isinstance(cache, (str, os.PathLike)):
            cache = CompilationCache(directory=cache)
        elif cache is not None and not isinstance(cache, CompilationCache):
            raise TypeError(f"cache must be None, a path, or a "
                            f"CompilationCache, not {type(cache).__name__}")
        self.cache: Optional[CompilationCache] = cache
        self.response_cache_size = max(0, int(response_cache_size))
        self._on_diagnostics = on_diagnostics
        self.pool = pool
        self._session: Optional[Compiler] = None
        self._lock = threading.Lock()
        self._responses: "OrderedDict[bytes, Tuple[str, ...]]" = \
            OrderedDict()
        self._started = time.time()
        self._op_counts: Dict[str, int] = {}
        self._compile_seconds = 0.0
        self._prelude_warm = False

    # -- compiler plumbing -------------------------------------------------

    def compiler(self, options: Optional[CompilerOptions] = None) -> Compiler:
        """A fresh compiler bound to the service cache (one per request).
        The pipeline is imported here, not with the module, so a client or
        a ``batch --server`` run never loads it."""
        from .compiler import Compiler

        return Compiler(options or self.options, cache=self.cache)

    def session(self) -> Compiler:
        """The persistent compiler (REPL sessions accumulate definitions,
        specials, and globals here)."""
        with self._lock:
            if self._session is None:
                self._session = self.compiler()
            return self._session

    def _bump(self, op: str) -> None:
        with self._lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + 1

    # -- the four operations ----------------------------------------------

    def compile(self, source: str, *, name: str = "*toplevel*",
                expression: Optional[bool] = None,
                load_prelude: bool = False,
                options: Union[None, Mapping[str, Any],
                               CompilerOptions] = None,
                want_listing: bool = False,
                want_diagnostics: bool = False) -> ServiceResult:
        """Compile *source* with a fresh compiler over the shared cache.

        *options* is a wire-style override object (semantic fields only)
        or a complete :class:`CompilerOptions`; *load_prelude* compiles the
        bundled library first (warm after the first request: every prelude
        defun is served by the cache)."""
        self._bump("compile")
        if isinstance(options, CompilerOptions):
            effective = options
        else:
            effective = options_from_wire(self.options, options)
        compiler = self.compiler(effective)
        started = time.perf_counter()
        if load_prelude:
            compiler.load_prelude()
        compiled = compiler.compile(source, name=name, expression=expression)
        result = ServiceResult(
            defined=[str(n) for n in compiled.defined],
            seconds=time.perf_counter() - started)
        diagnostics = compiler.last_diagnostics
        if diagnostics is not None:
            result.counters = dict(diagnostics.counters)
            result.warnings = [m.render() for m in diagnostics.warnings]
            if want_diagnostics:
                result.diagnostics = diagnostics.to_json()
        self._finished(result.seconds, load_prelude, diagnostics)
        if want_listing:
            result.listing = compiled.listing()
        return result

    def _finished(self, seconds: float, load_prelude: bool,
                  diagnostics: Any) -> None:
        """Book one successful compile: the stats totals, and its
        diagnostics for the *on_diagnostics* hook."""
        with self._lock:
            self._compile_seconds += seconds
            self._prelude_warm = self._prelude_warm or load_prelude
        if diagnostics is not None and self._on_diagnostics is not None:
            self._on_diagnostics(diagnostics)

    def batch(self, items: Sequence[Any], *, jobs: int = 1,
              cache_dir: Optional[str] = None,
              load_prelude: bool = False,
              server: Optional[str] = None,
              want_diagnostics: bool = True):
        """Compile many files/(label, source) units; see
        :func:`repro.batch.compile_batch`.  With *server*, units are
        shipped to a running daemon instead of a local worker pool."""
        from .batch import compile_batch

        self._bump("batch")
        if cache_dir is None and self.cache is not None:
            cache_dir = self.cache.directory
        return compile_batch(items, options=self.options, jobs=jobs,
                             cache_dir=cache_dir, load_prelude=load_prelude,
                             server=server,
                             want_diagnostics=want_diagnostics)

    def ping(self) -> Dict[str, Any]:
        self._bump("ping")
        return {"pong": True, "version": _VERSION, "pid": os.getpid()}

    def stats(self) -> Dict[str, Any]:
        self._bump("stats")
        with self._lock:
            data: Dict[str, Any] = {
                "version": _VERSION,
                "uptime_seconds": time.time() - self._started,
                "ops": dict(self._op_counts),
                "compile_seconds_total": self._compile_seconds,
                "prelude_warm": self._prelude_warm,
                "target": self.options.target,
                "tier": self.options.tier,
                "timing": self.options.timing,
            }
        data["cache"] = self.cache.to_json() if self.cache is not None \
            else None
        return data

    # -- wire dispatch -----------------------------------------------------

    def handle_op(self, op: str, params: Mapping[str, Any]
                  ) -> Dict[str, Any]:
        """Execute one already-validated wire operation; returns the
        response payload (without the envelope)."""
        if op == "ping":
            return self.ping()
        if op == "stats":
            return self.stats()
        if op == "compile":
            return self._handle_compile(params)
        if op == "batch":
            return self._handle_batch(params)
        raise ApiError("unknown-op", f"unhandled op {op!r}")

    def _handle_compile(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        source = params.get("source")
        if not isinstance(source, str):
            raise ApiError("bad-request",
                           'compile requires a string "source" field')
        name = params.get("name", "*toplevel*")
        if not isinstance(name, str):
            raise ApiError("bad-request", '"name" must be a string')
        result = self.compile(
            source,
            name=name,
            load_prelude=bool(params.get("prelude", False)),
            options=params.get("options"),
            want_listing=bool(params.get("listing", False)),
            want_diagnostics=bool(params.get("diagnostics", False)))
        return result.to_json()

    def _handle_batch(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        # Imported here, as in repro.cache: a cold CLI run loads this
        # module but hashes nothing.
        import hashlib

        from .batch import BatchFileResult, WorkerPool

        units = params.get("units")
        if not isinstance(units, (list, tuple)) or not units:
            raise ApiError("bad-request",
                           'batch requires a non-empty "units" list of '
                           '{"label", "source"} objects')
        items: List[Tuple[str, str]] = []
        for unit in units:
            if not (isinstance(unit, Mapping)
                    and isinstance(unit.get("source"), str)):
                raise ApiError("bad-request",
                               'each batch unit needs a string "source"')
            items.append((str(unit.get("label", f"unit-{len(items)}")),
                          unit["source"]))
        options = options_from_wire(self.options, params.get("options"))
        prelude = bool(params.get("prelude", False))
        # A unit's compile is a function of exactly these inputs and its
        # source text (a fresh compiler per unit), so they address it.
        scope = f"{options_fingerprint(options)}\nprelude={prelude}\n"
        files: List[Any] = []
        misses: List[Tuple[int, bytes]] = []
        for label, source in items:
            started = time.perf_counter()
            key = hashlib.sha256((scope + source).encode("utf-8")).digest()
            defined = self._cached_response(key)
            if defined is None:
                misses.append((len(files), key))
                files.append(None)
                continue
            # Nothing compiled: report only this lookup's work.
            files.append(BatchFileResult(
                label, "ok", defined, seconds=time.perf_counter() - started,
                counters={"response_cache_hits": 1},
                served_from="response-cache"))
        records = (self.pool or WorkerPool(1)).compile(
            [items[index] for index, _ in misses], options, self.cache,
            prelude, self._on_diagnostics is not None)
        for (index, key), record in zip(misses, records):
            self._bump("compile")
            if record.ok:
                self._finished(record.seconds, prelude, record.diagnostics)
                self._remember_response(key, record.defined)
            files[index] = record
        files = [record.to_wire() for record in files]
        ok = sum(1 for f in files if f["status"] == "ok")
        return {"files": files, "ok": ok, "errors": len(files) - ok}

    def _cached_response(self, key: bytes) -> Optional[List[str]]:
        with self._lock:
            defined = self._responses.get(key)
            if defined is None:
                return None
            self._responses.move_to_end(key)
        return list(defined)

    def _remember_response(self, key: bytes, defined: List[str]) -> None:
        if self.response_cache_size == 0:
            return
        with self._lock:
            self._responses[key] = tuple(defined)
            while len(self._responses) > self.response_cache_size:
                self._responses.popitem(last=False)


def connect(address: str, timeout: float = 30.0):
    """Open a client to a running daemon.  *address* is a unix-socket path
    or an ``http://host:port`` URL; returns a
    :class:`repro.client.ServiceClient`."""
    from .client import ServiceClient

    return ServiceClient(address, timeout=timeout)
