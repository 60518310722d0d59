"""repro: a reproduction of "An Optimizing Compiler for Lexically Scoped
LISP" (Brooks, Gabriel, Steele; Symposium on Compiler Construction 1982) --
the S-1 Lisp compiler -- as a complete Python library.

Public API highlights:

* :class:`repro.CompilerService` / :mod:`repro.api` -- the curated service
  facade: the one object the CLI, REPL, batch driver, and compile daemon
  all drive, plus the versioned wire schema (``API_VERSION``) and stability
  tiers (``repro.api.STABILITY_TIERS``)
* :class:`repro.Compiler` -- the full optimizing compiler (Table 1 pipeline)
* :func:`repro.compile_and_run` -- compile source, run on the simulated S-1
* :class:`repro.Interpreter` / :func:`repro.evaluate` -- reference semantics
* :class:`repro.CompilerOptions` / :func:`repro.naive_options` -- ablations;
  fields are declared semantic (cache-key relevant, wire-overridable) or
  non-semantic (observability) -- see ``repro.options.SEMANTIC_OPTION_FIELDS``
* :class:`repro.CompilationResult` -- what one ``Compiler.compile`` call made
* :mod:`repro.target` / :func:`repro.get_target` -- machine descriptions
  (``s1``, ``vax``, ``pdp10``) for retargeting
* :mod:`repro.machine` -- the simulated S-1 (instruction/allocation counters)
* :class:`repro.CompilationCache` / ``Compiler(options, cache=...)`` /
  ``CompilerService(options, cache=...)`` -- the content-addressed
  compilation cache (memory LRU + on-disk store); it travels beside the
  options, never inside them
* :func:`repro.compile_batch` -- parallel multi-file compilation with
  per-file status reporting (also ``python -m repro batch``); pass
  ``server=`` to ship the work to a warm daemon instead of a local pool
* :mod:`repro.serve` / ``python -m repro serve`` -- the long-lived compile
  daemon (unix socket + HTTP, /metrics, bounded queue, graceful drain)
* :func:`repro.connect` / :class:`repro.ServiceClient` /
  ``python -m repro client`` -- talk to a running daemon
* :mod:`repro.trace` -- Chrome trace-event / Prometheus exporters over the
  diagnostics layer (``build_chrome_trace``, ``prometheus_metrics``); one
  Chrome-trace document holds compile tracks and the execution track
* :class:`repro.MachineTelemetry` / ``Machine.enable_telemetry()`` --
  the machine's one observer: a per-instruction cycle ledger (profile
  tables, ``fast + fallback + stalls == Machine.cycles``), inline-cache
  hit rates, GC events, heap occupancy, run spans; exported as the Chrome
  execution track (``build_chrome_trace((), telemetry)`` alone, or beside
  compile tracks), ``repro_machine_*`` Prometheus families,
  collapsed-stack flamegraphs (``write_flamegraph``), and end-to-end
  request traces over the daemon wire (``ServiceClient.compile_traced`` +
  ``build_request_trace``)
* :mod:`repro.verify` / ``CompilerOptions(verify_ir=True)`` -- the
  phase-boundary IR sanitizer (:class:`repro.PipelineVerifier`); violations
  raise :class:`repro.VerificationError`
* :func:`repro.run_fuzz` -- seeded fuzzing with verify-enabled compilation
  and interpreter-differential checking (also ``python -m repro fuzz``)
"""

# Defined before any submodule import: repro.api reports this version in
# ping responses and would hit a partially-initialized package otherwise.
__version__ = "1.24.0"

from ._lazy import lazy_attributes

#: Public name -> the submodule that defines it.  Nothing here is imported
#: by ``import repro``: each name loads its module on first use (PEP 562),
#: so a cold ``python -m repro batch`` imports the Table 1 pipeline and
#: not the daemon, client, fuzzer, exporters or machine.
_EXPORTS = {
    name: module
    for module, names in (
        (".api", ("API_VERSION", "ApiError", "CompilerService",
                  "ServiceResult", "connect")),
        (".batch", ("BatchFileResult", "BatchResult", "compile_batch",
                    "process_pool_viable")),
        (".cache", ("CachedFunction", "CompilationCache", "cache_key",
                    "canonical_source", "options_fingerprint")),
        (".client", ("ServiceClient", "ServiceError", "ServiceUnavailable")),
        (".compiler", ("CompilationResult", "CompiledFunction", "Compiler",
                       "compile_and_run")),
        (".diagnostics", ("Diagnostics", "SourceLocation")),
        (".errors", ("VerificationError",)),
        (".fuzz", ("FuzzFailure", "FuzzReport", "run_fuzz")),
        (".interp", ("Interpreter", "evaluate")),
        (".options", ("CompilerOptions", "DEFAULT_OPTIONS",
                      "NON_SEMANTIC_OPTION_FIELDS", "SEMANTIC_OPTION_FIELDS",
                      "naive_options")),
        (".reader", ("read", "read_all", "write_to_string")),
        (".serve", ("ReproServer",)),
        (".target", ("MachineDescription", "get_target")),
        (".telemetry", ("MachineTelemetry",)),
        (".verify", ("PipelineVerifier", "Violation")),
        (".trace", ("build_chrome_trace", "build_request_trace",
                    "parse_prometheus_text", "prometheus_metrics",
                    "write_chrome_trace", "write_flamegraph",
                    "write_metrics")),
    )
    for name in names
}

#: Submodules reachable as attributes (``repro.serve``) after a bare
#: ``import repro``.
_SUBMODULES = (
    "analysis", "annotate", "api", "baseline", "batch", "cache", "client",
    "codegen", "compiler", "datum", "diagnostics", "errors", "fuzz",
    "interp", "ir", "machine", "optimizer", "options", "primitives",
    "reader", "serve", "target", "telemetry", "tnbind", "trace", "verify",
)

__getattr__, __dir__ = lazy_attributes(globals(), _EXPORTS, _SUBMODULES)

__all__ = sorted(_EXPORTS) + ["__version__"]
