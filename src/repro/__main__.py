"""The CLI: ``python -m repro [repl|batch|fuzz|serve|client]``.

Every subcommand shares one parent parser (``--cache-dir``, ``--trace``,
``--metrics``, ``--verify``, ``--target``, ``--tier``, ``--jobs``) and
drives the compiler through the :class:`repro.api.CompilerService` facade
-- the same object the daemon serves over its wire protocol.

``repl`` (the default) is a compile-and-go REPL: each expression is
compiled through the full Table 1 pipeline and executed on the simulated
S-1.  ``defun``/``defvar`` forms extend the session.

Meta commands::

    :listing NAME     show a function's parenthesized assembly
    :transcript NAME  show the optimizer transcript for a function
    :trace NAME       show each rewrite as a whole-function unified diff
    :source NAME      show the optimized (back-translated) source
    :stats            cumulative machine statistics for this session
    :profile          exact execution profile (per-opcode / function / line)
    :hot              telemetry hot spots: top blocks/opcodes by fallback
                      cycles, coldest inline-cache sites
    :tier [TIER]      show or switch the execution tier (simulate, native)
    :timing [MODEL]   show or switch the timing model (single, pipelined)
    :phases           the phase pipeline of the last compilation
    :diag             phase timings / rule fires / warnings (last compile)
    :prelude          load the bundled standard library
    :quit             leave

Batch mode (``python -m repro batch``) compiles many files across a worker
pool -- or a running daemon -- with an optional shared cache::

    python -m repro batch src1.lisp src2.lisp --jobs 4 --cache-dir .repro-cache
    python -m repro batch lib/*.lisp --target vax --json report.json
    python -m repro batch examples/*.lisp --server .repro.sock

Serve mode (``python -m repro serve``) starts the long-lived compile
daemon (unix socket JSON lines + optional HTTP with /metrics)::

    python -m repro serve --socket .repro.sock --cache-dir .repro-cache
    python -m repro serve --socket .repro.sock --http 127.0.0.1:8787 --jobs 4

Client mode (``python -m repro client``) talks to it::

    python -m repro client --server .repro.sock --ping
    python -m repro client examples/*.lisp --server .repro.sock

Fuzz mode (``python -m repro fuzz``) drives the seeded program generator
through verify-enabled compilation plus an interpreter==compiled
differential check::

    python -m repro fuzz --seed 0 --count 100
    python -m repro fuzz --seed 7 --count 50 --target vax

``--verify`` (any subcommand) turns on the phase-boundary IR sanitizer.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .api import CompilerService
from .datum import Cons, sym
from .errors import ReproError
from .machine.timing import TIMINGS
from .options import TIERS, CompilerOptions
from .reader import read_all, write_to_string

if TYPE_CHECKING:
    from .machine.cpu import Machine

#: Subcommand names; anything else routes to the REPL (the historical
#: default invocation).
SUBCOMMANDS = ("repl", "batch", "fuzz", "serve", "client")


def common_parser(jobs_default: int = 1) -> argparse.ArgumentParser:
    """The shared parent parser: the flags every subcommand accepts with
    one spelling and one help text (``parents=[common_parser()]``)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("common options")
    group.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="content-addressed compilation cache directory "
                            "(shared across workers, runs, and the daemon)")
    group.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON on exit "
                            "(open in Perfetto / chrome://tracing)")
    group.add_argument("--metrics", default=None, metavar="PATH",
                       help="write a Prometheus text metrics dump on exit")
    group.add_argument("--machine-trace", default=None, metavar="PATH",
                       help="write a Chrome trace of machine execution "
                            "telemetry on exit (run spans, GC pauses, "
                            "heap occupancy; open in Perfetto)")
    group.add_argument("--verify", action="store_true",
                       help="run the phase-boundary IR sanitizer "
                            "(repro.verify) after every compiler phase")
    group.add_argument("--target", action="append", default=None,
                       metavar="T",
                       help="machine description: s1, vax, pdp10 "
                            "(repeatable for fuzz; last wins elsewhere; "
                            "default s1)")
    group.add_argument("--tier", action="append", default=None,
                       metavar="TIER",
                       help="execution tier: simulate, native "
                            "(repeatable for fuzz; last wins elsewhere; "
                            "default simulate)")
    group.add_argument("--timing", action="append", default=None,
                       metavar="MODEL",
                       help="machine timing model: single, pipelined "
                            "(repeatable for fuzz parity sweeps; last "
                            "wins elsewhere; default single)")
    group.add_argument("--jobs", type=int, default=jobs_default,
                       metavar="N",
                       help="workers: pool size (batch/serve) or "
                            "concurrent connections (client) "
                            f"(default {jobs_default})")
    return parent


def _target_of(args: argparse.Namespace, default: str = "s1") -> str:
    targets = getattr(args, "target", None)
    return targets[-1] if targets else default


def _tier_of(args: argparse.Namespace, default: str = "simulate") -> str:
    tiers = getattr(args, "tier", None)
    return tiers[-1] if tiers else default


def _timing_of(args: argparse.Namespace, default: str = "single") -> str:
    timings = getattr(args, "timing", None)
    return timings[-1] if timings else default


class Repl:
    def __init__(self, options: Optional[CompilerOptions] = None,
                 out=sys.stdout,
                 service: Optional[CompilerService] = None):
        # The REPL is interactive: full observability (whole-function
        # rewrite snapshots on every transcript entry) is worth the cost.
        self.service = service or CompilerService(
            options or CompilerOptions(trace_rewrites=True))
        self.compiler = self.service.session()
        self.machine: Optional[Machine] = None
        self.out = out
        self._counter = 0
        #: to_json() of every compilation this session, in order (dumped by
        #: --diagnostics-json).
        self.diagnostics_log: List[Dict[str, Any]] = []

    def _session_machine(self) -> Machine:
        """Keep one session machine so specials persist between entries;
        new definitions only swap in the updated program."""
        if self.machine is None:
            self.machine = self.compiler.machine()
            # The observer is on for the whole session so :profile, :hot
            # and --machine-trace can answer at any point.
            self.machine.enable_telemetry()
        else:
            self.machine.program = self.compiler.program
        return self.machine

    def _define_on_session_machine(self, names) -> None:
        """Make newly compiled definitions visible to the live machine
        without rebuilding it (a rebuild would reset every special set by
        earlier entries)."""
        if self.machine is None:
            return
        self.machine.program = self.compiler.program
        for name in names:
            if name in self.compiler.global_values:
                self.machine.define_global(
                    name, self.compiler.global_values[name])

    def _log_diagnostics(self, entry: str) -> None:
        diagnostics = self.compiler.last_diagnostics
        if diagnostics is not None:
            self.diagnostics_log.append(
                {"entry": entry, "diagnostics": diagnostics.to_json()})

    def _say(self, text: str) -> None:
        print(text, file=self.out)

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the session ends."""
        line = line.strip()
        if not line:
            return True
        if line.startswith(":"):
            return self._meta(line)
        try:
            self._evaluate(line)
        except ReproError as err:
            self._say(f"error: {err}")
        return True

    def _evaluate(self, text: str) -> None:
        forms = read_all(text)
        for form in forms:
            if isinstance(form, Cons) and form.car in (sym("defun"),
                                                       sym("defvar"),
                                                       sym("defparameter")):
                name = self.compiler.compile_form(form)
                self._log_diagnostics(text)
                self._define_on_session_machine([name])
                self._say(str(name))
                continue
            self._counter += 1
            entry = f"*entry-{self._counter}*"
            self.compiler.compile_expression(write_to_string(form),
                                             name=entry)
            self._log_diagnostics(text)
            machine = self._session_machine()
            value = machine.run(sym(entry), [])
            self._say(write_to_string(value))

    def _meta(self, line: str) -> bool:
        parts = line.split()
        command = parts[0]
        if command in (":quit", ":q", ":exit"):
            return False
        if command == ":prelude":
            names = self.compiler.load_prelude()
            self._log_diagnostics(":prelude")
            self._define_on_session_machine(names)
            self._say(f"loaded {len(names)} prelude functions")
            return True
        if command == ":stats":
            if self.machine is None:
                self._say("(nothing run yet)")
            else:
                stats = self.machine.stats()
                for key in ("instructions", "cycles", "calls", "max_stack",
                            "total_heap_allocations", "certifications"):
                    self._say(f"  {key}: {stats[key]}")
            return True
        if command == ":profile":
            if self.machine is None:
                self._say("(nothing run yet)")
            else:
                self._say(self.machine.telemetry.profile_report())
            return True
        if command == ":hot":
            if self.machine is None or self.machine.telemetry is None:
                self._say("(nothing run yet)")
            else:
                self._say(self.machine.telemetry.hot_report())
            return True
        if command == ":tier":
            if len(parts) == 1:
                self._say(f"tier: {self.compiler.options.tier}")
            elif parts[1] in TIERS:
                self.compiler.options.tier = parts[1]
                if self.machine is not None:
                    self.machine.tier = parts[1]
                self._say(f"tier: {parts[1]}")
            else:
                self._say(f"unknown tier: {parts[1]} "
                          f"(choose from {', '.join(TIERS)})")
            return True
        if command == ":timing":
            if len(parts) == 1:
                self._say(f"timing: {self.compiler.options.timing}")
            elif parts[1] in TIMINGS:
                # Non-semantic: the session machine switches models in
                # place (its native/timing caches drop); results and
                # instruction counts are unchanged, only cycles differ.
                self.compiler.options.timing = parts[1]
                if self.machine is not None:
                    self.machine.set_timing(parts[1])
                self._say(f"timing: {parts[1]}")
            else:
                self._say(f"unknown timing model: {parts[1]} "
                          f"(choose from {', '.join(TIMINGS)})")
            return True
        if command == ":phases":
            self._say(self.compiler.phase_report())
            return True
        if command == ":diag":
            diagnostics = self.compiler.last_diagnostics
            if diagnostics is None:
                self._say("(nothing compiled yet)")
            else:
                self._say(diagnostics.report())
            return True
        if command in (":listing", ":transcript", ":trace", ":source") \
                and len(parts) == 2:
            name = sym(parts[1])
            compiled = self.compiler.functions.get(name)
            if compiled is None:
                self._say(f"no such function: {parts[1]}")
                return True
            if command == ":listing":
                self._say(compiled.listing())
            elif command == ":transcript":
                self._say(compiled.transcript.render() or "(no entries)")
            elif command == ":trace":
                self._say(compiled.transcript.render_diffs()
                          or "(no rewrites recorded)")
            else:
                self._say(compiled.optimized_source)
            return True
        self._say(f"unknown command: {line}")
        return True

    def dump_diagnostics(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"session": self.diagnostics_log}, handle, indent=2)

    def trace_entries(self):
        """(diagnostics, pid, tid, label) tuples for the trace exporter:
        the whole session on one track, one compile span per entry."""
        return [(record["diagnostics"], 0, 0, record["entry"])
                for record in self.diagnostics_log]

    def dump_trace(self, path: str) -> None:
        from .trace import write_chrome_trace

        write_chrome_trace(path, self.trace_entries())

    def dump_metrics(self, path: str) -> None:
        from .trace import write_metrics

        telemetry = self.machine.telemetry_data() \
            if self.machine is not None else None
        write_metrics(path, [record["diagnostics"]
                             for record in self.diagnostics_log], telemetry)

    def dump_machine_trace(self, path: str) -> None:
        from .telemetry import MachineTelemetry
        from .trace import write_machine_trace

        telemetry = self.machine.telemetry_data() \
            if self.machine is not None else None
        write_machine_trace(path, telemetry if telemetry is not None
                            else MachineTelemetry())


def batch_main(argv) -> int:
    """``python -m repro batch FILE... [--jobs N] [--cache-dir PATH]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro batch",
        parents=[common_parser()],
        description="Compile many source files across a worker pool -- or "
                    "a running daemon (--server) -- with an optional "
                    "shared content-addressed compilation cache.")
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="Lisp source files to compile")
    parser.add_argument("--server", default=None, metavar="ADDR",
                        help="ship work to a running daemon at this "
                             "address (unix socket path or "
                             "http://host:port) instead of spawning a "
                             "local pool")
    parser.add_argument("--prelude", action="store_true",
                        help="load the bundled standard library into every "
                             "worker compiler first")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full batch report as JSON")
    parser.add_argument("--trace-rewrites", action="store_true",
                        help="capture whole-function before/after source "
                             "per optimizer rewrite (slower)")
    args = parser.parse_args(argv)

    options = CompilerOptions(target=_target_of(args),
                              tier=_tier_of(args),
                              timing=_timing_of(args),
                              trace_rewrites=args.trace_rewrites,
                              verify_ir=args.verify)
    service = CompilerService(options=options)
    result = service.batch(
        args.files, jobs=args.jobs, cache_dir=args.cache_dir,
        load_prelude=args.prelude, server=args.server,
        want_diagnostics=bool(args.trace or args.metrics or args.json))
    print(result.report())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=2)
    if args.trace:
        from .trace import write_chrome_trace

        count = write_chrome_trace(args.trace, result.trace_entries())
        print(f"trace: wrote {count} event(s) to {args.trace}")
    if args.metrics:
        from .trace import write_metrics

        write_metrics(args.metrics,
                      [f.diagnostics for f in result.files
                       if f.diagnostics is not None])
    if args.machine_trace:
        # Batch only compiles -- the execution track is empty, but the
        # file is still a valid trace so tooling can treat the flag
        # uniformly across subcommands.
        from .telemetry import MachineTelemetry
        from .trace import write_machine_trace

        write_machine_trace(args.machine_trace, MachineTelemetry())
        print(f"machine trace: wrote {args.machine_trace} (batch executes "
              f"nothing; execution track is empty)")
    return 0 if result.error_count == 0 else 1


def fuzz_main(argv) -> int:
    """``python -m repro fuzz --seed N --count K [--target T]...``"""
    from .fuzz import ALL_TARGETS, run_fuzz

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        parents=[common_parser()],
        description="Drive the seeded program generator through "
                    "verify-enabled compilation plus an "
                    "interpreter==compiled differential check.")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="base seed; program i uses seed N+i "
                             "(default 0)")
    parser.add_argument("--count", type=int, default=50, metavar="K",
                        help="number of programs to generate (default 50)")
    parser.add_argument("--max-depth", type=int, default=4, metavar="D",
                        help="maximum expression nesting depth (default 4)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the phase-boundary IR sanitizer (keep "
                             "only the differential check)")
    parser.add_argument("--cse", action="store_true",
                        help="also enable common subexpression elimination")
    parser.add_argument("--peephole", action="store_true",
                        help="also enable the peephole optimizer")
    parser.add_argument("--telemetry", action="store_true",
                        help="run every machine with execution telemetry "
                             "on and assert cycle conservation per run "
                             "(implied by --machine-trace)")
    args = parser.parse_args(argv)

    targets = tuple(args.target or ALL_TARGETS)
    unknown = [t for t in targets if t not in ALL_TARGETS]
    if unknown:
        parser.error(f"unknown target(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(ALL_TARGETS)})")
    tiers = tuple(args.tier or TIERS)
    unknown = [t for t in tiers if t not in TIERS]
    if unknown:
        parser.error(f"unknown tier(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(TIERS)})")
    timings = tuple(args.timing or ("single",))
    unknown = [m for m in timings if m not in TIMINGS]
    if unknown:
        parser.error(f"unknown timing model(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(TIMINGS)})")

    options = CompilerOptions(enable_cse=args.cse,
                              enable_peephole=args.peephole)
    want_telemetry = bool(args.telemetry or args.machine_trace)
    report = run_fuzz(base_seed=args.seed, count=args.count,
                      targets=targets, tiers=tiers,
                      verify=not args.no_verify, options=options,
                      max_depth=args.max_depth, timings=timings,
                      telemetry=want_telemetry)
    print(report.render())
    if args.machine_trace and report.telemetry is not None:
        from .trace import write_machine_trace

        count = write_machine_trace(args.machine_trace,
                                    report.telemetry["merged"])
        print(f"machine trace: wrote {count} event(s) to "
              f"{args.machine_trace}")
    return 0 if report.ok else 1


def serve_main(argv) -> int:
    """``python -m repro serve --socket PATH [--http HOST:PORT]``."""
    from .serve import ReproServer

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        parents=[common_parser()],
        description="Start the long-lived compile daemon: unix-socket "
                    "JSON lines and/or HTTP (POST / for the api, GET "
                    "/metrics for Prometheus).  Warm per-worker caches "
                    "over the shared --cache-dir store; bounded queue "
                    "with busy responses past --max-queue; graceful "
                    "drain on SIGTERM/SIGINT or a shutdown op.")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="unix socket to listen on (default "
                             ".repro.sock when no --http is given)")
    parser.add_argument("--http", default=None, metavar="HOST:PORT",
                        help="also serve HTTP on this address")
    parser.add_argument("--max-queue", type=int, default=8, metavar="N",
                        help="max requests waiting for a worker before "
                             "new ones get an immediate busy response "
                             "(default 8)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="per-request timeout (default 120)")
    parser.add_argument("--max-request-bytes", type=int,
                        default=None, metavar="N",
                        help="largest accepted request (socket line or "
                             "HTTP body; default 64 MiB); oversized "
                             "requests get a structured too-large / "
                             "413 answer")
    args = parser.parse_args(argv)

    socket_path = args.socket
    http_addr = None
    if args.http is not None:
        host, _, port = args.http.rpartition(":")
        try:
            http_addr = (host or "127.0.0.1", int(port))
        except ValueError:
            parser.error(f"--http wants HOST:PORT, got {args.http!r}")
    if socket_path is None and http_addr is None:
        socket_path = ".repro.sock"

    options = CompilerOptions(target=_target_of(args),
                              tier=_tier_of(args),
                              timing=_timing_of(args),
                              verify_ir=args.verify)
    extra = {}
    if args.max_request_bytes is not None:
        extra["max_request_bytes"] = args.max_request_bytes
    server = ReproServer(options,
                         socket_path=socket_path,
                         http_addr=http_addr,
                         cache_dir=args.cache_dir,
                         jobs=args.jobs,
                         max_queue=args.max_queue,
                         request_timeout=args.timeout,
                         **extra)
    return server.run()


def repl_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        parents=[common_parser()],
        description="Compile-and-go REPL for the S-1 Lisp compiler "
                    "reproduction.  (See also: python -m repro batch / "
                    "fuzz / serve / client, each with --help.)")
    parser.add_argument(
        "--diagnostics-json", metavar="PATH", default=None,
        help="write per-compilation phase timings, rule-fire counters, and "
             "warnings to PATH (JSON) when the session ends")
    args = parser.parse_args(argv)

    print("repro: the S-1 Lisp compiler reproduction "
          "(:quit to leave, :prelude for the library)")
    repl = Repl(CompilerOptions(trace_rewrites=True,
                                verify_ir=args.verify,
                                target=_target_of(args),
                                tier=_tier_of(args),
                                timing=_timing_of(args),
                                cache=args.cache_dir))
    try:
        while True:
            try:
                line = input("s1> ")
            except (EOFError, KeyboardInterrupt):
                print()
                return 0
            if not repl.handle(line):
                return 0
    finally:
        if args.diagnostics_json:
            repl.dump_diagnostics(args.diagnostics_json)
        if args.trace:
            repl.dump_trace(args.trace)
        if args.metrics:
            repl.dump_metrics(args.metrics)
        if args.machine_trace:
            repl.dump_machine_trace(args.machine_trace)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        name, rest = argv[0], argv[1:]
    else:
        name, rest = "repl", argv
    if name == "batch":
        return batch_main(rest)
    if name == "fuzz":
        return fuzz_main(rest)
    if name == "serve":
        return serve_main(rest)
    if name == "client":
        from .client import client_main

        return client_main(rest, parents=[common_parser()])
    return repl_main(rest)


if __name__ == "__main__":
    raise SystemExit(main())
