"""The CLI: ``python -m repro [repl|batch|fuzz|serve|client]``.

Each subcommand takes only the flags it honours: the shared ones
(``--cache-dir``, ``--trace``, ``--metrics``, ``--verify``, ``--target``,
``--tier``, ``--timing``, ``--jobs``) have one spelling and help text in
:func:`shared_flags`, and the machine axes are checked against their
vocabularies by argparse.  Every subcommand drives
the compiler through the :class:`repro.api.CompilerService` facade -- the
same object the daemon serves over its wire protocol.

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

``--verify`` (repl, batch, serve) turns on the phase-boundary IR sanitizer;
fuzz always runs it unless given ``--no-verify``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .api import CompilerService
from .datum import Cons, sym
from .errors import ReproError
from .machine.timing import TIMINGS
from .options import TIERS, CompilerOptions
from .reader import read_all, write_to_string
from .target.machines import TARGETS

if TYPE_CHECKING:
    from .diagnostics import Diagnostics
    from .machine.cpu import Machine

#: Subcommand names; anything else routes to the REPL (the historical
#: default invocation).
SUBCOMMANDS = ("repl", "batch", "fuzz", "serve", "client")

#: The flags several subcommands take, each with one spelling and one help
#: text; a subcommand takes only those it honours (see shared_flags).
_FLAGS: Dict[str, Dict[str, Any]] = {
    "--cache-dir": dict(
        default=None, metavar="PATH",
        help="content-addressed compilation cache directory (shared "
             "across workers, runs, and the daemon)"),
    "--trace": dict(
        default=None, metavar="PATH",
        help="write a Chrome trace-event JSON on exit: compile spans and, "
             "where a machine ran, its execution track (open in Perfetto "
             "/ chrome://tracing)"),
    "--metrics": dict(
        default=None, metavar="PATH",
        help="write a Prometheus text metrics dump on exit"),
    "--verify": dict(
        action="store_true",
        help="run the phase-boundary IR sanitizer (repro.verify) after "
             "every compiler phase"),
    "--jobs": dict(
        type=int, default=1, metavar="N",
        help="worker processes that compile batch units (default 1)"),
}

#: The machine axes: flag -> (choices, default, what it selects).
_AXES = {
    "--target": (tuple(TARGETS), "s1", "machine description"),
    "--tier": (TIERS, "simulate", "execution tier"),
    "--timing": (TIMINGS, "single", "machine timing model"),
}


def shared_flags(*names: str, sweep: bool = False) -> argparse.ArgumentParser:
    """A parent parser holding just the shared flags *names*.  The axis
    flags check their value against ``choices``; with *sweep* (fuzz) each
    one repeats and every value given is swept, elsewhere the last wins."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("common options")
    for name in names:
        if name not in _AXES:
            group.add_argument(name, **_FLAGS[name])
            continue
        choices, default, what = _AXES[name]
        if sweep:
            group.add_argument(name, action="append", choices=choices,
                               help=f"{what} to sweep (repeatable)")
        else:
            group.add_argument(name, default=default, choices=choices,
                               help=f"{what} (default {default})")
    return parent


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
        #: (entry text, Diagnostics) of every compilation this session, in
        #: order: the source of --diagnostics-json, --trace and --metrics.
        self.diagnostics_log: List[Tuple[str, Diagnostics]] = []

    def _session_machine(self) -> Machine:
        """Keep one session machine so specials persist between entries;
        new definitions only swap in the updated program."""
        if self.machine is None:
            self.machine = self.compiler.machine()
            # The observer is on for the whole session so :profile, :hot,
            # --trace and --metrics can answer at any point.
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
            self.diagnostics_log.append((entry, diagnostics))

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

        session = [{"entry": entry, "diagnostics": diagnostics.to_json()}
                   for entry, diagnostics in self.diagnostics_log]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"session": session}, handle, indent=2)

    def trace_entries(self):
        """(diagnostics, pid, tid, label) tuples for the trace exporter:
        the whole session on one track, one compile span per entry."""
        return [(diagnostics, 0, 0, entry)
                for entry, diagnostics in self.diagnostics_log]

    def _telemetry(self) -> Optional[Dict[str, Any]]:
        return self.machine.telemetry_data() \
            if self.machine is not None else None

    def dump_trace(self, path: str) -> None:
        """The session's compile tracks and the session machine's
        execution track, in one Chrome trace."""
        from .trace import write_chrome_trace

        write_chrome_trace(path, self.trace_entries(), self._telemetry())

    def dump_metrics(self, path: str) -> None:
        from .trace import write_metrics

        write_metrics(path, [diagnostics
                             for _, diagnostics in self.diagnostics_log],
                      self._telemetry())


def batch_main(argv) -> int:
    """``python -m repro batch FILE... [--jobs N] [--cache-dir PATH]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro batch",
        parents=[shared_flags("--cache-dir", "--trace", "--metrics",
                              "--verify", "--target", "--jobs")],
        description="Compile many source files across a worker pool -- or "
                    "a running daemon (--server) -- with an optional "
                    "shared content-addressed compilation cache.")
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="Lisp source files to compile")
    parser.add_argument("--server", default=None, metavar="ADDR",
                        help="ship work to a running daemon at this "
                             "address (unix socket path or "
                             "http://host:port) instead of spawning a "
                             "local pool; the daemon's own cache and "
                             "verification settings apply")
    parser.add_argument("--prelude", action="store_true",
                        help="load the bundled standard library into every "
                             "worker compiler first")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full batch report as JSON")
    parser.add_argument("--trace-rewrites", action="store_true",
                        help="capture whole-function before/after source "
                             "per optimizer rewrite (slower)")
    args = parser.parse_args(argv)
    if args.server is not None:
        # Only semantic options travel to a daemon, it compiles on its own
        # --jobs workers, and no compile spans come back: these flags
        # would do nothing.
        local = [flag for flag, value in (
            ("--cache-dir", args.cache_dir), ("--verify", args.verify),
            ("--trace-rewrites", args.trace_rewrites),
            ("--trace", args.trace), ("--metrics", args.metrics),
            ("--jobs", args.jobs != 1)) if value]
        if local:
            parser.error(f"{', '.join(local)} cannot be used with --server "
                         f"(the daemon compiles with its own settings)")

    options = CompilerOptions(target=args.target,
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
    return 0 if result.error_count == 0 else 1


def fuzz_main(argv) -> int:
    """``python -m repro fuzz --seed N --count K [--target T]...``"""
    from .fuzz import ALL_TARGETS, run_fuzz

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        parents=[shared_flags("--target", "--tier", "--timing",
                              "--trace", sweep=True)],
        description="Drive the seeded program generator through "
                    "verify-enabled compilation plus an "
                    "interpreter==compiled differential check over every "
                    "target, both tiers and the single timing model "
                    "unless --target/--tier/--timing narrow or widen the "
                    "sweep.")
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
                             "(implied by --trace)")
    args = parser.parse_args(argv)
    targets = tuple(args.target or ALL_TARGETS)
    tiers = tuple(args.tier or TIERS)
    timings = tuple(args.timing or ("single",))

    options = CompilerOptions(enable_cse=args.cse,
                              enable_peephole=args.peephole)
    want_telemetry = bool(args.telemetry or args.trace)
    report = run_fuzz(base_seed=args.seed, count=args.count,
                      targets=targets, tiers=tiers,
                      verify=not args.no_verify, options=options,
                      max_depth=args.max_depth, timings=timings,
                      telemetry=want_telemetry)
    print(report.render())
    if args.trace and report.telemetry is not None:
        from .trace import write_chrome_trace

        count = write_chrome_trace(args.trace, (),
                                   report.telemetry["merged"])
        print(f"trace: wrote {count} event(s) to {args.trace}")
    return 0 if report.ok else 1


def serve_main(argv) -> int:
    """``python -m repro serve --socket PATH [--http HOST:PORT]``."""
    from .serve import ReproServer

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        parents=[shared_flags("--cache-dir", "--verify", "--target",
                              "--jobs")],
        description="Start the long-lived compile daemon: unix-socket "
                    "JSON lines and/or HTTP (POST / for the api, GET "
                    "/metrics for Prometheus).  One warm cache over the "
                    "--cache-dir store; --jobs N worker processes for the "
                    "batch op; bounded queue with busy responses past "
                    "--max-queue; graceful drain on SIGTERM/SIGINT or a "
                    "shutdown op.")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="unix socket to listen on (default "
                             ".repro.sock when no --http is given)")
    parser.add_argument("--http", default=None, metavar="HOST:PORT",
                        help="also serve HTTP on this address")
    parser.add_argument("--max-queue", type=int, default=8, metavar="N",
                        help="max requests waiting for the dispatch "
                             "thread before new ones get an immediate busy "
                             "response (default 8)")
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

    options = CompilerOptions(target=args.target, verify_ir=args.verify)
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


def client_main(argv) -> int:
    """``python -m repro client``: poke a running daemon.

    With FILEs: daemon-backed batch compile (a few files per ``batch``
    request).  Without: ``--ping`` / ``--stats`` / ``--shutdown``."""
    import json
    import os

    from .client import ServiceClient, ServiceError, ServiceUnavailable

    parser = argparse.ArgumentParser(
        prog="python -m repro client",
        parents=[shared_flags("--target")],
        description="Talk to a running compile daemon (python -m repro "
                    "serve) over its unix socket or HTTP address.")
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="Lisp source files to compile on the daemon")
    parser.add_argument("--server", default=None, metavar="ADDR",
                        help="daemon address: unix socket path or "
                             "http://host:port (default: "
                             "$REPRO_SERVER or .repro.sock)")
    parser.add_argument("--ping", action="store_true",
                        help="check the daemon is alive")
    parser.add_argument("--stats", action="store_true",
                        help="print the daemon's stats JSON")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to drain and exit")
    parser.add_argument("--prelude", action="store_true",
                        help="load the bundled standard library before "
                             "each file")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the batch report as JSON")
    args = parser.parse_args(argv)
    if not (args.ping or args.stats or args.files or args.shutdown):
        parser.error("nothing to do: give FILEs or one of "
                     "--ping/--stats/--shutdown")

    address = args.server or os.environ.get("REPRO_SERVER", ".repro.sock")
    client = ServiceClient(address)
    try:
        if args.ping:
            response = client.ping()
            print(f"pong from pid {response.get('pid')} "
                  f"(repro {response.get('version')}, api v"
                  f"{response.get('api')})")
        if args.stats:
            print(json.dumps(client.stats(), indent=2, default=str))
        if args.files:
            from .batch import compile_batch

            result = compile_batch(
                args.files, options=CompilerOptions(target=args.target),
                server=address, load_prelude=args.prelude)
            print(result.report())
            if args.json:
                with open(args.json, "w", encoding="utf-8") as handle:
                    json.dump(result.to_json(), handle, indent=2)
            if result.error_count:
                return 1
        if args.shutdown:
            client.shutdown()
            print("daemon draining")
    except ServiceUnavailable as err:
        print(f"error: {err}")
        return 2
    except ServiceError as err:
        print(f"error [{err.code}]: {err}")
        return 1
    return 0


def repl_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        parents=[shared_flags("--cache-dir", "--trace", "--metrics",
                              "--verify", "--target", "--tier",
                              "--timing")],
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
    options = CompilerOptions(trace_rewrites=True, verify_ir=args.verify,
                              target=args.target, tier=args.tier,
                              timing=args.timing)
    repl = Repl(service=CompilerService(options, cache=args.cache_dir))
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
        return client_main(rest)
    return repl_main(rest)


if __name__ == "__main__":
    raise SystemExit(main())
