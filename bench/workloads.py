"""The benchmark's workloads.

Each workload runs one kind of operation in a closed loop from one
process: the next operation starts when the previous one has finished and
been checked.  An operation's latency covers only the work a user waits
for; checking its output happens between operations.

    cold-start        one fresh ``python -m repro batch FILE`` process
    compile-corpus    compiling one generated 3-defun program
    run-numeric-*     one TESTFN drive and one fib, each on a fresh Machine
    run-lists-*       three closure-comparator merge sorts with GC on
    daemon            one compile request to a running daemon

Inputs come from ``bench/programs`` and the seed only.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from programs import gen
from reference import (LOOP_NOMINAL_S, START_NOMINAL_S,
                       interpreter_start_seconds, reference_seconds)
from tracing import HookError, Tracer, root_span

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROGRAMS = os.path.join("bench", "programs")
OUT = os.path.join("bench", "out")

#: Compile layers whose self time is reported, by hook name.
SELF_METRICS = {
    "reader": "reader.self_s",
    "ir.convert": "ir.convert_self_s",
    "analysis": "analysis.self_s",
    "optimizer": "optimizer.self_s",
    "annotate": "annotate.self_s",
    "tnbind": "tnbind.self_s",
    "codegen": "codegen.self_s",
    "ir.backtranslate": "ir.backtranslate_self_s",
    "diagnostics.count_nodes": "diagnostics.count_nodes_self_s",
}
COMPILE_LAYERS = tuple(SELF_METRICS)
#: What one machine round counts, and what must agree across tiers.
COUNTS = ("instructions", "cycles", "calls", "allocs", "gc_runs")
PARITY = ("instructions", "cycles", "calls")
#: Largest share of compile time no hooked layer may account for.
MAX_OTHER_SHARE = 0.05
#: Largest gap between the compile spans and the compile time the
#: workload clocks itself, as a share of the latter.
MAX_SPAN_GAP = 0.02


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def read_program(name: str) -> str:
    with open(os.path.join(ROOT, PROGRAMS, name), encoding="utf-8") as handle:
        return handle.read()


def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def interpret(sources: Sequence[str], fn: str, args: Sequence[Any]) -> Any:
    """The reference answer: repro's interpreter, never the compiler."""
    from repro import Interpreter
    from repro.datum import sym

    interp = Interpreter()
    for text in sources:
        interp.eval_source(text)
    return interp.apply_function(interp.global_functions[sym(fn)], list(args))


def same_value(got: Any, want: Any) -> bool:
    """Compiled and interpreted floats differ in the last digits by design
    (the paper's truncated sinc constant); everything else is exact."""
    from repro.datum import lisp_equal

    if isinstance(got, float) and isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-6)
    return lisp_equal(got, want)


class Workload:
    """One operation type.  ``setup`` is repeated and timed, each time
    between timings of ``setup_reference``; ``run`` returns
    ``(seconds the user waited, output)``; ``check`` returns a problem
    description or None; ``reference`` is timed before every operation,
    and the gated latencies are in its units."""

    name = ""
    #: Percentile reported as latency_ref.tail; a standard run has at
    #: least ten operations beyond it.
    tail = 90
    #: Hooks (tracing.HOOKS keys) a traced run installs; each must fire.
    layers: Tuple[str, ...] = ()
    #: The work runs in child processes (peak RSS is theirs).
    children = False
    #: Operations measured even when the time runs out first.
    min_ops = 10
    #: What ``setup_reference`` takes on the nominal host (reference.py).
    setup_nominal_s = LOOP_NOMINAL_S

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *parts: Any) -> random.Random:
        return random.Random("/".join([str(self.seed), self.name]
                                      + [str(p) for p in parts]))

    def setup(self) -> float:
        raise NotImplementedError

    def reference(self) -> float:
        """Seconds of one fixed piece of work that no change to the
        program can speed up (see reference.py)."""
        return reference_seconds()

    def setup_reference(self) -> float:
        """The reference a set-up is divided by."""
        return reference_seconds()

    def run(self, index: int, tracer: Optional[Tracer]) -> Tuple[float, Any]:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> Optional[str]:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, base: List[float],
                      traced: List[float]) -> Dict[str, float]:
        """Per-layer values from the traced operations, per operation."""
        ops = max(len(traced), 1)
        own, total = tracer.self_times()
        metrics = {metric: own.get(layer, 0.0) / ops
                   for layer, metric in SELF_METRICS.items()}
        run_s = total.get("machine", 0.0)
        collect_s = total.get("heap.collect", 0.0)
        roots_s = total.get("machine.gc_roots", 0.0)
        metrics.update({
            "pygc.pause_s": tracer.gc_pause_s / ops,
            "analysis.calls": tracer.fired["analysis"] / ops,
            "diagnostics.count_nodes_calls":
                tracer.fired["diagnostics.count_nodes"] / ops,
            "machine.run_s": run_s / ops,
            "native.translate_s": total.get("native", 0.0) / ops,
            "heap.collect_s": collect_s / ops,
            "machine.gc_roots_s": roots_s / ops,
            "heap.gc_share": (collect_s + roots_s) / run_s if run_s else 0.0,
        })
        return metrics

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class ColdStart(Workload):
    """Interpreter start and ``import repro`` dominate a cold CLI compile;
    everywhere else import is set-up, so lazy imports show only here."""

    name = "cold-start"
    tail = 66  # a run makes about 32 operations
    children = True
    setup_nominal_s = START_NOMINAL_S
    FILES = ("iterative.lisp", "list-utils.lisp", "polynomial.lisp")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.files = [os.path.join(PROGRAMS, name) for name in self.FILES]
        # A seeded order, cycled, so every stretch of a run sees each file.
        self.order = self.rng("order").sample(self.files, len(self.files))
        self.defuns = {path: read_program(os.path.basename(path))
                       .count("(defun ") for path in self.files}
        self.start_s: List[float] = []
        self.import_s: List[float] = []
        self.modules = 0

    def _batch(self, path: str, *flags: str):
        started = perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "repro", "batch", path],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120)
        return perf_counter() - started, (path, proc)

    def setup(self) -> float:
        # Warms the page cache and writes bytecode, as a user's first run.
        elapsed, output = self._batch(self.files[0])
        problem = self.check(-1, output)
        if problem:
            raise RuntimeError(problem)
        return elapsed

    def reference(self) -> float:
        """A bare interpreter start: the unit of a cold compile."""
        self.start_s.append(interpreter_start_seconds())
        return self.start_s[-1]

    setup_reference = reference

    def run(self, index, tracer):
        path = self.order[index % len(self.order)]
        if tracer is None:
            return self._batch(path)
        elapsed, output = self._batch(path, "-X", "importtime")
        self._read_importtime(output[1].stderr)
        return elapsed, output

    def _read_importtime(self, stderr: str) -> None:
        """Python's own import tracer: ``import time: self | cumulative |
        package`` lines; the top-level ``repro`` entry covers the whole
        package import."""
        modules = 0
        for line in stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            package = fields[2].strip()
            if package == "repro" or package.startswith("repro."):
                modules += 1
            if package == "repro":
                self.import_s.append(int(fields[1]) / 1e6)
        self.modules = modules

    def check(self, index, output):
        path, proc = output
        if proc.returncode != 0:
            return f"{path}: exit {proc.returncode}: {proc.stderr[-300:]}"
        want = f"{self.defuns[path]} definition(s)"
        if "1 ok / 0 failed" not in proc.stdout or want not in proc.stdout:
            return f"{path}: unexpected output {proc.stdout!r}"
        return None

    def layer_metrics(self, tracer, base, traced):
        metrics = super().layer_metrics(tracer, base, traced)
        start = percentile(self.start_s, 50)
        imported = percentile(self.import_s, 50)
        metrics.update({
            "interp.start_s": start,
            "import.repro_s": imported,
            "import.repro_modules": self.modules,
            "cli.rest_s": percentile(base, 50) - start - imported,
        })
        return metrics


class CompileCorpus(Workload):
    """The Table 1 pipeline does almost all the work; the machine only
    runs each program once to check it."""

    name = "compile-corpus"
    layers = COMPILE_LAYERS + ("machine", "native")
    #: code_instructions and sim_cycles cover the first this-many programs,
    #: so they repeat exactly for a seed whatever the host's speed.
    EXACT_PREFIX = 50
    min_ops = EXACT_PREFIX

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro import CompilerOptions

        self.options = CompilerOptions(tier="native")
        #: index -> (instructions emitted, cycles run) for the prefix.
        self.exact: Dict[int, Tuple[int, int]] = {}
        self.counts = {"reader.forms": 0, "ir.nodes": 0,
                       "optimizer.rule_fires": 0, "optimizer.nodes_out": 0,
                       "machine.instructions": 0}
        self.checked = 0
        #: Compile seconds of the traced operations, by the workload's clock.
        self.traced_compile_s = 0.0
        # The median program sits where compile time climbs steeply with
        # size (p45 to p55 is +30%), so the median of a run's ~500
        # programs moves with how many land on either side; 40 size strata
        # halved its spread over ten seeds, against 10.
        self.corpus = gen.SizeStrata(n_functions=3, max_depth=5, strata=40)

    def setup(self) -> float:
        elapsed, output = self._compile(
            self.corpus.any(random.Random("warm-up")), None)
        problem, _ = self._verify(output)
        if problem:
            raise RuntimeError(problem)
        return elapsed

    def run(self, index, tracer):
        return self._compile(self.corpus.draw(self.rng(index), index), tracer)

    def _compile(self, program, tracer):
        from repro import Compiler

        source, names, args = program
        with root_span(tracer, "compile"):
            started = perf_counter()
            compiler = Compiler(self.options)
            defined = compiler.compile_source(source)
            elapsed = perf_counter() - started
        if tracer is not None:
            self.traced_compile_s += elapsed
        return elapsed, (source, names, args, compiler, defined)

    def _verify(self, output):
        """``(problem or None, the machine that ran f)``."""
        from repro.datum import sym

        source, names, args, compiler, defined = output
        if [str(name) for name in defined] != names:
            return f"defined {defined}, expected {names}", None
        machine = compiler.machine()
        got = machine.run(sym("f"), args)
        want = interpret([source], "f", args)
        if not same_value(got, want):
            return (f"f{tuple(args)} = {got!r}, interpreter says {want!r}",
                    machine)
        return None, machine

    def check(self, index, output):
        problem, machine = self._verify(output)
        if problem:
            return f"{problem}\n{output[0]}"
        compiler = output[3]
        emitted = sum(len(fn.code.instructions)
                      for fn in compiler.functions.values())
        if index < self.EXACT_PREFIX:
            self.exact[index] = (emitted, machine.cycles)
        diagnostics = compiler.last_diagnostics
        for phase in diagnostics.phases:
            key = {"reader": "reader.forms", "ir conversion": "ir.nodes",
                   "optimizer": "optimizer.nodes_out"}.get(phase.phase)
            if key is not None:
                self.counts[key] += phase.nodes_after or 0
        self.counts["optimizer.rule_fires"] += sum(
            diagnostics.rule_fires.values())
        self.counts["machine.instructions"] += machine.instructions
        self.checked += 1
        return None

    def layer_metrics(self, tracer, base, traced):
        metrics = super().layer_metrics(tracer, base, traced)
        ops = len(traced)
        own, _ = tracer.self_times(under="compile")
        compile_s = self.traced_compile_s
        attributed = sum(own.get(layer, 0.0) for layer in COMPILE_LAYERS)
        other = own["compile"]
        # Spans of another layer inside a compile open a gap; a missing
        # hook does not (its time lands in compile.other_s, checked next).
        if abs(attributed + other - compile_s) > MAX_SPAN_GAP * compile_s:
            raise HookError(
                f"layer self times {attributed + other:.6f}s do not sum to "
                f"the timed compile {compile_s:.6f}s")
        if other > MAX_OTHER_SHARE * compile_s:
            raise HookError(
                f"compile.other_s is {other / compile_s:.1%} of compile "
                f"time (limit {MAX_OTHER_SHARE:.0%}): a layer is unhooked")
        metrics["compile.other_s"] = other / ops
        metrics.update({key: value / self.checked
                        for key, value in self.counts.items()})
        metrics["code_instructions"] = sum(e for e, _ in self.exact.values())
        metrics["sim_cycles"] = sum(c for _, c in self.exact.values())
        return metrics


class RunWorkload(Workload):
    """A fixed round of machine runs, each on a fresh Machine, on one
    tier.  The round's inputs come from the seed; its cost does not."""

    FILES: Tuple[str, ...] = ()
    prelude = False
    gc_threshold: Optional[int] = None
    layers = ("machine",)

    def __init__(self, seed: int, tier: str):
        super().__init__(seed)
        self.tier = tier
        self.name = f"{self.kind}-{tier}"
        if tier == "native":
            self.layers = self.layers + ("native",)
        # Keyed by kind, not name: both tiers draw the same inputs.
        self.calls = self.make_calls(
            random.Random(f"{seed}/{self.kind}/inputs"))
        self.sources = [read_program(name) for name in self.FILES]
        #: The interpreter's answers, computed once, outside the timed set-up.
        self.expected: Optional[List[Any]] = None
        #: Counts of the first checked round; every later round must match.
        self.first_counts: Optional[Dict[str, int]] = None
        # The reference interpreter recurses in Python once per Lisp call.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

    def make_calls(self, rng: random.Random) -> List[Tuple[str, list]]:
        raise NotImplementedError

    def setup(self) -> float:
        from repro import Compiler, CompilerOptions
        from repro.compiler import prelude_source

        started = perf_counter()
        compiler = Compiler(CompilerOptions(tier=self.tier))
        if self.prelude:
            compiler.load_prelude()
        for text in self.sources:
            compiler.compile_source(text)
        elapsed = perf_counter() - started
        self.compiler = compiler
        if self.expected is None:
            sources = ([prelude_source()] if self.prelude else []) \
                + self.sources
            self.expected = [interpret(sources, fn, args)
                             for fn, args in self.calls]
        return elapsed

    def _round(self, tier: Optional[str] = None):
        from repro.datum import sym

        elapsed = 0.0
        values = []
        counts = dict.fromkeys(COUNTS, 0)
        for fn, args in self.calls:
            started = perf_counter()
            machine = self.compiler.machine()
            machine.gc_threshold = self.gc_threshold
            if tier is not None:
                machine.tier = tier
            values.append(machine.run(sym(fn), args))
            elapsed += perf_counter() - started
            counts["instructions"] += machine.instructions
            counts["cycles"] += machine.cycles
            counts["calls"] += machine.call_count
            counts["allocs"] += machine.heap.total_allocations()
            counts["gc_runs"] += machine.heap.gc_runs
        return elapsed, (values, counts)

    def run(self, index, tracer):
        return self._round()

    def _wrong_values(self, values) -> Optional[str]:
        for (fn, args), got, want in zip(self.calls, values, self.expected):
            if not same_value(got, want):
                return f"({fn} {args}) = {got!r}, interpreter says {want!r}"
        return None

    def check(self, index, output):
        values, counts = output
        problem = self._wrong_values(values)
        if problem:
            return problem
        if self.first_counts is None:
            # Tier parity: the other tier computes the same values,
            # retires the same instructions and charges the same cycles
            # (GC runs may differ: the native tier checks its GC trigger
            # once per block).
            other = "simulate" if self.tier == "native" else "native"
            other_values, other_counts = self._round(other)[1]
            problem = self._wrong_values(other_values)
            if problem:
                return f"{other} tier: {problem}"
            for key in PARITY:
                if counts[key] != other_counts[key]:
                    return (f"tier parity: {key} {counts[key]} on "
                            f"{self.tier}, {other_counts[key]} on {other}")
            self.first_counts = counts
        elif counts != self.first_counts:
            return f"counts {counts} differ from the first run's " \
                   f"{self.first_counts}"
        return None

    def layer_metrics(self, tracer, base, traced):
        metrics = super().layer_metrics(tracer, base, traced)
        if self.first_counts is None:  # no run succeeded
            return metrics
        counts = self.first_counts
        metrics.update({
            "sim_cycles": counts["cycles"],
            "machine.instructions": counts["instructions"],
            "machine.calls": counts["calls"],
            "machine.ns_per_instr":
                percentile(base, 50) / counts["instructions"] * 1e9,
            "heap.allocs": counts["allocs"],
            "heap.gc_runs": counts["gc_runs"],
        })
        return metrics


class RunNumeric(RunWorkload):
    """Fixnum and float fast paths, no allocation to speak of, no GC."""

    kind = "run-numeric"
    FILES = ("testfn.lisp", "fib.lisp")
    #: ``(drive n, fib n)`` by tier.  A fresh Machine translates each code
    #: object it runs on the native tier, so the native round is eight
    #: times larger: translation is near a tenth of it, where it was near
    #: half at the simulate size.  The simulate round stays short enough
    #: for about 250 operations a run.
    SIZES = {"simulate": (250, 14), "native": (2000, 18)}

    def make_calls(self, rng):
        drive_n, fib_n = self.SIZES[self.tier]
        return [("drive", [drive_n, rng.uniform(0.5, 2.0)]),
                ("fib", [fib_n])]


class RunLists(RunWorkload):
    """Allocation, collection and funcall of closures: the paths where
    the native tier falls back to the simulator's handlers.

    Both tiers run the same round: the collector fires whenever the live
    set exceeds ``gc_threshold``, so a larger input would change how often
    it runs, not only how long the round takes.  Three sorts a round keep
    native translation near a seventh of the round."""

    kind = "run-lists"
    FILES = ("sort-drive.lisp",)
    prelude = True
    gc_threshold = 200
    layers = ("machine", "heap.collect", "machine.gc_roots")
    tail = 85  # a simulate run makes about 80 operations
    ROUNDS = 3
    SORT_N = 64

    def make_calls(self, rng):
        return [("sort-drive",
                 [self.ROUNDS, self.SORT_N, rng.randrange(1, 2 ** 31)])]


class Daemon(Workload):
    """One client, closed loop, against ``repro serve --jobs 1``.  Every
    NEW_EVERY-th request sends a new program (a miss and a disk store);
    the others repeat one of the last RECENT new programs (a cache hit),
    so the median is a hit and the tail is a miss, in the same mix in
    every stretch of a run.  RECENT programs' functions fit the daemon's
    in-memory cache (256 entries), so the hit path stays the same however
    many requests a run makes."""

    name = "daemon"
    tail = 99
    layers = ("client",)
    children = True
    setup_nominal_s = START_NOMINAL_S
    NEW_EVERY = 4
    RECENT = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.client import ServiceClient

        self.socket = os.path.join(OUT, f"daemon-{os.getpid()}.sock")
        self.client = ServiceClient(self.socket, timeout=120.0)
        self.proc: Optional[subprocess.Popen] = None
        self.cache_dirs: List[str] = []
        self.sent: List[Tuple[str, List[str]]] = []
        self.listings: Dict[str, str] = {}
        self.records: List[Tuple[bool, Dict[str, Any], Dict[str, int]]] = []
        self.requests = 0
        # The median is a cache hit whatever the sizes: ten strata keep the
        # mix even with a quarter of the rejected draws forty would take.
        self.corpus = gen.SizeStrata(n_functions=2, max_depth=4, strata=10)

    def _stop(self) -> None:
        from repro.client import ServiceError, ServiceUnavailable

        if self.proc is None:
            return
        try:
            self.client.shutdown()
            self.proc.wait(timeout=60)
        except (ServiceError, ServiceUnavailable, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def setup_reference(self) -> float:
        """Set-up starts the daemon's process: an interpreter start."""
        return interpreter_start_seconds()

    def setup(self) -> float:
        self._stop()
        os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
        cache_dir = os.path.join(
            OUT, f"daemon-cache-{os.getpid()}-{len(self.cache_dirs)}")
        self.cache_dirs.append(cache_dir)
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--cache-dir", cache_dir, "--jobs", "1"],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        if not self.client.wait_ready(timeout=60.0, interval=0.005):
            raise RuntimeError("daemon did not answer within 60 s")
        return perf_counter() - started

    def run(self, index, tracer):
        # The request sequence runs on across the untraced and traced
        # halves: restarting it would turn the second half into repeats.
        request = self.requests
        self.requests += 1
        rng = self.rng(request)
        if request % self.NEW_EVERY and self.sent:
            recent = self.sent[-self.RECENT:]
            source, names = recent[rng.randrange(len(recent))]
            repeat = True
        else:
            source, names, _ = self.corpus.draw(rng, len(self.listings))
            repeat = False
        started = perf_counter()
        if tracer is None:
            response, record = self.client.compile(source, listing=True), None
        else:
            response, record = self.client.compile_traced(source,
                                                          listing=True)
        elapsed = perf_counter() - started
        return elapsed, (repeat, source, names, response, record)

    def check(self, index, output):
        repeat, source, names, response, record = output
        if response.get("defined") != names:
            return f"defined {response.get('defined')}, expected {names}"
        counters = response.get("counters", {})
        hit = counters.get("cache_hits", 0) > 0 \
            and not counters.get("cache_misses", 0)
        if repeat:
            if not hit:
                return f"repeated program missed the cache: {counters}"
            if response.get("listing") != self.listings[source]:
                return "a cache hit's listing differs from the miss's"
        elif source not in self.listings:
            self.listings[source] = response.get("listing")
            self.sent.append((source, names))
        if record is not None:
            self.records.append((hit, record, counters))
        return None

    def layer_metrics(self, tracer, base, traced):
        metrics = super().layer_metrics(tracer, base, traced)
        waits, executes, hits, misses, wires = [], [], [], [], []
        totals = {"cache_hits": 0, "cache_misses": 0, "cache_stores": 0}
        for hit, record, counters in self.records:
            timing = record["server_timing"]
            waits.append(timing["queue_wait_s"])
            executes.append(timing["execute_s"])
            (hits if hit else misses).append(timing["execute_s"])
            wires.append(record["client"]["duration_s"]
                         - timing["queue_wait_s"] - timing["execute_s"])
            for key in totals:
                totals[key] += counters.get(key, 0)
        looked_up = totals["cache_hits"] + totals["cache_misses"]
        metrics.update({
            "serve.queue_wait_ms.p50": percentile(waits, 50) * 1e3,
            "serve.execute_ms.p50": percentile(executes, 50) * 1e3,
            "serve.execute_hit_ms.p50": percentile(hits, 50) * 1e3,
            "serve.execute_miss_ms.p50": percentile(misses, 50) * 1e3,
            "client.wire_ms.p50": percentile(wires, 50) * 1e3,
            "cache.hit_ratio": totals["cache_hits"] / looked_up,
            "cache.stores": totals["cache_stores"] / len(self.records),
            "serve.busy": self.client.stats()["busy_total"],
        })
        return metrics

    def close(self) -> None:
        self._stop()
        for path in self.cache_dirs:
            shutil.rmtree(os.path.join(ROOT, path), ignore_errors=True)
        if os.path.exists(os.path.join(ROOT, self.socket)):
            os.unlink(os.path.join(ROOT, self.socket))


def make(name: str, seed: int) -> Workload:
    for tier in ("simulate", "native"):
        if name == f"run-numeric-{tier}":
            return RunNumeric(seed, tier)
        if name == f"run-lists-{tier}":
            return RunLists(seed, tier)
    simple = {cls.name: cls for cls in (ColdStart, CompileCorpus, Daemon)}
    return simple[name](seed)
