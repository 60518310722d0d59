"""Seeded program generation and the verify-enabled fuzz harness.

The generator (formerly ``tests/genprog.py``; the tests now import it from
here) produces programs as *text* -- the compiler's real input surface --
from a ``random.Random`` seed, so every run sees the same corpus.  The
expression language is chosen so that every program

* terminates (no unbounded recursion, loop counts are literal),
* is total (no division, no car/cdr of atoms, no unbound variables),
* is deterministic (pure integer arithmetic and control flow),

which makes "interpreter == compiled" a meaningful oracle for any
generated program on any target.

:func:`run_fuzz` drives that corpus through the full pipeline with the
phase-boundary sanitizer enabled (``CompilerOptions.verify_ir``) and
differentially checks each compiled result against the reference
interpreter, per target.

With more than one *timing* model the sweep additionally asserts that the
timing axis is strictly non-semantic: same results, same instruction and
opcode totals, same cycles on both tiers within each timing, pipelined
``base_cycles`` equal to the single-cycle total, and no stalls charged
under single-cycle timing.  CLI::

    python -m repro fuzz --seed 0 --count 100
    python -m repro fuzz --seed 7 --count 50 --target vax --no-verify
    python -m repro fuzz --seed 0 --count 50 --timing single --timing pipelined
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

_UNARY_OPS = ("1+", "1-", "abs", "zerop", "not")
_BINARY_OPS = ("+", "-", "*", "max", "min")
_COMPARE_OPS = ("<", ">", "=", "<=", ">=")

ALL_TARGETS = ("s1", "vax", "pdp10")


# ---------------------------------------------------------------------------
# program generation


def _gen_expr(rng: random.Random, env: Sequence[str], depth: int) -> str:
    """One pure integer-valued expression over the variables in *env*."""
    if depth <= 0 or rng.random() < 0.25:
        if env and rng.random() < 0.6:
            return rng.choice(list(env))
        return str(rng.randint(-30, 30))
    choice = rng.random()
    if choice < 0.30:
        op = rng.choice(_BINARY_OPS)
        return (f"({op} {_gen_expr(rng, env, depth - 1)} "
                f"{_gen_expr(rng, env, depth - 1)})")
    if choice < 0.45:
        op = rng.choice(_UNARY_OPS)
        inner = _gen_expr(rng, env, depth - 1)
        if op in ("zerop", "not"):
            # Boolean-producing ops only appear under `if`, via _gen_test.
            return f"(if ({op} {inner}) 1 0)"
        return f"({op} {inner})"
    if choice < 0.70:
        return (f"(if {_gen_test(rng, env, depth - 1)} "
                f"{_gen_expr(rng, env, depth - 1)} "
                f"{_gen_expr(rng, env, depth - 1)})")
    if choice < 0.85:
        var = f"v{rng.randint(0, 99)}"
        value = _gen_expr(rng, env, depth - 1)
        body = _gen_expr(rng, list(env) + [var], depth - 1)
        return f"(let (({var} {value})) {body})"
    # setq inside a let: exercises assignment + shadowing.
    var = f"s{rng.randint(0, 99)}"
    init = _gen_expr(rng, env, depth - 1)
    update = _gen_expr(rng, list(env) + [var], depth - 1)
    body = _gen_expr(rng, list(env) + [var], depth - 1)
    return f"(let (({var} {init})) (progn (setq {var} {update}) {body}))"


def _gen_test(rng: random.Random, env: Sequence[str], depth: int) -> str:
    op = rng.choice(_COMPARE_OPS)
    return (f"({op} {_gen_expr(rng, env, depth)} "
            f"{_gen_expr(rng, env, depth)})")


def generate_function(rng: random.Random, name: str = "f",
                      max_depth: int = 4) -> Tuple[str, List[int]]:
    """One ``(defun name (args...) body)`` plus argument values for a call."""
    n_args = rng.randint(1, 3)
    params = [f"a{i}" for i in range(n_args)]
    body = _gen_expr(rng, params, rng.randint(2, max_depth))
    source = f"(defun {name} ({' '.join(params)}) {body})"
    args = [rng.randint(-20, 20) for _ in params]
    return source, args


def generate_program(seed: int, n_functions: int = 1,
                     max_depth: int = 4) -> Tuple[str, str, List[int]]:
    """A deterministic program for *seed*: returns ``(source, entry_fn,
    entry_args)``.  With ``n_functions > 1`` the extra functions are
    compiled too (cache/batch load) but only the entry is called."""
    rng = random.Random(seed)
    sources = []
    entry_args: List[int] = []
    for index in range(n_functions):
        name = "f" if index == 0 else f"aux{index}"
        source, args = generate_function(rng, name=name, max_depth=max_depth)
        sources.append(source)
        if index == 0:
            entry_args = args
    return "\n".join(sources), "f", entry_args


def corpus(n_programs: int, base_seed: int = 0, n_functions: int = 1,
           max_depth: int = 4) -> List[Tuple[str, str, List[int]]]:
    """A reproducible list of ``(source, fn, args)`` programs."""
    return [generate_program(base_seed + i, n_functions=n_functions,
                             max_depth=max_depth)
            for i in range(n_programs)]


# ---------------------------------------------------------------------------
# the harness


@dataclass
class FuzzFailure:
    """One failed program: which seed, where it failed, and why."""

    seed: int
    target: str
    stage: str      # "interpret" | "compile" | "run" | "differential"
                    # | "telemetry" | "timing"
    message: str
    source: str
    tier: str = "simulate"   # execution tier for run/differential failures
    timing: str = "single"   # timing model active for the failing run

    def render(self) -> str:
        return (f"seed {self.seed} [{self.target}/{self.tier}"
                f"/{self.timing}] "
                f"{self.stage}: {self.message}\n    {self.source}")


@dataclass
class FuzzReport:
    """Everything one :func:`run_fuzz` call checked."""

    base_seed: int
    count: int
    targets: Tuple[str, ...]
    verify: bool
    tiers: Tuple[str, ...] = ("simulate",)
    timings: Tuple[str, ...] = ("single",)
    compilations: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    #: With ``telemetry=True``: per-tier merged telemetry dumps plus an
    #: overall merge ({"tiers": {tier: to_json()}, "merged": to_json()});
    #: the sweep has already asserted cycle conservation per run.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.count} program(s) from seed {self.base_seed}, "
            f"targets {'/'.join(self.targets)}, "
            f"tiers {'/'.join(self.tiers)}, "
            f"timings {'/'.join(self.timings)}, "
            f"verify_ir={'on' if self.verify else 'off'}: "
            f"{self.compilations} compilation(s), "
            f"{len(self.failures)} failure(s)"
        ]
        if self.telemetry:
            for tier, dump in sorted(self.telemetry["tiers"].items()):
                totals = dump["totals"]
                attributed = totals["attributed_cycles"]
                share = totals["fast_path_cycles"] / attributed \
                    if attributed else 0.0
                lines.append(
                    f"  telemetry [{tier}]: {attributed} cycles attributed "
                    f"(conserved), fast-path share {share:.1%}")
        for failure in self.failures:
            lines.append("  " + failure.render())
        return "\n".join(lines)


def _interpret(source: str, fn: str, args: Sequence[int]):
    from .datum import sym
    from .interp import Interpreter

    interp = Interpreter()
    interp.eval_source(source)
    return interp.apply_function(interp.global_functions[sym(fn)], args)


def _timing_parity_failures(grid: Dict[Tuple[str, str], Dict[str, Any]],
                            ) -> List[str]:
    """Cross-(timing, tier) invariant violations for one compiled program.

    *grid* maps ``(timing, tier)`` to that run's ``Machine.stats()``.  The
    timing model must be strictly non-semantic: every run retires the same
    instructions with the same opcode mix; within a timing model both
    tiers charge identical cycles; pipelined base cycles equal the
    single-cycle total; and single-cycle runs charge no stalls."""
    problems: List[str] = []
    keys = sorted(grid)
    first_key = keys[0]
    first = grid[first_key]
    for key in keys[1:]:
        stats = grid[key]
        if stats["instructions"] != first["instructions"] \
                or stats["opcodes"] != first["opcodes"]:
            problems.append(
                f"instruction stream differs between {first_key} "
                f"({first['instructions']} instrs) and {key} "
                f"({stats['instructions']} instrs)")
    timings = sorted({timing for timing, _ in keys})
    tiers = sorted({tier for _, tier in keys})
    for timing in timings:
        cycles = {tier: grid[(timing, tier)]["cycles"]
                  for tier in tiers if (timing, tier) in grid}
        if len(set(cycles.values())) > 1:
            problems.append(
                f"cycle counts diverge across tiers under {timing} "
                f"timing: {cycles}")
    for tier in tiers:
        single = grid.get(("single", tier))
        pipelined = grid.get(("pipelined", tier))
        if single and pipelined \
                and pipelined["base_cycles"] != single["cycles"]:
            problems.append(
                f"pipelined base_cycles {pipelined['base_cycles']} != "
                f"single-cycle total {single['cycles']} on tier {tier}")
        if single and any(single["stall_cycles"].values()):
            problems.append(
                f"single-cycle timing charged stalls on tier {tier}: "
                f"{single['stall_cycles']}")
    return problems


def run_fuzz(base_seed: int = 0, count: int = 50,
             targets: Sequence[str] = ALL_TARGETS, verify: bool = True,
             options=None, max_depth: int = 4,
             stop_after: Optional[int] = None,
             tiers: Sequence[str] = ("simulate", "native"),
             timings: Sequence[str] = ("single",),
             telemetry: bool = False) -> FuzzReport:
    """Generate *count* programs from *base_seed* and, per target, compile
    them with the phase-boundary sanitizer (unless ``verify=False``) and
    check compiled results against the reference interpreter -- once per
    execution *tier* and timing model, so the default sweep is the
    three-way differential oracle ``interpreter == simulator == native``
    on every program.

    With more than one *timing* model the harness also asserts the
    non-semantic contract across the full (timing, tier) grid per
    program: identical results, identical instruction/opcode totals,
    identical cycles across tiers within each timing, ``pipelined
    base_cycles == single cycles``, and zero stalls under single-cycle
    timing (stage ``timing`` failures).

    *options* is an optional :class:`CompilerOptions` template; target
    and verify_ir are overridden per run.  *stop_after* bounds the number
    of recorded failures (None: check the whole corpus regardless).

    With ``telemetry=True`` every machine runs with execution telemetry
    on, the harness asserts cycle conservation (``fast + fallback + stalls
    == cycles``) and one per-instruction ledger across every (timing, tier)
    cell (a mismatch is a failure, stage ``telemetry``), and
    :attr:`FuzzReport.telemetry` carries per-tier merged dumps.
    """
    from .compiler import Compiler
    from .datum import lisp_equal, sym
    from .errors import ReproError
    from .options import CompilerOptions
    from .reader.printer import write_to_string
    from .telemetry import MachineTelemetry

    template = options or CompilerOptions()
    merged_telemetry: Dict[str, MachineTelemetry] = {}
    report = FuzzReport(base_seed=base_seed, count=count,
                        targets=tuple(targets), verify=verify,
                        tiers=tuple(tiers), timings=tuple(timings))
    for index in range(count):
        seed = base_seed + index
        source, fn, args = generate_program(seed, max_depth=max_depth)
        try:
            expected = _interpret(source, fn, args)
        except ReproError as err:
            report.failures.append(FuzzFailure(
                seed, "-", "interpret", f"{type(err).__name__}: {err}",
                source, tier="-"))
            continue
        for target in targets:
            run_options = dataclasses.replace(
                template, target=target, verify_ir=verify)
            try:
                compiler = Compiler(run_options)
                compiler.compile_source(source)
                report.compilations += 1
            except ReproError as err:
                report.failures.append(FuzzFailure(
                    seed, target, "compile",
                    f"{type(err).__name__}: {err}", source, tier="-"))
                continue
            # One compilation, one run per (timing, tier) cell: every cell
            # executes the same CodeObjects, so any disagreement is an
            # execution or timing-model bug, not a compilation difference.
            grid: Dict[Tuple[str, str], Dict[str, Any]] = {}
            ledgers: Dict[Tuple[str, str], Any] = {}
            for timing in timings:
                for tier in tiers:
                    machine = compiler.machine()
                    machine.tier = tier
                    if machine.timing != timing:
                        machine.set_timing(timing)
                    if telemetry:
                        machine.enable_telemetry()
                    try:
                        got = machine.run(sym(fn), list(args))
                    except ReproError as err:
                        report.failures.append(FuzzFailure(
                            seed, target, "run",
                            f"{type(err).__name__}: {err}", source,
                            tier=tier, timing=timing))
                        continue
                    if telemetry:
                        attributed = machine.telemetry.attributed_cycles()
                        if attributed != machine.cycles:
                            report.failures.append(FuzzFailure(
                                seed, target, "telemetry",
                                f"cycle conservation violated: "
                                f"{attributed} attributed != "
                                f"{machine.cycles} executed",
                                source, tier=tier, timing=timing))
                        merged_telemetry.setdefault(
                            tier, MachineTelemetry()).merge(
                                machine.telemetry)
                        ledgers[(timing, tier)] = \
                            machine.telemetry.instruction_ledger()
                    if not lisp_equal(got, expected):
                        report.failures.append(FuzzFailure(
                            seed, target, "differential",
                            f"compiled {write_to_string(got)} != "
                            f"interpreted {write_to_string(expected)} "
                            f"(args {args})",
                            source, tier=tier, timing=timing))
                        continue
                    grid[(timing, tier)] = machine.stats()
            if grid:
                for problem in _timing_parity_failures(grid):
                    report.failures.append(FuzzFailure(
                        seed, target, "timing", problem, source,
                        tier="*", timing="*"))
            # One ledger for every cell: the same executions and base
            # cycles per instruction on each tier and timing model.
            cells = sorted(ledgers)
            for cell in cells[1:]:
                if ledgers[cell] != ledgers[cells[0]]:
                    report.failures.append(FuzzFailure(
                        seed, target, "telemetry",
                        f"per-instruction ledger differs between "
                        f"{cells[0]} and {cell}", source,
                        tier="*", timing="*"))
        if stop_after is not None and len(report.failures) >= stop_after:
            break
    if telemetry:
        overall = MachineTelemetry()
        for tier_telemetry in merged_telemetry.values():
            overall.merge(tier_telemetry)
        report.telemetry = {
            "tiers": {tier: t.to_json()
                      for tier, t in merged_telemetry.items()},
            "merged": overall.to_json(),
        }
    return report
