"""Tests for machine execution telemetry (repro.telemetry).

Pins down the observer's contracts:

* **Cycle conservation** -- ``fast_path + fallback + stalls ==
  Machine.cycles`` holds *exactly*, on both execution tiers, on all
  three targets, across the fuzz sweep's three-way differential corpus,
  after traps, and from every ``start()``.
* **One ledger** -- both tiers book the same executions and base cycles
  per instruction, so the profile tables (per opcode, function and
  source line) are identical across tiers.
* Tier attribution semantics: the simulate tier is 100% fallback (the
  simulator *is* the handler path); the native tier splits cycles
  between inline fast paths and instrumented handler fallbacks.
* Inline-cache accounting per call site: hits on monomorphic re-calls,
  misses on first resolution, invalidations when a callee is redefined
  under a live call site.
* GC events (trigger reason, pause, reclaim counts, watermark), the
  heap-occupancy timeline, and run spans.
* MultiMachine: per-processor tagging, stop-the-world GC tagged "all",
  and a merged aggregate that still conserves cycles.
* Lifecycle: enable/disable drops the native code cache so instrumented
  and plain translations never mix; merge() is additive; to_json() is
  JSON-serialisable and report()/hot_report() render.
"""

import json
import os

import pytest

from repro import Compiler, CompilerOptions, MachineTelemetry, run_fuzz
from repro.datum import sym
from repro.errors import (
    LispError,
    MachineError,
    WrongNumberOfArgumentsError,
    WrongTypeError,
)
from repro.machine import Machine, MultiMachine
from repro.telemetry import HEAP_SAMPLE_STRIDE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIERS = ("simulate", "native")
TARGETS = ("s1", "vax", "pdp10")

# Calls, generic arithmetic, consing, and the float pipeline: every
# attribution path (fast inline, static fallback, dynamic GENERIC
# extras) gets exercised.
WORK = """
    (defun helper (x) (+ x 1))

    (defun spin (n)
      (let ((acc 0))
        (dotimes (i n acc)
          (setq acc (+ acc (helper i))))))

    (defun churn (n)
      (dotimes (i n 'done)
        (list i (* i i) (+ i 1))))

    (defun floats (n)
      (do ((i 0 (1+ i))
           (acc 0.0))
          ((= i n) acc)
        (setq acc (+$f acc (sin$f 0.5)))))
"""


def telemetry_machine(source=WORK, tier="simulate", target="s1",
                      gc_threshold=None):
    compiler = Compiler(CompilerOptions(target=target))
    compiler.compile_source(source)
    machine = Machine(compiler.program, gc_threshold=gc_threshold, tier=tier)
    machine.enable_telemetry()
    return machine, compiler


# ---------------------------------------------------------------------------
# cycle conservation


class TestCycleConservation:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("target", TARGETS)
    def test_conservation_exact(self, tier, target):
        machine, _ = telemetry_machine(tier=tier, target=target)
        machine.run(sym("spin"), [50])
        machine.run(sym("floats"), [30])
        machine.run(sym("churn"), [20])
        assert machine.cycles > 0
        assert machine.telemetry.attributed_cycles() == machine.cycles

    def test_conservation_with_gc(self):
        machine, _ = telemetry_machine(tier="native", gc_threshold=64)
        machine.run(sym("churn"), [400])
        assert machine.heap.gc_runs >= 1
        assert machine.telemetry.attributed_cycles() == machine.cycles

    def test_simulate_tier_is_all_fallback(self):
        machine, _ = telemetry_machine(tier="simulate")
        machine.run(sym("spin"), [40])
        telemetry = machine.telemetry
        assert not telemetry.fast_cycles
        assert sum(telemetry.fallback_cycles.values()) == machine.cycles
        # Per-opcode parity with the machine's own opcode counters.
        assert dict(telemetry.fallback_counts) == dict(machine.opcode_counts)

    def test_native_tier_has_fast_path(self):
        machine, _ = telemetry_machine(tier="native")
        machine.run(sym("spin"), [40])
        telemetry = machine.telemetry
        assert sum(telemetry.fast_cycles.values()) > 0
        assert telemetry.attributed_cycles() == machine.cycles

    def test_native_matches_profiler_totals(self):
        # The profile tables are views over one ledger: on both tiers
        # they total the machine's counters and agree with each other.
        compiler = Compiler()
        compiler.compile_source(WORK)
        tables = []
        for tier in TIERS:
            machine = Machine(compiler.program, tier=tier)
            machine.enable_telemetry()
            machine.run(sym("spin"), [40])
            profile = machine.telemetry.to_json()["profile"]
            assert profile["total_cycles"] == machine.cycles
            assert profile["total_instructions"] == machine.instructions
            tables.append(profile)
        assert tables[0] == tables[1]

    def test_fuzz_sweep_conserves(self):
        # The acceptance sweep: both tiers, all three targets, the
        # harness itself asserts conservation per run (stage
        # "telemetry" failures would flip report.ok).
        report = run_fuzz(base_seed=7, count=4, targets=TARGETS,
                          tiers=TIERS, telemetry=True)
        assert report.ok, report.render()
        assert report.telemetry is not None
        assert set(report.telemetry["tiers"]) == set(TIERS)
        merged = report.telemetry["merged"]["totals"]
        assert merged["attributed_cycles"] == (
            merged["fast_path_cycles"] + merged["fallback_cycles"])
        assert merged["attributed_cycles"] > 0


# ---------------------------------------------------------------------------
# one ledger on both tiers


def _read_example(name):
    with open(os.path.join(ROOT, "examples", name), "r",
              encoding="utf-8") as handle:
        return handle.read()


#: examples/iterative.lisp driven as CI drives it, and spin.
LEDGER_RUNS = {
    "iterative": (_read_example("iterative.lisp"),
                  (("triangle", (500,)), ("fib", (15,)),
                   ("gcd&", (1071, 462)))),
    "spin": (WORK, (("spin", (40,)),)),
}


def _profile_tables(run, tier, target):
    source, calls = LEDGER_RUNS[run]
    compiler = Compiler(CompilerOptions(target=target))
    compiler.compile_source(source)
    machine = compiler.machine()
    machine.tier = tier
    machine.enable_telemetry()
    for fn, args in calls:
        machine.run(sym(fn), list(args))
    profile = machine.telemetry.to_json()["profile"]
    return profile["opcodes"], profile["functions"], profile["lines"]


class TestOneLedger:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("run", sorted(LEDGER_RUNS))
    def test_tiers_book_identical_profile_tables(self, run, target):
        # Dynamic cycles land on the instruction that spent them on the
        # native tier too, not on the block's closing JMP, JUMPNIL or RET.
        assert _profile_tables(run, "native", target) \
            == _profile_tables(run, "simulate", target)

    @pytest.mark.parametrize("tier", TIERS)
    def test_pipelined_profile_keeps_stalls_out_of_the_rows(self, tier):
        compiler = Compiler()
        compiler.compile_source(WORK)
        machine = compiler.machine()
        machine.tier = tier
        machine.set_timing("pipelined")
        machine.enable_telemetry()
        machine.run(sym("spin"), [20])
        telemetry = machine.telemetry
        profile = telemetry.to_json()["profile"]
        stalls = sum(telemetry.stall_cycles.values())
        assert stalls > 0
        rows = sum(entry["cycles"] for entry in profile["opcodes"].values())
        assert rows + stalls == profile["total_cycles"] == machine.cycles
        assert "Pipeline stalls:" in telemetry.profile_report()


# ---------------------------------------------------------------------------
# traps

TRAPS = WORK + """
    (defun car-of (x) (car x))
    (defun quotient-of (a b) (/ a b))
"""


class TestTrapsConserve:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("fn, args, error", [
        ("car-of", [5], WrongTypeError),
        ("quotient-of", [1, 0], LispError),
    ])
    def test_trap_then_run_conserves(self, tier, fn, args, error):
        machine, _ = telemetry_machine(TRAPS, tier=tier)
        with pytest.raises(error):
            machine.run(sym(fn), args)
        assert machine.cycles > 0
        assert machine.telemetry.attributed_cycles() == machine.cycles
        # The trapped run left through one exit: one span, closed once.
        (span,) = machine.telemetry.run_spans
        assert span["duration_s"] is not None
        assert (span["cycles"], span["instructions"]) == \
            (machine.cycles, machine.instructions)
        machine.run(sym("spin"), [5])
        assert machine.telemetry.attributed_cycles() == machine.cycles

    @pytest.mark.parametrize("tier", TIERS)
    def test_fuel_exhaustion_conserves(self, tier):
        machine, _ = telemetry_machine(tier=tier)
        with pytest.raises(MachineError, match="budget"):
            machine.run(sym("spin"), [1000], fuel=200)
        assert machine.telemetry.attributed_cycles() == machine.cycles
        machine.run(sym("spin"), [5])
        assert machine.telemetry.attributed_cycles() == machine.cycles


# ---------------------------------------------------------------------------
# inline caches


class TestInlineCaches:
    def test_monomorphic_site_hits(self):
        machine, _ = telemetry_machine(tier="native")
        machine.run(sym("spin"), [100])
        sites = machine.telemetry.ic_sites
        assert sites, "native calls must register inline-cache sites"
        site, cell = max(sites.items(), key=lambda item: item[1][0])
        hits, misses, invalidations = cell
        assert "->helper" in site or "helper" in site or hits > 0
        # One miss to fill the cache, hits ever after.
        assert hits > misses
        assert invalidations == 0

    def test_redefinition_invalidates(self):
        machine, compiler = telemetry_machine(tier="native")
        machine.run(sym("spin"), [10])
        before = {site: list(cell)
                  for site, cell in machine.telemetry.ic_sites.items()}
        compiler.compile_source("(defun helper (x) (+ x 2))")
        machine.program = compiler.program
        machine.run(sym("spin"), [10])
        invalidated = sum(cell[2]
                          for cell in machine.telemetry.ic_sites.values())
        assert invalidated >= 1
        assert sum(cell[2] for cell in before.values()) == 0
        # Still conserved across the redefinition boundary.
        assert machine.telemetry.attributed_cycles() == machine.cycles

    def test_coldest_sites_ranking(self):
        telemetry = MachineTelemetry()
        telemetry.ic_hit("hot:0->f")
        telemetry.ic_hit("hot:0->f")
        telemetry.ic_hit("hot:0->f")
        telemetry.ic_miss("hot:0->f", invalidation=False)
        telemetry.ic_miss("cold:0->g", invalidation=True)
        telemetry.ic_miss("cold:0->g", invalidation=False)
        ranked = telemetry.coldest_ic_sites()
        assert ranked[0][0] == "cold:0->g"
        assert ranked[0][1] == 0.0
        assert ranked[0][2] == [0, 2, 1]
        assert ranked[1][0] == "hot:0->f"
        assert ranked[1][1] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# GC events and heap timeline


class TestGcAndHeap:
    @pytest.mark.parametrize("tier", TIERS)
    def test_watermark_gc_recorded(self, tier):
        machine, _ = telemetry_machine(tier=tier, gc_threshold=64)
        machine.run(sym("churn"), [400])
        events = machine.telemetry.gc_events
        assert len(events) == machine.heap.gc_runs >= 1
        for event in events:
            assert event["reason"] == "watermark"
            assert event["pause_s"] >= 0.0
            assert event["collected"] >= 0
            assert event["live_before"] >= event["live_after"]
            assert event["watermark"] > 0
            assert event["processor"] == 0

    def test_explicit_gc_recorded(self):
        machine, _ = telemetry_machine()
        machine.run(sym("churn"), [50])
        machine.collect_garbage()
        reasons = [e["reason"] for e in machine.telemetry.gc_events]
        assert "explicit" in reasons

    def test_heap_timeline_sampled(self):
        machine, _ = telemetry_machine(tier="native", gc_threshold=128)
        machine.run(sym("churn"), [HEAP_SAMPLE_STRIDE * 4])
        samples = machine.telemetry.heap_samples
        assert len(samples) >= 3
        allocated = [s["allocated"] for s in samples]
        assert allocated == sorted(allocated)
        times = [s["at_s"] for s in samples]
        assert times == sorted(times)
        # GC contributes paired before/after samples showing the drop.
        kinds = {s["event"] for s in samples}
        assert {"gc-before", "gc-after"} <= kinds


# ---------------------------------------------------------------------------
# run spans, blocks, stacks


class TestSpansAndStacks:
    def test_run_span_accounting(self):
        machine, _ = telemetry_machine(tier="native")
        machine.run(sym("spin"), [25])
        machine.run(sym("floats"), [10])
        spans = machine.telemetry.run_spans
        assert [s["name"] for s in spans] == ["spin", "floats"]
        for span in spans:
            assert span["tier"] == "native"
            assert span["duration_s"] >= 0.0
            assert span["instructions"] > 0
        assert sum(s["cycles"] for s in spans) == machine.cycles

    def test_block_hotness(self):
        machine, _ = telemetry_machine(tier="native")
        machine.run(sym("spin"), [60])
        telemetry = machine.telemetry
        assert telemetry.block_runs
        assert any(label.startswith("spin:") for label in telemetry.block_runs)
        # The loop body dominates: some block ran many times.
        assert max(telemetry.block_runs.values()) >= 60
        assert sum(telemetry.block_cycles.values()) == machine.cycles

    @pytest.mark.parametrize("tier", TIERS)
    def test_stack_attribution(self, tier):
        machine, _ = telemetry_machine(tier=tier)
        machine.run(sym("spin"), [30])
        stacks = machine.telemetry.stack_cycles
        assert sum(stacks.values()) == machine.cycles
        assert ("spin",) in stacks
        assert ("spin", "helper") in stacks


# ---------------------------------------------------------------------------
# multiprocessor


class TestMultiMachine:
    def _multi(self, processors=2, **kwargs):
        compiler = Compiler()
        compiler.compile_source(WORK)
        return MultiMachine(compiler.program, processors=processors,
                            **kwargs)

    def test_per_processor_tagging_and_merge(self):
        mm = self._multi()
        mm.enable_telemetry()
        mm.run_tasks([(sym("spin"), [30]), (sym("churn"), [30])])
        data = mm.telemetry_data()
        assert len(data["processors"]) == 2
        assert [d["processor"] for d in data["processors"]] == [0, 1]
        for dump in data["processors"]:
            for span in dump["run_spans"]:
                assert span["processor"] == dump["processor"]
        merged = data["merged"]["totals"]["attributed_cycles"]
        assert merged == sum(cpu.cycles for cpu in mm.processors) > 0

    def test_stop_the_world_gc_tagged_all(self):
        mm = self._multi(gc_threshold=64)
        mm.enable_telemetry()
        mm.run_tasks([(sym("churn"), [300]), (sym("churn"), [300])])
        assert mm.heap.gc_runs >= 1
        events = [event
                  for cpu in mm.processors
                  for event in cpu.telemetry.gc_events]
        assert events
        assert all(event["reason"] == "multi-watermark" for event in events)
        assert all(event["processor"] == "all" for event in events)
        # Recorded exactly once per collection, not once per processor.
        assert len(events) == mm.heap.gc_runs

    @pytest.mark.parametrize("tier", TIERS)
    def test_one_span_per_task_and_conservation_per_run(self, tier):
        mm = self._multi(tier=tier)
        mm.enable_telemetry()
        for round_ in (1, 2):
            mm.run_tasks([(sym("spin"), [30]), (sym("churn"), [30])])
            for cpu, name in zip(mm.processors, ("spin", "churn")):
                spans = cpu.telemetry.run_spans
                assert [span["name"] for span in spans] == [name] * round_
                assert spans[-1]["cycles"] == cpu.cycles
                assert spans[-1]["processor"] == cpu.processor_id
                assert cpu.telemetry.attributed_cycles() == cpu.cycles > 0

    @pytest.mark.parametrize("tier", TIERS)
    def test_start_step_restarts_the_ledger(self, tier):
        machine, _ = telemetry_machine(tier=tier)
        for _ in range(2):
            machine.start(sym("spin"), [20])
            while not machine.step(8):
                pass
            assert machine.telemetry.attributed_cycles() == machine.cycles
        spans = machine.telemetry.run_spans
        assert [span["cycles"] for span in spans] == [machine.cycles] * 2

    def test_report_renders_per_processor(self):
        mm = self._multi()
        mm.enable_telemetry()
        mm.run_tasks([(sym("spin"), [5]), (sym("spin"), [5])])
        report = mm.telemetry_report()
        assert "-- processor 0 --" in report
        assert "-- processor 1 --" in report


# ---------------------------------------------------------------------------
# lifecycle, merge, serialisation, reports


class TestLifecycle:
    def test_off_by_default(self):
        compiler = Compiler()
        compiler.compile_source(WORK)
        machine = Machine(compiler.program, tier="native")
        assert machine.telemetry is None
        machine.run(sym("spin"), [10])
        assert machine.telemetry_data() is None
        assert machine.telemetry_report() == "(telemetry is not enabled)"

    @pytest.mark.parametrize("tier", TIERS)
    def test_enable_disable_roundtrip(self, tier):
        machine, _ = telemetry_machine(tier=tier)
        machine.run(sym("spin"), [20])
        collected = machine.disable_telemetry()
        assert machine.telemetry is None
        assert collected.attributed_cycles() == machine.cycles
        # Runs fine with telemetry off, and fresh counters on re-enable
        # conserve the *new* cycles only.
        machine.run(sym("spin"), [20])
        before = machine.cycles
        fresh = machine.enable_telemetry()
        machine.run(sym("spin"), [20])
        assert fresh.attributed_cycles() == machine.cycles - before

    def test_telemetry_and_plain_results_agree(self):
        compiler = Compiler()
        compiler.compile_source(WORK)
        plain = Machine(compiler.program, tier="native")
        expected = plain.run(sym("spin"), [33])
        instrumented = Machine(compiler.program, tier="native")
        instrumented.enable_telemetry()
        assert instrumented.run(sym("spin"), [33]) == expected
        assert instrumented.cycles == plain.cycles
        assert instrumented.instructions == plain.instructions

    def test_merge_is_additive(self):
        machine_a, _ = telemetry_machine(tier="native")
        machine_a.run(sym("spin"), [15])
        machine_b, _ = telemetry_machine(tier="simulate")
        machine_b.run(sym("floats"), [15])
        merged = MachineTelemetry()
        merged.merge(machine_a.telemetry).merge(machine_b.telemetry)
        assert merged.attributed_cycles() == (
            machine_a.cycles + machine_b.cycles)
        assert len(merged.run_spans) == 2

    def test_to_json_serialisable(self):
        machine, _ = telemetry_machine(tier="native", gc_threshold=64)
        machine.run(sym("churn"), [300])
        data = machine.telemetry.to_json()
        text = json.dumps(data)  # must not raise
        round_tripped = json.loads(text)
        assert round_tripped["totals"]["attributed_cycles"] == machine.cycles
        assert round_tripped["gc_events"]
        assert round_tripped["stacks"]

    def test_fallback_entries_survive_to_json(self):
        # An opcode whose handler ran but added zero extra cycles still
        # shows up in the dump (entries without cycles): the native
        # ARGCHECK is inline until the arity check fails.
        machine, _ = telemetry_machine(tier="native")
        with pytest.raises(WrongNumberOfArgumentsError):
            machine.run(sym("helper"), [])
        dump = machine.telemetry.to_json()
        assert dump["fallback"]["ARGCHECK"] == {
            "cycles": 0, "count": 0, "entries": 1}

    def test_reports_render(self):
        machine, _ = telemetry_machine(tier="native", gc_threshold=64)
        machine.run(sym("churn"), [300])
        machine.run(sym("spin"), [30])
        report = machine.telemetry_report()
        assert "Telemetry:" in report
        assert "fast-path share" in report
        assert "GC:" in report
        assert "Heap:" in report
        hot = machine.telemetry.hot_report()
        assert "Hot fallback opcodes" in hot
        assert "Hot blocks by fallback cycles" in hot

    def test_top_fallback_opcodes(self):
        machine, _ = telemetry_machine(tier="simulate")
        machine.run(sym("spin"), [30])
        ranked = machine.telemetry.top_fallback_opcodes(5)
        assert 0 < len(ranked) <= 5
        cycles = [entry[1] for entry in ranked]
        assert cycles == sorted(cycles, reverse=True)
        for opcode, spent, entries in ranked:
            assert isinstance(opcode, str)
            assert entries > 0 and spent > 0
