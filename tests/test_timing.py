"""Tests for the pipelined timing model (repro.machine.timing).

The timing model is a *selectable, strictly non-semantic* property of the
machine: "single" charges the per-opcode cycle table exactly as before,
"pipelined" additionally charges hazard stalls (data / control /
structural) from the target's PipelineDescription.  Results, instruction
counts, and opcode mixes never change; only ``cycles`` does -- and the
extra cycles decompose exactly into the per-category stall counters.
"""

import pytest

from repro import Compiler, CompilerOptions
from repro.datum import sym
from repro.errors import MachineError
from repro.machine import (
    DEFAULT_PIPELINE, Machine, MultiMachine, PipelineDescription, TIMINGS,
)
from repro.machine.timing import analyze, instruction_effects, issue_latencies
from repro.options import NON_SEMANTIC_OPTION_FIELDS, SEMANTIC_OPTION_FIELDS
from repro.target.machines import get_target

FIB = """
    (defun fib (n)
      (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
"""


def machine_for(source, timing="single", target="s1", tier="simulate"):
    compiler = Compiler(CompilerOptions(target=target, timing=timing,
                                        tier=tier))
    compiler.compile_source(source)
    return compiler.machine()


class TestTimingSelection:
    def test_vocabulary(self):
        assert TIMINGS == ("single", "pipelined")

    def test_default_is_single(self):
        machine = machine_for(FIB)
        assert machine.timing == "single"
        assert machine.stats()["timing"] == "single"

    def test_unknown_timing_raises(self):
        compiler = Compiler()
        compiler.compile_source(FIB)
        with pytest.raises(MachineError):
            Machine(compiler.program, timing="superscalar")

    def test_unknown_timing_option_raises(self):
        with pytest.raises(ValueError):
            CompilerOptions(timing="superscalar")

    def test_timing_is_non_semantic(self):
        # The cache key must not see it: identical code under both models.
        assert "timing" in NON_SEMANTIC_OPTION_FIELDS
        assert "timing" not in SEMANTIC_OPTION_FIELDS

    def test_compiler_threads_timing_and_pipeline(self):
        machine = machine_for(FIB, timing="pipelined", target="vax")
        assert machine.timing == "pipelined"
        assert machine._pipeline is get_target("vax").pipeline


class TestSingleVsPipelined:
    def test_single_charges_no_stalls(self):
        machine = machine_for(FIB)
        machine.run(sym("fib"), [10])
        stats = machine.stats()
        assert stats["stall_cycles"] == {"data": 0, "control": 0,
                                         "structural": 0}
        assert stats["base_cycles"] == stats["cycles"]

    @pytest.mark.parametrize("target", ["s1", "vax", "pdp10"])
    def test_pipelined_decomposes_exactly(self, target):
        single = machine_for(FIB, target=target)
        single.run(sym("fib"), [10])
        piped = machine_for(FIB, timing="pipelined", target=target)
        result = piped.run(sym("fib"), [10])
        assert result == 55
        stats = piped.stats()
        stalls = sum(stats["stall_cycles"].values())
        assert stalls > 0       # fib has hazards on every target
        assert stats["base_cycles"] + stalls == stats["cycles"]
        assert stats["base_cycles"] == single.stats()["cycles"]
        assert stats["instructions"] == single.stats()["instructions"]
        assert stats["opcodes"] == single.stats()["opcodes"]

    def test_control_stalls_from_taken_branches(self):
        # fib is branch- and call-heavy: the control category must be hit.
        machine = machine_for(FIB, timing="pipelined")
        machine.run(sym("fib"), [10])
        assert machine.stall_control > 0

    def test_targets_disagree_on_stall_weights(self):
        totals = {}
        for target in ("s1", "vax", "pdp10"):
            machine = machine_for(FIB, timing="pipelined", target=target)
            machine.run(sym("fib"), [12])
            totals[target] = sum(machine.stall_cycles().values())
        # Three different PipelineDescriptions: at least two must differ.
        assert len(set(totals.values())) > 1, totals

    def test_native_tier_matches_simulator(self):
        sim = machine_for(FIB, timing="pipelined")
        nat = machine_for(FIB, timing="pipelined", tier="native")
        assert sim.run(sym("fib"), [11]) == nat.run(sym("fib"), [11])
        assert sim.cycles == nat.cycles
        assert sim.stall_cycles() == nat.stall_cycles()


class TestSetTiming:
    def test_switch_in_place(self):
        machine = machine_for(FIB)
        machine.run(sym("fib"), [8])
        single_cycles = machine.cycles
        machine.set_timing("pipelined")
        assert machine.timing == "pipelined"
        machine.run(sym("fib"), [8])
        # Cumulative counters: the second (pipelined) run added stalls.
        assert sum(machine.stall_cycles().values()) > 0
        assert machine.cycles > 2 * single_cycles

    def test_switch_drops_native_cache(self):
        # The switch drops the machine's index of translations; the
        # translations stay stored on the CodeObject, one per model, so
        # switching back runs the first one again.
        machine = machine_for(FIB, tier="native")
        fib = machine.program.get(sym("fib"))
        machine.run(sym("fib"), [8])
        single = machine._native_code_for(fib)
        machine.set_timing("pipelined")
        assert not machine._native_cache
        assert machine.run(sym("fib"), [8]) == 21
        pipelined = machine._native_code_for(fib)
        assert pipelined is not single
        machine.set_timing("single")
        assert not machine._native_cache
        assert machine.run(sym("fib"), [8]) == 21
        assert machine._native_code_for(fib) is single
        machine.set_timing("pipelined")
        assert machine._native_code_for(fib) is pipelined
        assert len(fib._translations) == 2

    def test_bogus_timing_rejected(self):
        machine = machine_for(FIB)
        with pytest.raises(MachineError):
            machine.set_timing("vliw")


class TestPipelineDescriptions:
    def test_issue_latencies_from_cycle_table(self):
        latencies = issue_latencies({"A": 1, "B": 3, "C": 2})
        assert latencies == {"B": 2, "C": 1}  # cost-1, single-cycle ops drop

    def test_every_target_has_a_pipeline(self):
        for name in ("s1", "vax", "pdp10"):
            pipeline = get_target(name).pipeline
            assert isinstance(pipeline, PipelineDescription)
            assert pipeline.flush_cycles >= 1
        assert get_target("s1").pipeline is DEFAULT_PIPELINE

    def test_analyze_charges_adjacent_dependence(self):
        from repro.machine.isa import CodeObject, imm, reg

        from tests.test_machine import ins

        code = CodeObject("dep", [
            ins("ADD", reg(0), imm(1), imm(2)),
            ins("MULT", reg(1), reg(0), imm(3)),   # reads reg0: hazard
            ins("SUB", reg(2), imm(4), imm(5)),    # independent: no stall
            ins("RET", reg(2)),
        ])
        profile = analyze(code, DEFAULT_PIPELINE)
        assert profile.pair[1] > 0
        assert profile.pair[2] == 0

    def test_instruction_effects_roles(self):
        from repro.machine.isa import Instruction, imm, reg

        written, read = instruction_effects(
            Instruction("ADD", (reg(0), reg(1), imm(2)), None))
        assert written == frozenset({("reg", 0)})
        assert read == frozenset({("reg", 1)})  # immediates filtered out


class TestTelemetryAndTrace:
    def test_conservation_with_stalls(self):
        machine = machine_for(FIB, timing="pipelined")
        machine.enable_telemetry()
        machine.run(sym("fib"), [10])
        telemetry = machine.telemetry
        assert telemetry.attributed_cycles() == machine.cycles
        data = telemetry.to_json()
        assert data["stall_cycles"] == machine.stall_cycles()
        assert data["totals"]["stall_cycles"] == \
            sum(machine.stall_cycles().values())

    def test_run_span_carries_timing_and_stalls(self):
        machine = machine_for(FIB, timing="pipelined")
        machine.enable_telemetry()
        machine.run(sym("fib"), [8])
        span = machine.telemetry.to_json()["run_spans"][-1]
        assert span["timing"] == "pipelined"
        assert sum(span["stall_cycles"].values()) > 0

    def test_prometheus_family(self):
        from repro.trace import machine_metric_lines, parse_prometheus_text

        machine = machine_for(FIB, timing="pipelined")
        machine.enable_telemetry()
        machine.run(sym("fib"), [10])
        document = parse_prometheus_text(
            "\n".join(machine_metric_lines(machine.telemetry)) + "\n")
        assert document["families"]["repro_machine_stall_cycles_total"][
            "type"] == "counter"
        by_category = {
            sample["labels"]["category"]: sample["value"]
            for sample in document["samples"]
            if sample["name"] == "repro_machine_stall_cycles_total"}
        assert by_category == {k: float(v)
                               for k, v in machine.stall_cycles().items()}

    def test_chrome_trace_run_span_args(self):
        from repro.trace import machine_trace_events

        machine = machine_for(FIB, timing="pipelined")
        machine.enable_telemetry()
        machine.run(sym("fib"), [8])
        events = machine_trace_events(machine.telemetry)
        run = [e for e in events if e["cat"] == "execution"][-1]
        assert run["args"]["timing"] == "pipelined"
        assert sum(run["args"]["stall_cycles"].values()) > 0


class TestMultiMachineTiming:
    def test_timing_reaches_every_processor(self):
        compiler = Compiler()
        compiler.compile_source(FIB)
        multi = MultiMachine(compiler.program, processors=2,
                             timing="pipelined",
                             pipeline=get_target("s1").pipeline)
        results = multi.run_tasks([(sym("fib"), [9]), (sym("fib"), [9])])
        assert results == [34, 34]
        for cpu in multi.processors:
            assert cpu.timing == "pipelined"
            assert sum(cpu.stall_cycles().values()) > 0


class TestFuzzTimingAxis:
    def test_small_sweep_is_clean(self):
        from repro.fuzz import run_fuzz

        report = run_fuzz(base_seed=77, count=8, targets=("s1",),
                          timings=("single", "pipelined"),
                          telemetry=True)
        assert report.ok, "\n" + report.render()
        assert report.timings == ("single", "pipelined")
        assert "timings single/pipelined" in report.render()
