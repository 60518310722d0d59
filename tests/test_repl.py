"""Tests for the compile-and-go REPL driver (python -m repro)."""

import io

from repro import Diagnostics
from repro.__main__ import Repl


def session(*lines):
    out = io.StringIO()
    repl = Repl(out=out)
    alive = True
    for line in lines:
        alive = repl.handle(line)
    return out.getvalue(), alive, repl


class TestEvaluation:
    def test_expression(self):
        output, _, _ = session("(+ 1 2 3)")
        assert output.strip() == "6"

    def test_defun_then_call(self):
        output, _, _ = session("(defun sq (x) (* x x))", "(sq 9)")
        assert output.splitlines() == ["sq", "81"]

    def test_defvar_persists_across_entries(self):
        output, _, _ = session("(defvar *x* 10)", "(+ *x* 5)")
        assert output.splitlines() == ["*x*", "15"]

    def test_setq_persists_in_session_machine(self):
        output, _, _ = session("(defvar *n* 0)",
                               "(setq *n* 42)",
                               "*n*")
        assert output.splitlines()[-1] == "42"

    def test_list_result_printed_as_lisp(self):
        output, _, _ = session("(list 1 2 3)")
        assert output.strip() == "(1 2 3)"

    def test_error_reported_not_fatal(self):
        output, alive, _ = session("(car 5)", "(floor 5 0)",
                                   "(defun f (x) (sin$f (*$f x 1e300)))",
                                   "(f 1e300)", "(float (expt 10 400))",
                                   "(+ (expt 10 400) 1.0)",
                                   "(+ 1 1)")
        lines = output.splitlines()
        assert lines[0].startswith("error:")
        assert lines[1].startswith("error:")
        assert lines[2] == "f"
        assert lines[3].startswith("error:")
        assert lines[4].startswith("error:")
        assert lines[5] == "error: +: result out of range"
        assert lines[6] == "2"
        assert alive

    def test_reader_error_reported(self):
        output, alive, _ = session("(unclosed")
        assert "error:" in output
        assert alive


class TestSessionMachine:
    def test_defvar_set_in_one_entry_visible_in_next(self):
        # Regression: defining a new function used to rebuild the machine,
        # discarding runtime special-variable values set in earlier entries.
        output, _, _ = session("(defvar *x* 1)",
                               "(setq *x* 99)",
                               "(defun f () *x*)",
                               "(f)")
        assert output.splitlines()[-1] == "99"

    def test_machine_object_reused_across_entries(self):
        out = io.StringIO()
        repl = Repl(out=out)
        repl.handle("(+ 1 1)")
        machine = repl.machine
        assert machine is not None
        repl.handle("(defun g (x) (* x 2))")
        repl.handle("(g 21)")
        assert repl.machine is machine
        assert out.getvalue().splitlines()[-1] == "42"

    def test_session_machine_budgets_each_entry(self):
        # The session machine's fuel bounds each entry, not the session:
        # (g 10) needs ~105 instructions, so with a 1000-instruction budget
        # every entry from the tenth on used to fail.
        out = io.StringIO()
        repl = Repl(out=out)
        repl.handle("(defun g (n) (if (= n 0) 0 (+ 1 (g (- n 1)))))")
        repl.handle("(g 10)")
        repl.machine.fuel = 1000
        for _ in range(20):
            repl.handle("(g 10)")
        assert out.getvalue().splitlines()[1:] == ["10"] * 21

    def test_prelude_preserves_session_state(self):
        output, _, _ = session("(defvar *seed* 7)",
                               "(setq *seed* 13)",
                               ":prelude",
                               "(+ *seed* (sum-list (iota 3)))")
        assert output.splitlines()[-1] == "16"


class TestMetaCommands:
    def test_quit(self):
        _, alive, _ = session(":quit")
        assert not alive

    def test_listing(self):
        output, _, _ = session("(defun f (x) (+ x 1))", ":listing f")
        assert ";;; f" in output
        assert "(RET" in output

    def test_listing_unknown(self):
        output, _, _ = session(":listing nothing")
        assert "no such function" in output

    def test_source(self):
        output, _, _ = session("(defun f (x) (+ x 0))", ":source f")
        assert "(lambda (x) x)" in output

    def test_transcript(self):
        output, _, _ = session("(defun f (x) (+ x 0))", ":transcript f")
        assert "META-EVALUATE-ASSOC-COMMUT-CALL" in output

    def test_stats(self):
        output, _, _ = session("(+ 1 1)", ":stats")
        assert "instructions:" in output

    def test_stats_before_any_run(self):
        output, _, _ = session(":stats")
        assert "nothing run" in output

    def test_phases(self):
        output, _, _ = session("(defun f (x) x)", ":phases")
        assert "code generation" in output

    def test_prelude(self):
        output, _, _ = session(":prelude", "(sum-list (iota 5))")
        assert "loaded" in output
        assert output.strip().endswith("10")

    def test_diag_after_compile(self):
        output, _, _ = session("(+ 1 2)", ":diag")
        assert "Phase timings:" in output
        assert "codegen" in output

    def test_diag_before_any_compile(self):
        output, _, _ = session(":diag")
        assert "nothing compiled" in output

    def test_timing_show_and_switch(self):
        output, _, repl = session("(defun g (x) (* (+ x 1) 2))", "(g 5)",
                                  ":timing", ":timing pipelined", "(g 5)")
        assert "timing: single" in output
        assert "timing: pipelined" in output
        assert repl.compiler.options.timing == "pipelined"
        assert repl.machine.timing == "pipelined"
        assert sum(repl.machine.stall_cycles().values()) > 0

    def test_timing_unknown_model(self):
        output, alive, _ = session(":timing vliw")
        assert "unknown timing model" in output
        assert alive

    def test_unknown_command(self):
        output, alive, _ = session(":frobnicate")
        assert "unknown command" in output
        assert alive


class TestDiagnosticsLog:
    def test_every_compilation_logged(self):
        # The log keeps each compile's Diagnostics object; nothing prints
        # its transcript until --diagnostics-json writes it.
        _, _, repl = session("(defun f (x) x)", "(+ 1 2)")
        assert [entry for entry, _ in repl.diagnostics_log] == [
            "(defun f (x) x)", "(+ 1 2)"]
        for _, diagnostics in repl.diagnostics_log:
            assert isinstance(diagnostics, Diagnostics)
            assert diagnostics.phases

    def test_compile_that_raised_is_logged(self, tmp_path):
        # The record of a compile that raised holds the error and its
        # source location: --diagnostics-json, --trace and --metrics
        # read it from the log.
        import json

        output, _, repl = session("(defun ok (x) x)",
                                  "(defun bad (x) (go nowhere))", "(car 5)")
        assert "error: <input>:1:16: go:" in output
        assert [entry for entry, _ in repl.diagnostics_log] == [
            "(defun ok (x) x)", "(defun bad (x) (go nowhere))", "(car 5)"]
        path = tmp_path / "diag.json"
        repl.dump_diagnostics(str(path))
        session_json = json.loads(path.read_text())["session"]
        assert len(session_json) == 3
        (message,) = session_json[1]["diagnostics"]["messages"]
        assert message["severity"] == "error"
        assert message["location"] == {"file": "<input>", "line": 1,
                                       "column": 16}

    def test_entry_that_compiles_nothing_logs_nothing(self):
        # A repeated :prelude compiles nothing: the log must not hold the
        # first load's record twice.
        _, _, repl = session(":prelude", ":prelude")
        assert [entry for entry, _ in repl.diagnostics_log] == [":prelude"]

    def test_dump_diagnostics_writes_json(self, tmp_path):
        import json

        _, _, repl = session("(+ 1 2)")
        path = tmp_path / "diag.json"
        repl.dump_diagnostics(str(path))
        data = json.loads(path.read_text())
        assert data["session"][0]["entry"] == "(+ 1 2)"
        phases = [record["phase"]
                  for record in data["session"][0]["diagnostics"]["phases"]]
        assert "codegen" in phases

    def test_blank_line(self):
        output, alive, _ = session("", "   ")
        assert output == ""
        assert alive
