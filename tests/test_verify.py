"""Tests for the phase-boundary IR sanitizer (repro.verify) and the fuzz
harness.  The corruption tests deliberately break one invariant at a time
and assert the verifier names the right check; the smoke tests assert the
real pipeline produces zero violations."""

import pytest

from repro import Compiler, CompilerOptions, VerificationError
from repro.datum import sym
from repro.fuzz import run_fuzz
from repro.ir import convert_source
from repro.ir.nodes import GoNode
from repro.machine.isa import Instruction
from repro.target.registers import REGISTER_FILE_SIZE
from repro.tnbind import TN, Location, pack_tns
from repro.verify import PipelineVerifier, Violation
from repro.verify.alloc import check_allocation
from repro.verify.code import check_code
from repro.verify.tree import check_tree


def checks(violations):
    return {v.check for v in violations}


def make_tn(first, last, **attrs):
    tn = TN()
    tn.touch(first, write=True)
    tn.touch(last)
    for key, value in attrs.items():
        setattr(tn, key, value)
    return tn


def compiled_code(source="(defun f (x) (if (< x 0) (- x) (+ x 1)))",
                  name="f"):
    compiler = Compiler()
    compiler.compile_source(source)
    return compiler.program.get(sym(name))


class TestTreeChecks:
    def test_clean_tree_passes(self):
        node = convert_source("(lambda (x) (if (< x 1) x (+ x 1)))")
        assert check_tree(node, "test") == []

    def test_broken_parent_link(self):
        node = convert_source("(lambda (x) (+ x 1))")
        node.body.parent = None
        assert "parent-links" in checks(check_tree(node, "test"))

    def test_shared_subtree(self):
        node = convert_source("(lambda (x) (progn (+ x 1) (+ x 2)))")
        progn = node.body
        progn.forms[1] = progn.forms[0]
        assert "shared-subtree" in checks(check_tree(node, "test"))

    def test_missing_variable_backpointer(self):
        node = convert_source("(lambda (x) x)")
        node.body.variable.refs.clear()
        assert "variable-links" in checks(check_tree(node, "test"))

    def test_reference_outside_binder_scope(self):
        node = convert_source("(lambda (x) ((lambda (y) y) x))")
        call = node.body
        # Point the argument (outside the inner lambda) at y.
        call.args[0].variable = call.fn.body.variable
        assert "variable-scope" in checks(check_tree(node, "test"))

    def test_go_to_missing_tag(self):
        node = convert_source("(progbody top (go top))")
        go = next(n for n in node.walk() if isinstance(n, GoNode))
        go.tag = sym("nowhere")
        assert "go-targets" in checks(check_tree(node, "test"))


class TestAllocationChecks:
    def test_clean_packing_passes(self):
        tns = [make_tn(0, 3), make_tn(1, 6), make_tn(4, 9, prefer_rt=True)]
        packing = pack_tns(tns)
        assert check_allocation(tns, packing, REGISTER_FILE_SIZE,
                                "tnbind") == []

    def test_overlapping_tns_in_one_register(self):
        a = make_tn(0, 5)
        b = make_tn(2, 8)
        packing = pack_tns([a, b])
        b.location = a.location  # force the collision
        assert "register-overlap" in checks(
            check_allocation([a, b], packing, REGISTER_FILE_SIZE,
                             "tnbind"))

    def test_register_outside_configured_pool(self):
        a = make_tn(0, 5)
        packing = pack_tns([a])
        a.location = Location("reg", 20)
        assert "register-pool" in checks(
            check_allocation([a], packing, 8, "tnbind"))

    def test_call_crossing_tn_in_register(self):
        a = make_tn(0, 5, crosses_call=True)
        packing = pack_tns([a])
        a.location = Location("reg", 0)
        assert "register-pool" in checks(
            check_allocation([a], packing, REGISTER_FILE_SIZE, "tnbind"))

    def test_wide_temp_slot_overlap(self):
        a = make_tn(0, 5, must_stack=True)
        a.rep = "DWFLO"  # two words
        b = make_tn(0, 5, must_stack=True)
        packing = pack_tns([a, b])
        b.location = Location("temp-slot", a.location.index + 1)
        assert "temp-widths" in checks(
            check_allocation([a, b], packing, REGISTER_FILE_SIZE,
                             "tnbind"))


class TestCodeChecks:
    def test_clean_code_passes(self):
        assert check_code(compiled_code(), "codegen") == []

    def test_unknown_opcode(self):
        code = compiled_code()
        code.instructions[0].opcode = "FLY"
        assert "opcodes" in checks(check_code(code, "codegen"))

    def test_undefined_label(self):
        code = compiled_code()
        code.instructions.append(Instruction("JMP", (("label", "ghost"),)))
        assert "labels" in checks(check_code(code, "codegen"))

    def test_label_outside_body(self):
        code = compiled_code()
        code.labels["wild"] = len(code.instructions) + 5
        assert "labels" in checks(check_code(code, "codegen"))

    def test_stale_line_map(self):
        code = compiled_code()
        index = next(iter(code.line_map))
        code.line_map[index] += 1
        assert "line-map" in checks(check_code(code, "codegen"))

    def test_unbalanced_stack_at_return(self):
        code = compiled_code()
        # A stray PUSH at entry leaves one unconsumed operand everywhere.
        code.instructions.insert(
            0, Instruction("PUSH", (("imm", 0),)))
        for label in code.labels:
            code.labels[label] += 1
        code.line_map = {i + 1: line for i, line in code.line_map.items()}
        assert "stack-balance" in checks(check_code(code, "codegen"))


class TestPipelineVerifier:
    def test_raises_and_records_diagnostics(self):
        from repro.diagnostics import Diagnostics

        node = convert_source("(lambda (x) (+ x 1))")
        node.body.parent = None
        diagnostics = Diagnostics()
        verifier = PipelineVerifier("f", diagnostics=diagnostics)
        with pytest.raises(VerificationError) as info:
            verifier.check_tree(node, "optimizer")
        assert "optimizer" in str(info.value)
        assert info.value.violations
        assert isinstance(info.value.violations[0], Violation)
        assert diagnostics.errors
        assert diagnostics.counters["verify_violations"] >= 1

    def test_clean_check_is_silent(self):
        node = convert_source("(lambda (x) (+ x 1))")
        verifier = PipelineVerifier("f")
        verifier.check_tree(node, "optimizer")
        assert verifier.checks_run == 1


class TestVerifiedCompilation:
    SOURCE = """
        (defun fact (n) (if (< n 2) 1 (* n (fact (- n 1)))))
        (defun spin (n)
          (let ((acc 0))
            (progbody top
              (if (zerop n) (return acc) nil)
              (setq acc (+ acc n))
              (setq n (- n 1))
              (go top))))
    """

    def test_verified_pipeline_is_clean_and_counted(self):
        compiler = Compiler(CompilerOptions(verify_ir=True))
        compiler.compile_source(self.SOURCE)
        assert compiler.run("fact", [6]) == 720
        assert compiler.run("spin", [10]) == 55
        counters = compiler.last_diagnostics.counters
        assert counters.get("verify_checks", 0) > 0
        assert counters.get("verify_violations", 0) == 0

    def test_verification_does_not_change_code(self):
        # Label names are globally gensym'd, so compare shape with labels
        # normalized to order of first appearance.
        def fingerprint(code):
            renames = {}

            def norm(operand):
                kind, value = operand
                if kind == "label":
                    return (kind,
                            renames.setdefault(value, f"L{len(renames)}"))
                if kind == "imm" and isinstance(value, list):
                    return (kind, [
                        (count,
                         renames.setdefault(label, f"L{len(renames)}"))
                        for count, label in value])
                return operand

            return [(i.opcode, tuple(norm(op) for op in i.operands))
                    for i in code.instructions]

        plain = Compiler(CompilerOptions())
        checked = Compiler(CompilerOptions(verify_ir=True))
        plain.compile_source(self.SOURCE)
        checked.compile_source(self.SOURCE)
        for name in ("fact", "spin"):
            assert fingerprint(plain.program.get(sym(name))) == \
                fingerprint(checked.program.get(sym(name)))

    def test_verified_cse_and_peephole_pipeline(self):
        options = CompilerOptions(verify_ir=True, enable_cse=True,
                                  enable_peephole=True)
        compiler = Compiler(options)
        compiler.compile_source(self.SOURCE)
        assert compiler.run("fact", [5]) == 120


class TestFuzzSmoke:
    def test_fixed_seed_corpus_has_zero_violations(self):
        # ~50 programs through the verified default pipeline on the
        # primary target, differentially checked against the interpreter.
        report = run_fuzz(base_seed=0, count=50, targets=("s1",),
                          verify=True)
        assert report.ok, report.render()
        assert report.compilations == 50

    def test_all_targets_sample(self):
        report = run_fuzz(base_seed=400, count=6,
                          targets=("s1", "vax", "pdp10"), verify=True)
        assert report.ok, report.render()
        assert report.compilations == 18
