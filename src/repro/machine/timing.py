"""Pipelined timing models: hazard stalls layered over the cycle tables.

The paper's cycle counts (Tables 3-4) assume the single-cycle-per-table
model the simulator has always charged: every instruction costs its
``MachineDescription.cycles`` entry and nothing else.  The real S-1
Mark IIA was pipelined, so a fetch/decode/execute/retire machine pays
*extra* cycles the table model never sees:

* **data hazards** -- instruction *i+1* reads a register/temp/frame slot
  that instruction *i* writes, before the producer's result has cleared
  the execute stage (charged from the target's issue-latency table);
* **control hazards** -- a taken branch, call, return, or throw flushes
  the front end (a fixed per-target ``flush_cycles`` bubble);
* **structural hazards** -- multi-cycle GENERIC/heap operations occupy
  the execute stage and hold issue (a per-opcode stall table).

This module is the timing model's single source of truth for *both*
execution tiers: the simulator charges stalls per dynamic instruction
from a :class:`TimingProfile`, and the native translator bakes the very
same profile's static components into each block plus the same dynamic
control-hazard checks at every transfer site -- so ``cycles`` agrees
exactly between tiers under either model.  The model is strictly
**non-semantic**: it only ever adds to ``Machine.cycles`` (and the
per-category stall counters); results, ``instructions``, and
``opcode_counts`` are untouched.

Hazard detection uses one shared dynamic rule and one shared static
table:

* an instruction *transferred control* iff, after its handler ran,
  ``code is not code_before or pc != index + 1`` (the simulator checks
  this literally; generated native code emits the identical comparison
  at every dynamic transfer site and resolves static targets at
  translation time) -- a transfer charges the flush and empties the
  pipeline, so no data hazard is checked across it;
* an instruction pair ``(i, i+1)`` executed back-to-back has a data
  hazard iff a location (register, temp, or frame slot) written by *i*
  is read by ``i+1`` (:func:`instruction_effects`); the charge is the
  producer's issue latency.  Every opcode that can either transfer or
  fall through (branches, calls, LOCK) writes no operand location, so
  the pair stall across such an instruction is always zero -- which is
  what makes the static per-block computation exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from .isa import CYCLES, CodeObject, Instruction, RAW_BINARY_OPS, RAW_UNARY_OPS

__all__ = [
    "TIMINGS",
    "PipelineDescription",
    "TimingProfile",
    "DEFAULT_PIPELINE",
    "analyze",
    "instruction_effects",
    "issue_latencies",
]

#: The timing-model vocabulary (``MachineDescription`` / ``Machine`` /
#: ``CompilerOptions.timing``).  "single" is the paper's table model.
TIMINGS = ("single", "pipelined")


@dataclass(frozen=True)
class PipelineDescription:
    """One target's pipelined timing model: the issue-latency and hazard
    tables the per-instruction stall charges are drawn from."""

    name: str
    #: Front-end flush charged for every taken control transfer
    #: (branch/call/return/throw/LOCK replay).
    flush_cycles: int
    #: Producer opcode -> stall charged when the *next* instruction reads
    #: the producer's result (issue latency beyond one cycle; see
    #: :func:`issue_latencies` for the table-derived default).
    result_latency: Mapping[str, int] = field(default_factory=dict)
    #: Opcode -> extra cycles it occupies the execute stage beyond issue
    #: (structural hazard: GENERIC dispatch, heap allocation, GC).
    structural: Mapping[str, int] = field(default_factory=dict)
    #: Result latency for producers absent from ``result_latency`` (a
    #: deep pipeline pays a one-cycle load-use-style bubble even on
    #: single-cycle producers; a barely-pipelined machine pays none).
    default_result_latency: int = 0


def issue_latencies(cycle_costs: Mapping[str, int]) -> Dict[str, int]:
    """Derive a result-latency table from a cycle table: a producer whose
    execute stage takes ``cost`` cycles delivers its result ``cost - 1``
    cycles after a single-cycle one would (full forwarding assumed), so
    a back-to-back consumer stalls that long.  Entries for opcodes that
    write no operand location are harmless -- the dependence test never
    fires for them."""
    return {opcode: cost - 1 for opcode, cost in cycle_costs.items()
            if cost > 1}


#: Operand locations that participate in the data-hazard dependence test.
#: ``imm``/``label``/``global``/``name`` operands are not locations; an
#: ``env`` operand is read-only (no opcode writes one), so a producer can
#: never feed it.
_LOCATION_KINDS = ("reg", "temp", "frame")

#: opcode -> (written operand indices, read operand indices) for every
#: fixed-arity opcode.  Variadic shapes (GENERIC, CLOSURE) and PDLBOX's
#: extra slot write are special-cased in :func:`instruction_effects`.
_ROLES: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {
    "MOV": ((0,), (1,)),
    "UNBOX": ((0,), (1,)),
    "BOXF": ((0,), (1,)),
    "CERTIFY": ((0,), (1,)),
    "JMP": ((), ()),
    "JUMPNIL": ((), (0,)),
    "JUMPNNIL": ((), (0,)),
    "CMPBR": ((), (1, 2)),
    "EQLBR": ((), (0, 1)),
    "PUSH": ((), (0,)),
    "POP": ((0,), ()),
    "ALLOCTEMPS": ((), ()),
    "ARGCHECK": ((), ()),
    "ARGDISPATCH": ((), ()),
    "ARGEXPAND": ((), ()),
    "RESTCOLLECT": ((), ()),
    "CALL": ((), ()),
    "KCALL": ((), ()),
    "CALLF": ((), (0,)),
    "TAILCALL": ((), ()),
    "TAILCALLF": ((), (0,)),
    "APPLYF": ((), (0,)),
    "RET": ((), (0,)),
    "GFUNC": ((0,), ()),
    "ENVREF": ((0,), ()),
    "MKCELL": ((0,), (1,)),
    "CELLREF": ((0,), (1,)),
    "CELLSET": ((), (0, 1)),
    "SPECBIND": ((), (1,)),
    "SPECUNBIND": ((), ()),
    "SPECLOOKUP": ((0,), ()),
    "SPECREF": ((0,), (1,)),
    "SPECSET": ((), (0, 1)),
    "SPECGREF": ((0,), ()),
    "CATCHPUSH": ((), (1,)),
    "CATCHPOP": ((), ()),
    "VDOT": ((0,), (1, 2)),
    "VSUM": ((0,), (1,)),
    "VADD": ((0,), (1, 2)),
    "VSCALE": ((0,), (1, 2)),
    "NOP": ((), ()),
    "HALT": ((), ()),
    "GC": ((), ()),
    "LOCK": ((), (0,)),
    "UNLOCK": ((), (0,)),
}
for _opcode in RAW_BINARY_OPS:
    _ROLES[_opcode] = ((0,), (1, 2))
for _opcode in RAW_UNARY_OPS:
    _ROLES[_opcode] = ((0,), (1,))


def instruction_effects(instruction: Instruction
                        ) -> Tuple[FrozenSet[Any], FrozenSet[Any]]:
    """``(written locations, read locations)`` of one instruction, as
    frozensets of operand tuples (``("reg", 3)``, ``("temp", 0)``, ...).
    Only register/temp/frame operands count (see ``_LOCATION_KINDS``);
    implicit state (NARGS, the value stack, frame records) is outside the
    model -- identically for both tiers, which is what parity needs."""
    opcode = instruction.opcode
    operands = instruction.operands
    if opcode == "GENERIC":
        writes, reads = (1,), tuple(range(2, len(operands)))
    elif opcode == "CLOSURE":
        writes, reads = (0,), tuple(range(2, len(operands)))
    elif opcode == "PDLBOX":
        writes, reads = (0, 1), (2,)
    else:
        writes, reads = _ROLES.get(opcode, ((), ()))
    written = frozenset(operands[i] for i in writes
                        if i < len(operands)
                        and operands[i][0] in _LOCATION_KINDS)
    read = frozenset(operands[i] for i in reads
                     if i < len(operands)
                     and operands[i][0] in _LOCATION_KINDS)
    return written, read


class TimingProfile:
    """Per-CodeObject static stall tables under one pipeline description.

    ``structural[i]`` is instruction *i*'s execute-stage occupancy stall;
    ``pair[i]`` is the data-hazard stall of the back-to-back pair
    ``(i - 1, i)``, charged when instruction ``i - 1`` falls through
    into instruction *i*.
    Both tiers consume the same profile: the simulator indexes it per
    dynamic instruction, the native translator sums it per block."""

    __slots__ = ("structural", "pair")

    def __init__(self, structural: List[int], pair: List[int]):
        self.structural = structural
        self.pair = pair

    def block_stalls(self, start: int, end: int) -> Tuple[int, int]:
        """``(data, structural)`` static stall cycles for the straight-line
        range ``[start, end)``, excluding the entry pair ``pair[start]``
        (charged by the predecessor's fall-through edge, if any)."""
        structural = sum(self.structural[start:end])
        data = sum(self.pair[start + 1:end])
        return data, structural


def analyze(code: CodeObject, pipeline: PipelineDescription) -> TimingProfile:
    """Build *code*'s static stall profile under *pipeline*."""
    instructions = code.instructions
    n = len(instructions)
    structural_table = pipeline.structural
    latency_table = pipeline.result_latency
    default_latency = pipeline.default_result_latency
    structural = [structural_table.get(ins.opcode, 0) for ins in instructions]
    pair = [0] * n
    effects = [None] * n
    for index in range(1, n):
        producer = instructions[index - 1]
        latency = latency_table.get(producer.opcode, default_latency)
        if not latency:
            continue
        if effects[index - 1] is None:
            effects[index - 1] = instruction_effects(producer)
        written = effects[index - 1][0]
        if not written:
            continue
        if effects[index] is None:
            effects[index] = instruction_effects(instructions[index])
        if written & effects[index][1]:
            pair[index] = latency
    return TimingProfile(structural, pair)


#: S-1-flavoured structural-hazard table: the execute-stage occupancy of
#: generic dispatch, heap allocation, and the collector.  Targets override
#: freely; this is also what a bare ``Machine(timing="pipelined")`` uses.
S1_STRUCTURAL: Dict[str, int] = {
    "GENERIC": 2,
    "GFUNC": 1,
    "BOXF": 1,
    "MKCELL": 1,
    "CLOSURE": 2,
    "RESTCOLLECT": 2,
    "SPECLOOKUP": 1,
    "CATCHPUSH": 1,
    "GC": 4,
    "VADD": 1,
    "VSCALE": 1,
}

#: The S-1 Mark IIA pipeline: deep enough that every taken transfer costs
#: a three-cycle front-end refill and even single-cycle producers leave a
#: one-cycle result bubble for an immediate consumer.
DEFAULT_PIPELINE = PipelineDescription(
    name="s1",
    flush_cycles=3,
    result_latency=issue_latencies(CYCLES),
    structural=dict(S1_STRUCTURAL),
    default_result_latency=1,
)
