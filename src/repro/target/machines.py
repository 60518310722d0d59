"""Machine descriptions: the declarative tables that retarget the compiler.

"The compiler is table-driven to a great extent ... We expect to be able to
redirect the compiler to other target architectures such as the VAX or
PDP-10 with relatively little effort." (Section 1)  Everything
machine-specific the phases consult is bundled in one
:class:`MachineDescription`:

* the register file (size, naming, which registers the packer may use),
* the representation lattice and its storage widths (Table 3),
* the instruction cost table driving the simulator's cycle counter,
* the two behavioral switches the paper calls out: the 2 1/2-address
  ``RT`` constraint (Section 6.1) and whether the hardware sine takes its
  argument in cycles (the Section 4.4 remark that machine-inspired
  transformations are "benign but useless" elsewhere, so they are switched
  off, not run).

Three models ship: the S-1 Mark IIA itself, a VAX-like true 3-address
machine (Jonathan Rees's port, Section 5), and a PDP-10-like 2-address
machine with 16 accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple, Union

from ..errors import UnknownTargetError
from ..machine.isa import CYCLES
from ..machine.timing import (
    DEFAULT_PIPELINE,
    PipelineDescription,
    issue_latencies,
)
from .registers import (
    CP,
    FP,
    HP,
    REGISTER_FILE_SIZE,
    REGISTER_NAMES,
    SP,
    allocatable_registers,
)
from .reps import ALL_REPS, REP_WORDS


@dataclass(frozen=True, eq=False)
class MachineDescription:
    """One target architecture, as the compiler sees it."""

    name: str
    #: Size of the allocatable register file (the packer never goes past
    #: it; the fixed-role runtime registers live above on every model).
    registers: int
    #: 2 1/2-address arithmetic: OP dst,src1,src2 requires dst==src1 or an
    #: RT register in the dst/src1 slot (Section 6.1's staging dance).
    has_rt_constraint: bool
    #: Hardware sine/cosine take their argument in *cycles* (revolutions),
    #: enabling the sin$f -> sinc$f source rewrite (Section 4.4).
    sin_in_cycles: bool
    #: Register index -> assembly name, for listings on this target.
    register_names: Mapping[int, str]
    #: Opcode -> abstract cycle cost (the simulator's performance model).
    cycles: Mapping[str, int]
    #: The representation vocabulary and storage widths (shared Table 3
    #: lattice; a port with different word sizes would override these).
    reps: Tuple[str, ...] = ALL_REPS
    rep_words: Mapping[str, int] = field(default_factory=lambda: REP_WORDS)
    #: The target's pipelined timing model (``timing="pipelined"``): the
    #: issue-latency, flush, and structural-hazard tables the machine
    #: charges stall cycles from.  ``timing="single"`` ignores it.
    pipeline: PipelineDescription = DEFAULT_PIPELINE

    def allocatable(self) -> Tuple[int, ...]:
        """This target's general register pool."""
        return tuple(allocatable_registers(self.registers))


def _named(overrides: Mapping[int, str], stem: str = "R"
           ) -> Mapping[int, str]:
    names = {index: f"{stem}{index}" for index in range(REGISTER_FILE_SIZE)}
    names.update(overrides)
    return names


# The fixed-role runtime registers keep their names on every model: the
# simulated runtime (calling sequence, heap, frames) is shared.
_RUNTIME_NAMES = {HP: "HP", CP: "CP", FP: "FP", SP: "SP"}

S1 = MachineDescription(
    name="s1",
    registers=32,
    has_rt_constraint=True,
    sin_in_cycles=True,
    register_names=dict(REGISTER_NAMES),
    cycles=CYCLES,
    # The Mark IIA's deep pipeline (timing.DEFAULT_PIPELINE): 3-cycle
    # taken-branch refill, 1-cycle result bubble, heavy GENERIC occupancy.
    pipeline=DEFAULT_PIPELINE,
)

# A VAX-like model: true 3-address register arithmetic (no RT staging at
# all), 16 general registers, radians-based transcendentals, no vector
# hardware (the vector ops fall back to microcoded loops), slower float
# multiply/divide than the S-1's pipelined unit.
_VAX_CYCLES = dict(
    CYCLES,
    FMULT=3, FDIV=8, MULT=4, DIV=8,
    FSINR=12, FCOSR=12, FSIN=14, FCOS=14, FSQRT=12,
    VDOT=8, VSUM=8, VADD=8, VSCALE=8,
)

# A microcoded, barely-overlapped pipeline: short refill on taken
# branches, results forward for free from single-cycle producers, but the
# microcode sequencer serializes on generic dispatch and allocation.
_VAX_PIPELINE = PipelineDescription(
    name="vax",
    flush_cycles=2,
    result_latency=issue_latencies(_VAX_CYCLES),
    structural={
        "GENERIC": 3,
        "GFUNC": 1,
        "BOXF": 2,
        "MKCELL": 2,
        "CLOSURE": 3,
        "RESTCOLLECT": 3,
        "SPECLOOKUP": 2,
        "CATCHPUSH": 1,
        "GC": 6,
    },
    default_result_latency=0,
)

VAX = MachineDescription(
    name="vax",
    registers=16,
    has_rt_constraint=False,
    sin_in_cycles=False,
    register_names=_named(_RUNTIME_NAMES),
    cycles=_VAX_CYCLES,
    pipeline=_VAX_PIPELINE,
)

# A PDP-10-like model: 16 accumulators, strict 2-address arithmetic (the
# RT staging discipline applies, as on the S-1), radians-based sine, and
# the KL10's slower multiply/divide.
_PDP10_CYCLES = dict(
    CYCLES,
    MULT=4, DIV=9, FADD=2, FSUB=2, FMULT=4, FDIV=9,
    FSINR=14, FCOSR=14, FSIN=16, FCOS=16, FSQRT=14,
    VDOT=10, VSUM=10, VADD=10, VSCALE=10,
)

# A shallow KL10-style overlap: one-cycle branch bubble, free forwarding
# from single-cycle producers, modest serialization on heap traffic.
_PDP10_PIPELINE = PipelineDescription(
    name="pdp10",
    flush_cycles=1,
    result_latency=issue_latencies(_PDP10_CYCLES),
    structural={
        "GENERIC": 1,
        "BOXF": 1,
        "MKCELL": 1,
        "CLOSURE": 1,
        "RESTCOLLECT": 1,
        "SPECLOOKUP": 1,
        "GC": 3,
    },
    default_result_latency=0,
)

PDP10 = MachineDescription(
    name="pdp10",
    registers=16,
    has_rt_constraint=True,
    sin_in_cycles=False,
    register_names=_named(_RUNTIME_NAMES, stem="AC"),
    cycles=_PDP10_CYCLES,
    pipeline=_PDP10_PIPELINE,
)

#: The registry ``CompilerOptions.target`` is resolved against.
TARGETS: Dict[str, MachineDescription] = {
    "s1": S1,
    "vax": VAX,
    "pdp10": PDP10,
}

#: Historical alias (the paper says "PDP-10"; both spellings resolve).
PDP = PDP10


def get_target(name: Union[str, MachineDescription]) -> MachineDescription:
    """Resolve a target name to its machine description.

    Accepts a :class:`MachineDescription` unchanged, so internal code can
    pass either form.  Raises :class:`repro.errors.UnknownTargetError`
    (a ``KeyError`` subclass) for unregistered names.
    """
    if isinstance(name, MachineDescription):
        return name
    try:
        return TARGETS[name]
    except KeyError:
        raise UnknownTargetError(
            f"unknown target {name!r}: known targets are "
            f"{', '.join(sorted(TARGETS))}") from None
