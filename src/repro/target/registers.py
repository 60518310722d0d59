"""The register file and its conventions.

The simulated machine has a 32-register file.  A handful of registers have
fixed roles shared by every target model (the runtime and the calling
sequence depend on them); the rest form the allocatable pool TNBIND packs
values into.  A target's ``registers`` count bounds that pool: the packer
and the allocation verifier both take it from
:func:`allocatable_registers`.

Two registers deserve their paper names:

* ``RTA`` / ``RTB`` -- the "RT" staging registers of the S-1's 2 1/2-address
  instruction format (Section 6.1): for ``OP dst,src1,src2`` one of
  ``dst==src1``, ``dst`` is RT, or ``src1`` is RT must hold.  Good TN
  allocation targets them so that "no MOV instructions are required; each
  instruction performs useful arithmetic".  They are allocated only through
  the packer's explicit RT-preference path, never from the general pool --
  on targets without the constraint they must stay out of ordinary code.

Fixed-role registers (``RESERVED``, never allocated):

* ``NARGS`` (5) -- argument count for the full-call sequence.
* ``HP`` (28) / ``CP`` (29) -- heap frontier and closure/environment
  pointer.
* ``FP`` (30) / ``SP`` (31) -- frame and stack pointers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

#: Size of the register file every machine description indexes into.
REGISTER_FILE_SIZE = 32

RTA = 4
RTB = 6
NARGS = 5
HP = 28
CP = 29
FP = 30
SP = 31

#: Fixed-role registers the packer must never hand out.
RESERVED = frozenset({NARGS, HP, CP, FP, SP})

#: The default (S-1) register naming, keyed by index.
REGISTER_NAMES: Dict[int, str] = {
    index: f"R{index}" for index in range(REGISTER_FILE_SIZE)
}
REGISTER_NAMES.update({
    RTA: "RTA", RTB: "RTB", NARGS: "NARGS",
    HP: "HP", CP: "CP", FP: "FP", SP: "SP",
})


def register_name(index: int, names: Optional[Mapping[int, str]] = None
                  ) -> str:
    """Render a register index in a target's assembly syntax.  With no
    *names* mapping, the default S-1 naming applies."""
    return (names or REGISTER_NAMES).get(index, f"R{index}")


def allocatable_registers(registers: int = REGISTER_FILE_SIZE) -> List[int]:
    """The general register pool of a file of *registers* registers, in
    allocation order: every register below that count that is neither
    fixed-role nor an RT staging register.  The pool is never empty: a file
    too small for any keeps the first general register."""
    general = [index for index in range(REGISTER_FILE_SIZE)
               if index not in RESERVED and index not in (RTA, RTB)]
    return [index for index in general if index < registers] or general[:1]
