"""The simulated S-1 machine: ISA, CPU, heap/GC, runtime values.

This package substitutes for the S-1 Mark IIA hardware the paper targeted
(see DESIGN.md Section 2 for the substitution argument): every quantity the
paper's evaluation discusses -- instruction counts, heap allocations, pdl
certifications, special-variable search work, stack depth -- is measured
exactly by :class:`Machine`.
"""

from .._lazy import lazy_attributes

#: Public name -> defining submodule, resolved on first use (PEP 562).  The
#: compiler only needs the ISA (``repro.machine.isa``); importing it must
#: not drag in the CPU, the native translator and their runtime.
_EXPORTS = {
    name: module
    for module, names in (
        (".cpu", ("FrameRecord", "Machine", "UNBOUND")),
        (".multi", ("MultiMachine",)),
        (".heap", ("Heap",)),
        (".native", ("NativeBlock", "NativeCode", "translate")),
        ("..options", ("TIERS",)),
        (".timing", ("DEFAULT_PIPELINE", "PipelineDescription", "TIMINGS")),
        (".isa", ("CYCLES", "CodeObject", "Instruction", "Program",
                  "env_slot", "frame_arg", "global_ref", "imm", "label_ref",
                  "name_ref", "reg", "temp")),
        (".values", ("Cell", "Closure", "HeapNumber", "PdlNumber",
                     "PrimitiveFn", "is_pointer_value", "is_raw_number",
                     "pointer_to_lisp")),
    )
    for name in names
}

__getattr__, __dir__ = lazy_attributes(
    globals(), _EXPORTS,
    ("asm", "cpu", "heap", "isa", "multi", "native", "timing", "values"))

__all__ = sorted(_EXPORTS)
