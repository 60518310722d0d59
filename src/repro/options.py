"""Compiler options.

The paper stresses that whole phases are optional ("Like the source-level
optimization phase, its use is completely optional, for it only affects the
efficiency of the resulting code").  Every experiment ablation in
EXPERIMENTS.md flips a phase switch here, or one of the optimizer's two
opt-in rules (type specialization, global integration).  The optimizer's
other rules run whenever it runs; its size heuristics and fixpoint bounds
are constants beside their readers, and the register count comes from the
target.

Every field is declared either **semantic** (it changes the generated
code, so it must perturb the content-addressed cache key and it may be
overridden over the service wire protocol) or **non-semantic** (it only
controls execution, reporting or verification).  The declaration
lives on the dataclass field's ``metadata`` and is projected into
:data:`SEMANTIC_OPTION_FIELDS` / :data:`NON_SEMANTIC_OPTION_FIELDS` --
the single source of truth consumed by both :func:`repro.cache.cache_key`
and the ``repro.api`` wire schema.  A field added without an explicit
declaration defaults to semantic, which is the safe direction (an
unnecessary cache-key perturbation costs a miss; a missing one would
serve wrong code).

Options are a plain value: every field is a bool, int or str, so a
``CompilerOptions`` pickles whole into pool workers and compares by value.
The compilation cache travels beside it, never inside it
(``Compiler(options, cache=...)``, ``CompilerService(options, cache=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def semantic(default):
    """A field that affects the generated code: part of the cache key and
    overridable through the service wire schema."""
    return field(default=default, metadata={"semantic": True})


def non_semantic(default):
    """A field that cannot change the generated code: excluded from the
    cache key (execution, reporting and verification only)."""
    return field(default=default, metadata={"semantic": False})


@dataclass
class CompilerOptions:
    # --- source-level optimization (Section 5) ---
    optimize: bool = semantic(True)        # master switch for the meta-evaluator
    enable_type_specialization: bool = semantic(False)  # generic -> typed ops

    # --- global procedure integration (block compilation; the paper's
    #     loop-unrolling remark in Section 5) ---
    enable_global_integration: bool = semantic(False)  # inline known defuns
    self_unroll_depth: int = semantic(0)       # times a fn may inline itself
                                               # ("achieves loop unrolling")

    # --- common subexpression elimination (Section 4.3; optional phase) ---
    enable_cse: bool = semantic(False)     # off by default, like the paper

    # --- machine-dependent annotation (Section 6) ---
    enable_representation_analysis: bool = semantic(True)
    enable_pdl_numbers: bool = semantic(True)
    enable_special_caching: bool = semantic(True)
    enable_closure_analysis: bool = semantic(True)

    # --- codegen / allocator ---
    target: str = semantic("s1")           # "s1" | "vax" | "pdp10"
    enable_tnbind: bool = semantic(True)   # False: naive stack-slot allocation
    enable_peephole: bool = semantic(False)  # linear-block packing (Section 4.5;
                                             # the paper had none -- extension)
    enable_tail_calls: bool = semantic(True)  # False: every call pushes a frame

    # --- execution tier (repro.machine.native) ---
    # How compiled CodeObjects are *run*, never what they contain: the
    # native tier executes the very same instruction stream through
    # translated Python blocks, so this must not perturb the cache key.
    tier: str = non_semantic("simulate")   # "simulate" | "native"

    # --- timing model (repro.machine.timing) ---
    # How executed cycles are *charged*, never what runs or what results:
    # "single" is the paper's per-opcode table model, "pipelined" adds
    # hazard stalls (data/control/structural) from the target's
    # PipelineDescription.  Results, instructions, and opcode counts are
    # identical under both, so it must not perturb the cache key.
    timing: str = non_semantic("single")   # "single" | "pipelined"

    # --- verification (repro.verify) ---
    # Non-semantic: the sanitizer either passes (the code is what it would
    # have been anyway) or raises (nothing is cached).
    verify_ir: bool = non_semantic(False)

    # --- diagnostics ---
    trace_rewrites: bool = non_semantic(False)  # whole-function before/after
                                                # source per rewrite (costly)

    def __post_init__(self) -> None:
        # Fail at option-construction time, not deep inside codegen: an
        # unknown target raises repro.errors.UnknownTargetError here.
        from .target.machines import get_target

        get_target(self.target)
        if self.tier not in TIERS:
            raise ValueError(
                f"unknown execution tier {self.tier!r}"
                f" (choose one of {', '.join(TIERS)})")
        from .machine.timing import TIMINGS

        if self.timing not in TIMINGS:
            raise ValueError(
                f"unknown timing model {self.timing!r}"
                f" (choose one of {', '.join(TIMINGS)})")


#: The execution tiers a Machine can run (``CompilerOptions.tier``;
#: "simulate" is the reference).  Declared here rather than next to the
#: native translator so validating options never imports the machine.
TIERS = ("simulate", "native")


def _field_is_semantic(f) -> bool:
    return bool(f.metadata.get("semantic", True))


#: Every CompilerOptions field that affects generated code, by name.
#: ``repro.cache`` hashes exactly these; the ``repro.api`` wire schema
#: accepts overrides for exactly these.
SEMANTIC_OPTION_FIELDS = frozenset(
    f.name for f in fields(CompilerOptions) if _field_is_semantic(f))

#: The complement: execution, reporting and verification.  Never hashed.
NON_SEMANTIC_OPTION_FIELDS = frozenset(
    f.name for f in fields(CompilerOptions) if not _field_is_semantic(f))


DEFAULT_OPTIONS = CompilerOptions()


def naive_options() -> CompilerOptions:
    """Every phase off: the baseline configuration for ablation benches."""
    return CompilerOptions(
        optimize=False,
        enable_cse=False,
        enable_representation_analysis=False,
        enable_pdl_numbers=False,
        enable_special_caching=False,
        enable_closure_analysis=False,
        enable_tnbind=False,
    )
