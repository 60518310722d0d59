"""The top-level compiler driver: the phase pipeline of Table 1.

::

    source text
      | reader                          (repro.reader)
      | preliminary conversion          (repro.ir)
      | source-program analysis         (repro.analysis)
      | source-level optimization       (repro.optimizer)
      | [common subexpression elim.]    (repro.optimizer.cse, optional)
      | machine-dependent annotation    (repro.annotate)
      | target annotation + codegen     (repro.tnbind, repro.codegen)
      v
    parenthesized assembly (CodeObject), runnable on repro.machine

:class:`Compiler` holds a program under construction: ``compile_source``
accepts ``defun`` / ``defvar`` / expression forms, and ``machine()`` wraps
the result in a ready-to-run simulator.  ``phase_report`` reproduces
Table 1 as the pipeline actually executed, read from the compile's
``Diagnostics`` phase records through :data:`TABLE1_NAMES`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from .analysis import analyze, analyze_light
from .annotate import annotate
from .cache import (CachedFunction, CompilationCache, cache_key,
                    canonical_source)
from .codegen.generator import FunctionCodegen
from .datum import NIL, Cons, from_list, to_list
from .datum.symbols import Symbol, sym
from .diagnostics import Diagnostics, count_nodes
from .errors import ConversionError, ReaderError
from .ir import Converter, LambdaNode, back_translate_to_string
from .machine.isa import CodeObject, Program
from .optimizer import SourceOptimizer, Transcript
from .options import CompilerOptions, DEFAULT_OPTIONS
from .reader import read_all

if TYPE_CHECKING:
    from .machine.cpu import Machine

_PRELUDE_SOURCE: Optional[str] = None
# The batch driver compiles on pool workers; memoization must be safe when
# two workers load the prelude concurrently (each sees either None or the
# complete text, never a partial read).
_PRELUDE_LOCK = threading.Lock()


def prelude_source() -> str:
    """The text of the bundled Lisp prelude (read once, then memoized --
    every Compiler instance loads the same immutable file).  Thread-safe:
    concurrent first calls race only on who reads the file, not on what
    callers observe."""
    global _PRELUDE_SOURCE
    with _PRELUDE_LOCK:
        if _PRELUDE_SOURCE is None:
            import os

            path = os.path.join(os.path.dirname(__file__), "prelude.lisp")
            with open(path, "r", encoding="utf-8") as handle:
                _PRELUDE_SOURCE = handle.read()
        return _PRELUDE_SOURCE


@dataclass
class CompiledFunction:
    """What the compiler produces for one defun."""

    name: Symbol
    code: CodeObject
    optimized_source: str
    transcript: Transcript
    #: None when the function was materialized from the compilation cache
    #: (the cache stores no IR trees).
    lambda_node: Optional[LambdaNode]

    def listing(self) -> str:
        return self.code.listing()


#: Table 1's names for the ``Diagnostics`` phase keys a function's
#: compile records, in pipeline order.  One ``annotate`` phase runs the
#: paper's four annotation passes; ``reader`` is per call, not per function.
TABLE1_NAMES: Dict[str, Tuple[str, ...]] = {
    "ir conversion": ("preliminary conversion",),
    "analysis": ("source-program analysis",),
    "optimizer": ("source-level optimization",),
    "cse": ("common subexpression elimination",),
    "annotate": ("binding annotation", "special variable lookups",
                 "representation annotation", "pdl number annotation"),
    "tnbind": ("target annotation (TNBIND/PACK)",),
    "codegen": ("code generation",),
    "peephole": ("peephole (linear-block packing)",),
}


def table1_phases(diagnostics: Diagnostics) -> List[str]:
    """Table 1 as executed: the paper's names for the phases that ran for
    the last function *diagnostics* records.  A function's records start
    at its cache probe or, with no probe, at its conversion; a probe that
    nothing follows was a hit, and the pipeline did not run."""
    last: List[str] = []
    for record in diagnostics.phases:
        phase = record.phase
        if phase == "cache" or (phase == "ir conversion"
                                and last != ["cache"]):
            last = []
        if phase == "cache" or phase in TABLE1_NAMES:
            last.append(phase)
    if last == ["cache"]:
        return ["cache hit (pipeline skipped)"]
    return [name for phase in last for name in TABLE1_NAMES.get(phase, ())]


@dataclass
class CompilationResult:
    """Everything one :meth:`Compiler.compile` call produced.

    The four historical entry points (``compile_source``, ``compile_form``,
    ``compile_expression``, ``compile_and_run``) are thin wrappers that
    project single fields out of this object.
    """

    #: Names defined by this call, in order (defuns, defvars, and the
    #: wrapper function of a bare expression).
    defined: List[Symbol] = field(default_factory=list)
    #: The functions compiled by this call, keyed by name.
    functions: Dict[Symbol, "CompiledFunction"] = field(default_factory=dict)
    #: Phase timings, node counts, rule fires, warnings for this call.
    diagnostics: Optional[Diagnostics] = None

    @property
    def primary(self) -> Optional["CompiledFunction"]:
        """The last function compiled: the natural "result" of a one-defun
        source or a bare expression."""
        for name in reversed(self.defined):
            if name in self.functions:
                return self.functions[name]
        return None

    @property
    def code(self) -> Optional[CodeObject]:
        primary = self.primary
        return primary.code if primary is not None else None

    @property
    def name(self) -> Optional[Symbol]:
        primary = self.primary
        return primary.name if primary is not None else None

    @property
    def transcript(self) -> Optional[Transcript]:
        primary = self.primary
        return primary.transcript if primary is not None else None

    @property
    def optimized_source(self) -> Optional[str]:
        primary = self.primary
        return primary.optimized_source if primary is not None else None

    @property
    def lambda_node(self) -> Optional[LambdaNode]:
        primary = self.primary
        return primary.lambda_node if primary is not None else None

    def listing(self) -> str:
        """Concatenated listings of every function this call compiled."""
        return "\n\n".join(self.functions[name].listing()
                           for name in self.defined
                           if name in self.functions)

    def phase_report(self) -> str:
        """Table 1 as executed for the last function this call compiled,
        then the call's phase timings."""
        if self.diagnostics is None:
            return "(nothing compiled yet)"
        phases = table1_phases(self.diagnostics)
        lines = ["Phase structure (as executed):"]
        lines.extend(f"  {index}. {phase}"
                     for index, phase in enumerate(phases, 1))
        if not phases:
            lines.append("  (no function compiled)")
        if self.diagnostics.phases:
            lines.extend(self.diagnostics.timing_lines())
        return "\n".join(lines)


class Compiler:
    """Compiles a program (a set of top-level forms) for the simulator."""

    def __init__(self, options: Optional[CompilerOptions] = None,
                 cache: Optional[CompilationCache] = None):
        self.options = options or DEFAULT_OPTIONS
        #: Content-addressed compilation cache (repro.cache), or None.  It
        #: travels beside the options, never inside them, and may be
        #: shared between compilers.
        self.cache = cache
        self.converter = Converter()
        self.program = Program()
        self.functions: Dict[Symbol, CompiledFunction] = {}
        self.global_values: Dict[Symbol, Any] = {}
        # Lambda trees of compiled defuns, for global procedure integration
        # (block compilation, enable_global_integration).
        self.function_trees: Dict[Symbol, LambdaNode] = {}
        #: Diagnostics of the most recent compile() call (kept here as well
        #: as on the CompilationResult so errored compiles stay inspectable).
        self.last_diagnostics: Optional[Diagnostics] = None
        self._prelude_names: Optional[List[Symbol]] = None

    # -- program entry points ---------------------------------------------------

    def compile(self, source: Any, *, name: str = "*toplevel*",
                expression: Optional[bool] = None) -> CompilationResult:
        """The single compilation entry point.

        *source* is program text or one already-read form.  Top-level
        ``defun`` / ``defvar`` / ``defparameter`` forms define names; any
        other form is wrapped as a zero-argument function called *name*.
        *expression* forces the interpretation: ``True`` wraps everything
        (the historical ``compile_expression`` behavior), ``False``
        rejects non-definition forms (the historical ``compile_source``
        behavior), ``None`` accepts both.
        """
        diagnostics = Diagnostics()
        self.last_diagnostics = diagnostics
        result = CompilationResult(diagnostics=diagnostics)
        if isinstance(source, str):
            timer = diagnostics.start_phase("reader")
            try:
                forms = read_all(source)
            except ReaderError as err:
                timer.finish()
                diagnostics.error(str(err), phase="reader",
                                  location=err.location)
                raise
            timer.finish(nodes_after=len(forms))
        else:
            forms = [source]
        expression_forms: List[Any] = []
        try:
            for form in forms:
                kind = None if expression is True \
                    else self._toplevel_definition_kind(form)
                if kind == "defun":
                    self._compile_function(form, result, diagnostics)
                elif kind == "defvar":
                    result.defined.append(self._define_variable(form))
                elif expression is False:
                    raise ConversionError(
                        f"only defun/defvar forms can be compiled at top "
                        f"level: {form!r}")
                else:
                    expression_forms.append(form)
            if expression_forms:
                body = expression_forms[0] if len(expression_forms) == 1 \
                    else from_list([sym("progn")] + expression_forms)
                self._compile_function(
                    from_list([sym("lambda"), NIL, body]), result,
                    diagnostics, wrapper=name)
        except ConversionError as err:
            diagnostics.error(str(err), phase="ir conversion",
                              location=err.location)
            raise
        return result

    def _compile_function(self, form: Any, result: CompilationResult,
                          diagnostics: Diagnostics,
                          wrapper: Optional[str] = None) -> None:
        """Compile one function into *result*: the cache probe, conversion,
        :meth:`compile_lambda` and the cache store.  *form* is a ``defun``
        or, with *wrapper*, the ``lambda`` that wraps a bare expression as
        the zero-argument function named *wrapper*."""
        key: Optional[str] = None
        compiled: Optional[CompiledFunction] = None
        if self._cache_active():
            # A wrapper's name lands in its CodeObject, so it is part of
            # the address.
            extra = () if wrapper is None else (f"wrapper:{wrapper}",)
            key = self._cache_key_for(form, *extra)
            compiled = self._cache_lookup(key, diagnostics)
        elif self.cache is not None:
            diagnostics.bump("cache_bypass")
        if compiled is None:
            timer = diagnostics.start_phase("ir conversion",
                                            function=wrapper or "")
            if wrapper is None:
                name, node = self.converter.convert_defun(form)
                timer.record.function = str(name)
            else:
                name, node = sym(wrapper), self.converter.convert_lambda(form)
            size = count_nodes(node)
            timer.finish(nodes_after=size)
            compiled = self.compile_lambda(name, node, diagnostics, size=size)
            if key is not None:
                self._cache_store(key, compiled, diagnostics)
        result.defined.append(compiled.name)
        result.functions[compiled.name] = compiled

    # -- the compilation cache ---------------------------------------------------

    def _cache_active(self) -> bool:
        """Whole-pipeline memoization is sound exactly when the pipeline is
        a function of (form, options, target, proclaimed specials).  Global
        procedure integration makes it depend on the live function_trees
        registry as well, so that configuration bypasses the cache."""
        return self.cache is not None \
            and not self.options.enable_global_integration

    def _cache_key_for(self, form: Any, *extra: str) -> str:
        specials = ",".join(sorted(
            s.name for s in self.converter.proclaimed_specials))
        return cache_key(canonical_source(form), self.options,
                         extra=(f"specials:{specials}",) + extra)

    def _cache_lookup(self, key: str, diagnostics: Diagnostics
                      ) -> Optional[CompiledFunction]:
        """Probe the cache; on a hit, re-register the stored function and
        return it (the pipeline does not run)."""
        timer = diagnostics.start_phase("cache")
        cached = self.cache.get(key)
        timer.finish()
        error = self.cache.take_last_error()
        if error is not None:
            diagnostics.warn(error, phase="cache")
        if cached is None:
            diagnostics.bump("cache_misses")
            return None
        diagnostics.bump("cache_hits")
        name = sym(cached.name)
        compiled = CompiledFunction(
            name=name,
            code=cached.code,
            optimized_source=cached.optimized_source,
            transcript=Transcript(),
            lambda_node=None,
        )
        self.program.add(name, cached.code)
        self.functions[name] = compiled
        return compiled

    def _cache_store(self, key: str, compiled: CompiledFunction,
                     diagnostics: Diagnostics) -> None:
        self.cache.put(key, CachedFunction(
            name=str(compiled.name),
            code=compiled.code,
            optimized_source=compiled.optimized_source,
        ))
        error = self.cache.take_last_error()
        if error is not None:
            diagnostics.warn(error, phase="cache")
        else:
            diagnostics.bump("cache_stores")

    def _toplevel_definition_kind(self, form: Any) -> Optional[str]:
        if isinstance(form, Cons) and form.car is sym("defun"):
            return "defun"
        if isinstance(form, Cons) and form.car in (sym("defvar"),
                                                   sym("defparameter")):
            return "defvar"
        return None

    def _define_variable(self, form: Any) -> Symbol:
        """A top-level ``defvar``/``defparameter``: proclaim the name
        special and evaluate its initial value now."""
        parts = to_list(form.cdr)
        name = parts[0]
        self.converter.proclaimed_specials.add(name)
        if len(parts) > 1:
            # Load-time evaluation of the initial value (it may be a
            # quoted constant or any computation over earlier globals).
            init_value = self._loadtime_interpreter().eval_form(parts[1])
        else:
            init_value = NIL
        self.global_values[name] = init_value
        return name

    # The historical entry points, kept as thin projections of compile().

    def compile_source(self, text: str) -> List[Symbol]:
        """Compile every top-level form; returns the defined names."""
        return self.compile(text, expression=False).defined

    def compile_form(self, form: Any) -> Optional[Symbol]:
        """Compile one top-level defun/defvar form; returns its name."""
        result = self.compile(form, expression=False)
        return result.defined[-1] if result.defined else None

    def compile_expression(self, text: str,
                           name: str = "*toplevel*") -> CompilationResult:
        """Compile an expression as a zero-argument function.  The result's
        ``code``/``name``/``transcript``/``diagnostics`` describe it."""
        return self.compile(text, name=name, expression=True)

    def _loadtime_interpreter(self):
        """An interpreter seeded with the globals defined so far, used for
        evaluating defvar initial values at load time."""
        from .interp import Interpreter

        interp = Interpreter()
        interp.converter.proclaimed_specials |= \
            self.converter.proclaimed_specials
        for name, value in self.global_values.items():
            interp.specials.set_global(name, value)
        return interp

    # -- the pipeline ---------------------------------------------------------------

    def compile_lambda(self, name: Symbol, node: LambdaNode,
                       diagnostics: Diagnostics,
                       size: Optional[int] = None) -> CompiledFunction:
        """Run the pipeline after conversion on one lambda.  *size* is
        ``count_nodes(node)`` when the caller has already counted it."""
        fname = str(name)
        verifier = None
        if self.options.verify_ir:
            from .verify import PipelineVerifier

            verifier = PipelineVerifier(fname, diagnostics=diagnostics)
            verifier.check_tree(node, "ir conversion")
        transcript = Transcript(trace_rewrites=self.options.trace_rewrites)

        # Only the optimizer and CSE change the tree's size: it is counted
        # after each of them and the count reused at the other boundaries.
        if size is None:
            size = count_nodes(node)
        timer = diagnostics.start_phase("analysis", function=fname,
                                        nodes_before=size)
        analyze(node)
        timer.finish(nodes_after=size)
        if verifier is not None:
            verifier.check_tree(node, "analysis")

        if self.options.optimize:
            registry = dict(self.function_trees)
            if self.options.self_unroll_depth > 0:
                # Allow the function to integrate itself (loop unrolling):
                # register a *snapshot* of the pre-optimization tree under
                # its own name (the live tree mutates during optimization).
                from .ir import copy_tree

                snapshot = copy_tree(node)
                analyze_light(snapshot)
                registry[name] = snapshot
            optimizer = SourceOptimizer(self.options, transcript,
                                        global_functions=registry,
                                        diagnostics=diagnostics)
            timer = diagnostics.start_phase("optimizer", function=fname,
                                            nodes_before=size)
            node = optimizer.optimize(node)
            size = count_nodes(node)
            timer.finish(nodes_after=size)
            if not isinstance(node, LambdaNode):
                raise ConversionError(
                    f"{name}: optimization did not preserve the lambda")
            if verifier is not None:
                verifier.check_tree(node, "optimizer")
                verifier.check_roundtrip(
                    node, "optimizer", self.converter.proclaimed_specials)

        if self.options.enable_cse:
            from .optimizer.cse import eliminate_common_subexpressions

            timer = diagnostics.start_phase("cse", function=fname,
                                            nodes_before=size)
            node = eliminate_common_subexpressions(node, transcript)
            size = count_nodes(node)
            timer.finish(nodes_after=size)
            if not isinstance(node, LambdaNode):
                raise ConversionError(f"{name}: CSE did not preserve lambda")
            if verifier is not None:
                verifier.check_tree(node, "cse")
                verifier.check_roundtrip(
                    node, "cse", self.converter.proclaimed_specials)

        timer = diagnostics.start_phase("annotate", function=fname,
                                        nodes_before=size)
        analyze(node)
        plans = annotate(node, self.options)
        timer.finish(nodes_after=size)
        if verifier is not None:
            verifier.check_tree(node, "annotate")

        generator = FunctionCodegen(str(name), node, self.options, plans)
        codegen_start = time.perf_counter()
        code = generator.generate()
        codegen_seconds = time.perf_counter() - codegen_start
        # TNBIND/PACK runs inside generate(); the generator timed it so the
        # two Table 1 phases can be reported separately.
        diagnostics.record_phase(
            "tnbind", generator.tnbind_seconds, function=fname,
            nodes_before=generator.tns_packed,
            nodes_after=generator.tns_packed,
            started_s=generator.tnbind_started or None)
        diagnostics.record_phase(
            "codegen", codegen_seconds - generator.tnbind_seconds,
            function=fname, nodes_before=size,
            nodes_after=len(code.instructions),
            started_s=codegen_start)
        if verifier is not None:
            verifier.check_allocation(generator.tns, generator.packing,
                                      generator.target.registers, "tnbind")
            verifier.check_code(code, "codegen")

        if self.options.enable_peephole:
            from .codegen.peephole import optimize_code

            timer = diagnostics.start_phase(
                "peephole", function=fname,
                nodes_before=len(code.instructions))
            code, peephole_stats = optimize_code(code)
            timer.finish(nodes_after=len(code.instructions))
            diagnostics.record_rules(peephole_stats.as_rule_counts())
            if verifier is not None:
                verifier.check_code(code, "peephole")

        diagnostics.record_rules(transcript.rule_counts())
        diagnostics.record_rewrites(transcript.entries)

        compiled = CompiledFunction(
            name=name,
            code=code,
            optimized_source=back_translate_to_string(node),
            transcript=transcript,
            lambda_node=node,
        )
        self.program.add(name, code)
        self.functions[name] = compiled
        self.function_trees[name] = node
        return compiled

    def load_prelude(self) -> List[Symbol]:
        """Compile the bundled standard library (src/repro/prelude.lisp):
        mapcar1/filter/reduce1/sort-list and friends, written in the
        dialect itself.  Idempotent: repeated calls return the names from
        the first load instead of re-compiling every definition."""
        if self._prelude_names is None:
            self._prelude_names = self.compile_source(prelude_source())
        return list(self._prelude_names)

    # -- running ------------------------------------------------------------------------

    def machine(self, fuel: int = 50_000_000) -> Machine:
        from .machine.cpu import Machine
        from .target.machines import get_target

        target = get_target(self.options.target)
        machine = Machine(self.program, fuel=fuel,
                          cycle_costs=dict(target.cycles),
                          tier=self.options.tier,
                          timing=self.options.timing,
                          pipeline=target.pipeline)
        for name, value in self.global_values.items():
            machine.define_global(name, value)
        return machine

    def run(self, name: str, args: Sequence[Any] = (),
            fuel: int = 50_000_000) -> Any:
        """Compile-and-go convenience: run a compiled function."""
        return self.machine(fuel).run(sym(name), list(args))

    def phase_report(self) -> str:
        """Render the last compile() call's phase pipeline (Table 1
        reproduction) with its wall-clock timings."""
        return CompilationResult(
            diagnostics=self.last_diagnostics).phase_report()


def compile_and_run(source: str, call: str, args: Sequence[Any] = (),
                    options: Optional[CompilerOptions] = None
                    ) -> Tuple[Any, Machine]:
    """One-shot helper used heavily by tests and benchmarks: compile all
    defuns in *source*, run *call* with *args*, return (result, machine)."""
    compiler = Compiler(options)
    compiler.compile_source(source)
    machine = compiler.machine()
    result = machine.run(sym(call), list(args))
    return result, machine
