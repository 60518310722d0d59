"""Differential tests: compile+simulate must agree with the reference
interpreter on a broad set of programs, in every compiler configuration.

This is the library's core correctness argument: the optimizing pipeline
(source transformations, representation analysis, pdl numbers, TNBIND,
closure analysis) and the naive configuration must all compute exactly what
the interpreter computes.
"""

import pytest

from repro import Compiler, CompilerOptions, Interpreter, compile_and_run, naive_options
from repro.cache import CompilationCache
from repro.datum import NIL, T, from_list, lisp_equal, sym
from repro.errors import ReproError

from .genprog import corpus


def interp_result(source, fn, args):
    interp = Interpreter()
    interp.eval_source(source)
    return interp.apply_function(interp.global_functions[sym(fn)], args)


def approx_lisp_equal(a, b, rel=1e-6):
    """Structural equality with a float tolerance: the compiler's sin$f ->
    sinc$f rewrite uses the paper's truncated 1/2pi constant, so float
    results may differ in the last bits (by design, Section 7)."""
    from repro.datum import Cons

    if isinstance(a, float) and isinstance(b, float):
        return a == pytest.approx(b, rel=rel, abs=1e-12)
    if isinstance(a, Cons) and isinstance(b, Cons):
        return approx_lisp_equal(a.car, b.car, rel) and \
            approx_lisp_equal(a.cdr, b.cdr, rel)
    return lisp_equal(a, b)


def check(source, fn, args, options=None):
    expected = interp_result(source, fn, args)
    got, machine = compile_and_run(source, fn, args, options)
    assert approx_lisp_equal(expected, got), (
        f"{fn}{tuple(args)}: interpreter={expected!r} machine={got!r}")
    return got, machine


CONFIGS = [
    pytest.param(None, id="optimizing"),
    pytest.param(naive_options(), id="naive"),
    pytest.param(CompilerOptions(enable_representation_analysis=False),
                 id="no-reps"),
    pytest.param(CompilerOptions(enable_pdl_numbers=False), id="no-pdl"),
    pytest.param(CompilerOptions(enable_tnbind=False), id="no-tnbind"),
    pytest.param(CompilerOptions(enable_closure_analysis=False),
                 id="no-closures"),
    pytest.param(CompilerOptions(optimize=False), id="no-opt"),
    pytest.param(CompilerOptions(enable_cse=True), id="with-cse"),
    pytest.param(CompilerOptions(enable_type_specialization=True),
                 id="type-spec"),
    pytest.param(CompilerOptions(enable_global_integration=True,
                                 self_unroll_depth=1),
                 id="block-compile"),
    pytest.param(CompilerOptions(enable_peephole=True), id="peephole"),
]


PROGRAMS = [
    # (id, source, fn, args, )
    ("arith", "(defun f (a b) (+ (* a b) (- a b)))", "f", [7, 3]),
    ("rational", "(defun f (a b) (/ a b))", "f", [1, 3]),
    ("float", "(defun f (x) (+$f (*$f x x) 1.0))", "f", [3.0]),
    ("declared-float",
     "(defun f (x) (declare (single-float x)) (*$f x 2.0))", "f", [1.5]),
    ("generic-on-floats", "(defun f (x y) (* (+ x y) (- x y)))", "f",
     [2.5, 0.5]),
    ("exptl", """
        (defun f (x n a)
          (cond ((zerop n) a)
                ((oddp n) (f (* x x) (floor (/ n 2)) (* a x)))
                (t (f (* x x) (floor (/ n 2)) a))))
     """, "f", [3, 5, 1]),
    ("let-shadow", "(defun f (x) (let ((x (* x 2))) (let ((x (+ x 1))) x)))",
     "f", [10]),
    ("setq", "(defun f (x) (let ((y 0)) (setq y (+ x 1)) (* y y)))", "f", [4]),
    ("if-chain", """
        (defun f (x)
          (cond ((< x 0) 'neg) ((= x 0) 'zero) ((< x 10) 'small) (t 'big)))
     """, "f", [5]),
    ("and-or", "(defun f (a b c) (if (and a (or b c)) 'yes 'no))", "f",
     [T, NIL, 7]),
    ("and-or-false", "(defun f (a b c) (if (and a (or b c)) 'yes 'no))", "f",
     [T, NIL, NIL]),
    ("list-ops", """
        (defun f (lst) (cons (car lst) (reverse (cdr lst))))
     """, "f", [from_list([1, 2, 3, 4])]),
    ("length", "(defun f (lst) (length lst))", "f", [from_list([1, 2, 3])]),
    ("recursion", "(defun f (n) (if (zerop n) 1 (* n (f (- n 1)))))", "f",
     [8]),
    ("mutual", """
        (defun f (n) (if (zerop n) 'even (g (- n 1))))
        (defun g (n) (if (zerop n) 'odd (f (- n 1))))
     """, "f", [9]),
    ("optionals-none", "(defun f (a &optional (b 3) (c a)) (list a b c))",
     "f", [1]),
    ("optionals-some", "(defun f (a &optional (b 3) (c a)) (list a b c))",
     "f", [1, 2]),
    ("optionals-all", "(defun f (a &optional (b 3) (c a)) (list a b c))",
     "f", [1, 2, 9]),
    ("optional-computed-default",
     "(defun f (a &optional (b (* a a))) (+ a b))", "f", [5]),
    ("rest", "(defun f (a &rest r) (cons a r))", "f", [1, 2, 3]),
    ("rest-empty", "(defun f (a &rest r) (cons a r))", "f", [1]),
    ("optional-plus-rest",
     "(defun f (a &optional (b 3) (c (* b 2)) &rest m) (list a b c m))",
     "f", [1, 2, 9, 4, 5]),
    ("optional-plus-rest-defaults",
     "(defun f (a &optional (b 3) (c (* b 2)) &rest m) (list a b c m))",
     "f", [1]),
    ("optional-plus-rest-boundary",
     "(defun f (a &optional b &rest m) (list a b m))",
     "f", [1, 2]),
    ("closure", """
        (defun make-adder (n) (lambda (x) (+ x n)))
        (defun f (k) (funcall (make-adder k) 100))
     """, "f", [11]),
    ("counter-closure", """
        (defun make-counter ()
          (let ((n 0)) (lambda () (setq n (+ n 1)) n)))
        (defun f ()
          (let ((c (make-counter)))
            (funcall c) (funcall c) (funcall c)))
     """, "f", []),
    ("two-closures-share", """
        (defun make-pair ()
          (let ((n 0))
            (cons (lambda () (setq n (+ n 1)) n)
                  (lambda () n))))
        (defun f ()
          (let ((p (make-pair)))
            (funcall (car p))
            (funcall (car p))
            (funcall (cdr p))))
     """, "f", []),
    ("higher-order", """
        (defun twice (g x) (funcall g (funcall g x)))
        (defun f (x) (twice (lambda (y) (* y 3)) x))
     """, "f", [2]),
    ("function-value", "(defun f (x) (funcall #'1+ x))", "f", [41]),
    ("apply", "(defun f (lst) (apply #'+ 1 lst))", "f",
     [from_list([2, 3, 4])]),
    ("prog-loop", """
        (defun f (n)
          (prog (acc)
            (setq acc 1)
            loop
            (if (zerop n) (return acc))
            (setq acc (* acc n))
            (setq n (- n 1))
            (go loop)))
     """, "f", [6]),
    ("do-loop", "(defun f (n) (do ((i 0 (1+ i)) (s 0 (+ s i))) ((= i n) s)))",
     "f", [10]),
    ("dotimes", """
        (defun f (n) (let ((s 0)) (dotimes (i n s) (setq s (+ s i)))))
     """, "f", [7]),
    ("dolist", """
        (defun f (lst) (let ((s 0)) (dolist (x lst s) (setq s (+ s x)))))
     """, "f", [from_list([5, 6, 7])]),
    ("caseq", "(defun f (x) (caseq x ((1 2) 'few) ((3) 'three) (t 'many)))",
     "f", [3]),
    ("caseq-default",
     "(defun f (x) (caseq x ((1 2) 'few) ((3) 'three) (t 'many)))",
     "f", [99]),
    ("catch-throw", """
        (defun inner (x) (if (< x 0) (throw 'neg 'was-negative) x))
        (defun f (x) (catch 'neg (+ 1 (inner x))))
     """, "f", [-5]),
    ("catch-no-throw", """
        (defun inner (x) (if (< x 0) (throw 'neg 'was-negative) x))
        (defun f (x) (catch 'neg (+ 1 (inner x))))
     """, "f", [5]),
    ("specials", """
        (defvar *depth* 0)
        (defun probe () *depth*)
        (defun f (*depth*) (+ (probe) 1))
     """, "f", [10]),
    ("special-rebind", """
        (defvar *x* 1)
        (defun probe () *x*)
        (defun bind2 (*x*) (probe))
        (defun f () (+ (bind2 10) (probe)))
     """, "f", []),
    ("special-setq", """
        (defvar *acc* 0)
        (defun bump (n) (setq *acc* (+ *acc* n)) *acc*)
        (defun f () (bump 3) (bump 4) *acc*)
     """, "f", []),
    ("vector", """
        (defun f (n)
          (let ((v (make-vector n 0)))
            (dotimes (i n) (vset v i (* i i)))
            (vref v (- n 1))))
     """, "f", [5]),
    ("string", "(defun f () (stringp \"hello\"))", "f", []),
    ("eql-numbers", "(defun f (x) (eql x 3))", "f", [3]),
    ("quadratic", """
        (defun f (a b c)
          (let ((d (- (* b b) (* 4.0 a c))))
            (cond ((< d 0) '())
                  ((= d 0) (list (/ (- b) (* 2.0 a))))
                  (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))
                       (list (/ (+ (- b) sd) two-a)
                             (/ (- (- b) sd) two-a)))))))
     """, "f", [1.0, -3.0, 2.0]),
    ("testfn", """
        (defun frotz (d e m) (list d e m))
        (defun f (a &optional (b 3.0) (c a))
          (let ((d (+$f a b c)) (e (*$f a b c)))
            (let ((q (sin$f e)))
              (frotz d e (max$f d e))
              q)))
     """, "f", [0.25]),
    ("sin-cycles", "(defun f (x) (sin$f x))", "f", [0.5]),
    ("deep-let", """
        (defun f (x)
          (let ((a (+ x 1)))
            (let ((b (* a 2)))
              (let ((c (- b 3)))
                (let ((d (+ c a)))
                  (list a b c d))))))
     """, "f", [10]),
    ("nested-if-value", """
        (defun f (x y) (+ 1 (if (< x y) (if (zerop x) 10 20) 30)))
     """, "f", [0, 5]),
    ("progn-effects", """
        (defvar *log* 0)
        (defun f (x) (progn (setq *log* 1) (setq *log* (+ *log* x)) *log*))
     """, "f", [5]),
    ("assoc", """
        (defun f (k) (cadr (assoc k '((a 1) (b 2) (c 3)))))
     """, "f", [sym("b")]),
    ("gcd-bignum", "(defun f (a b) (gcd a b))", "f", [2**64, 2**40]),
    ("negative-sqrt-complex", "(defun f (x) (sqrt x))", "f", [-4]),
]


@pytest.mark.parametrize("options", CONFIGS)
@pytest.mark.parametrize("source,fn,args",
                         [p[1:] for p in PROGRAMS],
                         ids=[p[0] for p in PROGRAMS])
def test_compiled_matches_interpreted(source, fn, args, options):
    check(source, fn, args, options)


class TestGeneratedDifferentialSweep:
    """The cache-hardening sweep: for a seeded random corpus, the reference
    interpreter, a cold compile, and a cache-hit compile must agree -- on
    every registered target.  (The corpus generator only emits total,
    deterministic integer programs, so plain equality is the right
    oracle.)  The cold compile runs with the phase-boundary sanitizer on:
    a verification failure anywhere in the sweep fails the test."""

    SWEEP = corpus(50, base_seed=7)

    @pytest.mark.parametrize("target", ["s1", "vax", "pdp10"])
    def test_interpreter_vs_compiled_vs_cached(self, target, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        options = CompilerOptions(target=target, verify_ir=True)
        for index, (source, fn, args) in enumerate(self.SWEEP):
            expected = interp_result(source, fn, args)

            cold = Compiler(options, cache=cache)
            cold.compile_source(source)
            cold_result = cold.run(fn, args)
            assert lisp_equal(expected, cold_result), (
                f"[{target} #{index}] interpreter={expected!r} "
                f"cold={cold_result!r}\n{source}")

            warm = Compiler(options, cache=cache)
            warm.compile_source(source)
            assert warm.last_diagnostics.counters.get("cache_hits", 0) >= 1, (
                f"[{target} #{index}] expected a cache hit\n{source}")
            warm_result = warm.run(fn, args)
            assert lisp_equal(expected, warm_result), (
                f"[{target} #{index}] interpreter={expected!r} "
                f"cached={warm_result!r}\n{source}")

    def test_sweep_is_reproducible(self):
        again = corpus(50, base_seed=7)
        assert again == self.SWEEP


class TestSanitizedDifferentialSweep:
    """A seeded random corpus compiled with the phase-boundary sanitizer
    on must compute what the reference interpreter computes, on every
    registered target."""

    SWEEP = corpus(50, base_seed=0)

    @pytest.mark.parametrize("target", ["s1", "vax", "pdp10"])
    def test_interpreter_vs_compiled(self, target):
        for index, (source, fn, args) in enumerate(self.SWEEP):
            expected = interp_result(source, fn, args)
            compiler = Compiler(CompilerOptions(target=target,
                                                verify_ir=True))
            compiler.compile_source(source)
            got = compiler.run(fn, args)
            assert lisp_equal(expected, got), (
                f"[{target} #{index}] "
                f"interpreter={expected!r} compiled={got!r}\n{source}")


class TestTailCallBehavior:
    def test_deep_tail_recursion_constant_stack(self):
        source = """
            (defun loopy (n) (if (zerop n) 'done (loopy (- n 1))))
        """
        result, machine = compile_and_run(source, "loopy", [100000])
        assert result is sym("done")
        assert machine.max_stack < 64

    def test_mutual_tail_recursion(self):
        source = """
            (defun even? (n) (if (zerop n) t (odd? (- n 1))))
            (defun odd? (n) (if (zerop n) nil (even? (- n 1))))
        """
        result, machine = compile_and_run(source, "even?", [50000])
        assert result is T
        assert machine.max_stack < 64

    def test_without_tail_calls_stack_grows(self):
        source = "(defun loopy (n) (if (zerop n) 'done (loopy (- n 1))))"
        options = CompilerOptions(enable_tail_calls=False)
        _, machine = compile_and_run(source, "loopy", [1000], options)
        assert machine.max_stack > 1000

    def test_non_tail_recursion_grows_in_both(self):
        source = "(defun fact (n) (if (zerop n) 1 (* n (fact (- n 1)))))"
        _, machine = compile_and_run(source, "fact", [200])
        assert machine.max_stack > 200


class TestCompilerErrors:
    def test_wrong_arg_count_traps(self):
        from repro.errors import WrongNumberOfArgumentsError

        compiler = Compiler()
        compiler.compile_source("(defun f (a b) (+ a b))")
        with pytest.raises(WrongNumberOfArgumentsError):
            compiler.run("f", [1])

    def test_type_error_traps(self):
        compiler = Compiler()
        compiler.compile_source("(defun f (x) (car x))")
        with pytest.raises(ReproError):
            compiler.run("f", [42])

    def test_unbound_special_traps(self):
        compiler = Compiler()
        compiler.compile_source("(defun f () *never-bound*)")
        with pytest.raises(ReproError):
            compiler.run("f", [])

    def test_only_defuns_at_toplevel(self):
        from repro.errors import ConversionError

        compiler = Compiler()
        with pytest.raises(ConversionError):
            compiler.compile_source("(+ 1 2)")


class TestCompilerArtifacts:
    def test_listing_is_renderable(self):
        compiler = Compiler()
        compiler.compile_source("(defun f (x) (+ x 1))")
        listing = compiler.functions[sym("f")].listing()
        assert ";;; f" in listing
        assert "(RET" in listing

    def test_phase_report(self):
        compiler = Compiler()
        compiler.compile_source("(defun f (x) x)")
        report = compiler.phase_report()
        assert "source-level optimization" in report
        assert "TNBIND" in report

    def test_optimized_source_is_back_translated(self):
        compiler = Compiler()
        compiler.compile_source("(defun f (x) (+ x 0))")
        assert compiler.functions[sym("f")].optimized_source == "(lambda (x) x)"

    def test_compile_expression(self):
        compiler = Compiler()
        compiled = compiler.compile_expression("(+ 1 2 3)")
        assert compiler.run("*toplevel*", []) == 6
        assert compiled.code.name == "*toplevel*"


class TestPdlTailCallLifetime:
    """Regression: a pdl-boxed number passed as a *tail call* argument
    would dangle when the frame is replaced (found by the mini-MACSYMA
    example).  The annotation must not authorize it; the runtime certifies
    any that slip through."""

    SOURCE = """
        (defun accumulate (rev x acc)
          (declare (single-float x) (single-float acc))
          (if (null rev)
              acc
              (accumulate (cdr rev) x (+$f (*$f acc x) (float (car rev))))))
    """

    def test_tail_call_with_float_argument(self):
        from repro.datum import from_list

        result, machine = compile_and_run(
            self.SOURCE, "accumulate", [from_list([1, 2, 3]), 2.0, 0.0])
        # Horner over reversed (1 2 3): ((0*2+1)*2+2)*2+3 = 11
        assert result == pytest.approx(11.0)
        assert machine.max_stack < 32  # still a real tail call

    def test_static_rule_prevents_pdl_args_on_tail_calls(self):
        from repro.analysis import analyze
        from repro.annotate import annotate_pdl, annotate_representations, pdl_sites
        from repro.ir import convert_source

        tree = convert_source(
            "(lambda (x) (frotz (+$f x 1.0)))")
        analyze(tree)
        annotate_representations(tree)
        annotate_pdl(tree)
        # The frotz call is in tail position: its boxed argument must NOT
        # be a pdl site.
        assert pdl_sites(tree) == []

    def test_non_tail_call_still_gets_pdl(self):
        from repro.analysis import analyze
        from repro.annotate import annotate_pdl, annotate_representations, pdl_sites
        from repro.ir import convert_source

        tree = convert_source(
            "(lambda (x) (progn (frotz (+$f x 1.0)) nil))")
        analyze(tree)
        annotate_representations(tree)
        annotate_pdl(tree)
        assert len(pdl_sites(tree)) == 1


class TestThreeWayTierSweep:
    """The native-tier correctness gate: for a seeded random corpus the
    reference interpreter, the cycle-honest simulator, and the native
    (translated-to-Python) tier must agree on every program, on every
    registered target.  The harness compiles each program once per target
    and runs the same CodeObjects under both tiers, so a disagreement
    here is an execution-engine bug, not a compilation difference."""

    def test_interpreter_vs_simulator_vs_native(self):
        from repro.fuzz import run_fuzz

        report = run_fuzz(base_seed=1000, count=200,
                          tiers=("simulate", "native"))
        assert report.tiers == ("simulate", "native")
        assert report.compilations == 600        # 200 programs x 3 targets
        assert report.ok, "\n" + report.render()

    def test_tier_stats_agree_on_corpus_sample(self):
        # Beyond results: the native tier's accounting totals must match
        # the simulator exactly for completed runs (documented contract).
        for source, fn, args in corpus(25, base_seed=31):
            compiler = Compiler()
            compiler.compile_source(source)
            sim = compiler.machine()
            nat = compiler.machine()
            nat.tier = "native"
            expected = sim.run(sym(fn), list(args))
            got = nat.run(sym(fn), list(args))
            assert lisp_equal(expected, got), source
            assert sim.instructions == nat.instructions, source
            assert sim.cycles == nat.cycles, source
            assert dict(sim.opcode_counts) == dict(nat.opcode_counts), source
            assert sim.call_count == nat.call_count, source
            assert sim.max_stack == nat.max_stack, source


class TestTimingModelSweep:
    """The timing-model non-semantics gate: for a seeded random corpus the
    interpreter, the simulator, and the native tier must agree on every
    program under *both* timing models, on every registered target -- with
    identical instruction and opcode totals across the whole (timing,
    tier) grid.  Only ``cycles`` may differ, and only along the timing
    axis: within a timing model both tiers still charge identical cycles."""

    def test_fuzz_timing_axis(self):
        from repro.fuzz import run_fuzz

        report = run_fuzz(base_seed=2000, count=60,
                          tiers=("simulate", "native"),
                          timings=("single", "pipelined"))
        assert report.timings == ("single", "pipelined")
        assert report.compilations == 180        # 60 programs x 3 targets
        assert report.ok, "\n" + report.render()

    @pytest.mark.parametrize("target", ["s1", "vax", "pdp10"])
    def test_grid_stats_on_corpus_sample(self, target):
        # The explicit grid: one compilation, four runs (2 timings x 2
        # tiers), every non-cycle statistic equal everywhere, and
        # pipelined cycles decomposing exactly into the single-cycle
        # total plus the attributed stalls.
        for source, fn, args in corpus(10, base_seed=47):
            expected = interp_result(source, fn, args)
            compiler = Compiler(CompilerOptions(target=target))
            compiler.compile_source(source)
            grid = {}
            for timing in ("single", "pipelined"):
                for tier in ("simulate", "native"):
                    machine = compiler.machine()
                    machine.tier = tier
                    machine.set_timing(timing)
                    got = machine.run(sym(fn), list(args))
                    assert lisp_equal(expected, got), (timing, tier, source)
                    grid[(timing, tier)] = machine.stats()
            baseline = grid[("single", "simulate")]
            for key, stats in grid.items():
                assert stats["instructions"] == baseline["instructions"], \
                    (key, source)
                assert stats["opcodes"] == baseline["opcodes"], (key, source)
            assert grid[("single", "native")]["cycles"] == \
                baseline["cycles"], source
            for tier in ("simulate", "native"):
                piped = grid[("pipelined", tier)]
                assert piped["base_cycles"] == baseline["cycles"], \
                    (tier, source)
                assert piped["base_cycles"] \
                    + sum(piped["stall_cycles"].values()) \
                    == piped["cycles"], (tier, source)
            assert grid[("pipelined", "simulate")]["cycles"] == \
                grid[("pipelined", "native")]["cycles"], source
