"""Tests for the source-level optimizer (Section 5)."""


from repro.datum import sym
from repro.ir import (
    CallNode,
    FunctionRefNode,
    IfNode,
    LambdaNode,
    LiteralNode,
    PrognNode,
    VarRefNode,
    back_translate_to_string,
    convert_source,
)
from repro.options import CompilerOptions
from repro.optimizer import SourceOptimizer, Transcript, meta


def opt(text, **option_overrides):
    options = CompilerOptions(**option_overrides)
    optimizer = SourceOptimizer(options)
    result = optimizer.optimize(convert_source(text))
    return result, optimizer


def opt_text(text, **option_overrides):
    result, optimizer = opt(text, **option_overrides)
    return back_translate_to_string(result), optimizer


class TestBetaRule1:
    def test_call_lambda_no_args(self):
        result, _ = opt("((lambda () 42))")
        assert isinstance(result, LiteralNode)
        assert result.value == 42

    def test_nested(self):
        result, _ = opt("((lambda () ((lambda () 'x))))")
        assert isinstance(result, LiteralNode)


class TestBetaRule2:
    def test_unused_pure_argument_dropped(self):
        result, optimizer = opt("((lambda (a b) a) x (+ 1 2))")
        assert "META-DROP-UNUSED-ARGUMENT" in optimizer.rules_fired()
        text = back_translate_to_string(result)
        assert "b" not in text.split()  # parameter gone

    def test_unused_allocation_dropped(self):
        # cons allocates: "may be eliminated but must not be duplicated".
        result, optimizer = opt("((lambda (a b) a) x (cons 1 2))")
        text = back_translate_to_string(result)
        assert "cons" not in text

    def test_side_effecting_argument_kept(self):
        result, _ = opt("((lambda (a b) a) x (rplaca p 1))")
        text = back_translate_to_string(result)
        assert "rplaca" in text

    def test_unknown_call_argument_kept(self):
        result, _ = opt("((lambda (a b) a) x (frotz))")
        assert "frotz" in back_translate_to_string(result)


class TestBetaRule3Substitution:
    def test_constant_propagation(self):
        result, optimizer = opt("((lambda (k) (+ k k)) 3)")
        # After substitution + folding: literal 6.
        assert isinstance(result, LiteralNode)
        assert result.value == 6
        assert "META-SUBSTITUTE" in optimizer.rules_fired()

    def test_variable_renaming(self):
        result, _ = opt("(lambda (x) ((lambda (y) (* y y)) x))")
        text = back_translate_to_string(result)
        assert text == "(lambda (x) (* x x))"

    def test_pure_single_use_expression_substituted(self):
        result, _ = opt("(lambda (a) ((lambda (d) (frotz d)) (+ a 1)))")
        text = back_translate_to_string(result)
        # The constant also migrates to the front (argument reversal).
        assert text == "(lambda (a) (frotz (+ 1 a)))"

    def test_impure_expression_not_substituted(self):
        text, _ = opt_text("(lambda (p) ((lambda (d) (frotz d)) (rplaca p 1)))")
        # rplaca must stay put as the argument, not move into frotz.
        assert "(lambda (d)" in text

    def test_large_pure_multi_use_not_duplicated(self):
        big = "(+ (g1) 1)"  # unknown call: not duplicable anyway
        text, _ = opt_text(f"(lambda () ((lambda (d) (+ d d)) {big}))")
        assert "(lambda (d)" in text

    def test_multi_use_not_duplicated_by_default(self):
        # "Right now the heuristics for introduction are relatively
        # conservative" -- a multiply is not copied into two use sites.
        text, _ = opt_text("(lambda (a) ((lambda (d) (list d d)) (* a 2)))")
        assert "(lambda (d)" in text

    def test_multi_use_duplicated_with_liberal_limit(self, monkeypatch):
        monkeypatch.setattr(meta, "SUBSTITUTION_SIZE_LIMIT", 20)
        text, _ = opt_text("(lambda (a) ((lambda (d) (list d d)) (* a 2)))")
        assert "(lambda (d)" not in text
        assert text.count("(* 2 a)") == 2

    def test_trivial_multi_use_always_substituted(self):
        text, _ = opt_text("(lambda (a) ((lambda (d) (list d d)) a))")
        assert text == "(lambda (a) (list a a))"

    def test_assigned_variable_not_substituted(self):
        text, _ = opt_text(
            "(lambda (a) ((lambda (d) (setq d 5) d) (* a 2)))")
        assert "setq" in text

    def test_procedure_integration(self):
        result, optimizer = opt(
            "((lambda (f) (f 5)) (lambda (x) (* x x)))")
        assert isinstance(result, LiteralNode)
        assert result.value == 25

    def test_allocation_single_ref_stays_if_not_lambda(self):
        # (cons 1 2) may not be duplicated; with one ref our conservative
        # rule still declines to move it (evaluation-order discipline).
        text, _ = opt_text("(lambda () ((lambda (d) (frotz d)) (cons 1 2)))")
        assert "(lambda (d)" in text


class TestConstantFolding:
    def test_fold_arithmetic(self):
        result, _ = opt("(+ 1 2 3)")
        assert isinstance(result, LiteralNode)
        assert result.value == 6

    def test_fold_nested(self):
        result, _ = opt("(* (+ 1 2) (- 5 1))")
        assert result.value == 12

    def test_fold_comparison(self):
        result, _ = opt("(< 1 2)")
        assert result.value is sym("t")

    def test_no_fold_on_error(self):
        text, _ = opt_text("(/ 1 0)")
        assert "(/ 1 0)" in text  # left for run time to signal

    def test_no_fold_allocating(self):
        text, _ = opt_text("(cons 1 2)")
        assert "cons" in text

    def test_fold_predicates(self):
        result, _ = opt("(zerop 0)")
        assert result.value is sym("t")

    def test_fold_through_if(self):
        result, _ = opt("(if (zerop 0) (+ 1 1) (frotz))")
        assert isinstance(result, LiteralNode)
        assert result.value == 2


class TestDeadCode:
    def test_if_true_constant(self):
        result, _ = opt("(if t (f) (g))")
        text = back_translate_to_string(result)
        assert "g" not in text

    def test_if_nil_constant(self):
        result, _ = opt("(if nil (f) (g))")
        text = back_translate_to_string(result)
        assert "(g)" in text

    def test_if_number_is_true(self):
        text, _ = opt_text("(if 42 'yes 'no)")
        assert text == "'yes"

    def test_dead_caseq(self):
        text, _ = opt_text("(caseq 2 ((1) (f)) ((2) (g)) (t (h)))")
        assert text == "(g)"

    def test_dead_caseq_default(self):
        text, _ = opt_text("(caseq 9 ((1) (f)) (t (h)))")
        assert text == "(h)"

    def test_progn_drops_pure_forms(self):
        text, _ = opt_text("(lambda (x) (progn (* x x) (f x)))")
        assert "(* x x)" not in text

    def test_progn_keeps_effects(self):
        text, _ = opt_text("(lambda (x) (progn (frotz) (f x)))")
        assert "frotz" in text


class TestAssocCommut:
    def test_nary_reduced_to_binary_paper_order(self):
        # Section 7: (+$f a b c) => (+$f (+$f c b) a)
        text, optimizer = opt_text("(lambda (a b c) (+$f a b c))")
        assert "(+$f (+$f c b) a)" in text
        assert "META-EVALUATE-ASSOC-COMMUT-CALL" in optimizer.rules_fired()

    def test_identity_eliminated(self):
        text, _ = opt_text("(lambda (x) (* x 1))")
        assert text == "(lambda (x) x)"

    def test_add_zero_eliminated(self):
        text, _ = opt_text("(lambda (x) (+ x 0))")
        assert text == "(lambda (x) x)"

    def test_all_identities_fold_to_identity(self):
        result, _ = opt("(+ 0 0)")
        assert result.value == 0

    def test_constants_merged(self):
        text, _ = opt_text("(lambda (x) (+ 2 x 3))")
        assert "(+ 5 x)" in text

    def test_reverse_constant_to_front(self):
        # Section 7: (*$f e 0.159154942) => (*$f 0.159154942 e)
        text, optimizer = opt_text("(lambda (e) (*$f e 0.5))")
        assert "(*$f 0.5 e)" in text
        assert "CONSIDER-REVERSING-ARGUMENTS" in optimizer.rules_fired()

    def test_noncommutative_not_reversed(self):
        text, _ = opt_text("(lambda (e) (-$f e 0.5))")
        assert "(-$f e 0.5)" in text


class TestSinToSinc:
    def test_sin_becomes_sinc_with_factor(self):
        text, optimizer = opt_text("(lambda (e) (sin$f e))")
        assert "sinc$f" in text
        assert "0.159154942" in text
        # The constant migrates to the front via argument reversal.
        assert "(*$f 0.159154942 e)" in text
        assert "META-SIN-TO-SINC" in optimizer.rules_fired()

    def test_disabled(self):
        # The VAX's sine takes radians: the rewrite would be useless there.
        text, _ = opt_text("(lambda (e) (sin$f e))", target="vax")
        assert "sinc$f" not in text


class TestIfDistribution:
    def test_if_if_fires(self):
        _, optimizer = opt("(lambda (x y z) (if (if x y z) (f) (g)))")
        assert "META-IF-IF" in optimizer.rules_fired()

    def test_boolean_short_circuit_shape(self):
        """Section 5's derivation: (if (and a (or b c)) e1 e2) reduces to
        straight-line conditional structure with thunk calls."""
        text, optimizer = opt_text(
            "(lambda (a b c) (if (and a (or b c)) (f1x) (f2x)))")
        fired = optimizer.rules_fired()
        assert "META-IF-IF" in fired
        # No and/or remain (they were macroexpanded), and the constant-false
        # inner arm was eliminated.
        assert "and" not in text
        assert "(if nil" not in text

    def test_if_same_test(self):
        text, _ = opt_text("(lambda (b) (if b (if b (f) (g)) (h)))")
        assert text == "(lambda (b) (if b (f) (h)))"

    def test_if_same_test_else_arm(self):
        text, _ = opt_text("(lambda (b) (if b (f) (if b (g) (h))))")
        assert text == "(lambda (b) (if b (f) (h)))"

    def test_if_let_test_hoists(self):
        _, optimizer = opt(
            "(lambda (b c) (if ((lambda (v) (if v v c)) (frotz b)) (f) (g)))")
        assert "META-IF-LET-TEST" in optimizer.rules_fired()

    def test_if_progn_test(self):
        text, _ = opt_text("(lambda (p) (if (progn (frotz) p) (f) (g)))")
        assert "(progn (frotz) (if p (f) (g)))" in text


class TestPaperSection7Transcript:
    """The testfn worked example's transformations (E5 experiment)."""

    TESTFN = """
        (lambda (a &optional (b 3.0) (c a))
          (let ((d (+$f a b c)) (e (*$f a b c)))
            (let ((q (sin$f e)))
              (frotz d e (max$f d e))
              q)))
    """

    def test_transcript_rules(self):
        result, optimizer = opt(self.TESTFN)
        fired = optimizer.rules_fired()
        assert "META-EVALUATE-ASSOC-COMMUT-CALL" in fired
        assert "CONSIDER-REVERSING-ARGUMENTS" in fired
        assert "META-SUBSTITUTE" in fired
        assert "META-CALL-LAMBDA" in fired
        assert "META-SIN-TO-SINC" in fired

    def test_final_shape(self):
        """Section 7's resulting program:

        (lambda (a &optional (b 3.0) (c a))
          ((lambda (d e)
             (progn (frotz d e (max$f d e))
                    (sinc$f (*$f 0.159154942 e))))
           (+$f (+$f c b) a)
           (*$f (*$f c b) a)))
        """
        result, _ = opt(self.TESTFN)
        text = back_translate_to_string(result)
        # Binary reassociation of the paper: (+$f (+$f c b) a)
        assert "(+$f (+$f c b) a)" in text
        assert "(*$f (*$f c b) a)" in text
        # d and e keep their bindings (used more than once, not duplicated).
        assert "(lambda (d e)" in text
        # sin moved past frotz: progn of frotz-call then sinc.
        assert "(progn (frotz d e (max$f d e))" in text
        assert "(sinc$f (*$f 0.159154942 e))" in text
        # q's binding is gone entirely.
        assert "(lambda (q)" not in text

    def test_code_motion_past_frotz_is_semantically_safe(self):
        """frotz 'cannot affect the variable e because e is lexically
        scoped' -- the sinc call may move after the frotz call."""
        result, _ = opt(self.TESTFN)
        text = back_translate_to_string(result)
        frotz_at = text.index("frotz")
        sinc_at = text.index("sinc$f")
        assert frotz_at < sinc_at


class TestOptimizerPreservesStructure:
    def test_parents_consistent_after_optimization(self):
        result, _ = opt(
            "(lambda (a b c) (if (and a (or b c)) (f1x) (f2x)))")
        for node in result.walk():
            for child in node.children():
                assert child.parent is node

    def test_disabled_optimizer_is_identity(self):
        tree = convert_source("((lambda (x) (+ x 0)) 5)")
        options = CompilerOptions(optimize=False)
        result = SourceOptimizer(options).optimize(tree)
        assert result is tree

    def test_transcript_renders_paper_style(self):
        _, optimizer = opt("(lambda (a b c) (+$f a b c))")
        text = optimizer.transcript.render()
        assert ";**** Optimizing this form:" in text
        assert "courtesy of META-EVALUATE-ASSOC-COMMUT-CALL" in text




class TestRuleTable:
    """The engine offers a node only the enabled rules indexed under its
    class.  SAMPLE has, for every rule, a node where it fires."""

    OPTIONS = CompilerOptions(enable_type_specialization=True,
                              enable_global_integration=True)
    SAMPLE = """
        (lambda (x &optional (y (+ x 1)))
          (catch 'k
            (caseq 2
              ((1) (prog (i) (setq i 0) l (if (> i 2) (return i)) (go l) (f i)))
              (t (progn 1
                        (prog () (f x))
                        ((lambda () (f x)))
                        ((lambda (a b) (g a)) x (+ x 0))
                        (if nil 1 2)
                        (if x (if x 1 2) 3)
                        (if (progn (f) x) 1 2)
                        (if ((lambda (a) a) x) 1 2)
                        (if (if x y 2) 3 (sin$f y))
                        (* x 2)
                        (+ 1 2)
                        (h 1))))))
    """

    def sample(self):
        tree = convert_source(self.SAMPLE)
        optimizer = SourceOptimizer(
            self.OPTIONS, global_functions={sym("h"): convert_source(
                "(lambda (n) n)")})
        optimizer.analyze_pass(tree)
        return tree, optimizer

    def test_index_holds_each_enabled_rule_once_in_table_order(self):
        _, optimizer = self.sample()
        assert len(optimizer._rules) == 17  # every rule, gated on or off
        position = {rule: i for i, (_, rule, _) in enumerate(optimizer._rules)}
        indexed = []
        for node_class, rules in optimizer._rules_by_class.items():
            # The engine indexes by type(node): sound only while no class
            # in the index has a subclass.
            assert not node_class.__subclasses__(), node_class
            order = [position[rule] for rule in rules]
            assert order == sorted(order)
            indexed += rules
        assert sorted(map(position.get, indexed)) == list(range(17))

    def test_gates_are_applied_when_the_index_is_built(self):
        def indexed(options):
            optimizer = SourceOptimizer(options)
            return optimizer, [rule for rules
                               in optimizer._rules_by_class.values()
                               for rule in rules]

        optimizer, rules = indexed(CompilerOptions())
        assert optimizer._rule_type_specialize not in rules
        assert optimizer._rule_integrate_global not in rules
        assert optimizer._rule_call_lambda in rules
        assert optimizer._rule_if_constant in rules
        optimizer, rules = indexed(self.OPTIONS)
        assert optimizer._rule_type_specialize in rules
        assert optimizer._rule_integrate_global in rules

    def test_each_rule_fires_on_its_own_class_in_the_sample(self):
        _, optimizer = self.sample()
        for node_class, rules in optimizer._rules_by_class.items():
            for rule in rules:
                tree, fresh = self.sample()
                rule = getattr(fresh, rule.__name__)
                assert any(rule(node) is not None
                           for node in list(tree.walk())
                           if type(node) is node_class), rule.__name__

    def test_index_hides_no_rule_that_could_fire(self):
        """An enabled rule left out of a node class's entry declines every
        node of that class."""
        tree, optimizer = self.sample()
        for node in tree.walk():
            indexed = optimizer._rules_by_class.get(type(node), [])
            for name, rule, _ in optimizer._rules:
                if rule not in indexed:
                    assert rule(node) is None, (name, node.KIND)
