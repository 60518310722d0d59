"""Tests for tree -> source back-translation (Section 4.1 debugging aid)."""

from repro.datum import lisp_equal, sym
from repro.ir import back_translate, back_translate_to_string, convert_source
from repro.reader import read


def roundtrip(text):
    return back_translate(convert_source(text))


class TestBackTranslation:
    def test_literal_number_unquoted(self):
        # "for readability the back-translator actually omits quote-forms
        # around numbers"
        assert back_translate_to_string(convert_source("42")) == "42"

    def test_literal_symbol_quoted(self):
        assert back_translate_to_string(convert_source("'foo")) == "'foo"

    def test_literal_list_quoted(self):
        assert back_translate_to_string(convert_source("'(1 2)")) == "'(1 2)"

    def test_quoted_structure_is_a_copy(self):
        """A back-translated form shares no conses with the tree, so it
        reads the same after the constant changes; shared and circular
        structure stay shared and circular."""
        from repro.datum import from_list
        from repro.ir import LiteralNode
        from repro.reader import write_to_string

        tail = from_list([2, 3])
        value = from_list([from_list([1]), from_list([1])], tail)
        tail.cdr.cdr = tail
        node = LiteralNode(from_list([value.car, value]))
        form = back_translate(node)
        text = write_to_string(form)
        assert text == "'((1) ((1) (1) 2 3 ...circular...))"
        quoted = form.cdr.car
        assert quoted.car is quoted.cdr.car.car
        value.car.car = 9
        assert write_to_string(form) == text

    def test_if(self):
        assert lisp_equal(roundtrip("(if p 1 2)"), read("(if p 1 2)"))

    def test_if_fills_nil_arm(self):
        assert lisp_equal(roundtrip("(if p 1)"), read("(if p 1 nil)"))

    def test_lambda(self):
        assert lisp_equal(roundtrip("(lambda (x) x)"), read("(lambda (x) x)"))

    def test_lambda_with_optionals(self):
        text = back_translate_to_string(
            convert_source("(lambda (a &optional (b 3.0) (c a)) c)"))
        assert "&optional" in text
        assert "(b 3.0)" in text
        assert "(c a)" in text

    def test_lambda_with_rest(self):
        text = back_translate_to_string(
            convert_source("(lambda (a &rest r) r)"))
        assert "&rest r" in text

    def test_setq(self):
        assert lisp_equal(roundtrip("(lambda (x) (setq x 1))"),
                          read("(lambda (x) (setq x 1))"))

    def test_progn(self):
        assert lisp_equal(roundtrip("(progn 1 2)"), read("(progn 1 2)"))

    def test_progbody_with_tags(self):
        text = back_translate_to_string(
            convert_source("(progbody loop (go loop))"))
        assert text == "(progbody loop (go loop))"

    def test_return(self):
        text = back_translate_to_string(convert_source("(progbody (return 5))"))
        assert "(return 5)" in text

    def test_caseq(self):
        text = back_translate_to_string(
            convert_source("(caseq x ((1 2) 'a) (t 'b))"))
        assert text.startswith("(caseq x")

    def test_catch(self):
        assert lisp_equal(roundtrip("(catch 'tag 1)"), read("(catch 'tag 1)"))

    def test_shadowed_variables_get_distinct_names(self):
        text = back_translate_to_string(
            convert_source("(lambda (x) ((lambda (x) x) x))"))
        # Inner x must be renamed to avoid capture ambiguity in the listing.
        assert "x.2" in text

    def test_double_conversion_is_stable(self):
        """back-translate o convert is idempotent from the first output on."""
        once = roundtrip("(let ((x 1)) (+ x 2))")
        from repro.ir import Converter

        twice = back_translate(Converter().convert(once))
        assert lisp_equal(once, twice)


class TestRenamingRegressions:
    def test_renamed_gensym_stays_uninterned(self):
        """A disambiguated gensym must not be interned: `#:g.2` spelled as
        plain `g.2` would capture a user symbol on re-read."""
        from repro.datum import from_list
        from repro.datum.symbols import Symbol
        from repro.ir import Converter

        g = Symbol("g", interned=False)
        form = from_list([
            sym("lambda"), from_list([g]),
            from_list([from_list([sym("lambda"), from_list([g]), g]), g]),
        ])
        from repro.reader import write_to_string

        text = write_to_string(back_translate(Converter().convert(form)))
        assert "#:g.2" in text

    def test_special_variables_never_renamed(self):
        """A special variable's name is its identity; printing *depth* as
        *depth*.2 would reference a different dynamic variable."""
        text = back_translate_to_string(convert_source(
            "(lambda (x)"
            " ((lambda (*depth*) (declare (special *depth*)) (+ x *depth*))"
            "  (+ *depth* 1)))"))
        assert ".2" not in text
        assert "(special *depth*)" in text

    def test_function_ref_in_value_position_is_wrapped(self):
        # A bare name in value position would re-read as a variable.
        assert lisp_equal(roundtrip("(f (function g))"),
                          read("(f (function g))"))

    def test_type_declarations_survive(self):
        text = back_translate_to_string(
            convert_source("(lambda (x) (declare (fixnum x)) (+ x 1))"))
        assert "(fixnum x)" in text


class TestQuadraticArtifact:
    """Section 4.1: the quadratic example's preliminary conversion."""

    SOURCE = """
        (defun quadratic (a b c)
          (let ((d (- (* b b) (* 4.0 a c))))
            (cond ((< d 0) '())
                  ((= d 0) (list (/ (- b) (* 2.0 a))))
                  (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
                       (list (/ (+ (- b) sd) 2a)
                             (/ (- (- b) sd) 2a)))))))
    """

    def test_let_becomes_lambda_call(self):
        from repro.ir import Converter
        from repro.reader import read as rd

        _, node = Converter().convert_defun(rd(self.SOURCE))
        text = back_translate_to_string(node)
        # Paper's back-translation: ((lambda (d) (if (< d 0) ...)) ...)
        assert "(lambda (d)" in text
        assert "(if (< d 0)" in text
        assert "(if (= d 0)" in text
        assert "(lambda (2a sd)" in text
        assert "(sqrt d)" in text
        # cond is gone; no cond symbol remains anywhere.
        assert "cond" not in text
        # let is gone too.
        assert "(let " not in text
