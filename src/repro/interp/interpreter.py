"""The reference interpreter: executes internal trees directly.

This is the library's semantics oracle.  The compiler test-suite checks, for
many programs, that

    interpret(program) == simulate(compile(program))

and the optimizer's property tests check that every transformation preserves
interpreted behaviour.

The interpreter implements the dialect's defining semantic properties:

* **tail-recursive semantics** -- "recursive procedures of a certain form
  have iterative behavior ... cannot produce stack overflow no matter how
  large n is" (Section 2).  The main eval loop iterates instead of recursing
  for every tail position (if arms, last progn form, call bodies).
* **lexical closures** with indefinite extent,
* **special variables** via deep binding,
* **optional parameters with computed defaults** that may refer to earlier
  parameters,
* **catch/throw** non-local exits, and ``go``/``return`` within progbody.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datum import NIL, T, Cons, from_list, to_list
from ..datum.symbols import Symbol, sym
from ..errors import (
    LispError,
    UncaughtThrowError,
    UndefinedFunctionError,
    WrongNumberOfArgumentsError,
    WrongTypeError,
)
from ..ir.nodes import (
    CallNode,
    CaseqNode,
    CatcherNode,
    FunctionRefNode,
    GoNode,
    IfNode,
    LambdaNode,
    LiteralNode,
    Node,
    PrognNode,
    ProgbodyNode,
    ReturnNode,
    SetqNode,
    TagMarker,
    Variable,
    VarRefNode,
)
from ..ir.convert import Converter
from ..primitives import Primitive, _need_list, lookup_primitive
from ..reader import read, read_all
from .environment import DeepBindingStack, LexicalEnvironment
from ..datum.numbers import lisp_eql


class LispClosure:
    """A function value: lambda-expression plus captured environment."""

    __slots__ = ("lambda_node", "env", "name")

    def __init__(self, lambda_node: LambdaNode, env: LexicalEnvironment,
                 name: Optional[str] = None):
        self.lambda_node = lambda_node
        self.env = env
        self.name = name or lambda_node.name_hint

    def __repr__(self) -> str:
        return f"#<closure {self.name or 'anonymous'}>"


class _ThrowSignal(Exception):
    """Internal unwinding signal.  The public entry points (eval_node,
    which eval_form, eval_source and evaluate reach, and apply_function)
    turn one that no catch took into UncaughtThrowError."""

    def __init__(self, tag: Any, value: Any):
        super().__init__(tag)
        self.tag = tag
        self.value = value


class _GoSignal(LispError):
    def __init__(self, target: ProgbodyNode, tag: Symbol):
        super().__init__(f"go escaped its progbody: tag {tag}")
        self.target = target
        self.tag = tag


class _ReturnSignal(LispError):
    def __init__(self, target: ProgbodyNode, value: Any):
        super().__init__("return escaped its progbody")
        self.target = target
        self.value = value


class _TailCall:
    """Internal marker: the body of this closure should continue the loop."""

    __slots__ = ("node", "env")

    def __init__(self, node: Node, env: LexicalEnvironment):
        self.node = node
        self.env = env


class Interpreter:
    """Evaluates internal trees; owns global functions and special values."""

    def __init__(self) -> None:
        self.converter = Converter()
        self.global_functions: Dict[Symbol, Any] = {}
        self.specials = DeepBindingStack()
        self.call_count = 0
        self.max_python_depth = 0

    # -- program definition --------------------------------------------------

    def define_function(self, name: Symbol, closure: Any) -> None:
        self.global_functions[name] = closure

    def eval_source(self, text: str) -> Any:
        """Evaluate each top-level form in *text*; return the last value."""
        result: Any = NIL
        for form in read_all(text):
            result = self.eval_form(form)
        return result

    def eval_form(self, form: Any) -> Any:
        if isinstance(form, Cons) and form.car is sym("defun"):
            name, node = self.converter.convert_defun(form)
            closure = LispClosure(node, LexicalEnvironment(), name=name.name)
            self.define_function(name, closure)
            return name
        if isinstance(form, Cons) and form.car in (sym("defvar"),
                                                   sym("defparameter")):
            parts = to_list(form.cdr)
            name = parts[0]
            self.converter.proclaimed_specials.add(name)
            if len(parts) > 1:
                value = self.eval_node(self.converter.convert(parts[1]))
                self.specials.set_global(name, value)
            elif name not in self.specials.globals:
                self.specials.set_global(name, NIL)
            return name
        node = self.converter.convert(form)
        return self.eval_node(node)

    # -- evaluation ------------------------------------------------------------

    def eval_node(self, node: Node,
                  env: Optional[LexicalEnvironment] = None) -> Any:
        if env is None:
            env = LexicalEnvironment()
        try:
            return self._eval(node, env)
        except _ThrowSignal as signal:
            raise UncaughtThrowError(signal.tag) from None

    def _eval(self, node: Node, env: LexicalEnvironment) -> Any:
        """Iterative evaluator; loops on tail positions."""
        while True:
            if isinstance(node, LiteralNode):
                return node.value
            if isinstance(node, VarRefNode):
                variable = node.variable
                if variable.special:
                    return self.specials.lookup(variable.name)
                return env.lookup(variable)
            if isinstance(node, FunctionRefNode):
                return self._function_value(node.name)
            if isinstance(node, IfNode):
                test = self._eval(node.test, env)
                node = node.then if test is not NIL else node.else_
                continue
            if isinstance(node, PrognNode):
                for form in node.forms[:-1]:
                    self._eval(form, env)
                node = node.forms[-1]
                continue
            if isinstance(node, SetqNode):
                value = self._eval(node.value, env)
                if node.variable.special:
                    return self.specials.assign(node.variable.name, value)
                return env.assign(node.variable, value)
            if isinstance(node, LambdaNode):
                return LispClosure(node, env)
            if isinstance(node, CallNode):
                outcome = self._eval_call(node, env)
                if isinstance(outcome, _TailCall):
                    node, env = outcome.node, outcome.env
                    continue
                return outcome
            if isinstance(node, ProgbodyNode):
                return self._eval_progbody(node, env)
            if isinstance(node, GoNode):
                raise _GoSignal(node.target, node.tag)
            if isinstance(node, ReturnNode):
                value = self._eval(node.value, env)
                raise _ReturnSignal(node.target, value)
            if isinstance(node, CaseqNode):
                key = self._eval(node.key, env)
                for keys, body in node.clauses:
                    if any(lisp_eql(key, candidate) for candidate in keys):
                        node = body
                        break
                else:
                    node = node.default
                continue
            if isinstance(node, CatcherNode):
                tag = self._eval(node.tag, env)
                try:
                    return self._eval(node.body, env)
                except _ThrowSignal as signal:
                    if lisp_eql(signal.tag, tag):
                        return signal.value
                    raise
            raise LispError(f"cannot evaluate node {node!r}")

    def _function_value(self, name: Symbol) -> Any:
        fn = self.global_functions.get(name)
        if fn is not None:
            return fn
        primitive = lookup_primitive(name)
        if primitive is not None:
            return primitive
        raise UndefinedFunctionError(name)

    def _eval_call(self, node: CallNode, env: LexicalEnvironment) -> Any:
        fn = self._callee(node, env)
        args = [self._eval(arg, env) for arg in node.args]
        return self._apply(fn, args, tail=True)

    def _callee(self, node: CallNode, env: LexicalEnvironment) -> Any:
        fn_node = node.fn
        if isinstance(fn_node, FunctionRefNode):
            name = fn_node.name
            # apply and throw need interpreter-level support.
            if name is sym("apply"):
                return _APPLY
            if name is sym("throw"):
                return _THROW
            if name is sym("funcall"):
                return _FUNCALL
            return self._function_value(name)
        if isinstance(fn_node, LambdaNode):
            return LispClosure(fn_node, env)
        return self._eval(fn_node, env)

    def apply_function(self, fn: Any, args: Sequence[Any]) -> Any:
        """Public entry: call a Lisp function value with Python-level args."""
        try:
            outcome = self._apply(fn, list(args), tail=False)
        except _ThrowSignal as signal:
            raise UncaughtThrowError(signal.tag) from None
        assert not isinstance(outcome, _TailCall)
        return outcome

    def _apply(self, fn: Any, args: List[Any], tail: bool) -> Any:
        self.call_count += 1
        if fn is _APPLY:
            if len(args) < 2:
                raise WrongNumberOfArgumentsError("apply: needs >= 2 arguments")
            spread = args[1:-1] + _need_list("apply", args[-1])
            return self._apply(args[0], spread, tail=tail)
        if fn is _FUNCALL:
            if not args:
                raise WrongNumberOfArgumentsError("funcall: needs a function")
            return self._apply(args[0], args[1:], tail=tail)
        if fn is _THROW:
            if len(args) != 2:
                raise WrongNumberOfArgumentsError("throw: needs tag and value")
            raise _ThrowSignal(args[0], args[1])
        if isinstance(fn, Primitive):
            return fn.apply(args)
        if isinstance(fn, LispClosure):
            frame, specials_depth = self._bind_parameters(fn, args)
            if specials_depth is None and tail:
                # No special bindings to unwind: continue iteratively.
                return _TailCall(fn.lambda_node.body, frame)
            try:
                return self._eval(fn.lambda_node.body, frame)
            finally:
                if specials_depth is not None:
                    self.specials.pop_to(specials_depth)
        if callable(fn):  # host function injected by tests
            return fn(*args)
        raise WrongTypeError(f"not a function: {fn!r}")

    def _bind_parameters(self, closure: LispClosure, args: List[Any]
                         ) -> Tuple[LexicalEnvironment, Optional[int]]:
        node = closure.lambda_node
        frame = LexicalEnvironment(closure.env)
        specials_depth: Optional[int] = None

        def bind(variable: Variable, value: Any) -> None:
            nonlocal specials_depth
            if variable.special:
                if specials_depth is None:
                    specials_depth = self.specials.depth()
                self.specials.push(variable.name, value)
            else:
                frame.bind(variable, value)

        min_args = node.min_args()
        max_args = node.max_args()
        if len(args) < min_args or (max_args is not None and len(args) > max_args):
            raise WrongNumberOfArgumentsError(
                f"{closure.name or 'anonymous function'}: got {len(args)}"
                f" argument(s), expected {min_args}"
                + ("" if max_args == min_args else
                   f"..{'*' if max_args is None else max_args}"))

        index = 0
        for variable in node.required:
            bind(variable, args[index])
            index += 1
        for opt in node.optionals:
            if index < len(args):
                bind(opt.variable, args[index])
                index += 1
            else:
                # Default computed in the environment built so far; may use
                # earlier parameters (Section 2's generalized defaulting).
                bind(opt.variable, self._eval(opt.default, frame))
        if node.rest is not None:
            bind(node.rest, from_list(args[index:]))
        return frame, specials_depth

    def _eval_progbody(self, node: ProgbodyNode, env: LexicalEnvironment) -> Any:
        index = 0
        items = node.items
        while index < len(items):
            item = items[index]
            if isinstance(item, TagMarker):
                index += 1
                continue
            try:
                self._eval(item, env)
            except _GoSignal as signal:
                if signal.target is not node:
                    raise
                for i, candidate in enumerate(items):
                    if (isinstance(candidate, TagMarker)
                            and candidate.name is signal.tag):
                        index = i + 1
                        break
                else:
                    raise LispError(f"go: no tag {signal.tag} in progbody")
                continue
            except _ReturnSignal as signal:
                if signal.target is not node:
                    raise
                return signal.value
            index += 1
        return NIL


class _Marker:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"#<{self.name}>"


_APPLY = _Marker("apply")
_FUNCALL = _Marker("funcall")
_THROW = _Marker("throw")


def evaluate(text: str) -> Any:
    """One-shot convenience: evaluate source text in a fresh interpreter."""
    return Interpreter().eval_source(text)
