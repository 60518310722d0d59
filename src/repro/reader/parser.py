"""S-expression parser: token stream -> Lisp data.

``read`` returns the Lisp values the rest of the system consumes: symbols,
numbers, strings, characters (as 1-char strings wrapped in :class:`Char`),
and cons-cell lists.  Quote sugar expands here (``'x`` -> ``(quote x)``,
``#'f`` -> ``(function f)``) so downstream phases see only plain data.
"""

from __future__ import annotations

from typing import Any, List

from ..datum import NIL, Cons, from_list, intern_symbol
from ..datum.symbols import Symbol
from ..diagnostics import SourceLocation
from ..errors import ReaderError
from . import lexer as lx


class Char:
    """A Lisp character object (distinct from 1-character strings)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if len(value) != 1:
            raise ValueError("Char must wrap exactly one character")
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Char) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Char", self.value))

    def __repr__(self) -> str:
        return f"#\\{self.value}"


QUOTE = intern_symbol("quote")
FUNCTION = intern_symbol("function")
QUASIQUOTE_SYM = intern_symbol("quasiquote")
UNQUOTE_SYM = intern_symbol("unquote")
UNQUOTE_SPLICING_SYM = intern_symbol("unquote-splicing")


class Parser:
    def __init__(self, text: str, filename: str = "<input>"):
        self._lexer = lx.Lexer(text, filename)
        self._filename = filename

    def _loc(self, token: lx.Token) -> SourceLocation:
        return SourceLocation(token.line, token.column, self._filename)

    def _positioned(self, form: Any, token: lx.Token) -> Any:
        if isinstance(form, Cons) and form.source_pos is None:
            form.source_pos = self._loc(token)
        return form

    def read(self) -> Any:
        """Read one datum; raises ReaderError at EOF."""
        datum = self.read_or_eof()
        if datum is _EOF:
            raise ReaderError("unexpected end of input")
        return datum

    def read_or_eof(self) -> Any:
        token = self._lexer.next_token()
        return self._parse(token)

    def read_all(self) -> List[Any]:
        forms: List[Any] = []
        while True:
            datum = self.read_or_eof()
            if datum is _EOF:
                return forms
            forms.append(datum)

    def _parse(self, token: lx.Token) -> Any:
        kind = token.kind
        if kind == lx.EOF:
            return _EOF
        if kind == lx.LPAREN:
            return self._parse_list(token)
        if kind == lx.RPAREN:
            raise ReaderError("unbalanced ')'", location=self._loc(token))
        if kind == lx.QUOTE:
            return self._positioned(from_list([QUOTE, self.read()]), token)
        if kind == lx.FUNCTION_QUOTE:
            return self._positioned(from_list([FUNCTION, self.read()]), token)
        if kind == lx.QUASIQUOTE:
            return self._positioned(from_list([QUASIQUOTE_SYM, self.read()]),
                                    token)
        if kind == lx.UNQUOTE:
            return self._positioned(from_list([UNQUOTE_SYM, self.read()]),
                                    token)
        if kind == lx.UNQUOTE_SPLICING:
            return self._positioned(
                from_list([UNQUOTE_SPLICING_SYM, self.read()]), token)
        if kind == lx.STRING:
            return token.value
        if kind == lx.CHAR:
            return Char(token.value)
        if kind == lx.HASH_C:
            return self._parse_complex(token)
        if kind == lx.DOT:
            raise ReaderError("misplaced '.'", location=self._loc(token))
        if kind == lx.ATOM:
            return self._parse_value(token.value)
        raise ReaderError(f"unexpected token {token!r}")  # pragma: no cover

    def _parse_value(self, value: Any) -> Any:
        if isinstance(value, tuple):
            tag = value[0]
            if tag == "symbol":
                return intern_symbol(value[1])
            if tag == "uninterned":
                inner = value[1]
                if isinstance(inner, tuple) and inner[0] == "symbol":
                    return Symbol(inner[1], interned=False)
                raise ReaderError(f"bad uninterned symbol {value!r}")
            raise ReaderError(f"bad atom tag {value!r}")  # pragma: no cover
        return value  # already a number

    def _parse_list(self, open_token: lx.Token) -> Any:
        items: List[Any] = []
        tail: Any = NIL
        while True:
            token = self._lexer.next_token()
            if token.kind == lx.EOF:
                raise ReaderError("unterminated list",
                                  location=self._loc(open_token))
            if token.kind == lx.RPAREN:
                break
            if token.kind == lx.DOT:
                if not items:
                    raise ReaderError("dotted pair with no car",
                                      location=self._loc(token))
                tail = self.read()
                closer = self._lexer.next_token()
                if closer.kind != lx.RPAREN:
                    raise ReaderError("expected ')' after dotted tail",
                                      location=self._loc(closer))
                break
            items.append(self._parse(token))
        return self._positioned(from_list(items, tail), open_token)

    def _parse_complex(self, token: lx.Token) -> Any:
        form = self.read()
        if not isinstance(form, Cons):
            raise ReaderError("#c must be followed by (re im)",
                              location=self._loc(token))
        parts = list(form)
        if len(parts) != 2:
            raise ReaderError("#c needs exactly two parts",
                              location=self._loc(token))
        re_part, im_part = parts
        from ..datum.numbers import is_number

        if not (is_number(re_part) and is_number(im_part)):
            raise ReaderError("#c parts must be real numbers",
                              location=self._loc(token))
        return complex(float(re_part), float(im_part))


class _EofSentinel:
    def __repr__(self) -> str:  # pragma: no cover
        return "#<eof>"


_EOF = _EofSentinel()


def read(text: str) -> Any:
    """Read the first datum in *text*."""
    return Parser(text).read()


def read_all(text: str) -> List[Any]:
    """Read every datum in *text*, returning a Python list."""
    return Parser(text).read_all()
