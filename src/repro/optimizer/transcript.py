"""The optimizer's debugging transcript.

Section 7's worked example shows output of the form::

    ;**** Optimizing this form: (+$f a b c)
    ;**** to be this form: (+$f (+$f c b) a)
    ;**** courtesy of META-EVALUATE-ASSOC-COMMUT-CALL

Entries are recorded structurally so tests (and the E5 experiment bench) can
assert on rules fired, and rendered textually in the same style.

Because the internal tree is back-translatable to source at any point
(Table 2), each entry can also carry the *whole function* before and after
the rewrite, rendered as a unified diff.  That capture costs one extra
back-translation per firing, so it is gated by
``CompilerOptions.trace_rewrites`` (the optimizer calls
:meth:`Transcript.begin_root` / :meth:`Transcript.attach_root` around each
mutation).  Every entry always carries a monotonic sequence number and a
``perf_counter`` timestamp, which the :mod:`repro.trace` exporter turns
into Chrome trace instant events.

Nothing reads an entry's text during a compile, so an entry keeps the
forms its rule back-translated at firing time (the tree changes
afterwards) and prints each one the first time something reads it:
:meth:`TranscriptEntry.render`, :meth:`TranscriptEntry.to_json`, the REPL
or the trace exporter.  A form pickles unprinted, so a pool worker's
transcript prints only where something reads it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Union

from ..datum import Cons
from ..ir.backtranslate import back_translate
from ..ir.nodes import Node
from ..reader.printer import write_to_string


class Form:
    """A back-translated form that prints the first time it is read.

    *prefix* is text printed ahead of the form (META-SUBSTITUTE's "N
    substitutions for the variable V by ")."""

    __slots__ = ("_datum", "_prefix", "_text")

    def __init__(self, datum: Any, prefix: str = ""):
        self._datum = datum
        self._prefix = prefix
        self._text: Optional[str] = None

    def __str__(self) -> str:
        # Idempotent, so two threads reading at once agree without a lock.
        if self._text is None:
            self._text = self._prefix + write_to_string(self._datum)
        return self._text

    def __reduce__(self):
        # Pickling recurses through every cons, and a form the compiler
        # takes can nest past the recursion limit, so the datum travels as
        # a flat postorder list.
        flat: List[Any] = []
        stack = [self._datum]
        while stack:
            item = stack.pop()
            if isinstance(item, Cons):
                stack += (_ConsMark, item.cdr, item.car)
            else:
                flat.append(item)
        return _unflatten_form, (flat, self._prefix, self._text)


class _ConsMark:
    """In a flattened form: build a cons of the two values before it."""


def _unflatten_form(flat: List[Any], prefix: str,
                    text: Optional[str]) -> Form:
    stack: List[Any] = []
    for item in flat:
        if item is _ConsMark:
            cdr = stack.pop()
            stack[-1] = Cons(stack[-1], cdr)
        else:
            stack.append(item)
    form = Form(stack[0], prefix)
    form._text = text
    return form


class TranscriptEntry:
    """One rule firing.  ``before`` and ``after`` read as text; each is
    stored as given (a string, or a :class:`Form` that prints when first
    read)."""

    __slots__ = ("rule", "_before", "_after", "seq", "phase", "at_s",
                 "before_source", "after_source")

    def __init__(self, rule: str, before: Union[str, Form],
                 after: Union[str, Form], seq: int = 0,
                 phase: str = "optimizer", at_s: float = 0.0,
                 before_source: Optional[str] = None,
                 after_source: Optional[str] = None):
        self.rule = rule
        self._before = before
        self._after = after
        #: 1-based position of this firing within its compilation.
        self.seq = seq
        #: Which pipeline phase fired the rule ("optimizer" | "cse").
        self.phase = phase
        #: ``time.perf_counter()`` at record time (same clock as the
        #: diagnostics phase records, so the trace exporter can interleave).
        self.at_s = at_s
        #: Whole-function back-translations around the rewrite; populated
        #: only under ``CompilerOptions.trace_rewrites``.
        self.before_source = before_source
        self.after_source = after_source

    @property
    def before(self) -> str:
        return str(self._before)

    @property
    def after(self) -> str:
        return str(self._after)

    def render(self) -> str:
        return (f";**** Optimizing this form: {self.before}\n"
                f";**** to be this form: {self.after}\n"
                f";**** courtesy of {self.rule}")

    def diff(self) -> str:
        """Unified diff of the whole function around this rewrite (falls
        back to the local form when full sources were not captured)."""
        import difflib

        before = self.before_source if self.before_source is not None \
            else self.before
        after = self.after_source if self.after_source is not None \
            else self.after
        lines = difflib.unified_diff(
            before.splitlines(), after.splitlines(),
            fromfile=f"before #{self.seq}", tofile=f"after #{self.seq}",
            lineterm="")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "rule": self.rule,
            "phase": self.phase,
            "at_s": self.at_s,
            "before": self.before,
            "after": self.after,
            "before_source": self.before_source,
            "after_source": self.after_source,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TranscriptEntry":
        return cls(rule=data["rule"], before=data.get("before", ""),
                   after=data.get("after", ""), seq=data.get("seq", 0),
                   phase=data.get("phase", "optimizer"),
                   at_s=data.get("at_s", 0.0),
                   before_source=data.get("before_source"),
                   after_source=data.get("after_source"))


class Transcript:
    def __init__(self, trace_rewrites: bool = False):
        self.entries: List[TranscriptEntry] = []
        #: When True, callers snapshot the whole function around each
        #: firing (begin_root / attach_root) so entries carry full
        #: before/after source for diff rendering.
        self.trace_rewrites = trace_rewrites
        self._root_source: Optional[str] = None

    def begin_root(self, source: str) -> None:
        """Install the current whole-function source; the next recorded
        entry uses it as its ``before_source``."""
        self._root_source = source

    def attach_root(self, source: str) -> None:
        """Complete the most recent entry with the post-rewrite
        whole-function source (which also becomes the next ``before``)."""
        if self.entries:
            self.entries[-1].after_source = source
        self._root_source = source

    def record(self, rule: str, before: Union[str, Form], after: Any,
               phase: str = "optimizer") -> None:
        """Record one transformation.  *before* was captured before the
        tree mutated (:func:`capture`); *after* is a Node, back-translated
        now, or already a string or Form."""
        if isinstance(after, Node):
            after = capture(after)
        entry = TranscriptEntry(rule=rule, before=before, after=after,
                                seq=len(self.entries) + 1, phase=phase,
                                at_s=time.perf_counter())
        if self.trace_rewrites:
            entry.before_source = self._root_source
        self.entries.append(entry)

    def rules_fired(self) -> List[str]:
        return [entry.rule for entry in self.entries]

    def rule_counts(self) -> Dict[str, int]:
        """Fire count per rule name, in first-fired order (the diagnostics
        layer merges these into ``Diagnostics.rule_fires``)."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.rule] = counts.get(entry.rule, 0) + 1
        return counts

    def render(self) -> str:
        return "\n".join(entry.render() for entry in self.entries)

    def render_diffs(self) -> str:
        """Every rewrite as a unified diff, in firing order."""
        sections = []
        for entry in self.entries:
            sections.append(f";; rewrite #{entry.seq} "
                            f"[{entry.phase}] {entry.rule}\n{entry.diff()}")
        return "\n\n".join(sections)

    def to_json(self) -> List[Dict[str, Any]]:
        return [entry.to_json() for entry in self.entries]


def capture(node: Node, prefix: str = "") -> Form:
    """Back-translate *node* now; print it when the text is first read."""
    return Form(back_translate(node), prefix)


def render_node(node: Node) -> str:
    """Back-translate and print *node* at once."""
    return write_to_string(back_translate(node))
