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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..ir.backtranslate import back_translate
from ..reader.printer import write_to_string


@dataclass
class TranscriptEntry:
    rule: str
    before: str
    after: str
    #: 1-based position of this firing within its compilation.
    seq: int = 0
    #: Which pipeline phase fired the rule ("optimizer" | "cse").
    phase: str = "optimizer"
    #: How the firing changed the program: a destructive "rewrite"
    #: (ordered backend: the tree mutated, before/after are real states)
    #: or a non-destructive "equivalence" (e-graph backend: the firing
    #: *added* an equal form, nothing was replaced -- there is no mutated
    #: "after" image to diff).
    kind: str = "rewrite"
    #: ``time.perf_counter()`` at record time (same clock as the
    #: diagnostics phase records, so the trace exporter can interleave).
    at_s: float = 0.0
    #: Whole-function back-translations around the rewrite; populated only
    #: under ``CompilerOptions.trace_rewrites``.
    before_source: Optional[str] = None
    after_source: Optional[str] = None

    def render(self) -> str:
        if self.kind == "equivalence":
            return (f";**** Noting this form: {self.before}\n"
                    f";**** is equivalent to: {self.after}\n"
                    f";**** courtesy of {self.rule}")
        return (f";**** Optimizing this form: {self.before}\n"
                f";**** to be this form: {self.after}\n"
                f";**** courtesy of {self.rule}")

    def diff(self) -> str:
        """Unified diff of the whole function around this rewrite (falls
        back to the local form when full sources were not captured).

        Equivalence entries never diff whole-function snapshots: the
        e-graph firing mutated nothing, so there is no "after" image --
        the local forms themselves are the event."""
        import difflib

        if self.kind == "equivalence":
            before, after = self.before, self.after
            lines = difflib.unified_diff(
                before.splitlines(), after.splitlines(),
                fromfile=f"form #{self.seq}",
                tofile=f"equivalent #{self.seq}", lineterm="")
            return "\n".join(lines)
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
            "kind": self.kind,
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
                   kind=data.get("kind", "rewrite"),
                   at_s=data.get("at_s", 0.0),
                   before_source=data.get("before_source"),
                   after_source=data.get("after_source"))


class Transcript:
    def __init__(self, stream: Optional[Any] = None,
                 trace_rewrites: bool = False):
        self.entries: List[TranscriptEntry] = []
        self.stream = stream
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

    def record(self, rule: str, before: Any, after: Any,
               phase: str = "optimizer", kind: str = "rewrite") -> None:
        """Record one transformation.  *before* is pre-rendered text (the
        tree is about to mutate, so the caller renders it first); *after*
        may be a Node or pre-rendered text.  ``kind="equivalence"``
        records a non-destructive e-graph firing: no whole-function
        snapshot is attached (nothing mutated, so there is none)."""
        after_text = after if isinstance(after, str) else _render(after)
        entry = TranscriptEntry(rule=rule, before=before, after=after_text,
                                seq=len(self.entries) + 1, phase=phase,
                                at_s=time.perf_counter(), kind=kind)
        if self.trace_rewrites and kind == "rewrite":
            entry.before_source = self._root_source
        self.entries.append(entry)
        if self.stream is not None:
            print(entry.render(), file=self.stream)

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
            sections.append(f";; {entry.kind} #{entry.seq} "
                            f"[{entry.phase}] {entry.rule}\n{entry.diff()}")
        return "\n\n".join(sections)

    def to_json(self) -> List[Dict[str, Any]]:
        return [entry.to_json() for entry in self.entries]


def _render(node: Any) -> str:
    return write_to_string(back_translate(node))


def render_node(node: Any) -> str:
    return _render(node)
