"""Golden Table 1 phase lists, pinned across changes to how a compile
records the phases it ran.

``table1_golden.json`` (next to this file) holds, for each case below,
the "Phase structure (as executed)" list that ``Compiler.phase_report()``
prints: the paper's Table 1 names of the phases that ran for the last
function compiled.  The cases cover the default options, CSE plus the
peephole pass, ``naive_options()``, the IR verifier, a bare expression,
and the compilation cache (a hit, a miss after a hit, a hit after a
miss).

The data was recorded before the phase list was derived from the
``Diagnostics`` phase records and must not be regenerated to make a
failure go away.  To re-record it after an intended change to the
pipeline's phases::

    PYTHONPATH=src python -m tests.test_table1_golden
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List

import pytest

from repro import Compiler, CompilerOptions
from repro.cache import CompilationCache
from repro.options import naive_options

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "table1_golden.json")

HEADER = "Phase structure (as executed):"

HELPER = "(defun helper (x) (+ x 1))"
REPRESENTATIVE = """
    (defun representative (a &optional (b 3.0))
      (let ((d (+$f a b)))
        (if (>$f d 0.0) (frotz d) (list d))))
"""
SOURCE = HELPER + REPRESENTATIVE


def phase_list(report: str) -> List[str]:
    """The numbered phase names of a ``phase_report()`` text."""
    lines = report.splitlines()
    assert lines[0] == HEADER, report
    phases = []
    for line in lines[1:]:
        if line == "Phase timings:":
            break
        number, _, name = line.strip().partition(". ")
        assert number == str(len(phases) + 1), report
        phases.append(name)
    return phases


def _compiled(options: CompilerOptions = None, cache=None,
              source: str = SOURCE) -> Compiler:
    compiler = Compiler(options, cache=cache)
    compiler.compile_source(source)
    return compiler


def _expression() -> Compiler:
    compiler = Compiler()
    compiler.compile_source(HELPER)
    compiler.compile_expression("(let ((y (helper 4))) (* y y))")
    return compiler


def _cache_hit() -> Compiler:
    cache = CompilationCache()
    _compiled(cache=cache)
    return _compiled(cache=cache)


def _miss_after_hit() -> Compiler:
    cache = CompilationCache()
    _compiled(cache=cache, source=HELPER)
    return _compiled(cache=cache)


def _hit_after_miss() -> Compiler:
    cache = CompilationCache()
    _compiled(cache=cache, source=HELPER)
    return _compiled(cache=cache, source=REPRESENTATIVE + HELPER)


CASES: Dict[str, Callable[[], Compiler]] = {
    "default": lambda: _compiled(),
    "cse+peephole": lambda: _compiled(
        CompilerOptions(enable_cse=True, enable_peephole=True)),
    "naive": lambda: _compiled(naive_options()),
    "verify": lambda: _compiled(CompilerOptions(verify_ir=True)),
    "expression": _expression,
    "cache hit": _cache_hit,
    "cache miss after hit": _miss_after_hit,
    "cache hit after miss": _hit_after_miss,
}


def record_all() -> Dict[str, List[str]]:
    return {name: phase_list(make().phase_report())
            for name, make in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, List[str]]:
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_phase_list_matches_golden(name, golden):
    assert phase_list(CASES[name]().phase_report()) == golden[name]


def test_a_defvar_only_compile_lists_no_function():
    """``phase_report()`` describes the last compile() call alone: after a
    defun, a defvar-only compile ran no function's pipeline, so it lists
    no Table 1 phase beside its own reader timing."""
    compiler = _compiled(source=HELPER)
    compiler.compile_source("(defvar *scale* 3)")
    lines = compiler.phase_report().splitlines()
    assert lines[:3] == [HEADER, "  (no function compiled)",
                         "Phase timings:"]
    assert [line.split()[0] for line in lines[3:]] == ["reader", "total"]


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as out_file:
        json.dump(record_all(), out_file, indent=1)
        out_file.write("\n")
