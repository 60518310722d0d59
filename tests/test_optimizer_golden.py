"""Golden output of the compiler, pinned across changes to the rewrite
engine.

``optimizer_golden.json`` (next to this file) holds, for every function
of every program below, the sha256 of its code listing followed by its
optimizer transcript.  The transcript names each rule firing with the
form it rewrote and the form it produced, in firing order, so a rule
that fires at a different node or in a different order changes a hash
even when the final code happens to come out the same.

The programs: 60 generated ``tests/genprog`` programs (3 defuns each,
depth <= 5), two hand-written ones that reach every node kind and the
float rules, and ``examples/*.lisp`` compiled after the prelude -- each
on s1, vax and pdp10 with the default options, and once more on s1 with
type specialization, global integration and self-unrolling switched on.

The data was recorded before the engine was made linear-cost and must not
be regenerated to make a failure go away.  To re-record it after an
intended change to the optimizer's output::

    PYTHONPATH=src python -m tests.test_optimizer_golden
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import json
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import pytest

from repro import Compiler, CompilerOptions
from repro.codegen import generator
from repro.datum import symbols

from .genprog import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "optimizer_golden.json")

TARGETS = ("s1", "vax", "pdp10")
#: Option sets by name.  "extended" switches on the gated rules the
#: defaults leave off (META-TYPE-SPECIALIZE, META-INTEGRATE-GLOBAL).
OPTION_SETS = {
    "default": {},
    "extended": {"enable_type_specialization": True,
                 "enable_global_integration": True,
                 "self_unroll_depth": 1},
}

HAND_WRITTEN = {
    # Table 4's TESTFN: &optional defaults, the float pipeline, sin$f.
    "testfn": """
        (defun frotz (d e m) nil)
        (defun testfn (a &optional (b 3.0) (c a))
          (let ((d (+$f a b c)) (e (*$f a b c)))
            (let ((q (sin$f e)))
              (frotz d e (max$f d e))
              q)))
    """,
    # Every other node kind: caseq, catcher, progbody with go/return,
    # setq, a constant caseq key, nested ifs and a closure.
    "kinds": """
        (defun classify (x &optional (k (+ x 1)))
          (catch 'done
            (caseq (rem k 4)
              ((0) (throw 'done 'zero))
              ((1 2) (prog (i)
                        (setq i 0)
                      loop
                        (if (> i x) (return i))
                        (setq i (1+ i))
                        (go loop)))
              (t (if (if (< x 0) (> k 3) (= k 2)) 'a 'b)))))
        (defun pick (n)
          (caseq 2 ((1) n) ((2) (+ n 0 1 2)) (t (- n))))
        (defun adder (n)
          (let ((f (lambda (y) (+ y n))))
            (funcall f (funcall f 1))))
    """,
}


def programs() -> Iterator[Tuple[str, str]]:
    """``(name, source)`` for every program, in compile order."""
    for seed, (source, _, _) in enumerate(
            corpus(60, base_seed=0, n_functions=3, max_depth=5)):
        yield f"genprog-{seed}", source
    yield from HAND_WRITTEN.items()


def example_files() -> List[str]:
    return sorted(glob.glob(os.path.join(ROOT, "examples", "*.lisp")))


def _digest(compiled) -> str:
    text = compiled.code.listing() + "\n" + compiled.transcript.render()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextmanager
def fresh_name_counters():
    """Restart the process-wide counters that name gensyms (``f12``) and
    code labels (``else0003``), so a configuration's output does not
    depend on what the process compiled before it."""
    saved_gensym, saved_labels = symbols._GENSYM_COUNTER[0], generator._LABELS
    symbols._GENSYM_COUNTER[0] = 0
    generator._LABELS = itertools.count(1)
    try:
        yield
    finally:
        symbols._GENSYM_COUNTER[0] = max(saved_gensym,
                                         symbols._GENSYM_COUNTER[0])
        generator._LABELS = saved_labels


def record_configuration(option_set: str, target: str) -> Dict[str, Dict[str, str]]:
    """``{program: {function: sha256}}`` for one option set and target."""
    options = CompilerOptions(target=target, **OPTION_SETS[option_set])
    with fresh_name_counters():
        out: Dict[str, Dict[str, str]] = {}

        def digests(compiler: Compiler, names) -> Dict[str, str]:
            return {str(fn): _digest(compiler.functions[fn])
                    for fn in names if fn in compiler.functions}

        for name, source in programs():
            compiler = Compiler(options)
            out[name] = digests(compiler, compiler.compile_source(source))
        compiler = Compiler(options)
        out["prelude"] = digests(compiler, compiler.load_prelude())
        for path in example_files():
            with open(path, "r", encoding="utf-8") as handle:
                names = compiler.compile_source(handle.read())
            out["examples/" + os.path.basename(path)] = digests(compiler,
                                                                names)
    return out


def configurations() -> List[Tuple[str, str]]:
    return [("default", target) for target in TARGETS] + [("extended", "s1")]


def record_all() -> Dict[str, Dict[str, Dict[str, str]]]:
    return {f"{option_set}/{target}": record_configuration(option_set, target)
            for option_set, target in configurations()}


def _load() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(DATA, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_data_covers_the_stated_programs():
    data = _load()
    assert sorted(data) == sorted(f"{o}/{t}" for o, t in configurations())
    for recorded in data.values():
        assert sum(name.startswith("genprog-") for name in recorded) >= 60
        assert {"testfn", "kinds", "prelude"} <= set(recorded)
        assert {"examples/" + os.path.basename(p)
                for p in example_files()} <= set(recorded)


@pytest.mark.parametrize("option_set,target", configurations())
def test_listings_and_transcripts_match_the_recorded_hashes(option_set,
                                                            target):
    want = _load()[f"{option_set}/{target}"]
    got = record_configuration(option_set, target)
    assert list(got) == list(want)
    mismatched = [f"{program}:{fn}"
                  for program, functions in want.items()
                  for fn, digest in functions.items()
                  if got[program].get(fn) != digest]
    assert not mismatched, (
        f"{len(mismatched)} function(s) compile differently from the "
        f"recorded output: {', '.join(mismatched[:10])}")
    for program, functions in want.items():
        assert list(got[program]) == list(functions), program


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as out_file:
        json.dump(record_all(), out_file, indent=1, sort_keys=False)
        out_file.write("\n")
