"""Golden heap counts, pinned across changes to the collector.

``heap_golden.json`` (next to this file) holds, for every run below and
on both execution tiers, the value the run returned (printed), its
instructions and simulated cycles, ``heap.allocations`` by class,
``gc_runs``, ``gc_collected`` and the final ``live_count()``.  Together
these pin what the heap registers (``Heap.adopt`` and the allocators),
when the collector runs (``live_count() > gc_threshold`` after an
allocation) and what each collection frees.

The runs: the benchmark's ``sort-drive`` merge sort over the prelude at
``gc_threshold`` 5, 50, 200 and 1000 with three seeds; the churn
programs of ``tests/test_gc.py``; ``examples/*.lisp``; and the P2/P5
ablation kernels of ``benchmarks/``.  None of them passes an ``&rest``
list or stores a quoted constant with ``rplaca``/``rplacd``/``vset``:
the heap counts those differently since the registry stopped re-walking
tracked structure, and ``tests/test_heap.py`` pins them.

The data was recorded before the heap's adopt and mark loops were
rewritten and must not be regenerated to make a failure go away.  To
re-record it after an intended change to what the heap counts::

    PYTHONPATH=src python -m tests.test_heap_golden
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro import Compiler, CompilerOptions
from repro.datum import from_list, sym
from repro.reader.printer import write_to_string

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "heap_golden.json")
TIERS = ("simulate", "native")


class Run(NamedTuple):
    name: str
    source: str
    fn: str
    #: Python data; nested Python lists become fresh Lisp lists per run.
    args: Tuple[Any, ...]
    gc_threshold: Optional[int]
    prelude: bool = False
    options: Tuple[Tuple[str, Any], ...] = ()


def _read(*parts: str) -> str:
    with open(os.path.join(ROOT, *parts), "r", encoding="utf-8") as handle:
        return handle.read()


def _lisp(value: Any) -> Any:
    if isinstance(value, list):
        return from_list([_lisp(item) for item in value])
    return value


# -- the churn programs of tests/test_gc.py ---------------------------------

CHURN = """
    (defun churn (n)
      (dotimes (i n 'done)
        (list i (* i i) (+ i 1))))
"""
KEEPER = """
    (defun keeper (n)
      (let ((acc nil))
        (dotimes (i n acc)
          (setq acc (cons i acc)))))
"""
ADDERS = """
    (defun make-adder (n) (lambda (x) (+ x n)))
    (defun stress (k)
      (let ((adder (make-adder 100)))
        (dotimes (i k 'ok) (list i i i))
        (funcall adder k)))
"""
SPECIALS = """
    (defvar *kept* nil)
    (defun stress (k)
      (setq *kept* (list 'a 'b 'c))
      (dotimes (i k 'ok) (list i i i))
      (car *kept*))
"""
FLOAT_CHURN = """
    (defun float-churn (n)
      (let ((acc 0.0))
        (dotimes (i n 'done)
          (setq acc (* 1.0 (+ acc 1.0))))))
"""
BURST = """
    (defun burst ()
      (+ (length (list 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15))
         (length (list 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15))))
"""
NEST = """
    (defun nest (n)
      (let ((outer (make-vector 2 nil)))
        (vset outer 0 (make-vector 3 7))
        (vset (vref outer 0) 1 (list 1 2 3))
        (dotimes (i n 'ok) (list i i i))
        (+ (vref (vref outer 0) 0)
           (car (cdr (vref (vref outer 0) 1))))))
"""

# -- the P2/P5 ablation kernels of benchmarks/ --------------------------------

P2_CHURN = """
    (defun consume (p q r) nil)
    (defun churn (x n)
      (declare (single-float x))
      (dotimes (i n 'done)
        (consume (+$f x 1.0) (*$f x x) (-$f x 0.5))))
"""
P2_ESCAPING = """
    (defun escape-one (x)
      (declare (single-float x))
      (+$f x 1.0))
"""
P5_DOWNWARD = """
    (defun compute (a b c)
      ((lambda (f g)
         (if (< a 0) (f) (g)))
       (lambda () (* b 2))
       (lambda () (* c 3))))
"""
P5_ESCAPING = """
    (defun make-adder (n) (lambda (x) (+ x n)))
    (defun sum-with-adders (k)
      (let ((add1 (make-adder 1)) (add2 (make-adder 2)))
        (+ (funcall add1 k) (funcall add2 k))))
"""
P5_SELECTIVE = """
    (defun selective (a b)
      (let ((capture a) (local (* b 2)))
        (frobnicate (lambda () capture))
        local))
    (defun frobnicate (f) (funcall f))
"""

NESTED = [[1, 2], [3, [4, 5]], 6, [7]]


def runs() -> List[Run]:
    out: List[Run] = []
    sort_drive = _read("bench", "programs", "sort-drive.lisp")
    for threshold in (5, 50, 200, 1000):
        for seed in (7, 1234567, 2 ** 31 - 5):
            out.append(Run(f"sort-drive/gc{threshold}/seed{seed}",
                           sort_drive, "sort-drive", (3, 64, seed),
                           threshold, prelude=True))
    out += [
        Run("gc/churn-500", CHURN, "churn", (500,), 100),
        Run("gc/churn-unbounded", CHURN, "churn", (100,), None),
        Run("gc/churn-tight", CHURN, "churn", (200,), 20),
        Run("gc/keeper", KEEPER, "keeper", (200,), 50),
        Run("gc/adders", ADDERS, "stress", (200,), 40),
        Run("gc/specials", SPECIALS, "stress", (200,), 40),
        Run("gc/float-churn", FLOAT_CHURN, "float-churn", (300,), 60,
            options=(("enable_representation_analysis", False),)),
        Run("gc/burst", BURST, "burst", (), 10),
        Run("gc/nest", NEST, "nest", (200,), 30),
    ]
    calls = {
        "iterative.lisp": [("triangle", (100,)), ("gcd&", (1071, 462)),
                           ("fib", (15,))],
        "list-utils.lisp": [("my-length", (list(range(20)),)),
                            ("my-append", (NESTED, NESTED)),
                            ("my-reverse", (NESTED + list(range(30)),)),
                            ("count-atoms", (NESTED,))],
        "polynomial.lisp": [("poly-eval", (1.5, 10)),
                            ("quadratic", (1.0, -3.0, 2.0, 0.5)),
                            ("average3", (1.0, 2.0, 4.0))],
    }
    for path in example_files():
        base = os.path.basename(path)
        source = _read("examples", base)
        for fn, args in calls[base]:
            for threshold in (None, 8):
                out.append(Run(f"examples/{base}/{fn}/gc{threshold}",
                               source, fn, args, threshold))
    kernels = [
        ("p2/churn", P2_CHURN, "churn", (2.0, 50), ()),
        ("p2/churn-no-pdl", P2_CHURN, "churn", (2.0, 50),
         (("enable_pdl_numbers", False),)),
        ("p2/escape-one", P2_ESCAPING, "escape-one", (1.0,), ()),
        ("p5/compute", P5_DOWNWARD, "compute", (1, 10, 20), ()),
        ("p5/compute-no-optimize", P5_DOWNWARD, "compute", (1, 10, 20),
         (("optimize", False),)),
        ("p5/compute-no-closure-analysis", P5_DOWNWARD, "compute",
         (1, 10, 20), (("optimize", False),
                       ("enable_closure_analysis", False))),
        ("p5/sum-with-adders", P5_ESCAPING, "sum-with-adders", (10,), ()),
        ("p5/selective", P5_SELECTIVE, "selective", (5, 6), ()),
    ]
    for name, source, fn, args, options in kernels:
        for threshold in (None, 4):
            out.append(Run(f"{name}/gc{threshold}", source, fn, args,
                           threshold, options=options))
    return out


def example_files() -> List[str]:
    return sorted(glob.glob(os.path.join(ROOT, "examples", "*.lisp")))


#: One compilation per program and option set: the sort runs share the
#: prelude, and running a compiled program never changes it.
_COMPILERS: Dict[Tuple[str, bool, Tuple[Tuple[str, Any], ...]],
                 Compiler] = {}


def _compiler(run: Run) -> Compiler:
    key = (run.source, run.prelude, run.options)
    compiler = _COMPILERS.get(key)
    if compiler is None:
        compiler = Compiler(CompilerOptions(**dict(run.options)))
        if run.prelude:
            compiler.load_prelude()
        compiler.compile_source(run.source)
        _COMPILERS[key] = compiler
    return compiler


def record_run(run: Run, tier: str) -> Dict[str, Any]:
    machine = _compiler(run).machine()
    machine.tier = tier
    machine.gc_threshold = run.gc_threshold
    value = machine.run(sym(run.fn), [_lisp(arg) for arg in run.args])
    heap = machine.heap
    return {
        "value": write_to_string(value),
        "instructions": machine.instructions,
        "cycles": machine.cycles,
        "allocations": dict(heap.allocations),
        "gc_runs": heap.gc_runs,
        "gc_collected": heap.gc_collected,
        "live": heap.live_count(),
    }


def record_all() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return {run.name: {tier: record_run(run, tier) for tier in TIERS}
            for run in runs()}


def _load() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(DATA, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_data_covers_the_stated_runs():
    data = _load()
    assert list(data) == [run.name for run in runs()]
    for recorded in data.values():
        assert sorted(recorded) == sorted(TIERS)
    # The sort drives collect at every threshold, and the tight
    # thresholds collect often enough that a collection's choice of
    # survivors compounds into the counts.
    for run in runs():
        if run.name.startswith("sort-drive/"):
            for tier in TIERS:
                assert data[run.name][tier]["gc_runs"] >= 1, run.name
    assert data["sort-drive/gc5/seed7"]["simulate"]["gc_runs"] > 100


@pytest.mark.parametrize("run", runs(), ids=lambda run: run.name)
def test_heap_counts_match_the_recorded_run(run):
    want = _load()[run.name]
    got = {tier: record_run(run, tier) for tier in TIERS}
    assert got == want


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as out_file:
        json.dump(record_all(), out_file, indent=1)
        out_file.write("\n")
