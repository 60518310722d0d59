"""Golden machine-observer output, pinned across changes to the observer.

``observer_golden.json`` (next to this file) holds, for every run below
on s1, vax and pdp10, on both execution tiers and under both timing
models, the run's cycles and instructions in clear and a sha256 of
``Machine.telemetry.to_json()``: the sections named in ``SECTIONS``,
hashed with ``sort_keys`` (the ``fallback`` keys come out in set order)
and without the wall-clock fields in ``CLOCK_KEYS``.  On the simulate
tier under ``timing="single"`` (the REPL's default) it also holds a
sha256 of the profile report text and of the profile tables' JSON,
which must stay byte-identical, tie order included.

The runs: ``examples/iterative.lisp`` driven as CI drives it; the
``spin``/``churn``/``floats`` workload of ``tests/test_telemetry.py``;
and one small round of the benchmark's ``sort-drive`` merge sort over
the prelude at ``gc_threshold`` 50, for GC events, closure calls and
native-tier fallbacks.

The data was recorded before the exact profiler was folded into
telemetry and must not be regenerated to make a failure go away.  To
re-record it after an intended change to what the observer reports::

    PYTHONPATH=src python -m tests.test_observer_golden
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro import Compiler, CompilerOptions
from repro.datum import sym

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "observer_golden.json")
TARGETS = ("s1", "vax", "pdp10")
TIERS = ("simulate", "native")
TIMINGS = ("single", "pipelined")

#: The sections of ``to_json()`` the data pins.
SECTIONS = ("processor", "fast_path", "fallback", "totals", "stall_cycles",
            "ic_sites", "blocks", "gc_events", "heap_samples", "run_spans",
            "stacks")
#: Wall-clock fields, different on every run.
CLOCK_KEYS = frozenset(("at_s", "pause_s", "started_s", "duration_s"))

WORK = """
    (defun helper (x) (+ x 1))

    (defun spin (n)
      (let ((acc 0))
        (dotimes (i n acc)
          (setq acc (+ acc (helper i))))))

    (defun churn (n)
      (dotimes (i n 'done)
        (list i (* i i) (+ i 1))))

    (defun floats (n)
      (do ((i 0 (1+ i))
           (acc 0.0))
          ((= i n) acc)
        (setq acc (+$f acc (sin$f 0.5)))))
"""


class Run(NamedTuple):
    name: str
    source: str
    calls: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    gc_threshold: Optional[int] = None
    prelude: bool = False


def _read(*parts: str) -> str:
    with open(os.path.join(ROOT, *parts), "r", encoding="utf-8") as handle:
        return handle.read()


def runs() -> List[Run]:
    return [
        Run("iterative", _read("examples", "iterative.lisp"),
            (("triangle", (500,)), ("fib", (15,)),
             ("gcd&", (1071, 462)))),
        Run("work", WORK,
            (("spin", (40,)), ("churn", (20,)), ("floats", (30,)))),
        Run("sort-drive", _read("bench", "programs", "sort-drive.lisp"),
            (("sort-drive", (1, 24, 7)),), gc_threshold=50, prelude=True),
    ]


_COMPILERS: Dict[Tuple[str, str], Compiler] = {}


def _compiler(run: Run, target: str) -> Compiler:
    key = (run.name, target)
    compiler = _COMPILERS.get(key)
    if compiler is None:
        compiler = Compiler(CompilerOptions(target=target))
        if run.prelude:
            compiler.load_prelude()
        compiler.compile_source(run.source)
        _COMPILERS[key] = compiler
    return compiler


def observed_machine(run: Run, target: str, tier: str, timing: str):
    """A fresh machine for *run* with the observer on, not yet run."""
    machine = _compiler(run, target).machine()
    machine.tier = tier
    machine.set_timing(timing)
    machine.gc_threshold = run.gc_threshold
    machine.enable_telemetry()
    return machine


def drive(machine, run: Run) -> None:
    for fn, args in run.calls:
        machine.run(sym(fn), list(args))


def _strip_clock(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _strip_clock(item) for key, item in value.items()
                if key not in CLOCK_KEYS}
    if isinstance(value, list):
        return [_strip_clock(item) for item in value]
    return value


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def telemetry_digest(dump: Dict[str, Any]) -> str:
    pinned = _strip_clock({section: dump[section] for section in SECTIONS})
    return _sha256(json.dumps(pinned, sort_keys=True))


def record_run(run: Run, target: str, tier: str,
               timing: str) -> Dict[str, Any]:
    machine = observed_machine(run, target, tier, timing)
    drive(machine, run)
    telemetry = machine.telemetry
    dump = telemetry.to_json()
    recorded = {"cycles": machine.cycles,
                "instructions": machine.instructions,
                "telemetry": telemetry_digest(dump)}
    if tier == "simulate" and timing == "single":
        recorded["profile_report"] = _sha256(telemetry.profile_report())
        recorded["profile_json"] = _sha256(json.dumps(dump["profile"]))
    return recorded


def cells() -> List[Tuple[str, str, str]]:
    return [(target, tier, timing) for target in TARGETS for tier in TIERS
            for timing in TIMINGS]


def cell_key(target: str, tier: str, timing: str) -> str:
    return f"{target}/{tier}/{timing}"


def record_all() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return {run.name: {cell_key(*cell): record_run(run, *cell)
                       for cell in cells()}
            for run in runs()}


def _load() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(DATA, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_data_covers_the_stated_runs():
    data = _load()
    assert list(data) == [run.name for run in runs()]
    for recorded in data.values():
        assert list(recorded) == [cell_key(*cell) for cell in cells()]
        for key, entry in recorded.items():
            has_profile = key.endswith("/simulate/single")
            assert ("profile_report" in entry) == has_profile, key
    # Totals agree across tiers under each timing model.
    for recorded in data.values():
        for target in TARGETS:
            for timing in TIMINGS:
                simulate = recorded[cell_key(target, "simulate", timing)]
                native = recorded[cell_key(target, "native", timing)]
                assert simulate["cycles"] == native["cycles"]
                assert simulate["instructions"] == native["instructions"]


@pytest.mark.parametrize("run", runs(), ids=lambda run: run.name)
@pytest.mark.parametrize("target", TARGETS)
def test_observer_output_matches_the_recorded_run(run, target):
    want = _load()[run.name]
    got = {cell_key(target, tier, timing):
           record_run(run, target, tier, timing)
           for tier in TIERS for timing in TIMINGS}
    assert got == {key: want[key] for key in got}


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as out_file:
        json.dump(record_all(), out_file, indent=1)
        out_file.write("\n")
