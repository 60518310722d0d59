"""Compile-time work runs where its result is read.

Tail positions feed binding and pdl annotation, types feed
META-TYPE-SPECIALIZE alone, and a transcript's text feeds its readers
(``render``, ``to_json``, the REPL, the trace exporter).  These tests
count the calls a compile makes to each producer, then read the
transcript and count again.
"""

import os
import sys

from repro import Compiler, CompilerOptions
from repro.analysis import tailrec, typeinfo
from repro.datum import sym
from repro.optimizer import SourceOptimizer
from repro.optimizer import transcript as transcript_module
from repro.reader import printer

POLYNOMIAL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples", "polynomial.lisp")

SOURCE = """
    (defun f (x) (let ((y (+ x 0))) (if nil 1 (* y 2))))
    (defun g (a b) (+ a b 1 2))
    (defun h (p q) (if (if p q nil) (g p q) (f 1.0)))
"""
DEFUNS = 3


def count_calls(monkeypatch, function, record=lambda: None):
    """Replace every module-level binding of *function* in the loaded
    ``repro`` modules with a wrapper; each call appends ``record()``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(record())
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attribute, counted)
    return calls


def entries_of(compiler, defined):
    return [entry for name in defined
            for entry in compiler.functions[name].transcript.entries]


def test_default_compile_runs_only_what_is_read(monkeypatch):
    types = count_calls(monkeypatch, typeinfo.analyze_types)
    tails = count_calls(monkeypatch, tailrec.analyze_tail_positions)
    prints = count_calls(monkeypatch, printer.write_to_string)
    compiler = Compiler()
    defined = compiler.compile_source(SOURCE)
    assert len(defined) == DEFUNS
    entries = entries_of(compiler, defined)
    assert len(entries) >= 2 * DEFUNS
    assert len(types) == 0
    # The analysis phase and the annotate phase, once each per defun.
    assert len(tails) == 2 * DEFUNS
    # optimized_source, once per defun; no transcript text yet.
    assert len(prints) == DEFUNS

    rendered = [compiler.functions[name].transcript.render()
                for name in defined]
    rewrites = compiler.last_diagnostics.to_json()["rewrites"]
    # Each entry printed its before and after forms once, for both reads.
    assert len(prints) == DEFUNS + 2 * len(entries)
    assert len(rewrites) == len(entries)
    assert "\n".join(rendered) == "\n".join(
        f";**** Optimizing this form: {rewrite['before']}\n"
        f";**** to be this form: {rewrite['after']}\n"
        f";**** courtesy of {rewrite['rule']}" for rewrite in rewrites)
    # Reading again prints nothing.
    assert [entry.to_json() for entry in entries] == rewrites
    assert len(prints) == DEFUNS + 2 * len(entries)


def count_form_prints(monkeypatch):
    """Every transcript form this process prints, as it prints."""
    forms = []
    write = transcript_module.write_to_string

    def counted(datum):
        forms.append(datum)
        return write(datum)

    monkeypatch.setattr(transcript_module, "write_to_string", counted)
    return forms


def hooked_service(**kwargs):
    """A service with the daemon's ``/metrics`` hook; returns it, the
    metrics and the list of Diagnostics the hook received."""
    from repro.api import CompilerService
    from repro.serve import ServerMetrics

    metrics = ServerMetrics()
    handed = []

    def hook(diagnostics):
        handed.append(diagnostics)
        metrics.merge_diagnostics(diagnostics)

    return CompilerService(on_diagnostics=hook, **kwargs), metrics, handed


def test_the_daemon_metrics_hook_prints_no_transcript(monkeypatch):
    """``repro serve`` folds every compile into ``/metrics`` through the
    service's diagnostics hook, which reads phases, rule fires and
    counters only."""
    prints = count_calls(monkeypatch, printer.write_to_string)
    service, metrics, handed = hooked_service()
    result = service.compile(SOURCE)
    assert len(result.defined) == DEFUNS
    # optimized_source, once per defun: the same as with no hook.
    assert len(prints) == DEFUNS

    (diagnostics,) = handed
    totals = metrics.diagnostics_totals
    assert totals["compilations"] == 1
    assert sum(diagnostics.rule_fires.values()) >= 2 * DEFUNS
    assert totals["rule_fires"] == diagnostics.rule_fires
    seconds = {}
    for record in diagnostics.phases:
        seconds[record.phase] = seconds.get(record.phase, 0.0) \
            + record.duration_s
    assert totals["phase_seconds"] == seconds
    assert totals["counters"] == result.counters
    assert len(prints) == DEFUNS


def test_the_batch_op_hook_prints_no_transcript_form(monkeypatch):
    """The daemon's ``batch`` op hands its hook each unit's Diagnostics as
    the compile left it: none of the transcript forms print."""
    forms = count_form_prints(monkeypatch)
    service, metrics, handed = hooked_service()
    with open(POLYNOMIAL, encoding="utf-8") as handle:
        unit = {"label": "polynomial.lisp", "source": handle.read()}
    response = service.handle_op("batch", {"units": [unit]})
    assert response["ok"] == 1
    assert forms == []

    (diagnostics,) = handed
    totals = metrics.diagnostics_totals
    assert totals["compilations"] == 1
    assert totals["rule_fires"] == diagnostics.rule_fires
    # The forms were there to print: a reader of the rewrites prints them.
    rewrites = diagnostics.rewrites
    assert len(forms) == 2 * len(rewrites) == 10


def test_pool_records_arrive_unprinted_and_fold_into_the_hook(monkeypatch):
    """A ``jobs=2`` pool returns each unit's Diagnostics pickled, its
    transcript forms unprinted, and the hook folds every one."""
    from repro.batch import WorkerPool

    forms = count_form_prints(monkeypatch)
    pool = WorkerPool(2)
    service, metrics, handed = hooked_service(pool=pool)
    units = [{"label": f"unit-{index}.lisp", "source": source}
             for index, source in enumerate(SOURCE.strip().split("\n"))]
    try:
        response = service.handle_op("batch", {"units": units})
    finally:
        pool.close()
    assert pool.executor in ("process", "thread")     # not inline
    assert response["ok"] == len(units) == len(handed) == DEFUNS
    totals = metrics.diagnostics_totals
    assert totals["compilations"] == DEFUNS
    assert totals["phase_seconds"]["optimizer"] > 0
    assert sum(totals["rule_fires"].values()) == sum(
        sum(diagnostics.rule_fires.values()) for diagnostics in handed)
    assert forms == []

    rewrites = [rewrite for diagnostics in handed
                for rewrite in diagnostics.rewrites]
    assert len(rewrites) >= 2 * DEFUNS
    assert len(forms) == 2 * len(rewrites)


def test_a_deep_transcript_pickles_unprinted(monkeypatch):
    """A pool worker returns its Diagnostics pickled: a form nested as deep
    as the compiler takes crosses flat and unprinted, and prints on the
    other side as it prints here."""
    import pickle

    deep = "x"
    for _ in range(200):
        deep = f"(+ 0 {deep})"
    compiler = Compiler()
    compiler.compile_source(f"(defun deep (x) {deep})")
    forms = count_form_prints(monkeypatch)
    copy = pickle.loads(pickle.dumps(compiler.last_diagnostics))
    assert forms == []
    rewrites = copy.rewrites
    assert len(rewrites) == 200
    assert len(forms) == 2 * len(rewrites)
    assert rewrites == compiler.last_diagnostics.rewrites


def test_type_inference_runs_only_inside_the_optimizer(monkeypatch):
    depth = [0]
    per_optimize = []
    optimize = SourceOptimizer.optimize

    def counted_optimize(self, root):
        depth[0] += 1
        start = len(types)
        try:
            return optimize(self, root)
        finally:
            depth[0] -= 1
            per_optimize.append(len(types) - start)

    monkeypatch.setattr(SourceOptimizer, "optimize", counted_optimize)
    types = count_calls(monkeypatch, typeinfo.analyze_types,
                        record=lambda: depth[0] > 0)
    compiler = Compiler(CompilerOptions(enable_type_specialization=True))
    compiler.compile_source(SOURCE)
    assert len(per_optimize) == DEFUNS
    assert all(count >= 1 for count in per_optimize)
    assert types and all(types)


def test_a_form_reads_as_it_was_when_the_rule_fired():
    """A quoted constant the compiled code later modifies still prints as
    it read when the rule fired."""
    compiler = Compiler()
    compiler.compile_source(
        "(defun f () (let ((l '(1 2))) (rplaca l 9) l))")
    assert compiler.machine().run(sym("f"), []).car == 9
    text = compiler.functions[sym("f")].transcript.render()
    assert "2 substitutions for the variable l by '(1 2)" in text
    assert "(9 2)" not in text
