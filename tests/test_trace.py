"""Tests for the repro.trace observability layer:

* Chrome trace-event JSON schema -- phase spans nest inside the enclosing
  compile span, per-track timestamps are zero-based and monotonic, rewrite
  instants land inside their compile span, and the whole document
  round-trips ``json.dumps``/``json.loads``,
* line-map accuracy on multi-defun sources (each function's instructions
  attribute only to its own defining lines),
* the observer's profile view (per-opcode / per-function / per-line
  cycle attribution sums to the machine's cycle counter),
* whole-function rewrite capture under ``trace_rewrites``,
* batch counter merging for errored files,
* Prometheus text metrics,
* the REPL's ``:trace`` / ``:profile`` commands and ``--trace`` dumps,

plus the telemetry exporters:

* machine execution tracks in Chrome traces (run spans, GC pauses,
  heap-occupancy counter series), beside compile tracks or alone,
* ``repro_machine_*`` Prometheus families validated line-by-line with
  the strict text parser (``parse_prometheus_text``) -- no bare greps,
* the strict parser's own rejection rules (undeclared samples, bad
  values, malformed labels, with line numbers),
* collapsed-stack flamegraph export (weights conserve machine cycles),
* single-request Perfetto traces (``build_request_trace``): client /
  queue-wait / execute / compile-phase / execution spans, every event
  tagged with the request's ``trace_id``,
* the REPL's ``:hot`` command and its one ``--trace`` document, which
  holds compile and execution events.
"""

import io
import json

import pytest

from repro import (
    Compiler,
    CompilerOptions,
    build_chrome_trace,
    build_request_trace,
    compile_batch,
    parse_prometheus_text,
    prometheus_metrics,
    write_chrome_trace,
    write_flamegraph,
)
from repro.datum import sym
from repro.machine import Machine
from repro.trace import collapsed_stacks, machine_trace_events, metric_value
from repro.__main__ import Repl

MULTI_DEFUN = """(defun first-fn (x)
  (+& x 1))

(defun second-fn (y)
  (if (>& y 0)
      (first-fn y)
      0))
"""

TRACING = dict(trace_rewrites=True)


def _compile_diagnostics(source=MULTI_DEFUN, **options):
    compiler = Compiler(CompilerOptions(**(options or TRACING)))
    compiler.compile(source)
    return compiler, compiler.last_diagnostics


class TestChromeTraceSchema:
    def _trace(self):
        _, diagnostics = _compile_diagnostics()
        return build_chrome_trace([(diagnostics, 0, 0, "test.lisp")])

    def test_round_trips_json(self):
        trace = self._trace()
        again = json.loads(json.dumps(trace))
        assert again["traceEvents"]
        assert again["displayTimeUnit"] == "ms"

    def test_spans_nest_inside_compile_span(self):
        events = self._trace()["traceEvents"]
        compiles = [e for e in events if e.get("cat") == "compile"]
        phases = [e for e in events if e.get("cat") == "phase"]
        assert compiles and phases
        outer = compiles[0]
        assert outer["ph"] == "X"
        lo, hi = outer["ts"], outer["ts"] + outer["dur"]
        # tnbind runs inside the codegen window, so *sibling* spans may
        # overlap; containment in the compile span is the invariant.
        for span in phases:
            assert span["ph"] == "X"
            assert span["dur"] >= 0
            assert span["ts"] >= lo - 1e-6
            assert span["ts"] + span["dur"] <= hi + 1e-6

    def test_phase_spans_cover_table1(self):
        events = self._trace()["traceEvents"]
        names = {e["name"] for e in events if e.get("cat") == "phase"}
        for phase in ("reader", "ir conversion", "analysis", "optimizer",
                      "annotate", "tnbind", "codegen"):
            assert phase in names

    def test_timestamps_zero_based_and_monotonic(self):
        events = [e for e in self._trace()["traceEvents"]
                  if e.get("ph") != "M"]
        timestamps = [e["ts"] for e in events]
        assert min(timestamps) == 0
        assert timestamps == sorted(timestamps)

    def test_rewrite_instants_inside_compile_span(self):
        events = self._trace()["traceEvents"]
        outer = next(e for e in events if e.get("cat") == "compile")
        rewrites = [e for e in events if e.get("cat") == "rewrite"]
        assert rewrites, "tracing compile should record optimizer rewrites"
        for instant in rewrites:
            assert instant["ph"] == "i"
            assert instant["s"] == "t"
            assert outer["ts"] <= instant["ts"] \
                <= outer["ts"] + outer["dur"] + 1e-6
            assert instant["args"]["before"]
            assert instant["args"]["after"]

    def test_thread_name_metadata(self):
        events = self._trace()["traceEvents"]
        metadata = [e for e in events if e.get("ph") == "M"]
        assert metadata
        assert metadata[0]["name"] == "thread_name"
        assert metadata[0]["args"]["name"] == "test.lisp"

    def test_tracks_normalize_independently(self):
        # Two tracks with different perf_counter epochs (different
        # processes) must both start at ts 0.
        _, d1 = _compile_diagnostics()
        _, d2 = _compile_diagnostics()
        for record in d2.phases:
            if record.started_s is not None:
                record.started_s += 1e6    # a different process clock
        trace = build_chrome_trace([(d1, 1, 0, "worker-1"),
                                    (d2, 2, 0, "worker-2")])
        for pid in (1, 2):
            track = [e["ts"] for e in trace["traceEvents"]
                     if e["pid"] == pid and e.get("ph") != "M"]
            assert min(track) == 0

    def test_write_chrome_trace(self, tmp_path):
        _, diagnostics = _compile_diagnostics()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), [(diagnostics, 0, 0, "t")])
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count > 0


class TestLineMap:
    def test_multi_defun_lines_attribute_to_own_defun(self):
        compiler, _ = _compile_diagnostics()
        first = compiler.functions[sym("first-fn")].code
        second = compiler.functions[sym("second-fn")].code
        # first-fn occupies lines 1-2, second-fn lines 4-7.
        assert set(first.line_map.values()) <= {1, 2}
        assert set(second.line_map.values()) <= {4, 5, 6, 7}
        assert first.line_map and second.line_map
        assert first.source_file == "<input>"

    def test_line_map_survives_peephole(self):
        compiler, _ = _compile_diagnostics()
        code = compiler.functions[sym("second-fn")].code
        # Every mapped index must be a real instruction index.
        assert all(0 <= index < len(code.instructions)
                   for index in code.line_map)

    def test_rebuild_line_map_matches_instruction_lines(self):
        compiler, _ = _compile_diagnostics()
        code = compiler.functions[sym("second-fn")].code
        for index, instruction in enumerate(code.instructions):
            if instruction.line is not None:
                assert code.line_map[index] == instruction.line


class TestProfileView:
    def _run_profiled(self):
        compiler = Compiler(CompilerOptions(**TRACING))
        compiler.compile(MULTI_DEFUN)
        machine = compiler.machine()
        machine.enable_telemetry()
        value = machine.run(sym("second-fn"), [3])
        return machine, value

    def test_profile_attributes_all_cycles(self):
        machine, value = self._run_profiled()
        profile = machine.telemetry.to_json()["profile"]
        assert profile["total_cycles"] == machine.cycles
        assert profile["total_instructions"] == machine.instructions
        assert sum(entry["cycles"] for entry in
                   profile["opcodes"].values()) == machine.cycles

    def test_per_function_and_line_attribution(self):
        machine, _ = self._run_profiled()
        profile = machine.telemetry.to_json()["profile"]
        assert any("second-fn" in name for name in profile["functions"])
        # second-fn's body spans source lines 4-7 of MULTI_DEFUN.
        lines = {entry["line"] for entry in profile["lines"]}
        assert lines & {4, 5, 6, 7}

    def test_report_and_json(self):
        machine, _ = self._run_profiled()
        report = machine.telemetry.profile_report()
        assert "Per-opcode cycles" in report
        assert "Per-source-line cycles" in report
        data = machine.telemetry.to_json()["profile"]
        assert data["total_cycles"] == machine.cycles
        json.dumps(data)    # must be serializable

    def test_disabled_by_default(self):
        compiler = Compiler()
        compiler.compile(MULTI_DEFUN)
        machine = compiler.machine()
        machine.run(sym("first-fn"), [1])
        assert machine.telemetry is None
        assert machine.telemetry_report() == "(telemetry is not enabled)"


class TestRewriteCapture:
    def test_whole_function_snapshots(self):
        compiler, diagnostics = _compile_diagnostics()
        assert diagnostics.rewrites
        for rewrite in diagnostics.rewrites:
            assert rewrite["before_source"].startswith("(lambda")
            assert rewrite["after_source"].startswith("(lambda")

    def test_off_by_default(self):
        _, diagnostics = _compile_diagnostics(trace_rewrites=False)
        for rewrite in diagnostics.rewrites:
            assert rewrite["before_source"] is None
            assert rewrite["after_source"] is None

    def test_render_diffs_unified(self):
        compiler, _ = _compile_diagnostics()
        transcript = compiler.functions[sym("first-fn")].transcript
        diff = transcript.render_diffs()
        assert "---" in diff and "+++" in diff and "@@" in diff


class TestBatchTrace:
    def test_errored_file_counters_survive_merge(self, tmp_path):
        # An error after a cache probe must not discard the probe's
        # counters (the original harvest only ran for ok files).
        result = compile_batch(
            [("good.lisp", "(defun ok (x) x)"),
             ("bad.lisp", "(defun broken (x) (unknown-special-form"),],
            cache_dir=tmp_path / "cache")
        by_path = {r.path: r for r in result.files}
        assert by_path["bad.lisp"].status == "error"
        assert by_path["bad.lisp"].counters.get("cache_misses", 0) >= 0
        assert by_path["good.lisp"].counters.get("cache_misses") == 1
        # ... and the error itself is reported, not swallowed.
        assert by_path["bad.lisp"].error

    def test_errored_conversion_keeps_counters(self, tmp_path):
        # Reader succeeds, conversion fails -> the cache probe happened.
        result = compile_batch(
            [("bad.lisp", "(defun broken (x) (go nowhere))")],
            cache_dir=tmp_path / "cache")
        record = result.files[0]
        assert record.status == "error"
        assert record.counters.get("cache_misses") == 1

    def test_batch_trace_entries_export(self, tmp_path):
        result = compile_batch([("a.lisp", "(defun fa (x) (+& x 1))"),
                                ("b.lisp", "(defun fb (x) (*& x 2))")])
        entries = result.trace_entries()
        assert len(entries) == 2
        trace = build_chrome_trace(entries)
        labels = {e["args"]["name"] for e in trace["traceEvents"]
                  if e.get("ph") == "M"}
        assert {"a.lisp", "b.lisp"} <= labels


class TestPrometheusMetrics:
    def test_exposition_format(self):
        _, diagnostics = _compile_diagnostics()
        text = prometheus_metrics([diagnostics])
        assert "repro_compilations_total 1" in text
        assert 'repro_phase_seconds_total{phase="codegen"}' in text
        assert "# TYPE repro_rule_fires_total counter" in text

    def test_profile_gauges(self):
        compiler, diagnostics = _compile_diagnostics()
        machine = compiler.machine()
        machine.enable_telemetry()
        machine.run(sym("first-fn"), [1])
        text = prometheus_metrics([diagnostics], telemetry=machine.telemetry)
        assert "repro_machine_cycles_total{opcode=" in text


class TestReplObservability:
    def _repl(self):
        out = io.StringIO()
        return Repl(out=out), out

    def test_trace_command_shows_diff(self):
        repl, out = self._repl()
        repl.handle("(defun t-fn (x) (+& x 1))")
        repl.handle(":trace t-fn")
        assert "@@" in out.getvalue() or "(no rewrites" in out.getvalue()

    def test_profile_command(self):
        repl, out = self._repl()
        repl.handle("(defun p-fn (x) (+& x 1))")
        repl.handle("(p-fn 41)")
        repl.handle(":profile")
        text = out.getvalue()
        assert "Per-opcode cycles" in text
        assert "<input>:" in text    # at least one source-line attribution

    def test_dump_trace(self, tmp_path):
        repl, _ = self._repl()
        repl.handle("(defun d-fn (x) x)")
        path = tmp_path / "repl-trace.json"
        repl.dump_trace(str(path))
        document = json.loads(path.read_text())
        assert any(e.get("cat") == "compile"
                   for e in document["traceEvents"])

    def test_dump_trace_holds_compile_and_execution_events(self, tmp_path):
        # One --trace document: the session's compile track and the
        # session machine's execution track.
        repl, _ = self._repl()
        repl.handle("(defun e-fn (x) (* x x))")
        repl.handle("(e-fn 7)")
        path = tmp_path / "repl-trace.json"
        repl.dump_trace(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        categories = {e.get("cat") for e in events}
        assert {"compile", "phase", "execution"} <= categories
        runs = [e for e in events if e.get("cat") == "execution"]
        assert [e["name"] for e in runs] == ["run *entry-1*"]
        compiles = [e["name"] for e in events if e.get("cat") == "compile"]
        assert compiles == ["(defun e-fn (x) (* x x))", "(e-fn 7)"]
        tracks = {e["args"]["name"] for e in events if e.get("ph") == "M"}
        assert tracks == {"(defun e-fn (x) (* x x))", "execution"}

    def test_hot_command(self):
        repl, out = self._repl()
        repl.handle("(defun h-fn (x) (+ x 1))")
        repl.handle("(h-fn 41)")
        repl.handle(":hot")
        text = out.getvalue()
        assert "Hot fallback opcodes" in text
        assert "Hot blocks by fallback cycles" in text

    def test_hot_before_any_run(self):
        repl, out = self._repl()
        repl.handle(":hot")
        assert "(nothing run yet)" in out.getvalue()

    def test_dump_trace_carries_execution_track(self, tmp_path):
        repl, _ = self._repl()
        repl.handle("(defun m-fn (x) (* x x))")
        repl.handle("(m-fn 7)")
        path = tmp_path / "trace.json"
        repl.dump_trace(str(path))
        document = json.loads(path.read_text())
        assert any(e.get("cat") == "execution"
                   for e in document["traceEvents"])

    def test_dump_trace_without_runs(self, tmp_path):
        # Still a valid (empty) Perfetto document, never a crash.
        repl, _ = self._repl()
        path = tmp_path / "trace.json"
        repl.dump_trace(str(path))
        document = json.loads(path.read_text())
        assert document == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_dump_metrics_includes_telemetry(self, tmp_path):
        repl, _ = self._repl()
        repl.handle("(defun q-fn (x) (+ x 1))")
        repl.handle("(q-fn 1)")
        path = tmp_path / "metrics.prom"
        repl.dump_metrics(str(path))
        parsed = parse_prometheus_text(path.read_text())
        assert "repro_machine_path_cycles_total" in parsed["families"]
        assert metric_value(parsed, "repro_compilations_total") >= 1


# ---------------------------------------------------------------------------
# PR 9: machine telemetry exporters


WORKLOAD = """
    (defun helper (x) (+ x 1))
    (defun spin (n)
      (let ((acc 0))
        (dotimes (i n acc)
          (setq acc (+ acc (helper i))))))
    (defun churn (n)
      (dotimes (i n 'done)
        (list i (* i i))))
"""


def _telemetry_run(tier="native", gc_threshold=96):
    compiler = Compiler()
    compiler.compile_source(WORKLOAD)
    machine = Machine(compiler.program, gc_threshold=gc_threshold,
                      tier=tier)
    machine.enable_telemetry()
    machine.run(sym("spin"), [40])
    machine.run(sym("churn"), [400])
    return machine


class TestMachineTraceExport:
    """The execution track: beside compile tracks, or alone as
    ``build_chrome_trace((), telemetry)``."""

    def test_execution_track_appended_to_compile_trace(self):
        _, diagnostics = _compile_diagnostics()
        machine = _telemetry_run()
        trace = build_chrome_trace([(diagnostics, 0, 0, "test.lisp")],
                                   telemetry=machine.telemetry)
        events = trace["traceEvents"]
        # The execution track rides on its own pid, named in metadata.
        track_names = {e["args"]["name"] for e in events
                       if e.get("ph") == "M"}
        assert {"test.lisp", "execution"} <= track_names
        runs = [e for e in events if e.get("cat") == "execution"]
        assert [e["name"] for e in runs] == ["run spin", "run churn"]
        for span in runs:
            assert span["ph"] == "X"
            assert span["args"]["tier"] == "native"
            assert span["args"]["cycles"] > 0
        assert json.loads(json.dumps(trace))  # round-trips

    def test_gc_and_heap_events(self):
        machine = _telemetry_run()
        assert machine.heap.gc_runs >= 1
        trace = build_chrome_trace((), machine.telemetry)
        events = trace["traceEvents"]
        pauses = [e for e in events if e.get("cat") == "gc"]
        assert len(pauses) == machine.heap.gc_runs
        for pause in pauses:
            assert pause["name"] == "gc [watermark]"
            assert pause["dur"] >= 0
            assert pause["args"]["live_before"] >= pause["args"]["live_after"]
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters
        assert all(e["name"] == "heap live" for e in counters)
        assert all(isinstance(e["args"]["live"], int) for e in counters)

    def test_timestamps_zero_based(self):
        machine = _telemetry_run()
        events = [e for e in build_chrome_trace(
            (), machine.telemetry)["traceEvents"] if e.get("ph") != "M"]
        timestamps = [e["ts"] for e in events]
        assert min(timestamps) == 0
        assert timestamps == sorted(timestamps)

    def test_accepts_json_dump(self):
        # The daemon ships telemetry_data() dicts over the wire; the
        # exporter must accept them exactly like live objects.
        machine = _telemetry_run()
        from_live = build_chrome_trace((), machine.telemetry)
        from_dump = build_chrome_trace((), machine.telemetry_data())
        assert from_live == from_dump

    def test_write_execution_only_trace(self, tmp_path):
        machine = _telemetry_run()
        path = tmp_path / "machine.json"
        count = write_chrome_trace(str(path), (), machine.telemetry)
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count > 0
        tracks = {e["args"]["name"] for e in document["traceEvents"]
                  if e.get("ph") == "M"}
        assert tracks == {"execution"}

    def test_trace_id_tagging(self):
        machine = _telemetry_run()
        events = machine_trace_events(machine.telemetry,
                                      trace_id="trace-abc")
        spans = [e for e in events if e.get("cat") in ("execution", "gc")]
        assert spans
        assert all(e["args"]["trace_id"] == "trace-abc" for e in spans)


class TestFlamegraph:
    def test_collapsed_stack_format(self):
        machine = _telemetry_run()
        lines = collapsed_stacks(machine.telemetry)
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) > 0
        assert any(line.startswith("spin;helper ") for line in lines)

    def test_weights_conserve_cycles(self):
        machine = _telemetry_run()
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in collapsed_stacks(machine.telemetry))
        assert total == machine.cycles

    def test_write_flamegraph(self, tmp_path):
        machine = _telemetry_run()
        path = tmp_path / "flame.txt"
        count = write_flamegraph(str(path), machine.telemetry)
        lines = path.read_text().splitlines()
        assert len(lines) == count > 0


class TestPrometheusTelemetry:
    def _document(self):
        _, diagnostics = _compile_diagnostics()
        machine = _telemetry_run()
        return machine, prometheus_metrics([diagnostics],
                                           telemetry=machine.telemetry)

    def test_document_parses_strictly(self):
        # Whole-document validation: every line either a comment or a
        # sample under a declared family -- not a substring grep.
        machine, text = self._document()
        parsed = parse_prometheus_text(text)
        for family in ("repro_machine_path_cycles_total",
                       "repro_machine_ic_events_total",
                       "repro_machine_gc_collections_total",
                       "repro_machine_gc_pause_seconds_total",
                       "repro_machine_gc_reclaimed_total",
                       "repro_machine_heap_live_objects",
                       "repro_machine_block_executions_total"):
            assert parsed["families"][family]["type"] is not None
            assert parsed["families"][family]["help"]

    def test_path_cycles_conserve(self):
        machine, text = self._document()
        parsed = parse_prometheus_text(text)
        attributed = sum(
            s["value"] for s in parsed["samples"]
            if s["name"] == "repro_machine_path_cycles_total")
        assert attributed == machine.cycles
        paths = {s["labels"]["path"] for s in parsed["samples"]
                 if s["name"] == "repro_machine_path_cycles_total"}
        # Fully-inlined workloads may attribute no fallback cycles at
        # all; the label set never goes beyond the two paths.
        assert "fast_path" in paths
        assert paths <= {"fast_path", "fallback"}

    def test_ic_and_gc_samples(self):
        machine, text = self._document()
        parsed = parse_prometheus_text(text)
        telemetry = machine.telemetry
        site, cell = next(iter(telemetry.ic_sites.items()))
        assert metric_value(parsed, "repro_machine_ic_events_total",
                            {"site": site, "event": "hits"}) == cell[0]
        assert metric_value(parsed, "repro_machine_gc_collections_total",
                            {"reason": "watermark"}) \
            == len(telemetry.gc_events)
        assert metric_value(parsed, "repro_machine_gc_reclaimed_total") \
            == sum(e["collected"] for e in telemetry.gc_events)
        assert metric_value(parsed, "repro_machine_heap_live_objects") \
            == telemetry.heap_samples[-1]["live"]

    def test_metric_value_label_exactness(self):
        machine, text = self._document()
        parsed = parse_prometheus_text(text)
        # None means label-free only; a labelled family has no bare sample.
        assert metric_value(parsed,
                            "repro_machine_path_cycles_total") is None
        assert metric_value(parsed, "no_such_metric") is None


class TestStrictParser:
    def test_rejects_undeclared_sample(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus_text("mystery_total 3\n")

    def test_rejects_bad_value(self):
        doc = "# TYPE x_total counter\nx_total banana\n"
        with pytest.raises(ValueError, match="line 2.*banana"):
            parse_prometheus_text(doc)

    def test_rejects_malformed_labels(self):
        doc = '# TYPE x_total counter\nx_total{oops} 1\n'
        with pytest.raises(ValueError, match="malformed label"):
            parse_prometheus_text(doc)

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_prometheus_text("# TYPE x_total frobnitz\n")

    def test_histogram_suffixes_implicitly_declared(self):
        doc = ("# TYPE lat_seconds histogram\n"
               'lat_seconds_bucket{le="0.1"} 2\n'
               'lat_seconds_bucket{le="+Inf"} 3\n'
               "lat_seconds_sum 0.25\n"
               "lat_seconds_count 3\n")
        parsed = parse_prometheus_text(doc)
        assert all(s["family"] == "lat_seconds"
                   for s in parsed["samples"])
        inf_bucket = metric_value(parsed, "lat_seconds_bucket",
                                  {"le": "+Inf"})
        assert inf_bucket == metric_value(parsed, "lat_seconds_count")

    def test_label_escapes_round_trip(self):
        doc = ('# TYPE x_total counter\n'
               'x_total{name="a\\"b\\\\c\\nd"} 1\n')
        parsed = parse_prometheus_text(doc)
        assert parsed["samples"][0]["labels"]["name"] == 'a"b\\c\nd'


class TestRequestTrace:
    def _record(self):
        return {
            "trace_id": "trace-0123456789abcdef",
            "client": {"started_s": 100.0, "duration_s": 0.030},
            "server_timing": {"queue_wait_s": 0.004, "execute_s": 0.020},
        }

    def test_span_structure(self):
        _, diagnostics = _compile_diagnostics()
        machine = _telemetry_run()
        # The response's diagnostics arrive as the wire's JSON.
        trace = build_request_trace(self._record(), diagnostics.to_json(),
                                    machine.telemetry)
        events = [e for e in trace["traceEvents"] if e.get("ph") != "M"]
        names = [e["name"] for e in events]
        assert "request trace-0123456789abcdef" in names
        assert "queue-wait" in names and "execute" in names
        assert "codegen" in names          # compile phases nested
        assert "run spin" in names         # execution spans nested
        # Every event carries the trace id.
        assert all(e["args"].get("trace_id") == "trace-0123456789abcdef"
                   for e in events if e.get("cat") != "heap")

    def test_server_window_centred_in_client_span(self):
        trace = build_request_trace(self._record())
        events = {e["name"]: e for e in trace["traceEvents"]
                  if e.get("ph") == "X"}
        client = events["request trace-0123456789abcdef"]
        queue = events["queue-wait"]
        execute = events["execute"]
        assert client["ts"] == 0
        assert queue["ts"] >= client["ts"]
        assert execute["ts"] == pytest.approx(queue["ts"] + queue["dur"])
        assert execute["ts"] + execute["dur"] \
            <= client["ts"] + client["dur"] + 1e-6
        # Transport residue splits evenly around the server window.
        assert queue["ts"] == pytest.approx(
            (client["dur"] - queue["dur"] - execute["dur"]) / 2.0, abs=1.0)

    def test_thread_metadata(self):
        trace = build_request_trace(self._record())
        names = {e["tid"]: e["args"]["name"]
                 for e in trace["traceEvents"] if e.get("ph") == "M"}
        assert names == {1: "client", 2: "server", 3: "execution"}

    def test_untimed_response_still_builds(self):
        # Old daemons echo no server_timing: client span only, no crash.
        trace = build_request_trace({
            "trace_id": "trace-x", "client": {"duration_s": 0.01},
            "server_timing": None})
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert [e["name"] for e in spans] == ["request trace-x"]

    def test_perfetto_loadable_json(self, tmp_path):
        from repro.trace import write_request_trace

        machine = _telemetry_run()
        path = tmp_path / "request.json"
        count = write_request_trace(str(path), self._record(),
                                    telemetry=machine.telemetry)
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert document["displayTimeUnit"] == "ms"
        for event in document["traceEvents"]:
            assert {"name", "ph", "pid", "tid", "ts"} <= set(event)
