"""The parallel batch driver: deterministic merging, per-file error
isolation, worker-pool behavior, cache sharing, and the CLI."""

import json
import os

import pytest

from repro import CompilerOptions, CompilerService, compile_batch

from .genprog import corpus


def write_corpus(tmp_path, n=6, n_functions=2, base_seed=100):
    paths = []
    for index, (source, _, _) in enumerate(
            corpus(n, base_seed=base_seed, n_functions=n_functions)):
        path = tmp_path / f"prog{index:02d}.lisp"
        path.write_text(source + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


class TestInlineBatch:
    def test_statuses_and_input_order(self, tmp_path):
        paths = write_corpus(tmp_path, n=5)
        result = compile_batch(paths, jobs=1)
        assert [f.path for f in result.files] == paths
        assert all(f.ok for f in result.files)
        assert result.ok_count == 5
        assert result.executor == "inline"
        for f in result.files:
            assert "f" in f.defined

    def test_error_does_not_kill_the_batch(self, tmp_path):
        paths = write_corpus(tmp_path, n=3)
        broken = tmp_path / "broken.lisp"
        broken.write_text("(defun oops (", encoding="utf-8")
        missing = str(tmp_path / "no-such-file.lisp")
        items = [paths[0], str(broken), missing, paths[1], paths[2]]
        result = compile_batch(items, jobs=1)
        assert [f.status for f in result.files] == \
            ["ok", "error", "error", "ok", "ok"]
        assert "ReaderError" in result.files[1].error
        assert "FileNotFoundError" in result.files[2].error
        assert result.error_count == 2

    def test_label_source_pairs(self):
        result = compile_batch([
            ("unit-a", "(defun f (x) (+ x 1))"),
            ("unit-b", "(defun g (x) (* x 2))"),
        ])
        assert [f.path for f in result.files] == ["unit-a", "unit-b"]
        assert result.files[0].defined == ["f"]
        assert result.files[1].defined == ["g"]

    def test_cache_shared_across_runs(self, tmp_path):
        paths = write_corpus(tmp_path, n=4)
        cache_dir = str(tmp_path / ".cache")
        cold = compile_batch(paths, jobs=1, cache_dir=cache_dir)
        assert cold.counters().get("cache_hits", 0) == 0
        assert cold.counters()["cache_stores"] > 0
        warm = compile_batch(paths, jobs=1, cache_dir=cache_dir)
        assert warm.counters()["cache_hits"] == \
            cold.counters()["cache_stores"] + \
            cold.counters().get("cache_hits", 0)
        assert warm.counters().get("cache_misses", 0) == 0

    def test_cache_dir_from_service(self, tmp_path):
        paths = write_corpus(tmp_path, n=2)
        service = CompilerService(cache=str(tmp_path / ".cache"))
        service.batch(paths)
        warm = service.batch(paths)
        assert warm.counters()["cache_hits"] > 0
        assert warm.cache_dir == str(tmp_path / ".cache")

    def test_load_prelude(self, tmp_path):
        path = tmp_path / "uses-prelude.lisp"
        path.write_text(
            "(defun doubled (lst) (mapcar1 (lambda (x) (* x 2)) lst))\n",
            encoding="utf-8")
        result = compile_batch([str(path)], load_prelude=True)
        assert result.files[0].ok

    def test_report_text(self, tmp_path):
        paths = write_corpus(tmp_path, n=2)
        result = compile_batch(paths, jobs=1,
                               cache_dir=str(tmp_path / ".cache"))
        text = result.report()
        assert "2 ok / 0 failed" in text
        assert "cache" in text

    def test_to_json_round_trips_through_json(self, tmp_path):
        paths = write_corpus(tmp_path, n=2)
        result = compile_batch(paths, jobs=1)
        data = json.loads(json.dumps(result.to_json()))
        assert data["ok"] == 2
        assert data["errors"] == 0
        assert len(data["files"]) == 2


class TestParallelBatch:
    def test_pool_matches_inline_results(self, tmp_path):
        paths = write_corpus(tmp_path, n=8)
        inline = compile_batch(paths, jobs=1)
        pooled = compile_batch(paths, jobs=4)
        assert pooled.jobs == 4
        assert [f.path for f in pooled.files] == [f.path for f in inline.files]
        assert [f.defined for f in pooled.files] == \
            [f.defined for f in inline.files]
        assert [f.status for f in pooled.files] == \
            [f.status for f in inline.files]

    def test_pool_uses_multiple_workers(self, tmp_path):
        paths = write_corpus(tmp_path, n=12)
        pooled = compile_batch(paths, jobs=4)
        if pooled.executor == "process":
            pids = {f.pid for f in pooled.files}
            assert len(pids) > 1
            assert os.getpid() not in pids
        else:  # thread fallback on restricted platforms
            assert {f.pid for f in pooled.files} == {os.getpid()}

    def test_pool_with_errors_and_cache(self, tmp_path):
        paths = write_corpus(tmp_path, n=6)
        broken = tmp_path / "broken.lisp"
        broken.write_text("(defun oops (", encoding="utf-8")
        items = paths[:3] + [str(broken)] + paths[3:]
        cache_dir = str(tmp_path / ".cache")
        cold = compile_batch(items, jobs=3, cache_dir=cache_dir)
        assert cold.error_count == 1
        warm = compile_batch(items, jobs=3, cache_dir=cache_dir)
        assert warm.error_count == 1
        assert warm.counters()["cache_hits"] == \
            cold.counters()["cache_stores"] + \
            cold.counters().get("cache_hits", 0)


class TestOptionsSpec:
    def test_spec_is_picklable_and_complete(self):
        """Pool workers receive the options themselves: a plain value
        that pickles whole (the cache travels beside it)."""
        import dataclasses
        import pickle

        options = CompilerOptions(target="vax", enable_cse=True,
                                  tier="native", timing="pipelined",
                                  verify_ir=True, trace_rewrites=True)
        assert pickle.loads(pickle.dumps(options)) == options
        assert len(dataclasses.fields(CompilerOptions)) == 32


class TestBatchCli:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_cli_ok(self, tmp_path, capsys):
        paths = write_corpus(tmp_path, n=3)
        out_json = str(tmp_path / "report.json")
        code, out = self.run_cli(
            ["batch", *paths, "--jobs", "1",
             "--cache-dir", str(tmp_path / ".cache"), "--json", out_json],
            capsys)
        assert code == 0
        assert "3 ok / 0 failed" in out
        with open(out_json, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["ok"] == 3

    def test_cli_error_exit_code(self, tmp_path, capsys):
        broken = tmp_path / "broken.lisp"
        broken.write_text("(defun oops (", encoding="utf-8")
        code, out = self.run_cli(["batch", str(broken)], capsys)
        assert code == 1
        assert "ERR" in out

    def test_cli_target_selection(self, tmp_path, capsys):
        paths = write_corpus(tmp_path, n=1)
        code, out = self.run_cli(
            ["batch", paths[0], "--target", "vax"], capsys)
        assert code == 0

    def test_repl_entry_still_default(self, capsys, monkeypatch):
        """`python -m repro --help`-style argv (no `batch`) still routes to
        the REPL parser."""
        import repro.__main__ as main_module

        with pytest.raises(SystemExit):
            main_module.main(["--help"])
        assert "REPL" in capsys.readouterr().out
