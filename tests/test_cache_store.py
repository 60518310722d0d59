"""Robustness of the on-disk cache store.

The cache is an accelerator, never a correctness dependency: any damaged,
version-skewed, or unwritable store must degrade to a cold compile with a
diagnostics warning -- no exception may escape to the caller.
"""

import os
import pickle


from repro import Compiler, CompilerOptions
from repro.cache import (
    CACHE_FORMAT_VERSION,
    CachedFunction,
    CompilationCache,
    DiskCache,
    _MAGIC,
    cache_key,
    canonical_source,
)
from repro.datum import sym

SOURCE = "(defun f (x) (* x 7))"


def store_dir(tmp_path):
    return tmp_path / "store"


def populate(tmp_path):
    """Cold-compile SOURCE through a disk cache; returns the entry path."""
    cache = CompilationCache(directory=store_dir(tmp_path))
    compiler = Compiler(cache=cache)
    compiler.compile_source(SOURCE)
    entries = [p for p in os.listdir(store_dir(tmp_path))
               if p.endswith(".pkl")]
    assert len(entries) == 1
    return store_dir(tmp_path) / entries[0]


def compile_against(tmp_path):
    """A fresh compiler over the same store; returns (compiler, counters)."""
    cache = CompilationCache(directory=store_dir(tmp_path))
    compiler = Compiler(cache=cache)
    compiler.compile_source(SOURCE)
    return compiler, compiler.last_diagnostics.counters


class TestCorruptEntries:
    def test_truncated_pickle_degrades_to_cold_compile(self, tmp_path):
        path = populate(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        compiler, counters = compile_against(tmp_path)
        assert counters.get("cache_hits", 0) == 0
        assert counters["cache_misses"] == 1
        assert counters["cache_stores"] == 1      # re-stored after recompile
        assert compiler.run("f", [6]) == 42
        assert any("corrupt" in w.message for w in
                   compiler.last_diagnostics.warnings)

    def test_garbage_bytes_degrade_to_cold_compile(self, tmp_path):
        path = populate(tmp_path)
        path.write_bytes(b"\x00\x01 this is not a pickle \xff")
        compiler, counters = compile_against(tmp_path)
        assert counters["cache_misses"] == 1
        assert compiler.run("f", [6]) == 42

    def test_empty_file_degrades_to_cold_compile(self, tmp_path):
        path = populate(tmp_path)
        path.write_bytes(b"")
        compiler, counters = compile_against(tmp_path)
        assert counters["cache_misses"] == 1
        assert compiler.run("f", [6]) == 42

    def test_pickled_wrong_object_degrades(self, tmp_path):
        path = populate(tmp_path)
        path.write_bytes(pickle.dumps({"not": "an envelope"}))
        compiler, counters = compile_against(tmp_path)
        assert counters["cache_misses"] == 1
        assert compiler.run("f", [6]) == 42

    def test_rewritten_entry_hits_again(self, tmp_path):
        """After a corruption-triggered recompile the store heals itself."""
        path = populate(tmp_path)
        path.write_bytes(b"junk")
        compile_against(tmp_path)                  # heals
        _, counters = compile_against(tmp_path)
        assert counters == {"cache_hits": 1}


class TestVersionSkew:
    def test_version_mismatch_is_a_miss_not_an_error(self, tmp_path):
        path = populate(tmp_path)
        payload = pickle.loads(path.read_bytes())
        value = payload[2]
        path.write_bytes(pickle.dumps(
            (_MAGIC, CACHE_FORMAT_VERSION + 1, value)))
        compiler, counters = compile_against(tmp_path)
        assert counters.get("cache_hits", 0) == 0
        assert counters["cache_misses"] == 1
        assert compiler.run("f", [6]) == 42
        assert any("version" in w.message for w in
                   compiler.last_diagnostics.warnings)

    def test_wrong_magic_is_a_miss(self, tmp_path):
        path = populate(tmp_path)
        payload = pickle.loads(path.read_bytes())
        path.write_bytes(pickle.dumps(
            ("someone-elses-cache", CACHE_FORMAT_VERSION, payload[2])))
        _, counters = compile_against(tmp_path)
        assert counters["cache_misses"] == 1

    def test_key_derivation_also_namespaces_versions(self):
        """Even before envelope checks, a version bump changes the address
        itself (old entries are simply never consulted)."""
        canonical = canonical_source(SOURCE)
        options = CompilerOptions()
        key_now = cache_key(canonical, options)
        assert CACHE_FORMAT_VERSION >= 1
        assert len(key_now) == 64  # sha256 hex


class TestUnwritableStore:
    def test_store_path_is_a_file_not_a_directory(self, tmp_path):
        blocker = tmp_path / "store"
        blocker.write_text("i am a file where a directory should be")
        cache = CompilationCache(directory=blocker)
        compiler = Compiler(cache=cache)
        compiler.compile_source(SOURCE)           # must not raise
        assert compiler.run("f", [6]) == 42
        assert cache.disk.stats.store_errors == 1
        assert any("cannot store" in w.message for w in
                   compiler.last_diagnostics.warnings)

    def test_readonly_directory_degrades(self, tmp_path, monkeypatch):
        """Simulated read-only store (chmod is a no-op for root, so the
        failure is injected at the atomic-replace boundary)."""
        populate(tmp_path)

        def deny(*args, **kwargs):
            raise PermissionError(13, "read-only store")

        monkeypatch.setattr(os, "replace", deny)
        cache = CompilationCache(directory=store_dir(tmp_path))
        compiler = Compiler(cache=cache)
        # Different source => miss => attempted store hits the read-only
        # wall; the compile itself must succeed.
        compiler.compile_source("(defun g (x) (+ x 1))")
        assert compiler.run("g", [1]) == 2
        assert cache.disk.stats.store_errors == 1
        assert any("cannot store" in w.message for w in
                   compiler.last_diagnostics.warnings)

    def test_unreadable_entry_degrades(self, tmp_path, monkeypatch):
        path = populate(tmp_path)
        real_open = open

        def broken_open(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "unreadable entry")
            return real_open(file, *args, **kwargs)

        import builtins

        monkeypatch.setattr(builtins, "open", broken_open)
        compiler, counters = compile_against(tmp_path)
        assert counters.get("cache_hits", 0) == 0
        assert compiler.run("f", [6]) == 42


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, tmp_path):
        populate(tmp_path)
        leftovers = [p for p in os.listdir(store_dir(tmp_path))
                     if p.startswith(".tmp-")]
        assert leftovers == []

    def test_failed_write_cleans_its_temp_file(self, tmp_path, monkeypatch):
        populate(tmp_path)

        def deny(*args, **kwargs):
            raise PermissionError(13, "read-only store")

        monkeypatch.setattr(os, "replace", deny)
        cache = CompilationCache(directory=store_dir(tmp_path))
        compiler = Compiler(cache=cache)
        compiler.compile_source("(defun h (x) x)")
        monkeypatch.undo()
        leftovers = [p for p in os.listdir(store_dir(tmp_path))
                     if p.startswith(".tmp-")]
        assert leftovers == []

    def test_direct_disk_layer_roundtrip(self, tmp_path):
        compiler = Compiler()
        compiler.compile_source(SOURCE)
        compiled = compiler.functions[sym("f")]
        value = CachedFunction(name="f", code=compiled.code,
                               optimized_source=compiled.optimized_source)
        disk = DiskCache(store_dir(tmp_path))
        disk.put("k" * 64, value)
        loaded = disk.get("k" * 64)
        assert loaded is not None
        assert loaded.listing() == compiled.listing()
        assert disk.stats.stores == 1
        assert disk.stats.hits == 1
