"""The content-addressed compilation cache: key derivation properties,
layer behavior (LRU memory + disk), compiler integration, and diagnostics
counters.

The key properties (stability across re-reads, sensitivity to every
semantic option and to the target) are the soundness argument for
whole-pipeline memoization; they are exercised both on fixed sources and on
the seeded random corpus from ``tests.genprog``.
"""

import dataclasses
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Compiler, CompilerOptions, CompilerService
from repro.cache import (
    CACHE_FORMAT_VERSION,
    CachedFunction,
    CompilationCache,
    MemoryCache,
    NON_SEMANTIC_OPTION_FIELDS,
    cache_key,
    canonical_source,
)
from repro.datum import sym

from .genprog import generate_program


def key_of(source, options=None):
    options = options or CompilerOptions()
    return cache_key(canonical_source(source), options)


class TestCanonicalSource:
    def test_whitespace_is_collapsed(self):
        assert canonical_source("(defun f (x) (+ x 1))") == \
            canonical_source("(defun   f\n  (x)\n  (+ x   1))")

    def test_comments_are_dropped(self):
        assert canonical_source("(defun f (x) x) ; identity") == \
            canonical_source("(defun f (x) x)")

    def test_different_programs_differ(self):
        assert canonical_source("(defun f (x) (+ x 1))") != \
            canonical_source("(defun f (x) (+ x 2))")

    def test_multiple_forms(self):
        text = "(defun f (x) x)\n(defun g (x) (f x))"
        assert canonical_source(text) == canonical_source(
            "(defun f (x) x)    (defun g (x) (f x))")


class TestCacheKey:
    def test_stable_across_rereads(self):
        source = "(defun f (x) (* x 3))"
        assert key_of(source) == key_of(source)

    def test_insensitive_to_formatting(self):
        assert key_of("(defun f (x) (* x 3))") == \
            key_of(";; header comment\n(defun f (x)\n   (* x 3))")

    def test_sensitive_to_source(self):
        assert key_of("(defun f (x) (* x 3))") != \
            key_of("(defun f (x) (* x 4))")

    def test_sensitive_to_target(self):
        source = "(defun f (x) x)"
        keys = {key_of(source, CompilerOptions(target=t))
                for t in ("s1", "vax", "pdp10")}
        assert len(keys) == 3

    def test_sensitive_to_extra_state(self):
        source = "(defun f (x) (+ *depth* x))"
        canonical = canonical_source(source)
        options = CompilerOptions()
        assert cache_key(canonical, options, extra=("specials:",)) != \
            cache_key(canonical, options, extra=("specials:*depth*",))

    def test_every_semantic_option_field_perturbs_the_key(self):
        """Flipping ANY semantic CompilerOptions field must change the
        fingerprint (new fields added by future PRs are covered
        automatically because the fingerprint enumerates dataclass
        fields)."""
        source = "(defun f (x) x)"
        base = CompilerOptions()
        base_key = key_of(source, base)
        checked = 0
        for f in dataclasses.fields(CompilerOptions):
            if f.name in NON_SEMANTIC_OPTION_FIELDS:
                continue
            value = getattr(base, f.name)
            if isinstance(value, bool):
                changed = not value
            elif isinstance(value, int):
                changed = value + 1
            elif f.name == "target":
                changed = "vax"
            else:  # pragma: no cover - no such fields today
                pytest.fail(f"unhandled option field type: {f.name}")
            variant = dataclasses.replace(base, **{f.name: changed})
            assert key_of(source, variant) != base_key, \
                f"option {f.name} did not perturb the cache key"
            checked += 1
        assert checked >= 25  # the ablation surface is wide; keep it so

    def test_non_semantic_fields_do_not_perturb(self):
        source = "(defun f (x) x)"
        assert key_of(source, CompilerOptions(trace_rewrites=True)) == \
            key_of(source, CompilerOptions())

    def test_fingerprint_excludes_cache_config(self):
        # The cache travels beside the options, never inside them, so no
        # cache configuration can reach the fingerprint.
        assert "cache" not in {
            f.name for f in dataclasses.fields(CompilerOptions)}

    def test_version_is_part_of_the_key(self, monkeypatch):
        source = "(defun f (x) x)"
        before = key_of(source)
        monkeypatch.setattr("repro.cache.CACHE_FORMAT_VERSION",
                            CACHE_FORMAT_VERSION + 1)
        assert key_of(source) != before

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_program_keys_are_stable_and_content_addressed(
            self, seed):
        source, _, _ = generate_program(seed)
        assert key_of(source) == key_of(source)
        # Injecting whitespace/comments anywhere between tokens must not
        # move the key (content addressing, not text addressing).
        rng = random.Random(seed)
        mangled = source.replace(
            " ", "\n ; noise\n " if rng.random() < 0.5 else "  ", 1)
        assert key_of(mangled) == key_of(source)


class TestMemoryCache:
    def entry(self, name="f"):
        compiler = Compiler()
        compiler.compile_source(f"(defun {name} (x) x)")
        compiled = compiler.functions[sym(name)]
        return CachedFunction(name=name, code=compiled.code,
                              optimized_source=compiled.optimized_source)

    def test_lru_eviction(self):
        cache = MemoryCache(max_entries=2)
        e = self.entry()
        cache.put("a", e)
        cache.put("b", e)
        assert cache.get("a") is e      # refresh "a"
        cache.put("c", e)               # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is e
        assert cache.get("c") is e
        assert cache.stats.evictions == 1
        assert cache.stats.stores == 3

    def test_hit_miss_counters(self):
        cache = MemoryCache()
        assert cache.get("nope") is None
        cache.put("k", self.entry())
        assert cache.get("k") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestAsCache:
    """``CompilerService(options, cache)`` takes its cache as None, a
    directory path or a CompilationCache, and nothing else."""

    def test_none_passthrough(self):
        assert CompilerService(cache=None).cache is None

    def test_instance_passthrough(self):
        cache = CompilationCache()
        assert CompilerService(cache=cache).cache is cache

    def test_path_becomes_disk_cache(self, tmp_path):
        cache = CompilerService(cache=str(tmp_path / "store")).cache
        assert cache.directory == str(tmp_path / "store")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            CompilerService(cache=42)


class TestCompilerIntegration:
    SOURCE = "(defun f (x) (+ (* x x) 1))"

    def test_cold_then_warm_hit(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        c1 = Compiler(cache=cache)
        c1.compile_source(self.SOURCE)
        assert c1.last_diagnostics.counters == {
            "cache_misses": 1, "cache_stores": 1}
        c2 = Compiler(cache=cache)
        c2.compile_source(self.SOURCE)
        assert c2.last_diagnostics.counters == {"cache_hits": 1}
        assert c2.run("f", [5]) == 26

    def test_hit_listing_is_byte_identical(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        c1 = Compiler(cache=cache)
        c1.compile_source(self.SOURCE)
        cold = c1.functions[sym("f")].listing()
        c2 = Compiler(cache=cache)
        c2.compile_source(self.SOURCE)
        assert c2.functions[sym("f")].listing() == cold

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_hit_listings_byte_identical(self, seed):
        source, fn, args = generate_program(seed)
        cache = CompilationCache()  # memory-only is enough here
        c1 = Compiler(cache=cache)
        c1.compile_source(source)
        cold_listing = c1.functions[sym(fn)].listing()
        cold_result = c1.run(fn, args)
        c2 = Compiler(cache=cache)
        c2.compile_source(source)
        assert c2.last_diagnostics.counters.get("cache_hits", 0) >= 1
        assert c2.functions[sym(fn)].listing() == cold_listing
        assert c2.run(fn, args) == cold_result

    def test_different_options_do_not_share_entries(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        c1 = Compiler(cache=cache)
        c1.compile_source(self.SOURCE)
        c2 = Compiler(CompilerOptions(optimize=False), cache=cache)
        c2.compile_source(self.SOURCE)
        assert c2.last_diagnostics.counters.get("cache_hits", 0) == 0
        assert c2.run("f", [5]) == 26

    def test_defvar_specials_perturb_defun_keys(self, tmp_path):
        """The same defun text compiled after a defvar proclamation reads
        its free variable as special -- the key must distinguish them."""
        cache = CompilationCache(directory=tmp_path / "store")
        c1 = Compiler(cache=cache)
        c1.compile_source("(defvar *k* 7)\n(defun f () *k*)")
        assert c1.run("f", []) == 7
        c2 = Compiler(cache=cache)
        # Without the defvar first, the same defun must NOT reuse c1's
        # special-reading code path silently; the changed specials set
        # gives it a different key (here it still compiles, to a
        # free-variable lookup, and misses the cache).
        c2.compile_source("(defvar *k* 7)\n(defun f () *k*)")
        assert c2.last_diagnostics.counters.get("cache_hits", 0) == 1

    def test_global_integration_bypasses_cache(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        options = CompilerOptions(enable_global_integration=True)
        compiler = Compiler(options, cache=cache)
        compiler.compile_source(self.SOURCE)
        counters = compiler.last_diagnostics.counters
        assert counters.get("cache_bypass", 0) == 1
        assert "cache_hits" not in counters
        assert "cache_misses" not in counters

    def test_expression_wrapper_name_is_part_of_key(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        c1 = Compiler(cache=cache)
        c1.compile_expression("(+ 1 2)", name="*one*")
        c2 = Compiler(cache=cache)
        result = c2.compile_expression("(+ 1 2)", name="*two*")
        assert c2.last_diagnostics.counters.get("cache_hits", 0) == 0
        assert str(result.name) == "*two*"
        c3 = Compiler(cache=cache)
        c3.compile_expression("(+ 1 2)", name="*one*")
        assert c3.last_diagnostics.counters.get("cache_hits", 0) == 1
        assert c3.run("*one*", []) == 3

    def test_store_file_name_is_stable(self, tmp_path):
        # Moving the cache out of CompilerOptions moved no key: the
        # default-options entry keeps the name it has always had.
        store = tmp_path / "store"
        Compiler(cache=CompilationCache(directory=store)).compile_source(
            "(defun f (x) x)")
        assert [path.name for path in store.iterdir()] == [
            "e9dbd9eb2b38762928cae9052c64e2b27baef05986963472112e74d127483019"
            ".pkl"]

    def test_phase_report_shows_cache_hit(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        c1 = Compiler(cache=cache)
        c1.compile_source(self.SOURCE)
        c2 = Compiler(cache=cache)
        c2.compile_source(self.SOURCE)
        assert "cache hit" in c2.phase_report()


class TestDiagnosticsSurface:
    def test_counters_round_trip_json(self, tmp_path):
        from repro.diagnostics import Diagnostics

        cache = CompilationCache(directory=tmp_path / "store")
        compiler = Compiler(cache=cache)
        compiler.compile_source("(defun f (x) x)")
        data = compiler.last_diagnostics.to_json()
        assert data["counters"] == {"cache_misses": 1, "cache_stores": 1}
        restored = Diagnostics.from_json(data)
        assert restored.counters == data["counters"]

    def test_report_renders_counters(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        compiler = Compiler(cache=cache)
        compiler.compile_source("(defun f (x) x)")
        report = compiler.last_diagnostics.report()
        assert "Counters:" in report
        assert "cache_misses" in report

    def test_repl_diag_shows_cache_counters(self, tmp_path):
        from repro.__main__ import Repl

        out = io.StringIO()
        service = CompilerService(cache=str(tmp_path / "store"))
        repl = Repl(out=out, service=service)
        repl.handle("(defun f (x) (+ x 1))")
        repl.handle("(defun f (x) (+ x 1))")  # same text: a hit
        repl.handle(":diag")
        text = out.getvalue()
        assert "cache_hits" in text

    def test_cache_to_json_shape(self, tmp_path):
        cache = CompilationCache(directory=tmp_path / "store")
        compiler = Compiler(cache=cache)
        compiler.compile_source("(defun f (x) x)")
        data = cache.to_json()
        assert data["format_version"] == CACHE_FORMAT_VERSION
        assert data["stats"]["misses"] == 1
        assert data["memory"]["stores"] == 1
        assert data["disk"]["stores"] == 1
