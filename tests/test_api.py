"""Tests for repro.api: the wire schema, the semantic/non-semantic option
split, and the CompilerService facade."""

import pytest

import repro
from repro.api import (
    API_VERSION,
    ApiError,
    CompilerService,
    STABILITY_TIERS,
    WIRE_OPS,
    check_request,
    error_response,
    ok_response,
    options_from_wire,
    options_to_wire,
)
from repro.cache import NON_SEMANTIC_OPTION_FIELDS as CACHE_NON_SEMANTIC
from repro.cache import options_fingerprint
from repro.options import (
    NON_SEMANTIC_OPTION_FIELDS,
    SEMANTIC_OPTION_FIELDS,
    CompilerOptions,
)


class TestRequestEnvelope:
    def test_valid_request(self):
        op, params = check_request(
            {"api": API_VERSION, "op": "compile", "source": "(+ 1 2)"})
        assert op == "compile"
        assert params == {"source": "(+ 1 2)"}

    def test_not_an_object(self):
        with pytest.raises(ApiError) as err:
            check_request(["api", 1])
        assert err.value.code == "bad-request"

    def test_missing_api_field(self):
        with pytest.raises(ApiError) as err:
            check_request({"op": "ping"})
        assert err.value.code == "bad-request"

    @pytest.mark.parametrize("version", [0, 2, "1", None, 99])
    def test_unknown_api_version_is_structured(self, version):
        with pytest.raises(ApiError) as err:
            check_request({"api": version, "op": "ping"})
        assert err.value.code == "unsupported-api-version"
        envelope = error_response(err.value)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "unsupported-api-version"
        assert str(API_VERSION) in envelope["error"]["message"]

    def test_unknown_op(self):
        with pytest.raises(ApiError) as err:
            check_request({"api": API_VERSION, "op": "frobnicate"})
        assert err.value.code == "unknown-op"

    def test_every_wire_op_passes(self):
        for op in WIRE_OPS:
            assert check_request({"api": API_VERSION, "op": op})[0] == op

    def test_envelopes(self):
        good = ok_response("ping", {"pong": True})
        assert good["ok"] is True and good["api"] == API_VERSION
        bad = error_response(ValueError("boom"), code="internal-error")
        assert bad["ok"] is False
        assert bad["error"]["code"] == "internal-error"
        assert "boom" in bad["error"]["message"]

    def test_batch_count_never_overrides_the_envelope(self):
        # A batch whose every unit failed counts 0 ok units; the request
        # itself still succeeded.
        envelope = ok_response("batch", {"files": [], "ok": 0, "errors": 1})
        assert envelope["ok"] is True and envelope["op"] == "batch"


class TestOptionSplit:
    def test_split_partitions_all_fields(self):
        from dataclasses import fields

        everything = {f.name for f in fields(CompilerOptions)}
        assert SEMANTIC_OPTION_FIELDS | NON_SEMANTIC_OPTION_FIELDS \
            == everything
        assert not SEMANTIC_OPTION_FIELDS & NON_SEMANTIC_OPTION_FIELDS

    def test_observability_fields_are_non_semantic(self):
        # tier selects how compiled code is executed and timing selects
        # how executed cycles are charged -- never what it compiles to,
        # so neither may perturb cache keys.  The cache itself is no
        # option at all: it travels beside the options.
        assert {"verify_ir", "trace_rewrites", "tier", "timing"} \
            == set(NON_SEMANTIC_OPTION_FIELDS)

    def test_cache_reexport_is_the_same_object(self):
        # cache.py historically declared its own frozenset; it must now be
        # the single declaration from options.py.
        assert CACHE_NON_SEMANTIC == NON_SEMANTIC_OPTION_FIELDS

    def test_fingerprint_ignores_non_semantic_fields(self):
        base = CompilerOptions()
        assert options_fingerprint(base) == options_fingerprint(
            CompilerOptions(verify_ir=True, trace_rewrites=True))

    def test_fingerprint_sees_semantic_fields(self):
        assert options_fingerprint(CompilerOptions()) \
            != options_fingerprint(CompilerOptions(enable_cse=True))

    def test_wire_round_trip(self):
        options = CompilerOptions(enable_cse=True, target="vax")
        wire = options_to_wire(options)
        assert set(wire) == set(SEMANTIC_OPTION_FIELDS)
        rebuilt = options_from_wire(CompilerOptions(), wire)
        assert options_fingerprint(rebuilt) == options_fingerprint(options)

    def test_override_semantic_field(self):
        out = options_from_wire(CompilerOptions(), {"enable_cse": True})
        assert out.enable_cse is True

    def test_override_non_semantic_field_rejected(self):
        with pytest.raises(ApiError) as err:
            options_from_wire(CompilerOptions(), {"verify_ir": True})
        assert err.value.code == "bad-options"
        assert "non-semantic" in str(err.value)

    #: Fields the options no longer have: the optimizer's rule-family
    #: switches, size limits and fixpoint bounds, and the register count
    #: (the target's).
    REMOVED_FIELDS = (
        "enable_beta", "enable_procedure_integration",
        "enable_constant_folding", "enable_if_distribution",
        "enable_dead_code", "enable_assoc_commut",
        "enable_argument_reversal", "enable_sin_to_sinc",
        "substitution_size_limit", "integration_size_limit",
        "global_integration_limit", "cse_min_complexity",
        "registers_available", "max_passes", "optimizer_fuel")

    def test_override_unknown_field_rejected(self):
        for name in ("enable_warp_drive",) + self.REMOVED_FIELDS:
            with pytest.raises(ApiError) as err:
                options_from_wire(CompilerOptions(), {name: 1})
            assert err.value.code == "bad-options", name
            assert f"unknown option(s): {name}" in str(err.value)
        fingerprint = options_fingerprint(CompilerOptions())
        assert not [name for name in self.REMOVED_FIELDS
                    if f"{name}=" in fingerprint]

    def test_override_bad_value_rejected(self):
        with pytest.raises(ApiError) as err:
            options_from_wire(CompilerOptions(), {"target": "cray"})
        assert err.value.code == "bad-options"

    def test_override_none_is_identity(self):
        base = CompilerOptions()
        assert options_from_wire(base, None) is base


class TestCompilerService:
    def test_compile_defun(self):
        service = CompilerService()
        result = service.compile("(defun inc (x) (+ x 1))")
        assert result.defined == ["inc"]
        assert result.seconds > 0
        assert result.listing is None and result.diagnostics is None

    def test_compile_with_listing_and_diagnostics(self):
        service = CompilerService()
        result = service.compile("(defun inc (x) (+ x 1))",
                                 want_listing=True, want_diagnostics=True)
        assert "inc" in result.listing
        assert "phases" in result.diagnostics
        payload = result.to_json()
        assert payload["defined"] == ["inc"]
        assert "listing" in payload and "diagnostics" in payload

    def test_compile_with_wire_override(self):
        service = CompilerService()
        result = service.compile("(defun inc (x) (+ x 1))",
                                 options={"target": "vax"})
        assert result.defined == ["inc"]

    def test_compile_rejects_non_semantic_override(self):
        service = CompilerService()
        with pytest.raises(ApiError):
            service.compile("(+ 1 2)", options={"verify_ir": True})

    def test_fresh_compiler_per_request(self):
        # Specials proclaimed by one request must not leak into the next.
        service = CompilerService()
        service.compile("(defvar *knob* 7)")
        result = service.compile("(defun f (x) (+ x 1))",
                                 want_listing=True)
        assert "*knob*" not in result.listing

    def test_session_compiler_accumulates(self):
        service = CompilerService()
        session = service.session()
        assert session is service.session()
        session.compile("(defun inc (x) (+ x 1))")
        session.compile("(defun twice (x) (inc (inc x)))")
        machine = session.machine()
        from repro.datum import sym

        assert machine.run(sym("twice"), [5]) == 7

    def test_shared_cache_hits(self, tmp_path):
        service = CompilerService(cache=str(tmp_path / "store"))
        source = "(defun inc (x) (+ x 1))"
        cold = service.compile(source)
        warm = service.compile(source)
        assert cold.counters.get("cache_misses", 0) >= 1
        assert warm.counters.get("cache_hits", 0) >= 1

    def test_ping_and_stats(self):
        service = CompilerService()
        pong = service.ping()
        assert pong["pong"] is True
        assert pong["version"] == repro.__version__
        service.compile("(defun f () 1)")
        stats = service.stats()
        assert stats["ops"]["compile"] == 1
        assert stats["ops"]["ping"] == 1
        assert stats["target"] == "s1"

    def test_batch_local(self, tmp_path):
        paths = []
        for index in range(3):
            path = tmp_path / f"file{index}.lisp"
            path.write_text(f"(defun f{index} (x) (+ x {index}))")
            paths.append(str(path))
        service = CompilerService()
        result = service.batch(paths, jobs=1)
        assert result.error_count == 0
        assert [f.status for f in result.files] == ["ok"] * 3


class TestWireDispatch:
    def test_handle_compile(self):
        service = CompilerService()
        payload = service.handle_op(
            "compile", {"source": "(defun f (x) x)", "listing": True})
        assert payload["defined"] == ["f"]
        assert "f" in payload["listing"]

    def test_handle_compile_requires_source(self):
        service = CompilerService()
        with pytest.raises(ApiError) as err:
            service.handle_op("compile", {})
        assert err.value.code == "bad-request"

    def test_handle_compile_bad_name(self):
        service = CompilerService()
        with pytest.raises(ApiError) as err:
            service.handle_op("compile", {"source": "1", "name": 3})
        assert err.value.code == "bad-request"

    def test_handle_batch(self):
        service = CompilerService()
        payload = service.handle_op("batch", {"units": [
            {"label": "a", "source": "(defun g () 1)"},
            {"label": "b", "source": "(defun h ("},
        ]})
        assert payload["ok"] == 1 and payload["errors"] == 1
        assert payload["files"][0]["status"] == "ok"
        assert payload["files"][1]["status"] == "error"

    def test_handle_batch_keys_units_by_their_inputs(self):
        # The response cache answers a unit only when the effective
        # semantic options, the prelude flag and the exact source text
        # all match an earlier one.
        service = CompilerService()

        def served(source="(defun g () 1)", **params):
            units = [{"label": "a", "source": source}]
            entry = service.handle_op("batch", {"units": units,
                                                **params})["files"][0]
            assert entry["defined"] == ["g"]
            return entry.get("served_from") == "response-cache"

        assert not served()
        assert served()
        assert not served(options={"enable_cse": True})
        assert served(options={"enable_cse": True})
        assert not served(prelude=True)
        assert not served("(defun g ()  1)")
        assert service.stats()["ops"]["compile"] == 4

    def test_handle_batch_response_cache_off(self):
        service = CompilerService(response_cache_size=0)
        units = [{"label": "a", "source": "(defun g () 1)"}]
        for _ in range(2):
            entry = service.handle_op("batch", {"units": units})["files"][0]
            assert "served_from" not in entry
        assert service.stats()["ops"]["compile"] == 2

    def test_handle_batch_requires_units(self):
        service = CompilerService()
        for bad in ({}, {"units": []}, {"units": [{"label": "x"}]}):
            with pytest.raises(ApiError) as err:
                service.handle_op("batch", dict(bad))
            assert err.value.code == "bad-request"


class TestPublicSurface:
    def test_every_export_has_a_tier(self):
        import repro.api as api

        assert sorted(api.__all__) == sorted(STABILITY_TIERS)
        for name in api.__all__:
            assert hasattr(api, name)
            assert STABILITY_TIERS[name] in ("stable", "provisional")

    def test_package_reexports(self):
        for name in ("CompilerService", "ServiceResult", "ApiError",
                     "API_VERSION", "connect", "ServiceClient",
                     "ReproServer", "process_pool_viable",
                     "SEMANTIC_OPTION_FIELDS",
                     "NON_SEMANTIC_OPTION_FIELDS"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_connect_returns_client(self):
        client = repro.connect("/tmp/nonexistent.sock", timeout=0.1)
        from repro.client import ServiceClient

        assert isinstance(client, ServiceClient)
        assert client.timeout == 0.1
