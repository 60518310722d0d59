"""The lazy package surface: ``import repro`` loads nothing, and each entry
point imports only the layers it runs.

Module loading is process-global, so every check that asserts something
is *not* imported runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.machine

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The Table 1 pipeline: what a compile must load.
PIPELINE = ("repro.reader", "repro.ir.convert", "repro.analysis",
            "repro.optimizer.meta", "repro.annotate", "repro.tnbind",
            "repro.codegen.generator", "repro.compiler")

#: Layers a plain compile never runs.
NOT_COMPILING = ("repro.serve", "repro.client", "repro.fuzz", "repro.trace",
                 "repro.telemetry", "repro.interp", "repro.verify",
                 "repro.machine.cpu", "repro.machine.native",
                 "repro.machine.heap", "repro.optimizer.cse",
                 "repro.codegen.peephole")

#: Standard-library machinery only the daemon, the client or a worker
#: pool needs.
NOT_COMPILING_STDLIB = ("asyncio", "socket", "concurrent.futures",
                        "multiprocessing", "difflib")


def modules_after(code: str) -> set:
    """Every module loaded once *code* has run in a fresh interpreter."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def baseline():
    """What the interpreter loads on its own (site hooks included)."""
    return modules_after("pass")


def repro_modules(modules: set) -> set:
    return {name for name in modules
            if name == "repro" or name.startswith("repro.")}


class TestBareImport:
    def test_loads_no_submodule(self):
        assert repro_modules(modules_after("import repro")) == \
            {"repro", "repro._lazy"}

    def test_isa_does_not_load_the_machine(self):
        loaded = modules_after("import repro.machine.isa")
        assert "repro.machine.isa" in loaded
        for name in ("repro.machine.cpu", "repro.machine.native",
                     "repro.telemetry", "repro.primitives"):
            assert name not in loaded

    def test_submodules_resolve_as_attributes(self):
        loaded = modules_after("import repro\nrepro.serve.ReproServer\n"
                               "import repro.machine\n"
                               "repro.machine.native.translate")
        assert {"repro.serve", "repro.machine.native"} <= loaded


class TestEntryPoints:
    def test_cold_batch_imports_only_the_pipeline(self, tmp_path,
                                                  baseline):
        path = tmp_path / "poly.lisp"
        path.write_text("(defun sq (x) (* x x))\n"
                        "(defun poly (x) (+ (sq x) (* 3 x) 1))\n",
                        encoding="utf-8")
        loaded = modules_after(
            "from repro.__main__ import main\n"
            f"assert main(['batch', {str(path)!r}]) == 0")
        assert set(PIPELINE) <= loaded
        assert not loaded & set(NOT_COMPILING)
        assert not (loaded - baseline) & set(NOT_COMPILING_STDLIB)

    def test_client_side_never_loads_the_pipeline(self):
        # The daemon keys its response cache itself, so a batch client
        # never parses the source it ships: not even the reader loads.
        loaded = modules_after(
            "import repro\n"
            "client = repro.connect('/nonexistent.sock', timeout=0.1)\n"
            "from repro.client import compile_units_via_server\n"
            "compile_units_via_server([('f.lisp', '(defun f (x) x)')],\n"
            "                         '/nonexistent.sock', timeout=0.1)")
        assert "repro.client" in loaded
        for name in PIPELINE:
            assert name not in loaded


class TestExportTable:
    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
            assert name in dir(repro)

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(repro.__all__)

    def test_machine_exports_resolve(self):
        for name in repro.machine.__all__:
            assert getattr(repro.machine, name) is not None
        # One tier vocabulary, declared with the options that validate it.
        assert repro.machine.TIERS is repro.options.TIERS

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope  # noqa: B018
        assert not hasattr(repro.machine, "nope")
