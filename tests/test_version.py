"""The package version has one source, ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and points setuptools at
that attribute, so a built distribution reports the same version as the
package and the daemon's ``ping``.
"""

import os
import re
import warnings

import pytest

import repro

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def _section(name: str) -> str:
    with open(PYPROJECT, "r", encoding="utf-8") as handle:
        text = handle.read()
    match = re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text,
                      re.M | re.S)
    assert match, f"pyproject.toml has no [{name}] table"
    return match.group(1)


def test_pyproject_takes_the_version_from_the_package():
    project = _section("project")
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"'
                     r"\s*\}", _section("tool.setuptools.dynamic"), re.M)


def test_setuptools_resolves_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT)
    assert config["project"]["version"] == repro.__version__
