"""Import-surface tests: every advertised public name resolves.

Guards against broken ``__all__`` lists and circular imports — the
failure mode that only shows up when a downstream user does
``from repro.core import X``.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PACKAGES = (
    "repro",
    "repro.core",
    "repro.iso21434",
    "repro.iso21434.feasibility",
    "repro.nlp",
    "repro.social",
    "repro.market",
    "repro.vehicle",
    "repro.baselines",
    "repro.tara",
    "repro.analysis",
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported is not None, f"{package_name} must define __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_sorted_and_unique(package_name):
    package = importlib.import_module(package_name)
    exported = list(package.__all__)
    assert len(exported) == len(set(exported)), f"{package_name} has duplicates"


def test_top_level_quickstart_names():
    import repro

    for name in ("PSPFramework", "TargetApplication", "TimeWindow",
                 "AttackVector", "FeasibilityRating", "WeightTable"):
        assert hasattr(repro, name)


def test_version_string():
    import repro

    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_cli_module_importable():
    from repro.cli import build_parser, main

    assert callable(main)
    assert build_parser().prog == "repro"


def test_program_imports_no_networkx():
    """networkx is a test oracle only (``tests/vehicle``), never a
    run-time import: a fresh interpreter loading the program's entry
    modules has no networkx module loaded, installed or not."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.stream.replay, repro.tara.model, "
        "repro.vehicle\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
