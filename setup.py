"""Packaging for the PSP framework reproduction (``pip install -e .``)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def _version() -> str:
    """``__version__`` of ``src/repro/__init__.py``, read without importing
    the package."""
    source = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"$', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="psp-framework",
    version=_version(),
    description=(
        "PSP Framework: social-media-driven ISO/SAE-21434 risk assessment "
        "(reproduction of Oberti et al., DSN 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "networkx"]
    },
)
