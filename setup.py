"""Packaging script for ``repro``, the RedMulE reproduction package.

Declares the distribution metadata and installs the pure-Python package
that lives under ``src/``::

    pip install .                      # or ``pip install -e .``
    python3 setup.py --name --version  # print the metadata

The version is read from ``src/repro/__init__.py`` so the package and its
metadata cannot disagree.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Cycle-accurate, bit-exact model of the RedMulE FP16 "
                 "matrix-multiplication accelerator"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
