"""Packaging for the ``repro`` distribution (the package lives in ``src/``).

There is no ``pyproject.toml``: this classic ``setup.py`` holds all the
metadata, so ``pip install -e . --no-build-isolation --no-use-pep517``
(and plain ``python setup.py develop``) work offline, without the
``wheel`` package a PEP 517 editable install needs.  The version is read
from ``src/repro/__init__.py``, its one home.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="A reproduction of LineageX: column lineage extraction for SQL",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
