"""Setuptools entry point for the repro package.

Keeps ``pip install -e .`` / ``python setup.py develop`` working without
network access (the ``_build_backend/offline_backend.py`` shim covers
PEP 517 front ends).  The ``py.typed`` marker ships with the package so
type checkers apply the inline annotations of the typed core
(``repro.api``, ``repro.engine.config``, ``repro.scenarios.spec``) per
PEP 561.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# ``repro.__version__`` is the single source of the version.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE).group(1)

setup(
    name="repro-lattice-scheduling",
    version=VERSION,
    description=("Reproduction of 'Scheduling sensors by tiling lattices' "
                 "(PODC 2008): lattice tilings, schedules, verification, "
                 "and a numpy simulation engine"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
)
