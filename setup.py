"""Setuptools shim.

This file is the project's only metadata source (there is no
``pyproject.toml``).  It keeps the package installable in editable mode on
minimal, offline environments where the ``wheel`` package (required by the
PEP 517 editable path of older setuptools) is unavailable::

    pip install -e . --no-build-isolation --no-use-pep517
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'New Dynamic Heuristics in the Client-Agent-Server Model' "
        "(Caniou & Jeannot, HCW'03)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-experiment=repro.cli:main",
        ]
    },
)
