"""Legacy setup shim.

The project metadata lives in pyproject.toml; this file exists so that
``pip install -e .`` / ``python setup.py develop`` work in offline
environments without the ``wheel`` package (pip falls back to
``setup.py develop``).  Keep the two in sync: numpy is the ``fast``
extra (the pure-Python reference engine needs nothing), and the C
kernel source ships as package data so csr can compile it on demand.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Fault Tolerant BFS structures with a reinforcement-backup tradeoff "
        "(Parter & Peleg, SPAA 2015) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.engine": ["*.c"]},
    python_requires=">=3.10",
    install_requires=[],
    extras_require={"fast": ["numpy>=1.24"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
