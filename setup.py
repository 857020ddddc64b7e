"""Thin setup.py shim.

The project is fully described by pyproject.toml; this file exists so that
``pip install -e . --no-build-isolation`` (or ``python setup.py develop``)
works in offline environments that lack the ``wheel`` package required for
PEP 660 editable installs.
"""

from setuptools import setup

setup()
