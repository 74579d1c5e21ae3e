"""Pytest configuration: make the src layout importable without installation.

``pip install -e .`` is the supported path; this fallback keeps the test and
benchmark suites runnable in fully offline environments where the editable
install cannot build (no ``wheel`` package available).

On CI (the ``CI`` environment variable is set, as GitHub Actions does), a
failing Hypothesis test also prints a ``@reproduce_failure`` blob, so a
counterexample found only there can be replayed locally.  Local runs keep
Hypothesis's default settings.
"""

import os
import sys

from hypothesis import settings

SRC = os.path.join(os.path.dirname(__file__), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
