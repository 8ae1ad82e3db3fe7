"""Shared test fixtures.

The generator *functions* live in :mod:`repro.verify.strategies` (the
single source for the tiny timelines, traces and workloads used by
both this suite and ``repro verify``); this file only binds the
common ones as fixtures and makes ``pytest`` work from a source
checkout without an installed package.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def tiny_setup():
    """``(graph, timeline, trace)``: ECG over one sunny micro-day."""
    from repro.verify.strategies import tiny_env

    return tiny_env()


@pytest.fixture(scope="session")
def wam_graph():
    from repro.tasks import paper_benchmarks

    return paper_benchmarks()["WAM"]


@pytest.fixture(scope="session")
def ecg_graph():
    from repro.tasks import ecg

    return ecg()
