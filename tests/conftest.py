"""Shared test set-up."""

from __future__ import annotations

import pytest

from nlode import solver


@pytest.fixture(autouse=True)
def cold_gate_memo():
    """Start each test with no stored gate pass, so a test that counts
    sampler builds or symbol evaluations measures a cold solve, whichever
    tests ran before it."""
    solver._checked.clear()
