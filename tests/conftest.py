"""Shared fixtures for the test suite.

The expensive fixtures (a full synthetic lot) are session-scoped: the
dataset is deterministic for a given seed, so sharing one instance across
tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.silicon import SiliconDataset


@pytest.fixture(scope="session")
def lot() -> SiliconDataset:
    """A full-size deterministic synthetic lot (156 chips)."""
    return SiliconDataset.generate(seed=1234)


@pytest.fixture(scope="session")
def small_lot() -> SiliconDataset:
    """A reduced lot for tests that refit models repeatedly."""
    return SiliconDataset.generate(n_chips=60, seed=99)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` counts calls to ``owner.name``.

    Each call wraps one attribute for the test's duration and returns
    the shared tally, a dict from attribute name to calls so far.
    """
    tally = {}

    def count(owner, name):
        original = getattr(owner, name)
        tally[name] = 0

        def counted(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return tally

    return count


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture()
def linear_data(rng):
    """Well-conditioned linear regression data: (X, y, coef, intercept)."""
    n, d = 200, 5
    X = rng.normal(size=(n, d))
    coef = np.array([1.5, -2.0, 0.5, 0.0, 3.0])
    intercept = 0.7
    y = X @ coef + intercept + rng.normal(scale=0.05, size=n)
    return X, y, coef, intercept


@pytest.fixture()
def hetero_data(rng):
    """Heteroscedastic data where adaptive intervals beat constant ones.

    The noise scale grows monotonically with the first feature so that
    even a *linear* quantile band can express the width profile.
    """
    n = 600
    X = rng.uniform(-2, 2, size=(n, 3))
    noise_scale = 0.1 + 0.5 * (X[:, 0] + 2.0)
    y = 2.0 * X[:, 0] + X[:, 1] + rng.normal(scale=noise_scale)
    return X, y
