"""The single histogram split-search path shared by both tree growers.

``repro.models.binning.level_histograms`` builds every level histogram
for the depth-wise grower (GBM ``tree_method="hist"`` and
``DecisionTreeRegressor(splitter="hist")``) and for the oblivious grower;
``resolve_binned_dataset`` is the one validation of the models'
``fit(..., binned=)`` seam (its mismatch errors are checked here for the
GBM and through ``tests/test_binshare.py`` for the oblivious model).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import histtree, oblivious
from repro.models.binning import (
    BinnedDataset,
    clear_bin_cache,
    level_histograms,
)
from repro.models.gbm import GradientBoostingRegressor
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.tree import DecisionTreeRegressor


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_bin_cache()
    yield
    clear_bin_cache()


def _problem(rng, n=90, f=6):
    X = rng.normal(size=(n, f))
    X[:, 0] = np.round(X[:, 0], 1)
    y = X[:, 1] - 0.5 * X[:, 2] + 0.1 * rng.normal(size=n)
    return X, y


class TestLevelHistograms:
    @pytest.mark.parametrize("unit_hessian", [True, False])
    def test_root_cache_is_bit_identical(self, rng, unit_hessian):
        X, _ = _problem(rng)
        dataset = BinnedDataset.from_matrix(X, 16)
        n, f = dataset.codes.shape
        gradients = rng.normal(size=n)
        hessians = np.ones(n) if unit_hessian else rng.uniform(0.5, 2.0, n)
        args = (
            dataset.codes, np.zeros(n, dtype=np.int64), gradients, hessians,
            1, dataset.n_bins, np.arange(f),
        )
        cached = level_histograms(*args, dataset=dataset, counts=True)
        plain = level_histograms(*args, counts=True)
        for got, want in zip(cached, plain):
            np.testing.assert_array_equal(got, want)
        assert plain[2].sum(axis=(1, 2)).tolist() == [n] * f

    def test_counts_alias_unit_hessians_and_are_optional(self, rng):
        X, _ = _problem(rng)
        dataset = BinnedDataset.from_matrix(X, 16)
        n, f = dataset.codes.shape
        leaf_idx = (dataset.codes[:, 1] > 3).astype(np.int64)
        args = (
            dataset.codes, leaf_idx, rng.normal(size=n), np.ones(n), 2,
            dataset.n_bins, np.arange(f),
        )
        grad, hess, count = level_histograms(*args, counts=True)
        assert count is hess
        assert grad.shape == (f, 2, dataset.n_bins)
        assert level_histograms(*args)[2] is None


class TestOneHistogramPath:
    def _count_calls(self, monkeypatch, module):
        calls = []
        real = module.level_histograms

        def counting(*args, **kwargs):
            calls.append(args[4])  # n_leaves
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "level_histograms", counting)
        return calls

    def test_decision_tree_hist_grows_through_histtree(self, rng, monkeypatch):
        X, y = _problem(rng)
        calls = self._count_calls(monkeypatch, histtree)
        DecisionTreeRegressor(max_depth=3, splitter="hist").fit(X, y)
        assert calls and calls[0] == 1

    def test_oblivious_levels_share_the_build(self, rng, monkeypatch):
        X, y = _problem(rng)
        calls = self._count_calls(monkeypatch, oblivious)
        ObliviousBoostingRegressor(
            n_estimators=2, depth=2, random_state=0
        ).fit(X, y)
        assert calls == [1, 2, 1, 2]


class TestConstantFeatures:
    """All-constant columns leave nothing to split: a single-leaf tree."""

    def test_decision_tree_hist(self):
        X = np.full((20, 3), 1.5)
        y = np.arange(20.0)
        model = DecisionTreeRegressor(splitter="hist").fit(X, y)
        np.testing.assert_allclose(model.predict(X), np.full(20, 9.5))
        assert model.tree_.n_leaves == 1

    def test_gbm_hist(self):
        X = np.full((20, 3), 1.5)
        y = np.arange(20.0)
        model = GradientBoostingRegressor(
            n_estimators=3, tree_method="hist"
        ).fit(X, y)
        assert np.ptp(model.predict(X)) == 0.0
        assert all(tree.n_leaves == 1 for tree in model.trees_)


class TestResolveBinnedDataset:
    def test_gbm_rejects_wrong_shape(self, rng):
        X, y = _problem(rng)
        wrong = BinnedDataset.from_matrix(X[:40], 16)
        with pytest.raises(ValueError, match="binned dataset has shape"):
            GradientBoostingRegressor(
                n_estimators=2, tree_method="hist", max_bins=16
            ).fit(X, y, binned=wrong)

    def test_oblivious_rejects_wrong_max_bins(self, rng):
        X, y = _problem(rng)
        wrong = BinnedDataset.from_matrix(X, 8)
        with pytest.raises(ValueError, match="max_bins=8, model wants 16"):
            ObliviousBoostingRegressor(
                n_estimators=2, max_bins=16
            ).fit(X, y, binned=wrong)
