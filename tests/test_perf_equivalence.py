"""Equivalence guarantees of the fast training engine.

Three contracts, each load-bearing for the perf work staying honest:

* the batched exact finder grows *identical* trees to the legacy
  per-feature reference scan, which lives here as the test oracle
  (:func:`_best_split_for_feature`) rather than in ``src/``,
* the histogram grower (:func:`repro.models.histtree.grow_histogram_tree`,
  the one histogram path behind GBM ``tree_method="hist"`` and
  ``DecisionTreeRegressor(splitter="hist")``) matches the exact grower's
  training predictions to 1e-12 on randomised fixtures and its full
  split structure on shallow fixed-seed fixtures (thresholds agree up
  to bin edges, so test routing between bin edge and exact midpoint may
  differ -- training partitions cannot),
* cross-validation harnesses return bit-identical results for every
  ``n_jobs``.

Plus the hot-loop regression test: node data is sliced once per node
(through ``_node_view``), never once per candidate feature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.crossval import (
    KFold,
    cross_validate_intervals,
    cross_validate_point,
)
from repro.models import tree as tree_mod
from repro.models.binning import FeatureBinner
from repro.models.histtree import grow_histogram_tree
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.models.quantile import QuantileBandRegressor
from repro.models.tree import (
    DecisionTreeRegressor,
    GradientTree,
    TreeGrowthParams,
    _best_split_all_features,
)


def _random_problem(seed, n=80, n_features=6, duplicates=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    if duplicates:
        X = np.round(X, 1)  # heavy value ties exercise tie-breaking
    gradients = rng.normal(size=n)
    hessians = np.ones(n)
    return X, gradients, hessians


def _best_split_for_feature(values, gradients, hessians, params):
    """Return (gain, threshold) of the best split on one feature column.

    Legacy *reference* finder: sort by feature value, take prefix sums of
    gradients/Hessians, and evaluate the gain at every boundary between
    distinct values.  Returns ``(-inf, nan)`` when no admissible split
    exists.  Production growth goes through the batched
    ``_best_split_all_features`` scan; this single-column version is the
    ground truth it is compared against.
    """
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    grad_prefix = np.cumsum(gradients[order])
    hess_prefix = np.cumsum(hessians[order])
    total_grad = grad_prefix[-1]
    total_hess = hess_prefix[-1]
    n = values.shape[0]

    # Candidate split after position i keeps samples [0..i] on the left.
    positions = np.arange(n - 1)
    distinct = sorted_values[positions] < sorted_values[positions + 1]
    left_count = positions + 1
    right_count = n - left_count
    admissible = (
        distinct
        & (left_count >= params.min_samples_leaf)
        & (right_count >= params.min_samples_leaf)
    )
    if not np.any(admissible):
        return -np.inf, float("nan")

    g_left = grad_prefix[positions]
    h_left = hess_prefix[positions]
    g_right = total_grad - g_left
    h_right = total_hess - h_left
    admissible &= (h_left >= params.min_child_weight) & (
        h_right >= params.min_child_weight
    )
    if not np.any(admissible):
        return -np.inf, float("nan")

    lam = params.reg_lambda
    gain = 0.5 * (
        g_left**2 / (h_left + lam)
        + g_right**2 / (h_right + lam)
        - total_grad**2 / (total_hess + lam)
    )
    gain = np.where(admissible, gain, -np.inf)
    best = int(np.argmax(gain))
    threshold = 0.5 * (sorted_values[best] + sorted_values[best + 1])
    return float(gain[best]), threshold


def _legacy_fit(X, gradients, hessians, params):
    """The seed's per-feature split loop, reimplemented as ground truth."""
    tree = GradientTree(params)

    def find_split(node_columns, node_grad, node_hess):
        best_gain, best_feature, best_threshold = -np.inf, -1, float("nan")
        for feature in range(node_columns.shape[1]):
            gain, threshold = _best_split_for_feature(
                node_columns[:, feature], node_grad, node_hess, params
            )
            if gain > best_gain:
                best_gain, best_feature, best_threshold = gain, feature, threshold
        if best_feature < 0:
            return best_gain, -1, best_threshold, np.empty(0, dtype=bool)
        goes_left = node_columns[:, best_feature] <= best_threshold
        return best_gain, best_feature, best_threshold, goes_left

    tree._columns = X.astype(np.float64)
    tree._grow(X.shape[0], gradients, hessians, find_split)
    del tree._columns
    return tree


# ---------------------------------------------------------------------------
# batched exact finder == legacy per-feature loop (bit-identical)
# ---------------------------------------------------------------------------

class TestBatchedExactEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_identical_trees(self, seed, duplicates):
        X, gradients, hessians = _random_problem(seed, duplicates=duplicates)
        params = TreeGrowthParams(max_depth=5, min_samples_leaf=2)
        fast = GradientTree(params).fit_gradients(X, gradients, hessians)
        legacy = _legacy_fit(X, gradients, hessians, params)
        np.testing.assert_array_equal(fast.feature_, legacy.feature_)
        np.testing.assert_array_equal(fast.threshold_, legacy.threshold_)
        np.testing.assert_array_equal(fast.value_, legacy.value_)

    def test_single_column_matches_reference_finder(self):
        X, gradients, hessians = _random_problem(3, n_features=1)
        params = TreeGrowthParams()
        gain_ref, thr_ref = _best_split_for_feature(
            X[:, 0], gradients, hessians, params
        )
        gain, pos, thr = _best_split_all_features(X, gradients, hessians, params)
        assert pos == 0
        assert gain == gain_ref
        assert thr == thr_ref

    def test_no_admissible_split(self):
        X = np.full((8, 3), 2.5)  # constant features: nothing to split on
        gain, pos, thr = _best_split_all_features(
            X, np.ones(8), np.ones(8), TreeGrowthParams()
        )
        assert gain == -np.inf and pos == -1 and np.isnan(thr)


# ---------------------------------------------------------------------------
# histogram finder vs exact finder
# ---------------------------------------------------------------------------

def _grow_hist(X, gradients, hessians, params):
    binner = FeatureBinner(max_bins=256)
    return grow_histogram_tree(
        binner.fit_transform(X), binner, gradients, hessians, params
    )


def _preorder_splits(tree, X):
    """Canonical pre-order walk: ``(feature, rows sent left)`` per split.

    Independent of node numbering (the histogram grower numbers nodes
    level by level, the exact grower depth-first) and of where inside
    the gap between two training values a threshold sits (bin edge vs
    node-local midpoint).  Leaves appear as ``(-1, rows)``.
    """
    walk = []
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        feature = int(tree.feature_[node])
        if feature < 0:
            walk.append((-1, tuple(rows.tolist())))
            continue
        goes_left = X[rows, feature] <= tree.threshold_[node]
        walk.append((feature, tuple(rows[goes_left].tolist())))
        stack.append((tree.right_[node], rows[~goes_left]))
        stack.append((tree.left_[node], rows[goes_left]))
    return walk


class TestBinnedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_training_predictions_match(self, seed):
        X, gradients, hessians = _random_problem(seed, n=120)
        params = TreeGrowthParams(max_depth=5, min_samples_leaf=2)
        exact = GradientTree(params).fit_gradients(X, gradients, hessians)
        hist = _grow_hist(X, gradients, hessians, params)
        # With >= one bin per distinct value the partitions are identical;
        # last-ulp gain ties may pick a different but equivalent split, so
        # the contract is on training predictions, not node layout.
        np.testing.assert_allclose(
            hist.predict(X), exact.predict(X), rtol=0.0, atol=1e-12
        )

    def test_shallow_structure_identical(self):
        # Shallow + well-separated data: the split structure matches
        # exactly too (the tests/test_histtree.py convention).
        X, gradients, hessians = _random_problem(2024, n=64, n_features=4)
        params = TreeGrowthParams(max_depth=3, min_samples_leaf=2)
        exact = GradientTree(params).fit_gradients(X, gradients, hessians)
        hist = _grow_hist(X, gradients, hessians, params)
        assert _preorder_splits(hist, X) == _preorder_splits(exact, X)
        # Same partition, so leaf values differ only by summation order:
        # the histogram grower sums a level's leaves in one bincount,
        # the exact grower uses numpy's pairwise sum per node.
        np.testing.assert_allclose(
            hist.predict(X), exact.predict(X), rtol=0.0, atol=1e-12
        )

    def test_decision_tree_splitter_equivalence(self, linear_data):
        X, y, _, _ = linear_data
        exact = DecisionTreeRegressor(max_depth=4, splitter="exact").fit(X, y)
        hist = DecisionTreeRegressor(
            max_depth=4, splitter="hist", max_bins=256
        ).fit(X, y)
        np.testing.assert_allclose(
            hist.predict(X), exact.predict(X), rtol=0.0, atol=1e-12
        )

    def test_invalid_splitter_rejected(self):
        with pytest.raises(ValueError, match="splitter"):
            DecisionTreeRegressor(splitter="sorted")


# ---------------------------------------------------------------------------
# hot-loop regression: slice once per node, not once per feature
# ---------------------------------------------------------------------------

class TestNodeSlicingRegression:
    def test_node_view_called_once_per_node(self, monkeypatch):
        X, gradients, hessians = _random_problem(0, n=60, n_features=5)
        calls = []
        real_view = tree_mod._node_view

        def counting_view(columns, grads, hess, rows):
            calls.append(rows.size)
            return real_view(columns, grads, hess, rows)

        monkeypatch.setattr(tree_mod, "_node_view", counting_view)
        tree = GradientTree(TreeGrowthParams(max_depth=4)).fit_gradients(
            X, gradients, hessians
        )
        # Exactly one slice per materialised node -- with 5 candidate
        # features, the historical per-feature slicing would have made
        # ~5x as many.
        assert len(calls) == tree.n_nodes


# ---------------------------------------------------------------------------
# n_jobs never changes cross-validation results
# ---------------------------------------------------------------------------

class TestParallelCVEquivalence:
    def test_point_cv_identical(self, linear_data):
        X, y, _, _ = linear_data
        kfold = KFold(n_splits=4, shuffle=True, random_state=0)

        def builder(X_train, y_train):
            return LinearRegression().fit(X_train, y_train)

        serial = cross_validate_point(builder, X, y, kfold, n_jobs=1)
        threaded = cross_validate_point(builder, X, y, kfold, n_jobs=4)
        assert serial.r2_per_fold == threaded.r2_per_fold
        assert serial.rmse_per_fold == threaded.rmse_per_fold

    def test_interval_cv_identical(self, hetero_data):
        X, y = hetero_data
        kfold = KFold(n_splits=4, shuffle=True, random_state=0)

        def builder(X_train, y_train):
            band = QuantileBandRegressor(
                QuantileLinearRegression(), alpha=0.1
            )
            return band.fit(X_train, y_train)

        serial = cross_validate_intervals(builder, X, y, kfold, n_jobs=1)
        threaded = cross_validate_intervals(builder, X, y, kfold, n_jobs=4)
        assert serial.coverage_per_fold == threaded.coverage_per_fold
        assert serial.width_per_fold == threaded.width_per_fold

    def test_band_pair_fit_identical(self, hetero_data):
        X, y = hetero_data
        serial = QuantileBandRegressor(
            QuantileLinearRegression(), alpha=0.1, n_jobs=1
        ).fit(X, y)
        threaded = QuantileBandRegressor(
            QuantileLinearRegression(), alpha=0.1, n_jobs=2
        ).fit(X, y)
        for lo_s, lo_t in ((serial.lower_, threaded.lower_),
                           (serial.upper_, threaded.upper_)):
            np.testing.assert_array_equal(lo_s.coef_, lo_t.coef_)
