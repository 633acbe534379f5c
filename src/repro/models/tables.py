"""Compiled decision-table inference kernels for fitted tree ensembles.

The boosting models fit trees one at a time; walking them one at a time
at predict time -- a Python loop over 100 trees per batch -- would be
the dominant serving cost.  This module compiles a *fitted* ensemble
into flat numpy tensors -- decision tables -- that score a whole batch
across **all trees at once**, with no per-tree Python recursion:

* :class:`CompiledDepthwiseTables` packs a list of
  :class:`~repro.models.tree.GradientTree` objects into padded
  ``(n_trees, max_nodes)`` feature/threshold/child/value arrays.  The
  batch kernel keeps an ``(n_rows, n_trees)`` node cursor and advances
  every (row, tree) pair one level per iteration, so the Python-level
  loop runs at most ``max_depth`` times regardless of tree count.
* :class:`CompiledObliviousTables` packs a list of
  :class:`~repro.models.oblivious.ObliviousTree` decision tables into
  stacked ``(n_trees, depth)`` feature/threshold tensors plus an
  ``(n_trees, 2**depth)`` leaf-value tensor.  Trees shallower than the
  ensemble maximum are padded with ``+inf`` thresholds and
  ``np.repeat``-expanded leaf values, which maps every padded leaf code
  back to the right original leaf.
* :class:`BoostedTreesRegressor` is the base of both boosting models
  and their only scoring path: ``predict``/``staged_predict`` evaluate
  the compiled tables and sum the boosted rounds.

**Parity contract.**  Both kernels are bit-identical to the reference
per-tree loop, not merely close: comparisons use the same operators on
the same float64 values in the same order (``x <= threshold`` routing
left for depth-wise trees, ``x > threshold`` setting the level bit for
oblivious tables), and the boosted sum accumulates tree contributions
*sequentially* in fitting order -- ``p += lr * v_t`` per tree -- rather
than through ``np.sum``, whose pairwise reduction would change the
rounding.  The test suite asserts ``np.array_equal`` (exact float
equality) against a per-tree reference loop, which lives in the tests
only, across random ensembles.

**Precision contract.**  Thresholds are stored as float64 and every
comparison happens in float64: :func:`tree_values` casts ``X`` on
entry, so a float32 caller lands on the same side of every split as
the float64 reference walk.  This pins down the boundary semantics the
models document -- a kernel comparing in float32 would route rows with
values between a threshold's float32 neighbours differently.

Compilation happens at ``fit`` time (the boosting models store the
result as a ``compiled_`` fitted attribute), never inside ``predict``
-- prediction stays read-only.  Bundles pickled before the tables
existed lack the attribute; :meth:`BoostedTreesRegressor.__setstate__`
compiles them when they are unpickled, on every load path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_random_state,
    check_X,
    check_X_y,
)
from repro.models.losses import mse_gradient_hessian, pinball_gradient_hessian

__all__ = [
    "BoostedTreesRegressor",
    "CompiledDepthwiseTables",
    "CompiledObliviousTables",
    "compile_depthwise",
    "compile_oblivious",
]

_LEAF = -1


def _as_float64_2d(X: np.ndarray) -> np.ndarray:
    """The kernel-side precision gate: comparisons happen in float64."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    return X


def _boosted_sum(
    tree_values: np.ndarray, base_score: float, learning_rate: float
) -> np.ndarray:
    """Sequentially accumulate per-tree values into the boosted prediction.

    The per-tree loop is deliberate: boosting adds one shrunken tree at
    a time (as ``fit`` does), and floating-point addition is not
    associative, so a vectorised ``np.sum`` over the tree axis (pairwise
    reduction) would produce different low-order bits.  Looping over
    ``n_trees`` columns of an already-materialised matrix costs
    microseconds; walking the trees is what was slow.
    """
    n_rows, n_trees = tree_values.shape
    prediction = np.full(n_rows, base_score)
    for index in range(n_trees):
        prediction += learning_rate * tree_values[:, index]
    return prediction


def _boosted_stages(
    tree_values: np.ndarray, base_score: float, learning_rate: float
) -> np.ndarray:
    """Prefix sums of :func:`_boosted_sum`: prediction after every round."""
    n_rows, n_trees = tree_values.shape
    prediction = np.full(n_rows, base_score)
    stages = np.empty((n_trees, n_rows))
    for index in range(n_trees):
        prediction = prediction + learning_rate * tree_values[:, index]
        stages[index] = prediction
    return stages


@dataclass(frozen=True)
class CompiledDepthwiseTables:
    """A fitted depth-wise tree ensemble as padded flat tensors.

    All arrays share the leading ``(n_trees, max_nodes)`` shape; trees
    with fewer nodes are padded with leaf sentinels (``feature == -1``)
    so every tree can be advanced by the same vectorised step.

    Attributes
    ----------
    feature:
        Split feature per node, ``-1`` marking leaves and padding.
    threshold:
        Split threshold per node (float64; ``0.0`` at leaves/padding,
        where it is never compared).
    left, right:
        Child node indices per interior node (``0`` at leaves/padding,
        where they are never followed).
    value:
        Leaf value per node (interior entries hold the node's Newton
        value, which prediction never reads).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_trees(self) -> int:
        return int(self.feature.shape[0])

    @property
    def max_nodes(self) -> int:
        return int(self.feature.shape[1])

    def summary(self) -> Dict[str, Any]:
        """JSON-ready kernel description for manifests and reports."""
        return {
            "kernel": "depthwise",
            "n_trees": self.n_trees,
            "max_nodes": self.max_nodes,
        }

    def tree_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row, shape ``(n, n_trees)``.

        Column ``t`` is bit-identical to ``trees[t].predict(X)``.  The
        node cursor starts at every root and each iteration advances
        all (row, tree) pairs still at an interior node one level, so
        the loop runs ``max_depth`` times -- not ``n_trees`` times.
        """
        X = _as_float64_2d(X)
        n_rows = X.shape[0]
        tree_range = np.arange(self.n_trees)
        row_column = np.arange(n_rows)[:, None]
        node = np.zeros((n_rows, self.n_trees), dtype=np.int64)
        while True:
            split_feature = self.feature[tree_range, node]
            interior = split_feature >= 0
            if not interior.any():
                break
            # Leaves gather column 0 as a harmless placeholder; the
            # np.where below discards their routing entirely.
            gather = np.where(interior, split_feature, 0)
            goes_left = X[row_column, gather] <= self.threshold[tree_range, node]
            child = np.where(
                goes_left,
                self.left[tree_range, node],
                self.right[tree_range, node],
            )
            node = np.where(interior, child, node)
        return self.value[tree_range, node]


@dataclass(frozen=True)
class CompiledObliviousTables:
    """A fitted oblivious-tree ensemble as stacked decision tables.

    Trees shallower than ``depth`` (including depth-0 single-leaf
    tables) are padded with ``+inf`` thresholds on feature ``0``: the
    padded levels always test false, so a shallow tree's leaf code is
    its original code shifted left -- exactly where ``np.repeat``
    placed its expanded leaf values.

    Attributes
    ----------
    features:
        Level split features, shape ``(n_trees, depth)``.
    thresholds:
        Level thresholds (float64), shape ``(n_trees, depth)``.
    leaf_values:
        Per-tree leaf tables, shape ``(n_trees, 2**depth)``.
    """

    features: np.ndarray
    thresholds: np.ndarray
    leaf_values: np.ndarray

    @property
    def n_trees(self) -> int:
        return int(self.leaf_values.shape[0])

    @property
    def depth(self) -> int:
        return int(self.features.shape[1])

    def summary(self) -> Dict[str, Any]:
        """JSON-ready kernel description for manifests and reports."""
        return {
            "kernel": "oblivious",
            "n_trees": self.n_trees,
            "depth": self.depth,
            "n_leaves": int(self.leaf_values.shape[1]),
        }

    def tree_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row, shape ``(n, n_trees)``.

        Column ``t`` is bit-identical to ``trees[t].predict(X)``: the
        leaf code accumulates one bit per level, most significant bit
        first, from the same ``x > threshold`` test as the reference.
        """
        X = _as_float64_2d(X)
        index = np.zeros((X.shape[0], self.n_trees), dtype=np.int64)
        for level in range(self.depth):
            bit = X[:, self.features[:, level]] > self.thresholds[None, :, level]
            index = (index << 1) | bit
        return self.leaf_values[np.arange(self.n_trees), index]


def compile_depthwise(trees: Sequence[Any]) -> CompiledDepthwiseTables:
    """Pack fitted :class:`~repro.models.tree.GradientTree` objects.

    Every tree contributes its flat parallel arrays, right-padded to the
    widest tree with leaf sentinels.  Thresholds and children at leaf
    positions are sanitised to ``0`` -- the kernel masks them out, but
    keeping NaN thresholds (the grower's leaf marker) out of the padded
    tensor means no comparison ever touches one.
    """
    if not trees:
        raise ValueError("cannot compile an empty ensemble")
    for position, tree in enumerate(trees):
        if getattr(tree, "feature_", None) is None:
            raise ValueError(f"tree {position} is not fitted")
    n_trees = len(trees)
    max_nodes = max(int(tree.feature_.size) for tree in trees)
    feature = np.full((n_trees, max_nodes), _LEAF, dtype=np.int64)
    threshold = np.zeros((n_trees, max_nodes))
    left = np.zeros((n_trees, max_nodes), dtype=np.int64)
    right = np.zeros((n_trees, max_nodes), dtype=np.int64)
    value = np.zeros((n_trees, max_nodes))
    for position, tree in enumerate(trees):
        size = int(tree.feature_.size)
        feature[position, :size] = tree.feature_
        value[position, :size] = tree.value_
        interior = tree.feature_ >= 0
        threshold[position, :size] = np.where(interior, tree.threshold_, 0.0)
        left[position, :size] = np.where(interior, tree.left_, 0)
        right[position, :size] = np.where(interior, tree.right_, 0)
    return CompiledDepthwiseTables(
        feature=feature, threshold=threshold, left=left, right=right, value=value
    )


def compile_oblivious(trees: Sequence[Any]) -> CompiledObliviousTables:
    """Pack fitted :class:`~repro.models.oblivious.ObliviousTree` tables.

    Shallow trees are padded to the ensemble's maximum depth with
    ``+inf`` thresholds (the padded bit is always 0) and their leaf
    values expanded with ``np.repeat`` so every padded leaf code indexes
    the value of the original leaf it extends.  A depth-0 tree becomes a
    row of all-``+inf`` levels over a constant leaf table -- no special
    case anywhere downstream.
    """
    if not trees:
        raise ValueError("cannot compile an empty ensemble")
    n_trees = len(trees)
    depth = max(int(tree.features.size) for tree in trees)
    features = np.zeros((n_trees, depth), dtype=np.int64)
    thresholds = np.full((n_trees, depth), np.inf)
    leaf_values = np.zeros((n_trees, 2**depth))
    for position, tree in enumerate(trees):
        tree_depth = int(tree.features.size)
        expected_leaves = 1 << tree_depth
        if int(tree.leaf_values.size) != expected_leaves:
            raise ValueError(
                f"tree {position} has {tree.leaf_values.size} leaves for "
                f"depth {tree_depth}; expected {expected_leaves}"
            )
        features[position, :tree_depth] = tree.features
        thresholds[position, :tree_depth] = tree.thresholds
        leaf_values[position] = np.repeat(
            np.asarray(tree.leaf_values, dtype=np.float64),
            2 ** (depth - tree_depth),
        )
    return CompiledObliviousTables(
        features=features, thresholds=thresholds, leaf_values=leaf_values
    )


class BoostedTreesRegressor(BaseRegressor):
    """Shared fit prologue and scoring path of the boosted tree ensembles.

    :class:`~repro.models.gbm.GradientBoostingRegressor` and
    :class:`~repro.models.oblivious.ObliviousBoostingRegressor` differ in
    how they grow trees, not in how they score them.  Each subclass sets
    ``_compile`` to its table compiler and ends ``fit`` with
    ``self.compiled_ = self._compile(trees)``; everything else about
    prediction lives here, so both families score only through their
    compiled tables.

    Subclasses must take ``learning_rate``, ``quantile`` and
    ``random_state`` constructor parameters.
    """

    trees_: Optional[List[Any]]

    @staticmethod
    def _compile(trees: Sequence[Any]) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Restore a pickled model, compiling pre-kernel bundles.

        Models pickled before the decision tables existed carry
        ``trees_`` but no ``compiled_``; compiling them here keeps every
        load path (registry, ``pickle.load``, ``copy.deepcopy``) on the
        one scoring path.
        """
        self.__dict__.update(state)
        if state.get("compiled_") is None and state.get("trees_") is not None:
            self.compiled_ = self._compile(self.trees_)

    def _start_fit(
        self, X: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.random.Generator]:
        """Validate ``(X, y)``, set ``n_features_in_`` and ``base_score_``.

        Boosting starts from the mean (squared error) or the empirical
        ``quantile`` of ``y`` (pinball), which keeps early rounds from
        wasting capacity on a global shift.  Returns the validated data
        and the fit's random generator.
        """
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        rng = check_random_state(self.random_state)
        if self.quantile is None:
            self.base_score_ = float(np.mean(y))
        else:
            self.base_score_ = float(np.quantile(y, self.quantile))
        return X, y, rng

    def _gradients(
        self, y: np.ndarray, prediction: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.quantile is None:
            return mse_gradient_hessian(y, prediction)
        return pinball_gradient_hessian(y, prediction, self.quantile)

    def _tree_values(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "compiled_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return self.compiled_.tree_values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Boosted prediction for every row of ``X``.

        Comparisons happen in float64 whatever the dtype of ``X``, and
        the result is bit-identical to summing the trees one at a time.
        """
        return _boosted_sum(
            self._tree_values(X), self.base_score_, self.learning_rate
        )

    def staged_predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions after each boosting round, shape ``(n_trees, n)``.

        Used for picking an early-stopping round and for learning-curve
        diagnostics; the last stage always equals ``predict(X)`` exactly.
        """
        return _boosted_stages(
            self._tree_values(X), self.base_score_, self.learning_rate
        )
