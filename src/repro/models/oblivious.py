"""CatBoost-style oblivious-tree gradient boosting (paper Section IV-C.3).

CatBoost's distinguishing inductive bias is the *oblivious* (symmetric)
tree: every node at a given depth tests the same (feature, threshold)
pair, so a depth-``d`` tree is a decision table with :math:`2^d` leaves.
On small datasets -- like the paper's 156 chips -- this acts as strong
regularisation, which is why CatBoost is the paper's best point predictor
and CQR base model.  The paper keeps CatBoost defaults but reduces the
tree count from 1000 to 100 to avoid over-fitting; we mirror that.

Implementation notes:

* features are pre-binned into at most ``max_bins`` quantile bins once per
  fit; level-wise split search then reduces to one ``np.bincount`` over
  ``(feature, leaf, bin)`` cells per level, fully vectorised,
* leaf values are Newton steps ``−G/(H+λ)`` with CatBoost's
  ``l2_leaf_reg`` as λ,
* the objective is squared error or pinball (``quantile=q``), matching the
  QR/CQR usage in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import check_fitted
from repro.models.binning import (
    BinnedDataset,
    level_histograms,
    resolve_binned_dataset,
)
from repro.models.losses import validate_quantile
from repro.models.tables import BoostedTreesRegressor, compile_oblivious

__all__ = ["ObliviousBoostingRegressor", "ObliviousTree"]


@dataclass
class ObliviousTree:
    """A fitted decision table: one (feature, threshold) per level.

    ``leaf_values`` has :math:`2^{\\text{depth}}` entries indexed by the
    binary code built from the level tests (most significant bit = first
    level).

    A depth-0 table (``features`` empty, a single leaf value) is a valid
    tree -- a fit round where no split improved on not splitting
    produces one -- and is handled here, not by callers: every row's
    leaf code is 0 and every prediction is ``leaf_values[0]``.
    """

    features: np.ndarray  # (depth,) int
    thresholds: np.ndarray  # (depth,) float
    leaf_values: np.ndarray  # (2**depth,) float

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Leaf code for every row of ``X``.

        Comparisons happen in float64 whatever the dtype of ``X``: the
        thresholds are float64, and letting a float32 column be compared
        in its own precision could route boundary-straddling rows to the
        other side of a split than the fitted model intended.  For a
        depth-0 table this is all zeros (the single leaf).
        """
        X = np.asarray(X, dtype=np.float64)
        indices = np.zeros(X.shape[0], dtype=np.int64)
        for feature, threshold in zip(self.features, self.thresholds):
            indices = (indices << 1) | (X[:, feature] > threshold)
        return indices

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value for every row of ``X`` (depth-0 tables included)."""
        return self.leaf_values[self.leaf_indices(X)]


class ObliviousBoostingRegressor(BoostedTreesRegressor):
    """Gradient boosting over oblivious trees with CatBoost-like defaults.

    Parameters
    ----------
    n_estimators:
        Boosting rounds; the paper uses 100 (reduced from CatBoost's 1000).
    learning_rate:
        Shrinkage per tree (~CatBoost's auto rate for 100 iterations).
    depth:
        Oblivious-tree depth (CatBoost default 6).
    l2_leaf_reg:
        L2 regularisation λ on leaf values (CatBoost default 3).
    max_bins:
        Maximum quantile bins per feature for threshold candidates
        (CatBoost ``border_count``; 32 is ample for 156-chip data).
    rsm:
        Fraction of features sampled per *level* (CatBoost ``rsm``).
    feature_shortlist:
        Wide-data speedup: the root level of each tree scores every
        feature exactly, then deeper levels only consider the top-K
        features by root gain.  ``None`` scores all features at every
        level (exact, O(features x leaves x bins) per level).  With the
        paper's ~2000 columns and 156 chips, K=256 is indistinguishable
        in accuracy and an order of magnitude faster.
    bagging_temperature:
        Bayesian-bootstrap strength: per-round exponential sample weights
        raised to this power (0 disables).  Off by default: on the
        156-chip regime the extra split noise measurably hurts accuracy,
        and split-score randomisation already provides tree diversity.
    random_strength:
        Amplitude of the Gaussian noise added to split scores, relative to
        the score spread (CatBoost ``random_strength``, default 1).  The
        noise diversifies the trees across rounds -- without it every
        round regrows the same partition and the ensemble cannot refine
        beyond :math:`2^{depth}` cells, which changes small-data
        behaviour qualitatively (notably the quantile-overfitting the
        paper observes for QR CatBoost).
    quantile:
        ``None`` for squared error, a value in (0, 1) for pinball loss.
    random_state:
        Seed for feature sampling and score noise.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.16,
        depth: int = 6,
        l2_leaf_reg: float = 3.0,
        max_bins: int = 32,
        rsm: float = 1.0,
        feature_shortlist: Optional[int] = 256,
        random_strength: float = 1.0,
        bagging_temperature: float = 0.0,
        quantile: Optional[float] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if l2_leaf_reg < 0:
            raise ValueError(f"l2_leaf_reg must be >= 0, got {l2_leaf_reg}")
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        if not 0.0 < rsm <= 1.0:
            raise ValueError(f"rsm must be in (0, 1], got {rsm}")
        if feature_shortlist is not None and feature_shortlist < 1:
            raise ValueError(
                f"feature_shortlist must be >= 1 or None, got {feature_shortlist}"
            )
        if random_strength < 0:
            raise ValueError(
                f"random_strength must be >= 0, got {random_strength}"
            )
        if bagging_temperature < 0:
            raise ValueError(
                f"bagging_temperature must be >= 0, got {bagging_temperature}"
            )
        if quantile is not None:
            quantile = validate_quantile(quantile)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.depth = depth
        self.l2_leaf_reg = l2_leaf_reg
        self.max_bins = max_bins
        self.rsm = rsm
        self.feature_shortlist = feature_shortlist
        self.random_strength = random_strength
        self.bagging_temperature = bagging_temperature
        self.quantile = quantile
        self.random_state = random_state
        self.trees_: Optional[List[ObliviousTree]] = None

    _compile = staticmethod(compile_oblivious)

    def _leaf_values(
        self,
        y: np.ndarray,
        prediction: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        leaf_idx: np.ndarray,
        n_leaves: int,
    ) -> np.ndarray:
        """Per-leaf step values for the current round.

        Squared error uses the regularised Newton step ``-G/(H+λ)``.  For
        the pinball objective CatBoost's ``leaf_estimation_method`` is
        ``Exact``: each leaf jumps to the ``q``-th quantile of its current
        residuals, which converges orders of magnitude faster than unit-
        Hessian Newton steps on a loss whose true Hessian is zero.
        """
        if self.quantile is None:
            grad_leaf = np.bincount(leaf_idx, weights=gradients, minlength=n_leaves)
            hess_leaf = np.bincount(leaf_idx, weights=hessians, minlength=n_leaves)
            return -grad_leaf / (hess_leaf + self.l2_leaf_reg)
        residuals = y - prediction
        values = np.zeros(n_leaves)
        counts = np.bincount(leaf_idx, minlength=n_leaves)
        for leaf in np.flatnonzero(counts):
            members = residuals[leaf_idx == leaf]
            # Shrink toward zero with the same λ convention as Newton
            # leaves so l2_leaf_reg keeps meaning "resist tiny leaves".
            step = float(np.quantile(members, self.quantile))
            values[leaf] = step * counts[leaf] / (counts[leaf] + self.l2_leaf_reg)
        return values

    # -- level-wise split search --------------------------------------------
    def _best_level_split(
        self,
        binned: np.ndarray,
        leaf_idx: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        n_leaves: int,
        candidate_features: np.ndarray,
        rng=None,
        n_bins: Optional[int] = None,
        dataset: Optional[BinnedDataset] = None,
    ) -> Tuple[int, int, float, np.ndarray]:
        """Pick the (feature, bin-threshold) with maximal summed leaf gain.

        Returns ``(feature, bin_index, score, per_feature_scores)`` where
        the split sends ``bin > bin_index`` to the right child, or
        ``(-1, -1, -inf, scores)`` when no candidate improves on not
        splitting.  ``per_feature_scores`` (aligned with
        ``candidate_features``) feeds the root-gain shortlist.

        ``n_bins`` is round-invariant (``codes.max() + 1``), so callers
        fitting many rounds pass it in rather than re-scanning the code
        matrix per level.  It is deliberately not ``binner.n_bins`` (the
        depth-wise grower's width): the split-score noise is drawn at the
        ``(n_candidates, n_bins - 1)`` score shape, so changing it would
        change every seeded fit.  Histograms come from
        :func:`~repro.models.binning.level_histograms`, the build shared
        with the depth-wise grower; ``dataset`` enables its level-0 cache.
        """
        lam = self.l2_leaf_reg
        if n_bins is None:
            n_bins = int(binned.max()) + 1 if binned.size else 1
        best_feature, best_bin, best_score = -1, -1, -np.inf

        n_candidates = candidate_features.size
        grad_cells, hess_cells, _ = level_histograms(
            binned, leaf_idx, gradients, hessians, n_leaves, n_bins,
            candidate_features, dataset=dataset,
        )

        grad_left = np.cumsum(grad_cells, axis=2)[:, :, :-1]
        hess_left = np.cumsum(hess_cells, axis=2)[:, :, :-1]
        grad_total = grad_cells.sum(axis=2, keepdims=True)
        hess_total = hess_cells.sum(axis=2, keepdims=True)

        # Score = Σ_leaves GL²/(HL+λ) + GR²/(HR+λ); the parent term is the
        # same for every candidate so it can be dropped from the argmax.
        # With λ > 0 every denominator is strictly positive, so the
        # arithmetic below is NaN-free by construction; the in-place ops
        # keep temporary traffic down on the (F, L, bins) arrays.
        reg = max(lam, 1e-12)
        score = np.square(grad_left)
        score /= hess_left + reg
        grad_right = grad_total - grad_left
        right_term = np.square(grad_right)
        right_term /= hess_total - hess_left + reg
        score += right_term
        score = score.sum(axis=1)  # (F, n_bins-1)
        # A split must route at least one sample each way globally;
        # otherwise it is a no-op (and its bin index may not even map to a
        # real threshold for features with few distinct values).
        left_mass = hess_left.sum(axis=1)  # (F, n_bins-1)
        right_mass = hess_total.sum(axis=1) - left_mass
        score = np.where((left_mass > 0) & (right_mass > 0), score, -np.inf)
        # No-split reference: sum of G²/(H+λ) over the current leaves;
        # grad_total is identical for every candidate feature, so read it
        # off the first candidate only.
        baseline = float(
            np.sum(grad_total[0, :, 0] ** 2 / (hess_total[0, :, 0] + lam))
        )
        if score.size == 0:
            return -1, -1, -np.inf, np.full(n_candidates, -np.inf)
        if self.random_strength > 0 and rng is not None:
            # CatBoost-style score perturbation: noise proportional to the
            # spread of candidate scores breaks argmax ties differently in
            # every round, keeping the tree ensemble diverse.
            finite = score[np.isfinite(score)]
            if finite.size > 1:
                spread = float(finite.std())
                if spread > 0:
                    score = score + rng.normal(
                        0.0, self.random_strength * spread * 0.1, size=score.shape
                    )
        flat_best = int(np.argmax(score))
        feature_pos, bin_pos = np.unravel_index(flat_best, score.shape)
        best = float(score[feature_pos, bin_pos])
        per_feature = score.max(axis=1)
        if best <= baseline + 1e-12:
            return -1, -1, -np.inf, per_feature
        best_feature = int(candidate_features[feature_pos])
        best_bin = int(bin_pos)
        best_score = best
        return best_feature, best_bin, best_score, per_feature

    # -- fitting ---------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        binned: Optional[BinnedDataset] = None,
    ) -> "ObliviousBoostingRegressor":
        """Fit the ensemble; ``binned`` optionally supplies a pre-binned
        :class:`~repro.models.binning.BinnedDataset` whose codes come
        from this very ``X`` at this ``max_bins`` (bit-identical to
        binning from scratch)."""
        X, y, rng = self._start_fit(X, y)
        dataset = resolve_binned_dataset(X, self.max_bins, binned)
        binned = dataset.codes
        edges = dataset.binner.edges_
        n_bins = dataset.codes_max + 1
        n_samples, n_features = X.shape

        prediction = np.full(n_samples, self.base_score_)
        trees: List[ObliviousTree] = []
        for _ in range(self.n_estimators):
            gradients, hessians = self._gradients(y, prediction)
            if self.bagging_temperature > 0:
                # CatBoost's default Bayesian bootstrap: exponential-like
                # per-sample weights each round, diversifying the trees.
                weights = (
                    -np.log(rng.uniform(1e-12, 1.0, size=n_samples))
                ) ** self.bagging_temperature
            else:
                weights = np.ones(n_samples)
            weighted_grad = gradients * weights
            weighted_hess = hessians * weights

            leaf_idx = np.zeros(n_samples, dtype=np.int64)
            features: List[int] = []
            thresholds: List[float] = []
            n_leaves = 1
            shortlist = None
            for _level in range(self.depth):
                if shortlist is not None:
                    candidates = shortlist
                elif self.rsm < 1.0:
                    n_cols = max(1, int(round(self.rsm * n_features)))
                    candidates = rng.choice(n_features, size=n_cols, replace=False)
                else:
                    candidates = np.arange(n_features)
                feature, bin_index, _score, feature_scores = self._best_level_split(
                    binned, leaf_idx, weighted_grad, weighted_hess, n_leaves,
                    candidates, rng, n_bins=n_bins, dataset=dataset,
                )
                if (
                    shortlist is None
                    and self.feature_shortlist is not None
                    and candidates.size > self.feature_shortlist
                ):
                    top = np.argsort(feature_scores)[-self.feature_shortlist :]
                    shortlist = np.sort(candidates[top])
                if feature < 0:
                    break
                feature_edges = edges[feature]
                threshold = float(feature_edges[bin_index])
                features.append(feature)
                thresholds.append(threshold)
                leaf_idx = (leaf_idx << 1) | (binned[:, feature] > bin_index)
                n_leaves *= 2

            leaf_values = self._leaf_values(
                y, prediction, gradients, hessians, leaf_idx, n_leaves
            )
            if not features:
                tree = ObliviousTree(
                    features=np.empty(0, dtype=np.int64),
                    thresholds=np.empty(0),
                    leaf_values=leaf_values[:1],
                )
                trees.append(tree)
                prediction += self.learning_rate * leaf_values[0]
                continue
            tree = ObliviousTree(
                features=np.asarray(features, dtype=np.int64),
                thresholds=np.asarray(thresholds),
                leaf_values=leaf_values,
            )
            trees.append(tree)
            prediction += self.learning_rate * leaf_values[leaf_idx]

        self.trees_ = trees
        self.compiled_ = self._compile(trees)
        return self

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalised level-usage counts per feature across all trees."""
        check_fitted(self, "trees_")
        counts = np.zeros(self.n_features_in_)
        for tree in self.trees_:
            for feature in tree.features:
                counts[feature] += 1.0
        total = counts.sum()
        return counts / total if total > 0 else counts
