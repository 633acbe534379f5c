"""Histogram-based, level-batched growth of gradient trees.

Grows the same depth-wise Newton trees as
:class:`repro.models.tree.GradientTree`, but on pre-binned features with
all leaves of a level processed in one ``np.bincount`` pass (the LightGBM
``depth-wise`` strategy).  On the paper's 1800-feature parametric block
this is what makes fitting a 100-tree boosting model interactive instead
of minutes-long; with ``max_bins`` at least the number of distinct feature
values it is exactly equivalent to the exact-greedy reference grower,
which the test suite verifies.  It is the only depth-wise histogram
grower: ``GradientBoostingRegressor(tree_method="hist")`` and
``DecisionTreeRegressor(splitter="hist")`` both fit through it, and it
builds its level histograms with the same
:func:`~repro.models.binning.level_histograms` call as the oblivious
grower.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.binning import BinnedDataset, FeatureBinner, level_histograms
from repro.models.tree import GradientTree, TreeGrowthParams, _NodeBuffers

__all__ = ["grow_histogram_tree"]

_LEAF = -1


def grow_histogram_tree(
    binned: np.ndarray,
    binner: FeatureBinner,
    gradients: np.ndarray,
    hessians: np.ndarray,
    params: TreeGrowthParams,
    candidate_features: Optional[np.ndarray] = None,
    feature_shortlist: Optional[int] = None,
    dataset: Optional[BinnedDataset] = None,
) -> GradientTree:
    """Grow one depth-wise Newton tree on pre-binned features.

    Parameters
    ----------
    binned:
        Integer bin codes from ``binner.transform`` (n_samples, n_features).
    binner:
        The fitted :class:`FeatureBinner`; needed to translate chosen bin
        indices back into raw-unit thresholds so the returned tree predicts
        directly on raw feature matrices.
    gradients, hessians:
        Per-sample first/second derivatives of the loss at the current
        boosting prediction.
    params:
        Growth limits and regularisation (same semantics as the exact
        grower).
    candidate_features:
        Columns eligible for splitting (``colsample`` support); all by
        default.
    feature_shortlist:
        Wide-data speedup: after the root level scores every candidate
        exactly, deeper levels only consider the top-K features by root
        gain.  ``None`` keeps the exact search at every level.
    dataset:
        Optional :class:`~repro.models.binning.BinnedDataset` whose
        ``codes`` are this very ``binned`` matrix with
        ``candidate_features`` spanning every column.  When given, the
        level-0 cell index and unit-weight histogram come from the
        dataset's cache instead of being recomputed -- they are
        round-invariant, and recomputing them dominated the per-round
        cost before this seam existed.  Strictly result-preserving:
        callers for which the contract does not hold simply omit it.

    Returns
    -------
    GradientTree
        A fitted tree whose ``predict`` operates on raw (un-binned) X.
    """
    n_samples, n_features = binned.shape
    gradients = np.asarray(gradients, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    if gradients.shape != (n_samples,) or hessians.shape != (n_samples,):
        raise ValueError("gradients/hessians must be 1-D with len(binned) entries")
    if candidate_features is None:
        candidate_features = np.arange(n_features)
    n_bins = binner.n_bins
    lam = params.reg_lambda

    buffers = _NodeBuffers()
    root = buffers.new_node()
    # slot: position of each sample's current *active* leaf at this level;
    # -1 means the sample's path has terminated in a finished leaf.
    slot = np.zeros(n_samples, dtype=np.int64)
    active_nodes: List[int] = [root]

    for depth in range(params.max_depth + 1):
        if not active_nodes:
            break
        n_active = len(active_nodes)
        live = slot >= 0
        grad_leaf = np.bincount(
            slot[live], weights=gradients[live], minlength=n_active
        )
        hess_leaf = np.bincount(
            slot[live], weights=hessians[live], minlength=n_active
        )
        count_leaf = np.bincount(slot[live], minlength=n_active)
        for position, node_id in enumerate(active_nodes):
            buffers.value[node_id] = -grad_leaf[position] / (hess_leaf[position] + lam)

        if depth == params.max_depth or n_bins < 2:
            # n_bins < 2: every column is constant, nothing can split.
            break

        # Avoid materialising full-matrix copies while every sample is
        # still live (always true at the root; true at every level until
        # the first leaf terminates) -- binned[live] with an all-True
        # mask is the costliest no-op in the grower.
        all_live = bool(live.all())
        grad_cells, hess_cells, count_cells = level_histograms(
            binned if all_live else binned[live],
            slot if all_live else slot[live],
            gradients if all_live else gradients[live],
            hessians if all_live else hessians[live],
            n_active,
            n_bins,
            candidate_features,
            dataset=dataset,
            counts=True,
        )

        grad_left = np.cumsum(grad_cells, axis=2)[:, :, :-1]
        hess_left = np.cumsum(hess_cells, axis=2)[:, :, :-1]
        # Unit Hessians (both supported objectives) make the Hessian
        # histogram double as the sample count.
        count_left = (
            hess_left
            if count_cells is hess_cells
            else np.cumsum(count_cells, axis=2)[:, :, :-1]
        )
        grad_total = grad_leaf[None, :, None]
        hess_total = hess_leaf[None, :, None]
        count_total = count_leaf[None, :, None]
        grad_right = grad_total - grad_left
        hess_right = hess_total - hess_left
        count_right = count_total - count_left

        admissible = (
            (count_left >= params.min_samples_leaf)
            & (count_right >= params.min_samples_leaf)
        )
        if params.min_child_weight > 0:
            admissible &= (hess_left >= params.min_child_weight) & (
                hess_right >= params.min_child_weight
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (
                grad_left**2 / (hess_left + lam)
                + grad_right**2 / (hess_right + lam)
                - grad_total**2 / (hess_total + lam)
            )
        gain = np.where(admissible, gain, -np.inf)

        if (
            depth == 0
            and feature_shortlist is not None
            and candidate_features.size > feature_shortlist
        ):
            # Root-gain shortlist: deeper levels only consider the top-K
            # features.  Index both arrays with the same sorted positions
            # so gain rows stay aligned with candidate_features.
            root_scores = gain.max(axis=(1, 2))
            top = np.sort(np.argsort(root_scores)[-feature_shortlist:])
            candidate_features = candidate_features[top]
            gain = gain[top]
        # Best (feature, bin) per active leaf.
        flat = gain.transpose(1, 0, 2).reshape(n_active, -1)  # (L, F*(nb-1))
        best_flat = np.argmax(flat, axis=1)
        best_gain = flat[np.arange(n_active), best_flat]
        width = gain.shape[2]
        best_feature_pos = best_flat // width
        best_bin = best_flat % width

        next_active: List[int] = []
        split_feature = np.full(n_active, -1, dtype=np.int64)
        split_bin = np.zeros(n_active, dtype=np.int64)
        new_slot_left = np.zeros(n_active, dtype=np.int64)
        any_split = False
        for position, node_id in enumerate(active_nodes):
            if not np.isfinite(best_gain[position]) or best_gain[position] <= params.gamma:
                continue
            feature = int(candidate_features[best_feature_pos[position]])
            bin_index = int(best_bin[position])
            left_id = buffers.new_node()
            right_id = buffers.new_node()
            buffers.feature[node_id] = feature
            buffers.threshold[node_id] = binner.threshold(feature, bin_index)
            buffers.left[node_id] = left_id
            buffers.right[node_id] = right_id
            split_feature[position] = feature
            split_bin[position] = bin_index
            new_slot_left[position] = len(next_active)
            next_active.append(left_id)
            next_active.append(right_id)
            any_split = True

        if not any_split:
            break

        # Re-slot samples: children occupy consecutive positions; samples in
        # unsplit leaves terminate.
        old_slot = slot.copy()
        for position in range(n_active):
            members = old_slot == position
            if split_feature[position] < 0:
                slot[members] = -1
                continue
            goes_right = binned[members, split_feature[position]] > split_bin[position]
            base = new_slot_left[position]
            member_rows = np.flatnonzero(members)
            slot[member_rows[~goes_right]] = base
            slot[member_rows[goes_right]] = base + 1
        active_nodes = next_active

    tree = GradientTree(params)
    tree.feature_ = np.asarray(buffers.feature, dtype=np.int64)
    tree.threshold_ = np.asarray(buffers.threshold, dtype=np.float64)
    tree.left_ = np.asarray(buffers.left, dtype=np.int64)
    tree.right_ = np.asarray(buffers.right, dtype=np.int64)
    tree.value_ = np.asarray(buffers.value, dtype=np.float64)
    tree.n_features_in_ = int(n_features)
    return tree
