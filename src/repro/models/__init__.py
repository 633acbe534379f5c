"""Regression models used as :math:`V_{min}` point and quantile predictors.

This subpackage is a from-scratch substrate replacing the third-party
packages used in the paper (scikit-learn, XGBoost, CatBoost, PyTorch):

* :mod:`repro.models.linear` -- ordinary least squares / ridge regression and
  exact linear quantile regression,
* :mod:`repro.models.gp` -- exact Gaussian process regression with marginal
  likelihood hyper-parameter fitting (paper Section II-B.1),
* :mod:`repro.models.gbm` -- XGBoost-style second-order gradient boosting,
* :mod:`repro.models.oblivious` -- CatBoost-style oblivious-tree boosting,
* :mod:`repro.models.nn` -- the 2-layer MLP of paper Section IV-C.4,
* :mod:`repro.models.quantile` -- the (lower, upper) quantile band regressor
  of paper Eq. (2),
* :mod:`repro.models.ensemble` -- deep-ensemble uncertainty baseline
  (Table I comparison row),
* :mod:`repro.models.tables` -- compiled decision-table inference kernels:
  fitted tree ensembles flattened into numpy tensors scored batch-at-once,
  bit-identical to summing the trees one by one, and
  :class:`~repro.models.tables.BoostedTreesRegressor`, the base through
  which both boosting models score (pre-kernel pickles compile when
  unpickled).

All estimators follow a small scikit-learn-like protocol defined in
:mod:`repro.models.base`: ``fit(X, y) -> self``, ``predict(X) -> ndarray``,
plus ``get_params``/``set_params``/``clone`` support so they can be used
interchangeably inside the conformal wrappers of :mod:`repro.core`.
"""

from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_X,
    check_X_y,
    clone,
)
from repro.models.ensemble import DeepEnsembleRegressor
from repro.models.gbm import GradientBoostingRegressor
from repro.models.gp import GaussianProcessRegressor
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.models.losses import (
    huber_loss,
    mse_loss,
    pinball_loss,
    smooth_pinball_loss,
)
from repro.models.nn import MLPRegressor
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.optim import SGD, Adam
from repro.models.quantile import PackageDefaultQuantileBand, QuantileBandRegressor
from repro.models.tables import (
    BoostedTreesRegressor,
    CompiledDepthwiseTables,
    CompiledObliviousTables,
    compile_depthwise,
    compile_oblivious,
)
from repro.models.tree import DecisionTreeRegressor

__all__ = [
    "Adam",
    "BaseRegressor",
    "BoostedTreesRegressor",
    "CompiledDepthwiseTables",
    "CompiledObliviousTables",
    "DecisionTreeRegressor",
    "DeepEnsembleRegressor",
    "GaussianProcessRegressor",
    "GradientBoostingRegressor",
    "LinearRegression",
    "MLPRegressor",
    "ObliviousBoostingRegressor",
    "PackageDefaultQuantileBand",
    "QuantileBandRegressor",
    "QuantileLinearRegression",
    "SGD",
    "check_X",
    "check_X_y",
    "check_fitted",
    "clone",
    "compile_depthwise",
    "compile_oblivious",
    "huber_loss",
    "mse_loss",
    "pinball_loss",
    "smooth_pinball_loss",
]
