"""Maximum-likelihood logit fits, a test-side reference for the Bayesian fit.

These deliberately bypass the Bayesian machinery: a plain (optionally
ridge-stabilized) logistic regression on difference regressors, optimized
with L-BFGS and the analytic gradient. The tiny default ridge keeps the
optimum finite when a respondent's choices are separable.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from conjoint_wtp.errors import ContractError, FitError


def fit_logit_mle(
    x: np.ndarray, choices: np.ndarray, ridge: float = 1e-8, max_iter: int = 1000
) -> np.ndarray:
    """Pooled logit coefficients maximizing the (ridge-penalized) likelihood."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(choices, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ContractError(f"design {x.shape} and choices {y.shape} do not line up")
    if x.shape[0] == 0:
        raise ContractError("cannot fit a logit to zero records")
    sgn = 2.0 * y - 1.0

    def objective(beta):
        eta = x @ beta
        nll = np.logaddexp(0.0, -sgn * eta).sum() + 0.5 * ridge * beta @ beta
        grad = -x.T @ (y - expit(eta)) + ridge * beta
        return nll, grad

    start = np.zeros(x.shape[1])
    result = minimize(objective, start, jac=True, method="L-BFGS-B", options={"maxiter": max_iter})
    if not result.success and not np.all(np.isfinite(result.x)):
        raise FitError(f"logit MLE did not converge: {result.message}")
    return result.x
