"""Reference implementations that only the tests use.

FlatLogitModel is a pooled logit with normal priors, the target of the
grid-quadrature and prior-recovery oracles. `individual_wtp` reconstructs
one respondent's coefficients as mu + sigma * z and takes the per-draw WTP
ratio; it backs the shrinkage checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conjoint_wtp.domain import WTP_PRICE_EPS
from conjoint_wtp.errors import ContractError, SignSafetyError
from conjoint_wtp.infer.fit import PosteriorDraws
from conjoint_wtp.infer.model import _LOG_2PI, _loglik_and_score
from conjoint_wtp.posterior import WtpDraws, _safe_ratio

# Individual WTP is noisier than the population's: sign-unsafe draws above
# this share set a warning, not an error.
INDIVIDUAL_FLAG_LIMIT = 0.005


class FlatLogitModel:
    """Pooled logit: one shared coefficient vector with normal priors."""

    def __init__(
        self,
        x: np.ndarray,
        choices: np.ndarray,
        prior_mean: np.ndarray,
        prior_sd: np.ndarray,
    ):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(choices, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ContractError(
                f"design {self.x.shape} and choices {self.y.shape} do not line up"
            )
        self.sgn = 2.0 * self.y - 1.0
        self.prior_mean = np.asarray(prior_mean, dtype=float)
        self.prior_sd = np.asarray(prior_sd, dtype=float)
        if self.prior_mean.shape != (self.x.shape[1],) or self.prior_sd.shape != (self.x.shape[1],):
            raise ContractError("prior vectors must have one entry per design column")
        if not np.all(self.prior_sd > 0):
            raise ContractError("prior sds must be positive")
        self._const = -0.5 * self.x.shape[1] * _LOG_2PI - np.log(self.prior_sd).sum()

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def log_posterior(self, theta: np.ndarray):
        resid = (theta - self.prior_mean) / self.prior_sd
        logp = self._const - 0.5 * (resid**2).sum()
        grad = -resid / self.prior_sd
        with np.errstate(over="ignore"):
            loglik, score = _loglik_and_score(self.sgn * (self.x @ theta), self.sgn)
        logp += loglik
        grad = grad + self.x.T @ score
        if not np.isfinite(logp):
            return -np.inf, np.zeros_like(theta)
        return float(logp), grad

    def initial_position(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, self.dim)


@dataclass
class IndividualWtpDraws(WtpDraws):
    sign_warning: bool = False


def respondent_position(draws: PosteriorDraws, respondent_id: int) -> int:
    try:
        return draws.respondent_ids.index(respondent_id)
    except ValueError:
        raise ContractError(f"respondent {respondent_id} was not in the fitted dataset") from None


def individual_beta(draws: PosteriorDraws, respondent_id: int) -> np.ndarray:
    """Per-draw coefficients for one respondent on the fitting scale."""
    pos = respondent_position(draws, respondent_id)
    return draws.mu + draws.sigma * draws.z[:, pos, :]


def individual_wtp(
    draws: PosteriorDraws, respondent_id: int, feature: str, eps: float = WTP_PRICE_EPS
) -> IndividualWtpDraws:
    """WTP distribution for one respondent, from reconstructed individual
    coefficients. Sign-unsafe draws above 0.5% set a warning, not an error."""
    j = draws.feature_index(feature)
    if j == draws.price_index:
        raise ContractError("WTP of the price column is not defined")
    beta = individual_beta(draws, respondent_id) / draws.standardization.scale
    ratios, flagged = _safe_ratio(beta[:, j], beta[:, draws.price_index], eps)
    if ratios.size == 0:
        raise SignSafetyError(
            f"all draws for respondent {respondent_id} have non-negative price coefficients"
        )
    warning = flagged > INDIVIDUAL_FLAG_LIMIT * draws.n_draws
    return IndividualWtpDraws(
        feature=feature, draws=ratios, flagged_count=flagged, sign_warning=warning
    )
