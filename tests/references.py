"""Reference implementations that only the tests use.

FlatLogitModel is a pooled logit with normal priors, the target of the
grid-quadrature and prior-recovery oracles. `individual_wtp` reconstructs
one respondent's coefficients as mu + sigma * z and takes the per-draw WTP
ratio; it backs the shrinkage checks. `split_rhat` and `ess_bulk` compute
the diagnostics one parameter at a time, the oracle for `diagnose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from conjoint_wtp.domain import WTP_PRICE_EPS
from conjoint_wtp.errors import ContractError, SignSafetyError
from conjoint_wtp.infer.fit import PosteriorDraws
from conjoint_wtp.infer.model import _LOG_2PI, _loglik_and_score
from conjoint_wtp.posterior import WtpDraws

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

    def initial_inv_mass(self) -> np.ndarray:
        return np.ones(self.dim)


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


def individual_wtp(draws: PosteriorDraws, respondent_id: int, feature: str) -> IndividualWtpDraws:
    """WTP distribution for one respondent, from reconstructed individual
    coefficients. Sign-unsafe draws above 0.5% set a warning, not an error."""
    j = draws.feature_index(feature)
    if j == draws.price_index:
        raise ContractError("WTP of the price column is not defined")
    beta = individual_beta(draws, respondent_id) / draws.standardization.scale
    keep = beta[:, draws.price_index] < -WTP_PRICE_EPS
    flagged = int(keep.size - keep.sum())
    ratios = -beta[keep, j] / beta[keep, draws.price_index]
    if ratios.size == 0:
        raise SignSafetyError(
            f"all draws for respondent {respondent_id} have non-negative price coefficients"
        )
    warning = flagged > INDIVIDUAL_FLAG_LIMIT * draws.n_draws
    return IndividualWtpDraws(
        feature=feature, draws=ratios, flagged_count=flagged, sign_warning=warning
    )


def _split_chains(draws: np.ndarray) -> np.ndarray:
    """(chains, draws) -> (2*chains, draws//2), dropping an odd draw."""
    n = draws.shape[1]
    half = n // 2
    if half < 1:
        raise ValueError("need at least 2 draws per chain to split")
    return np.concatenate([draws[:, :half], draws[:, n - half :]], axis=0)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Fractional ranks of the pooled sample mapped through the normal quantile."""
    pooled = x.reshape(-1)
    z = ndtri((rankdata(pooled, method="average") - 0.375) / (pooled.size + 0.25))
    return z.reshape(x.shape)


def split_rhat(chain_draws: np.ndarray) -> float:
    """Rank-normalized split R-hat for one parameter, draws as (chains, n)."""
    z = _rank_normalize(_split_chains(np.asarray(chain_draws, dtype=float)))
    m, n = z.shape
    chain_means = z.mean(axis=1)
    w = z.var(axis=1, ddof=1).mean()
    b = n * chain_means.var(ddof=1) if m > 1 else 0.0
    if w <= 0:
        return math.nan
    var_plus = (n - 1) / n * w + b / n
    return float(math.sqrt(var_plus / w))


def _chain_autocovariance(z: np.ndarray) -> np.ndarray:
    """Biased autocovariance per chain via FFT; z is (chains, n)."""
    m, n = z.shape
    centered = z - z.mean(axis=1, keepdims=True)
    size = 2 ** math.ceil(math.log2(2 * n))
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n].real
    return acov / n


def ess_bulk(chain_draws: np.ndarray) -> float:
    """Bulk effective sample size with Geyer truncation, draws as (chains, n)."""
    z = _rank_normalize(_split_chains(np.asarray(chain_draws, dtype=float)))
    m, n = z.shape
    if np.allclose(z.var(axis=1), 0.0):
        return math.nan
    acov = _chain_autocovariance(z)
    chain_var = acov[:, 0] * n / (n - 1)
    w = chain_var.mean()
    var_plus = w * (n - 1) / n
    if m > 1:
        var_plus += z.mean(axis=1).var(ddof=1)
    if var_plus <= 0:
        return math.nan

    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs, stop at the first negative pair, then
    # enforce a monotone non-increasing sequence.
    pair_sums = []
    for k in range((n - 1) // 2):
        s = rho[2 * k] + rho[2 * k + 1]
        if s < 0:
            break
        pair_sums.append(s)
    running_min = math.inf
    tau = -rho[0]
    for s in pair_sums:
        running_min = min(running_min, s)
        tau += 2.0 * running_min
    if tau <= 0:
        return float(m * n)
    ess = m * n / tau
    return float(min(ess, m * n * math.log10(max(m * n, 10))))
