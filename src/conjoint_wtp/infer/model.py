"""The log-posterior target for the gradient-based sampler.

HierarchicalLogitModel: per-respondent coefficient vectors drawn from
population normals, written in the non-centered form beta_i = mu + sigma * z_i
(z standard normal) so the sampler never sees the funnel that sparse
per-respondent data would induce. Population SDs are sampled on the log
scale with the Jacobian folded into the density.

It exposes log_posterior(theta) -> (value, gradient) with an exact analytic
gradient; the sampler treats a non-finite value as an off-support point.

The likelihood is one pass over the logits s = x . beta of the chosen
options: the design stores each row signed, chosen minus rejected. With
e = exp(-s), expit(s) = 1 / (1 + e), so the single exp gives both
log expit(s) = -log(1 + e) and the score d/ds = e / (1 + e). When e
overflows (s below about -709) the sum is recomputed exactly in numpy, as
log expit(s) = -logaddexp(0, -s) and the score 1 / (1 + exp(s)), whose
overflow for s above about 709 gives an exact 0.

The pass runs over the design's padded panel (`design.py`): each of its pad
slots adds exactly -log 2 to the sum, which a precomputed constant cancels,
and 0 to the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from .design import Design

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NormalPrior:
    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ContractError(f"mean must be finite, got {self.mean}")
        if not 0 < self.sd < math.inf:
            raise ContractError(f"sd must be finite and positive, got {self.sd}")


@dataclass(frozen=True)
class ModelConfig:
    """Priors and sampler settings.

    The priors (a normal on the price mean, one on each feature mean, and a
    HalfNormal on each SD) are stated on the one scale the design has: each
    difference column divided by its SD.
    """

    prior_mu_price: NormalPrior = NormalPrior(-1.0, 1.0)
    prior_mu_feature: NormalPrior = NormalPrior(0.0, 2.0)
    prior_sigma_sd: float = 1.0
    chains: int = 4
    draws_per_chain: int = 2000
    warmup_per_chain: int = 1000
    target_accept: float = 0.8
    max_treedepth: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ContractError(f"chains must be >= 1, got {self.chains}")
        if self.draws_per_chain < 4:  # split R-hat needs two draws per half-chain
            raise ContractError(f"draws_per_chain must be >= 4, got {self.draws_per_chain}")
        if self.warmup_per_chain < 0:
            raise ContractError(f"warmup_per_chain must be >= 0, got {self.warmup_per_chain}")
        if not (0.0 < self.target_accept < 1.0):
            raise ContractError(f"target_accept must be in (0, 1), got {self.target_accept}")
        if not 0 < self.prior_sigma_sd < math.inf:
            raise ContractError(f"prior_sigma_sd must be finite and positive, got {self.prior_sigma_sd}")
        if self.max_treedepth < 1:
            raise ContractError(f"max_treedepth must be >= 1, got {self.max_treedepth}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")


def parameter_names(columns, respondent_ids) -> list[str]:
    """The names of the parameter vector's entries, in its order."""
    names = [f"mu[{c}]" for c in columns] + [f"sigma[{c}]" for c in columns]
    for rid in respondent_ids:
        names.extend(f"z[{rid},{c}]" for c in columns)
    return names


def split_parameters(theta: np.ndarray, n_features: int, n_respondents: int):
    """The one slicing of the parameter layout [mu, sigma or log-sigma, z]:
    views over the last axis of one vector or a (draws, dim) batch, with z
    respondent-major, shaped (..., respondents, features)."""
    f = n_features
    z = theta[..., 2 * f :].reshape(*theta.shape[:-1], n_respondents, f)
    return theta[..., :f], theta[..., f : 2 * f], z


def _loglik_and_score(s: np.ndarray):
    """Sum of log expit(s) over the chosen options' logits s, and the score
    d/ds = 1 - expit(s), shaped like s. Callers run it under
    np.errstate(over="ignore"): an exp that overflows is expected."""
    e = np.exp(-s)
    d = e + 1.0
    loglik = -float(np.log(d).sum())
    if not math.isfinite(loglik):
        return -float(np.logaddexp(0.0, -s).sum()), 1.0 / (1.0 + np.exp(s))
    e /= d
    return loglik, e


class HierarchicalLogitModel:
    """Non-centered hierarchical logit over choice differences.

    Unconstrained parameter vector: [mu (F), log_sigma (F), z (R*F row-major)].
    """

    def __init__(self, design: Design, config: ModelConfig):
        self.design = design
        self.config = config
        self.n_features = design.n_features
        self.n_respondents = design.n_respondents
        self._pad_const = (math.prod(design.x.shape[:2]) - design.n_rows) * math.log(2.0)
        price = np.arange(self.n_features) == design.price_index
        mu_price, mu_feature = config.prior_mu_price, config.prior_mu_feature
        self.prior_mean = np.where(price, mu_price.mean, mu_feature.mean)
        self.prior_sd = np.where(price, mu_price.sd, mu_feature.sd)
        self.sigma_tau = np.full(self.n_features, config.prior_sigma_sd)
        self._tau2 = self.sigma_tau**2
        f, r = self.n_features, self.n_respondents
        self._mu_const = -0.5 * f * _LOG_2PI - np.log(self.prior_sd).sum()
        self._z_const = -0.5 * r * f * _LOG_2PI
        self._sigma_const = 0.5 * f * math.log(2.0 / math.pi) - np.log(self.sigma_tau).sum()

    @property
    def dim(self) -> int:
        return self.n_features * (2 + self.n_respondents)

    def unpack(self, theta: np.ndarray):
        """mu, log_sigma and z of one parameter vector or a (draws, dim) batch."""
        return split_parameters(theta, self.n_features, self.n_respondents)

    def parameter_names(self) -> list[str]:
        return parameter_names(self.design.columns, self.design.respondent_ids)

    def log_posterior(self, theta: np.ndarray):
        # An extreme theta can overflow anywhere below, to inf or, as inf * 0,
        # to NaN. It is off-support: the result is -inf, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            logp, grad = self._log_density(theta)
        if not (math.isfinite(logp) and np.all(np.isfinite(grad))):
            return -np.inf, np.zeros_like(theta)
        return logp, grad

    def _log_density(self, theta: np.ndarray):
        mu, log_sigma, z = self.unpack(theta)
        sigma = np.exp(log_sigma)
        beta = mu + sigma * z
        x = self.design.x
        loglik, score = _loglik_and_score((x @ beta[:, :, None])[:, :, 0])
        grad_beta = (score[:, None, :] @ x)[:, 0, :]

        mu_resid = (mu - self.prior_mean) / self.prior_sd
        sigma2_tau2 = sigma**2 / self._tau2
        logp = (
            loglik
            + self._pad_const
            + self._mu_const
            - 0.5 * (mu_resid**2).sum()
            + self._sigma_const
            - 0.5 * sigma2_tau2.sum()
            + log_sigma.sum()
            + self._z_const
            - 0.5 * (z**2).sum()
        )
        grad_mu = grad_beta.sum(axis=0) - mu_resid / self.prior_sd
        grad_log_sigma = (grad_beta * z).sum(axis=0) * sigma - sigma2_tau2 + 1.0
        grad_z = grad_beta * sigma - z
        return float(logp), np.concatenate([grad_mu, grad_log_sigma, grad_z.reshape(-1)])

    def initial_position(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, self.dim)

    def initial_inv_mass(self) -> np.ndarray:
        """The diagonal inverse metric warmup starts from: 1/R on mu, 0.1 on
        log_sigma, 1 on z.

        Every respondent informs each population mean, so its posterior
        variance is about 1/R, however many tasks each respondent answered.
        z is on unit scale. log_sigma is not: its posterior variance ranges
        over 0.03-1.5 on the demo survey, and a unit start there made the
        initial step-size-only buffer cost about 70 leapfrogs an iteration,
        against 37-49 from 0.1 (31 per draw in sampling).
        """
        f = self.n_features
        inv_mass = np.ones(self.dim)
        inv_mass[:f] = 1.0 / self.n_respondents
        inv_mass[f : 2 * f] = 0.1
        return inv_mass
