"""Fitting the hierarchical model: sampler orchestration and draw containers."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from .design import Design, Standardization
from .diagnostics import Diagnostics, diagnose
from .model import HierarchicalLogitModel, ModelConfig
from .nuts import run_nuts

# Hard gate: a sampler run with more than this fraction of divergent
# transitions is not trustworthy and fails loudly.
MAX_DIVERGENCE_RATE = 0.05


@dataclass
class PosteriorDraws:
    """Posterior samples for all model parameters plus unscaling metadata.

    mu and sigma are (total draws, features) on the fitting scale; z is
    (total draws, respondents, features); mu + sigma * z rebuilds individual
    coefficients, and the standardization returns them to dollar units. The
    price is the last column, which `price_column` names for the header.
    """

    columns: tuple[str, ...]
    price_column: str
    respondent_ids: tuple[int, ...]
    mu: np.ndarray
    sigma: np.ndarray
    z: np.ndarray
    standardization: Standardization
    chain_index: np.ndarray
    divergent: np.ndarray
    config: ModelConfig
    seed: int

    @property
    def n_draws(self) -> int:
        return self.mu.shape[0]

    @property
    def n_features(self) -> int:
        return self.mu.shape[1]


def sample(
    design: Design, config: ModelConfig, timings: dict[str, float] | None = None
) -> tuple[PosteriorDraws, Diagnostics]:
    """Fit the hierarchical logit to a built design via NUTS.

    Runs config.chains independent chains (in parallel up to
    CONJOINT_WTP_THREADS; results are identical either way), gates on the
    divergence rate, and attaches convergence diagnostics. R-hat above 1.05
    on a population parameter is reported as a warning, not an error.
    Given `timings`, it stores there the seconds spent sampling and in the
    diagnostics, under "sampling" and "diagnostics".
    """
    model = HierarchicalLogitModel(design, config)
    t0 = time.perf_counter()
    result = run_nuts(
        model,
        chains=config.chains,
        warmup=config.warmup_per_chain,
        draws=config.draws_per_chain,
        target_accept=config.target_accept,
        max_treedepth=config.max_treedepth,
        seed=config.seed,
    )
    sampling_s = time.perf_counter() - t0
    divergent = np.concatenate([s.divergent for s in result.stats])
    rate = float(divergent.mean())
    if rate > MAX_DIVERGENCE_RATE:
        raise FitError(
            f"{rate:.1%} of post-warmup transitions diverged (limit {MAX_DIVERGENCE_RATE:.0%}); "
            "consider raising target_accept or reparameterizing"
        )
    t0 = time.perf_counter()
    diagnostics = diagnose(result.draws, model.parameter_names(), result.stats, config)
    if timings is not None:
        timings.update(sampling=sampling_s, diagnostics=time.perf_counter() - t0)
    mu, log_sigma, z = model.unpack(result.flat())
    chain_index = np.repeat(np.arange(config.chains), config.draws_per_chain)
    draws = PosteriorDraws(
        columns=design.columns,
        price_column=design.columns[-1],
        respondent_ids=design.respondent_ids,
        mu=mu,
        sigma=np.exp(log_sigma),
        z=z,
        standardization=design.standardization,
        chain_index=chain_index,
        divergent=divergent,
        config=config,
        seed=config.seed,
    )
    return draws, diagnostics
