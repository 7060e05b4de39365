"""Revenue simulation for a feature bundle priced against a fixed baseline.

The market model is deliberately minimal: each simulated consumer picks
between the bundle at a candidate price and the baseline product at its
fixed price — there is no outside "buy nothing" option, so reported revenue
is conditional on that binary market. Consumers are drawn from each
posterior draw's population distribution Normal(mu, sigma) (heterogeneity is
integrated by Monte Carlo, not collapsed to the mean), and the same
consumer noise is reused across all prices within a draw. That makes the
per-draw demand curve exactly non-increasing in price and the argmax
comparison noise-free.

`revenue_curve` draws each posterior draw's consumers as one
(market_size, features) standard-normal block from its own substream
(seed, MARKET_STREAM, draw index). The purchase probabilities are computed
in one (prices, market_size) buffer allocated per call: it is filled with
-(u + b * dp) for base utility u, clipped price slope b and price offset
dp, then turned in place into p = 1 / (1 + exp(-(u + b * dp))). An exp
that overflows gives an exact 0; each price's row is then averaged over
its contiguous consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .domain import WTP_PRICE_EPS, AttributeScheme, ProductProfile, encode_profile
from .errors import ContractError, SignSafetyError
from .infer.fit import PosteriorDraws
from .posterior import POPULATION_FLAG_LIMIT, hdi, unscale_population
from .rng import MARKET_STREAM, substream
from .simulate import PRICE_COEF_CEILING


@dataclass(frozen=True)
class BundleScenario:
    """A bundle of upgrades priced on a grid against a fixed baseline."""

    baseline: ProductProfile
    upgrades: Mapping[str, str]
    price_grid: tuple[float, ...]
    market_size: int = 2000

    def __post_init__(self) -> None:
        object.__setattr__(self, "upgrades", dict(self.upgrades))
        object.__setattr__(self, "price_grid", tuple(float(p) for p in self.price_grid))
        if not self.upgrades:
            raise ContractError("upgrades must be non-empty")
        if not self.price_grid:
            raise ContractError("price_grid must be non-empty")
        if any(not p > 0 for p in self.price_grid):
            raise ContractError("price_grid entries must be positive")
        if any(b >= a for a, b in zip(self.price_grid[1:], self.price_grid)):
            raise ContractError("price_grid must be strictly increasing")
        if self.market_size < 1:
            raise ContractError(f"market_size must be >= 1, got {self.market_size}")

    def bundle_profile(self, price: float) -> ProductProfile:
        levels = dict(self.baseline.levels)
        levels.update(self.upgrades)
        return ProductProfile(levels=levels, price=price)


@dataclass
class RevenueCurve:
    """Expected per-consumer revenue draws across the price grid."""

    prices: np.ndarray
    revenue: np.ndarray  # (retained draws, prices)
    purchase_prob: np.ndarray  # (retained draws, prices)
    mean: np.ndarray
    hdi_low: np.ndarray
    hdi_high: np.ndarray
    argmax_price: float
    argmax_hdi: tuple[float, float]
    hdi_mass: float
    flagged_count: int


def _bundle_offsets(scheme: AttributeScheme, scenario: BundleScenario) -> np.ndarray:
    """Feature-vector difference bundle-minus-baseline at equal price.

    Encoding validates both profiles, so an unknown upgrade attribute or
    level raises CodingError naming it.
    """
    base = scenario.baseline
    diff = encode_profile(scheme, scenario.bundle_profile(base.price)) - encode_profile(scheme, base)
    if not np.any(diff[: scheme.price_index] != 0):
        raise ContractError("bundle upgrades do not change the baseline profile")
    return diff


def _purchase_probabilities(
    mu: np.ndarray,
    sigma: np.ndarray,
    diff: np.ndarray,
    neg_price_offsets: np.ndarray,
    noise: np.ndarray,
    buffer: np.ndarray,
) -> np.ndarray:
    """Fraction of simulated consumers preferring the bundle at each price.

    mu/sigma are one posterior draw's population parameters on the raw
    scale; `noise` is the draw's standard-normal consumer block (market_size
    x features), reused across prices and overwritten with the consumers'
    coefficients; `neg_price_offsets` are the baseline price minus the grid
    prices; `buffer` is (prices, market_size) scratch. Consumer price
    coefficients are truncated below zero like the simulator's respondents,
    so demand is exactly monotone.
    """
    betas = noise
    betas *= sigma
    betas += mu
    price_col = diff.size - 1
    slope = np.minimum(betas[:, price_col], PRICE_COEF_CEILING)
    base_utility = betas[:, :price_col] @ diff[:price_col]
    np.multiply.outer(neg_price_offsets, slope, out=buffer)
    buffer -= base_utility
    with np.errstate(over="ignore"):
        np.exp(buffer, out=buffer)
    buffer += 1.0
    np.reciprocal(buffer, out=buffer)
    return buffer.mean(axis=1)


def revenue_curve(
    draws: PosteriorDraws,
    scheme: AttributeScheme,
    scenario: BundleScenario,
    seed: int,
    hdi_mass: float = 0.95,
    eps: float = WTP_PRICE_EPS,
) -> RevenueCurve:
    """Posterior distribution of expected revenue across the price grid.

    Revenue at price p is p times the simulated purchase probability, so
    every draw lies in [0, p]. Each posterior draw gets its own consumer
    RNG stream keyed by (seed, draw index); within a draw the consumers are
    shared across prices (common random numbers).
    """
    mu_raw, sigma_raw = unscale_population(draws)
    price_idx = draws.price_index
    keep = mu_raw[:, price_idx] < -eps
    flagged = int(draws.n_draws - keep.sum())
    if keep.sum() == 0:
        raise SignSafetyError("every posterior draw has a non-negative price effect")
    if flagged > POPULATION_FLAG_LIMIT * draws.n_draws:
        raise SignSafetyError(
            f"{flagged} of {draws.n_draws} draws have a non-negative price effect"
        )
    retained = np.flatnonzero(keep)
    prices = np.asarray(scenario.price_grid)
    diff = _bundle_offsets(scheme, scenario)
    neg_price_offsets = scenario.baseline.price - prices
    probs = np.empty((retained.size, prices.size))
    buffer = np.empty((prices.size, scenario.market_size))
    n_features = draws.n_features
    for row, draw_index in enumerate(retained):
        rng = substream(seed, MARKET_STREAM, int(draw_index))
        noise = rng.standard_normal((scenario.market_size, n_features))
        probs[row] = _purchase_probabilities(
            mu_raw[draw_index], sigma_raw[draw_index], diff, neg_price_offsets, noise, buffer
        )
    revenue = probs * prices[None, :]
    mean = revenue.mean(axis=0)
    lows = np.empty(prices.size)
    highs = np.empty(prices.size)
    for j in range(prices.size):
        lows[j], highs[j] = hdi(revenue[:, j], hdi_mass)
    argmax_price = float(prices[int(np.argmax(mean))])
    per_draw_argmax = prices[np.argmax(revenue, axis=1)]
    argmax_hdi = hdi(per_draw_argmax, hdi_mass)
    return RevenueCurve(
        prices=prices,
        revenue=revenue,
        purchase_prob=probs,
        mean=mean,
        hdi_low=lows,
        hdi_high=highs,
        argmax_price=argmax_price,
        argmax_hdi=argmax_hdi,
        hdi_mass=hdi_mass,
        flagged_count=flagged,
    )
