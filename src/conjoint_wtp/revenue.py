"""Expected revenue of a feature bundle priced against a fixed baseline.

The market model is deliberately minimal: each consumer picks between the
bundle at a candidate price and the baseline product at its fixed price;
there is no outside "buy nothing" option, so reported revenue is
conditional on that binary market. A posterior draw's consumers have
independent coefficients Normal(mu, sigma^2) on the raw scale, the price
coefficient clipped at PRICE_COEF_CEILING like the simulator's
respondents'. Heterogeneity is integrated, not collapsed to the mean: the
bundle's utility edge u = beta[:-1] . d (d the bundle-minus-baseline
offsets) is Normal(mu . d, sum(sigma^2 d^2)) and independent of the price
slope b, so a draw's purchase probability at price offset dp is the 2-D
integral E[1 / (1 + exp(-(u + min(b, ceiling) * dp)))].

`revenue_curve` computes it with no random numbers, by a fixed product
rule: Gauss-Hermite in u and `_slope_nodes` in b. Every node's slope is at
or below the ceiling and every weight is >= 0, so each term, and with it
each draw's demand, is exactly non-increasing in price. An exp that
overflows gives a term of exactly 0, and the weighted sum is divided by the
weights' own total, so the far tails give exactly 0 or 1 and a population
with no spread gives the logistic value (exactly 0.5 at indifference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from .domain import AttributeScheme, ProductProfile, check_price_grid, encode_profile
from .errors import ContractError
from .infer.fit import PosteriorDraws
from .posterior import HDI_MASS, hdi, sign_safe_draws, unscale_population
from .simulate import PRICE_COEF_CEILING

# Nodes of the product rule, and the draws per block of its (draws, prices,
# edge nodes, slope nodes) scratch: 10 draws on a 21-price grid take 0.7 MB.
_EDGE_NODES = 16
_SLOPE_NODES = 24
_TAIL_SDS = 6.0
_BLOCK = 10
_EDGE_X, _EDGE_W = hermegauss(_EDGE_NODES)
_SLOPE_X, _SLOPE_W = leggauss(_SLOPE_NODES)


@dataclass(frozen=True)
class BundleScenario:
    """A bundle of upgrades priced on a grid against a fixed baseline.

    `market_size` is checked and unused: the benchmark still reads it as a
    config key.
    """

    baseline: ProductProfile
    upgrades: Mapping[str, str]
    price_grid: tuple[float, ...]
    market_size: int = 2000

    def __post_init__(self) -> None:
        object.__setattr__(self, "upgrades", dict(self.upgrades))
        object.__setattr__(self, "price_grid", tuple(float(p) for p in self.price_grid))
        if not self.upgrades:
            raise ContractError("upgrades must be non-empty")
        check_price_grid(self.price_grid)
        if any(b >= a for a, b in zip(self.price_grid[1:], self.price_grid)):
            raise ContractError("price_grid must be strictly increasing")
        if self.market_size < 1:
            raise ContractError(f"market_size must be >= 1, got {self.market_size}")

    def bundle_profile(self, price: float) -> ProductProfile:
        levels = dict(self.baseline.levels)
        levels.update(self.upgrades)
        return ProductProfile(levels=levels, price=price)

    def offsets(self, scheme: AttributeScheme) -> np.ndarray:
        """Feature-vector difference bundle-minus-baseline at equal price;
        a baseline or upgrade the scheme cannot code is a CodingError."""
        base = self.baseline
        diff = encode_profile(scheme, self.bundle_profile(base.price)) - encode_profile(scheme, base)
        if not np.any(diff[:-1] != 0):
            raise ContractError("bundle upgrades do not change the baseline profile")
        return diff


@dataclass
class RevenueCurve:
    """Expected per-consumer revenue draws across the price grid. `to_dict`
    of it is the report's `revenue` section, keys in field order; the
    per-draw arrays are not keys of it."""

    argmax_price: float
    argmax_hdi: tuple[float, float]
    prices: np.ndarray
    mean_revenue: np.ndarray
    hdi_low: np.ndarray
    hdi_high: np.ndarray
    hdi_mass: float
    flagged_count: int
    revenue: np.ndarray  # (retained draws, prices)
    purchase_prob: np.ndarray  # (retained draws, prices)


def _slope_nodes(mean: np.ndarray, sd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of each draw's price slope b ~ Normal(mean, sd^2),
    clipped at PRICE_COEF_CEILING as the simulator's respondents are.

    Gauss-Legendre covers the standard scores from -_TAIL_SDS to the
    ceiling's score t (clipped into [-_TAIL_SDS, _TAIL_SDS]; t = +_TAIL_SDS
    when sd is 0); the top node min(mean + sd * t, ceiling) carries the rest
    of the mass. So the rule never straddles the clip's kink, every node
    lies at or below the ceiling and every weight is >= 0.
    """
    ceiling_score = np.divide(
        PRICE_COEF_CEILING - mean, sd, out=np.full_like(mean, _TAIL_SDS), where=sd > 0
    )
    top = np.clip(ceiling_score, -_TAIL_SDS, _TAIL_SDS)
    half = 0.5 * (top + _TAIL_SDS)
    scores = np.column_stack([half * (_SLOPE_X + 1.0) - _TAIL_SDS, top])
    mass = half * _SLOPE_W * np.exp(-0.5 * scores[:, :-1] ** 2) / math.sqrt(2.0 * math.pi)
    rest = np.maximum(1.0 - mass.sum(axis=1, keepdims=True), 0.0)
    return np.minimum(mean + sd * scores, PRICE_COEF_CEILING), np.column_stack([mass, rest])


def revenue_curve(
    draws: PosteriorDraws,
    scheme: AttributeScheme,
    scenario: BundleScenario,
    seed: int,
) -> RevenueCurve:
    """Posterior distribution of expected revenue across the price grid.

    Revenue at price p is p times the expected purchase probability, so
    every draw lies in [0, p]. The curve draws no random numbers, so
    `seed` is unused; the command line and the benchmark still pass it.
    """
    mu_raw, sigma_raw = unscale_population(draws)
    keep, flagged = sign_safe_draws(mu_raw[:, -1])
    mu_raw, sigma_raw = mu_raw[keep], sigma_raw[keep]
    prices = np.asarray(scenario.price_grid)
    neg_price_offsets = scenario.baseline.price - prices
    diff = scenario.offsets(scheme)[:-1]
    edge_sd = np.sqrt(sigma_raw[:, :-1] ** 2 @ diff**2)
    edges = (mu_raw[:, :-1] @ diff)[:, None] + edge_sd[:, None] * _EDGE_X
    slopes, slope_weights = _slope_nodes(mu_raw[:, -1:], sigma_raw[:, -1:])
    probs = np.empty((edges.shape[0], prices.size))
    buffer = np.empty((_BLOCK, prices.size, _EDGE_NODES, _SLOPE_NODES + 1))
    for start in range(0, edges.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        weights = _EDGE_W[:, None] * slope_weights[rows, None, :]
        n = weights.shape[0]
        out = buffer[:n]
        slope_terms = slopes[rows, None, :] * neg_price_offsets[:, None]
        np.subtract(slope_terms[:, :, None, :], edges[rows, None, :, None], out=out)
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
        out *= weights[:, None]
        # the total is reduced as the numerator is, so equal probabilities
        # average to themselves
        total = weights.reshape(n, -1).sum(axis=-1)
        probs[rows] = out.reshape(n, prices.size, -1).sum(axis=-1) / total[:, None]
    revenue = probs * prices[None, :]
    mean = revenue.mean(axis=0)
    lows = np.empty(prices.size)
    highs = np.empty(prices.size)
    for j in range(prices.size):
        lows[j], highs[j] = hdi(revenue[:, j])
    per_draw_argmax = prices[np.argmax(revenue, axis=1)]
    return RevenueCurve(
        argmax_price=float(prices[int(np.argmax(mean))]),
        argmax_hdi=hdi(per_draw_argmax),
        prices=prices,
        mean_revenue=mean,
        hdi_low=lows,
        hdi_high=highs,
        hdi_mass=HDI_MASS,
        flagged_count=flagged,
        revenue=revenue,
        purchase_prob=probs,
    )
