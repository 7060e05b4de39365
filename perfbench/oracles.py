"""Reference computations made apart from the program, and the checks.

- `true_revenue_curve`: Monte Carlo over a config's ground truth (the
  population the survey was simulated from) for the demo's bundle.
- `revenue_quadrature`: per posterior draw, the expected purchase
  probability and its per-consumer variance by numerical quadrature, with
  the price coefficient clipped at the program's ceiling as the program's
  market simulation clips it.
- `wtp_per_draw` / `hdi`: per-draw dollar WTP and the shortest interval,
  recomputed from the draws the benchmark chose.

Each `check_*` function returns a list of failure messages; empty means the
program's output agrees with the reference.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.special import expit, ndtr

from inputs import PRICE_COEF_CEILING, WTP_PRICE_EPS

# Revenue checks allow this many Monte Carlo standard errors: a correct
# program misses by more with probability about 6e-7 per price.
REVENUE_SE_TOLERANCE = 5.0
# fit_ragged allows the WTP mean this many posterior SDs from the truth: a
# calibrated posterior misses by more with probability about 6e-5 per
# feature, where a 95% interval would miss one seed in five over 4 features.
TRUTH_SD_TOLERANCE = 4.0


def _normal_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = hermegauss(n)
    return x, w / math.sqrt(2.0 * math.pi)


_GH = _normal_nodes(64)
# The clipping term is at most the clipped mass, so coarser rules suffice.
_GH_CLIP = _normal_nodes(24)
_GL_X, _GL_W = leggauss(16)
_TAIL_SDS = 8.0
# Draws whose price coefficient exceeds the ceiling with less probability
# than this skip the clipping term: it moves their purchase probability by
# less than this.
_NEGLIGIBLE_CLIP = 1e-12


# ------------------------------------------------------------------ revenue


def true_revenue_curve(
    truth: dict,
    columns: list[str],
    offsets: np.ndarray,
    base_price: float,
    prices: np.ndarray,
    n_consumers: int = 400_000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected revenue per consumer at each price under the ground truth.

    A consumer has a price coefficient b ~ Normal(price_coef_mean, sd)
    truncated below the ceiling and a dollar WTP per feature
    ~ Normal(true_wtp, wtp_sd); the bundle beats the baseline with
    probability expit(b * (price - base_price - offsets . wtp)).
    Returns (revenue, its Monte Carlo standard error).
    """
    rng = np.random.default_rng(seed)
    b = truth["price_coef_mean"] + truth["price_coef_sd"] * rng.standard_normal(n_consumers)
    while np.any(bad := b >= PRICE_COEF_CEILING):
        b[bad] = truth["price_coef_mean"] + truth["price_coef_sd"] * rng.standard_normal(bad.sum())
    mean = np.array([truth["true_wtp"][c] for c in columns[:-1]])
    sd = np.array([truth["wtp_sd"][c] for c in columns[:-1]])
    wtp = rng.standard_normal((n_consumers, mean.size)) * sd + mean
    bundle_value = wtp @ offsets
    prices = np.asarray(prices, dtype=float)
    revenue = np.empty(prices.size)
    se = np.empty(prices.size)
    for j, p in enumerate(prices):
        buy = expit(b * (p - base_price - bundle_value))
        revenue[j] = p * buy.mean()
        se[j] = p * buy.std() / math.sqrt(n_consumers)
    return revenue, se


def _expit_moments(center, spread, nodes=_GH) -> tuple[np.ndarray, np.ndarray]:
    """E[expit(X)] and E[expit(X)^2] for X ~ Normal(center, spread^2)."""
    x, w = nodes
    v = expit(center[..., None] + spread[..., None] * x)
    return v @ w, (v * v) @ w


def revenue_quadrature(
    mu_raw: np.ndarray,
    sigma_raw: np.ndarray,
    offsets: np.ndarray,
    base_price: float,
    prices: np.ndarray,
    ceiling: float = PRICE_COEF_CEILING,
) -> tuple[np.ndarray, np.ndarray]:
    """Per draw and price: purchase probability and per-consumer variance.

    A consumer of draw k has independent coefficients
    beta ~ Normal(mu_raw[k], sigma_raw[k]^2), and the price coefficient is
    clipped to b' = min(b, ceiling). The bundle's utility edge is
    u + b' * (price - base_price) with u = beta[:-1] . offsets ~ Normal.
    Unclipped, the edge is one normal (1-D Gauss-Hermite); the clipping
    subtracts E[(g(u + b dp) - g(u + ceiling dp)) 1{b > ceiling}], which is
    integrated over b > ceiling by Gauss-Legendre for the draws whose
    clipped mass is not negligible.
    """
    prices = np.asarray(prices, dtype=float)
    dp = prices - base_price
    m_u = mu_raw[:, :-1] @ offsets
    s_u = np.sqrt((sigma_raw[:, :-1] ** 2) @ (offsets**2))
    m_b = mu_raw[:, -1]
    s_b = sigma_raw[:, -1]
    p1, p2 = _expit_moments(
        m_u[:, None] + m_b[:, None] * dp, np.sqrt(s_u[:, None] ** 2 + (s_b[:, None] * dp) ** 2)
    )
    clipped = np.flatnonzero(ndtr((m_b - ceiling) / s_b) > _NEGLIGIBLE_CLIP)
    for chunk in np.array_split(clipped, max(1, clipped.size // 100)):
        if chunk.size == 0:
            continue
        lo = np.maximum(ceiling, m_b[chunk] - _TAIL_SDS * s_b[chunk])
        hi = np.maximum(ceiling, m_b[chunk]) + _TAIL_SDS * s_b[chunk]
        half = 0.5 * (hi - lo)[:, None]
        b = half * _GL_X + 0.5 * (hi + lo)[:, None]
        z = (b - m_b[chunk, None]) / s_b[chunk, None]
        weight = half * _GL_W * np.exp(-0.5 * z * z) / (s_b[chunk, None] * math.sqrt(2 * math.pi))
        spread = np.broadcast_to(s_u[chunk, None, None], (chunk.size, b.shape[1], dp.size))
        e1, e2 = _expit_moments(m_u[chunk, None, None] + b[:, :, None] * dp, spread, _GH_CLIP)
        c1, c2 = _expit_moments(m_u[chunk, None] + ceiling * dp, spread[:, 0], _GH_CLIP)
        mass = weight.sum(axis=1)[:, None]
        p1[chunk] -= np.einsum("ng,ngp->np", weight, e1) - mass * c1
        p2[chunk] -= np.einsum("ng,ngp->np", weight, e2) - mass * c2
    return p1, np.maximum(p2 - p1 * p1, 0.0)


def check_revenue_against_quadrature(
    curve: dict, prob: np.ndarray, var: np.ndarray, market_size: int
) -> list[str]:
    """The program's mean revenue against the quadrature, within
    REVENUE_SE_TOLERANCE Monte Carlo standard errors, and its argmax.

    `curve` holds the program's prices, mean_revenue and argmax_price.
    The argmax must equal the quadrature's, unless the two prices' expected
    revenues are within the same tolerance (a tie the Monte Carlo cannot
    resolve).
    """
    prices = np.asarray(curve["prices"], dtype=float)
    got = np.asarray(curve["mean_revenue"], dtype=float)
    d = prob.shape[0]
    want = prices * prob.mean(axis=0)
    se = prices * np.sqrt(var.sum(axis=0) / market_size) / d
    failures = []
    for j in np.flatnonzero(np.abs(got - want) > REVENUE_SE_TOLERANCE * se + 1e-9 * prices):
        failures.append(
            f"mean revenue at ${prices[j]:.0f} is {got[j]:.4f}, quadrature {want[j]:.4f} "
            f"(se {se[j]:.4f})"
        )
    best = int(np.argmax(want))
    j = int(np.flatnonzero(prices == curve["argmax_price"])[0])
    gap = want[best] - want[j]
    if j != best and gap > REVENUE_SE_TOLERANCE * math.hypot(se[best], se[j]):
        failures.append(
            f"argmax ${prices[j]:.0f} but quadrature argmax ${prices[best]:.0f} "
            f"(revenue gap {gap:.4f})"
        )
    return failures


def check_revenue_against_truth(curve: dict, true_revenue: np.ndarray) -> list[str]:
    """The demo's reported revenue HDIs against the true curve.

    At every grid price 0 <= hdi_low <= mean <= hdi_high <= price and the
    truth lies in [hdi_low, hdi_high]; the true argmax lies in argmax_hdi.
    """
    prices = np.asarray(curve["prices"], dtype=float)
    low = np.asarray(curve["hdi_low"], dtype=float)
    mean = np.asarray(curve["mean_revenue"], dtype=float)
    high = np.asarray(curve["hdi_high"], dtype=float)
    failures = []
    for j, p in enumerate(prices):
        if not (0.0 <= low[j] <= mean[j] <= high[j] <= p):
            failures.append(f"revenue at ${p:.0f} breaks 0 <= low <= mean <= high <= price")
        if not (low[j] <= true_revenue[j] <= high[j]):
            failures.append(
                f"true revenue {true_revenue[j]:.2f} at ${p:.0f} outside "
                f"[{low[j]:.2f}, {high[j]:.2f}]"
            )
    true_argmax = prices[int(np.argmax(true_revenue))]
    lo, hi = curve["argmax_hdi"]
    if not (lo <= true_argmax <= hi):
        failures.append(f"true argmax ${true_argmax:.0f} outside argmax_hdi [{lo}, {hi}]")
    return failures


# ---------------------------------------------------------------------- WTP


def hdi(samples: np.ndarray, mass: float = 0.95) -> tuple[float, float]:
    """Shortest window of ceil(mass * n) sorted samples; leftmost on ties."""
    s = np.sort(np.asarray(samples, dtype=float))
    k = math.ceil(mass * s.size)
    widths = s[k - 1 :] - s[: s.size - k + 1]
    i = int(np.argmin(widths))
    return float(s[i]), float(s[i + k - 1])


def wtp_per_draw(mu_std: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Dollar WTP per draw and feature, -mu_f / mu_price on the raw scale,
    over the draws whose price mean is safely negative."""
    raw = mu_std / scale
    keep = raw[:, -1] < -WTP_PRICE_EPS
    return -raw[keep, :-1] / raw[keep, -1:]


def _close(a, b, rel: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= rel * np.abs(np.asarray(b))))


def check_wtp_against_draws(
    features: list[str], summary: dict, draws_table: np.ndarray, wtp: np.ndarray, rel: float = 1e-9
) -> list[str]:
    """wtp_summary (feature -> mean, hdi_low, hdi_high) and wtp_draws
    (draws x features) against the recomputation, to `rel` relative."""
    failures = []
    if draws_table.shape != wtp.shape or not _close(draws_table, wtp, rel):
        failures.append("wtp_draws.csv differs from the per-draw recomputation")
    for j, feature in enumerate(features):
        want = (float(wtp[:, j].mean()), *hdi(wtp[:, j]))
        got = summary.get(feature)
        if got is None or not _close(got, want, rel):
            failures.append(f"wtp[{feature}] summary {got} but recomputed {want}")
    return failures


def check_truth_in_posterior(
    truth: dict[str, float], wtp: np.ndarray, features: list[str]
) -> list[str]:
    """Each feature's generating WTP within TRUTH_SD_TOLERANCE posterior SDs."""
    failures = []
    for j, feature in enumerate(features):
        mean, sd = float(wtp[:, j].mean()), float(wtp[:, j].std())
        if abs(mean - truth[feature]) > TRUTH_SD_TOLERANCE * sd:
            failures.append(
                f"wtp[{feature}] posterior {mean:.2f} +- {sd:.2f} misses the truth {truth[feature]}"
            )
    return failures
