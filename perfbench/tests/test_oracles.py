"""Each oracle against brute-force sampling on a toy case, and each check
against a perturbed output.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import expit

import oracles
from inputs import PRICE_COEF_CEILING

TRUTH = {
    "true_wtp": {"a:1": 120.0, "b:1": 60.0},
    "wtp_sd": {"a:1": 30.0, "b:1": 15.0},
    "price_coef_mean": -0.012,
    "price_coef_sd": 0.003,
}
COLUMNS = ["a:1", "b:1", "price"]
PRICES = np.array([500.0, 550.0, 600.0, 650.0, 700.0, 750.0])
BASE = 500.0


def brute_force_truth_revenue(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Consumers as the simulator makes them: a truncated price coefficient,
    WTPs, coefficients beta = -b * wtp, then a Bernoulli choice between the
    encoded bundle and baseline profiles at each price."""
    rng = np.random.default_rng(seed)
    b = np.empty(n)
    for i in range(n):
        while True:
            b[i] = TRUTH["price_coef_mean"] + TRUTH["price_coef_sd"] * rng.standard_normal()
            if b[i] < PRICE_COEF_CEILING:
                break
    wtp = np.column_stack(
        [TRUTH["true_wtp"][c] + TRUTH["wtp_sd"][c] * rng.standard_normal(n) for c in COLUMNS[:-1]]
    )
    beta = np.column_stack([-b[:, None] * wtp, b])
    revenue, se = [], []
    for p in PRICES:
        bundle = np.array([1.0, 1.0, p])
        baseline = np.array([0.0, 0.0, BASE])
        chose = rng.random(n) < expit(beta @ bundle - beta @ baseline)
        revenue.append(p * chose.mean())
        se.append(p * chose.std() / math.sqrt(n))
    return np.array(revenue), np.array(se)


def test_true_revenue_matches_brute_force():
    want, want_se = brute_force_truth_revenue(100_000, seed=1)
    got, se = oracles.true_revenue_curve(TRUTH, COLUMNS, np.array([1.0, 1.0]), BASE, PRICES, seed=2)
    assert np.all(np.abs(got - want) < 5 * np.hypot(se, want_se))


def _curve_around(revenue: np.ndarray, half_width: float) -> dict:
    best = float(PRICES[int(np.argmax(revenue))])
    return {
        "prices": PRICES.tolist(),
        "mean_revenue": revenue.tolist(),
        "hdi_low": (revenue - half_width).tolist(),
        "hdi_high": (revenue + half_width).tolist(),
        "argmax_hdi": [best - 50.0, best + 50.0],
    }


def test_truth_check_passes_then_fails_when_perturbed():
    truth, _ = oracles.true_revenue_curve(TRUTH, COLUMNS, np.array([1.0, 1.0]), BASE, PRICES)
    curve = _curve_around(truth, 5.0)
    assert oracles.check_revenue_against_truth(curve, truth) == []

    shifted = _curve_around(truth + 20.0, 5.0)
    assert oracles.check_revenue_against_truth(shifted, truth)

    swapped = dict(curve, hdi_low=curve["hdi_high"], hdi_high=curve["hdi_low"])
    assert oracles.check_revenue_against_truth(swapped, truth)

    elsewhere = dict(curve, argmax_hdi=[700.0, 750.0])
    assert oracles.check_revenue_against_truth(elsewhere, truth)


# Three draws: price coefficients far from the ceiling, near it, and with a
# third of their mass beyond it (so the clipping is integrated).
MU = np.array([[0.9, 0.5, -0.010], [1.2, 0.3, -0.004], [0.2, 0.1, -0.0005]])
SIGMA = np.array([[0.3, 0.2, 0.002], [0.5, 0.1, 0.002], [0.2, 0.2, 0.001]])
OFFSETS = np.array([1.0, 1.0])


def brute_force_draw_probs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Purchase probabilities per draw as the program's market simulates
    them: independent normal coefficients, price clipped at the ceiling."""
    rng = np.random.default_rng(seed)
    mean, var = [], []
    for mu, sigma in zip(MU, SIGMA):
        beta = mu + sigma * rng.standard_normal((n, mu.size))
        beta[:, -1] = np.minimum(beta[:, -1], PRICE_COEF_CEILING)
        v = expit((beta[:, :-1] @ OFFSETS)[:, None] + beta[:, -1:] * (PRICES - BASE))
        mean.append(v.mean(axis=0))
        var.append(v.var(axis=0))
    return np.array(mean), np.array(var)


def test_quadrature_matches_brute_force_with_and_without_clipping():
    n = 200_000
    want, want_var = brute_force_draw_probs(n, seed=3)
    prob, var = oracles.revenue_quadrature(MU, SIGMA, OFFSETS, BASE, PRICES)
    assert np.all(np.abs(prob - want) < 5 * np.sqrt(want_var / n))
    assert np.allclose(var, want_var, rtol=0.03, atol=1e-6)


def _program_like_curve(market_size: int, seed: int) -> dict:
    mean, _ = brute_force_draw_probs(market_size, seed)
    revenue = (mean * PRICES).mean(axis=0)
    return {
        "prices": PRICES.tolist(),
        "mean_revenue": revenue.tolist(),
        "argmax_price": float(PRICES[int(np.argmax(revenue))]),
    }


def test_quadrature_check_passes_then_fails_when_perturbed():
    market = 2000
    prob, var = oracles.revenue_quadrature(MU, SIGMA, OFFSETS, BASE, PRICES)
    curve = _program_like_curve(market, seed=4)
    assert oracles.check_revenue_against_quadrature(curve, prob, var, market) == []

    se = PRICES * np.sqrt(var.sum(axis=0) / market) / MU.shape[0]
    bumped = dict(curve, mean_revenue=(np.array(curve["mean_revenue"]) + 8 * se).tolist())
    assert oracles.check_revenue_against_quadrature(bumped, prob, var, market)

    want = PRICES * prob.mean(axis=0)
    worst = float(PRICES[int(np.argmin(want))])
    assert oracles.check_revenue_against_quadrature(dict(curve, argmax_price=worst), prob, var, market)


def brute_force_hdi(samples: np.ndarray, mass: float) -> tuple[float, float]:
    s = sorted(samples)
    k = math.ceil(mass * len(s))
    best = None
    for i in range(len(s) - k + 1):
        width = s[i + k - 1] - s[i]
        if best is None or width < best[0]:
            best = (width, s[i], s[i + k - 1])
    return best[1], best[2]


def test_hdi_matches_brute_force():
    samples = np.random.default_rng(5).gamma(2.0, size=300)
    assert oracles.hdi(samples, 0.95) == brute_force_hdi(samples, 0.95)
    assert oracles.hdi(samples, 0.5) == brute_force_hdi(samples, 0.5)


def _wtp_case():
    rng = np.random.default_rng(6)
    scale = np.array([0.5, 0.7, 200.0])
    raw = np.column_stack([rng.normal(1.0, 0.1, 400), rng.normal(0.6, 0.1, 400), rng.normal(-0.01, 0.001, 400)])
    mu = raw * scale
    loop = np.array([[-(m[f] / scale[f]) / (m[-1] / scale[-1]) for f in range(2)] for m in mu])
    return mu, scale, loop


def test_wtp_per_draw_matches_a_loop():
    mu, scale, loop = _wtp_case()
    assert np.allclose(oracles.wtp_per_draw(mu, scale), loop, rtol=1e-12)


def test_wtp_check_passes_then_fails_when_perturbed():
    mu, scale, loop = _wtp_case()
    features = ["a:1", "b:1"]
    summary = {f: (float(loop[:, j].mean()), *brute_force_hdi(loop[:, j], 0.95)) for j, f in enumerate(features)}
    assert oracles.check_wtp_against_draws(features, summary, loop.copy(), loop) == []

    off = dict(summary, **{"a:1": (summary["a:1"][0] * (1 + 1e-7), *summary["a:1"][1:])})
    assert oracles.check_wtp_against_draws(features, off, loop.copy(), loop)

    table = loop.copy()
    table[17, 1] *= 1 + 1e-7
    assert oracles.check_wtp_against_draws(features, summary, table, loop)


@pytest.mark.parametrize("shift, ok", [(0.0, True), (2.0, True), (5.0, False)])
def test_truth_in_posterior(shift, ok):
    rng = np.random.default_rng(7)
    wtp = rng.normal(100.0, 4.0, size=(500, 1))
    truth = {"a:1": 100.0 + shift * 4.0}
    assert (oracles.check_truth_in_posterior(truth, wtp, ["a:1"]) == []) is ok
