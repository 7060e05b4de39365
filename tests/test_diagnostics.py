"""R-hat and effective-sample-size behaviour on synthetic chains, and the
blocked one-pass `diagnose` against the per-parameter reference."""

import warnings

import numpy as np
import pytest

from conjoint_wtp.infer import ModelConfig, diagnose
from conjoint_wtp.infer.diagnostics import _average_ranks, _block_size
from conjoint_wtp.infer.nuts import ChainStats
from tests.references import ess_bulk, split_rhat


def chain_stats(n_draws, accept=0.9, divergent=0, leapfrogs=7, step_size=0.25, warmup_evals=100):
    """Sampler statistics of one chain of n_draws, the first `divergent` divergent."""
    zeros = np.zeros(n_draws)
    return ChainStats(
        accept_stat=np.full(n_draws, accept),
        divergent=np.arange(n_draws) < divergent,
        energy=zeros,
        energy_error=zeros,
        tree_depth=np.full(n_draws, 3),
        n_leapfrog=np.full(n_draws, leapfrogs),
        step_size=step_size,
        inv_mass=np.ones(1),
        grad_evals_warmup=warmup_evals,
    )


def diagnose_all(draws):
    """diagnose on (chains, n, dim) draws: R-hat and ESS arrays in column order."""
    chains, n, dim = draws.shape
    names = [f"p[{j}]" for j in range(dim)]
    diag = diagnose(draws, names, [chain_stats(n)] * chains, ModelConfig(chains=chains))
    return np.array(list(diag.r_hat.values())), np.array(list(diag.effective_sample_size.values()))


def diagnose_one(chains):
    """R-hat and ESS of one parameter, draws as (chains, n)."""
    r_hat, ess = diagnose_all(chains[:, :, None])
    return r_hat[0], ess[0]


def test_rhat_near_one_for_iid_chains():
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((4, 1000))
    r, _ = diagnose_one(chains)
    assert r >= 1.0 - 1e-3
    assert r < 1.01


def test_rhat_detects_location_disagreement():
    rng = np.random.default_rng(1)
    chains = rng.standard_normal((4, 1000))
    chains[0] += 3.0
    assert diagnose_one(chains)[0] > 1.2


def test_rhat_detects_within_chain_drift():
    # split-Rhat flags a trend even within a single chain
    rng = np.random.default_rng(2)
    drift = np.linspace(0.0, 4.0, 1000)
    chains = rng.standard_normal((2, 1000)) + drift
    assert diagnose_one(chains)[0] > 1.1


def test_ess_close_to_sample_size_for_iid_draws():
    rng = np.random.default_rng(3)
    chains = rng.standard_normal((4, 1000))
    _, ess = diagnose_one(chains)
    assert 2000 < ess


def test_ess_shrinks_for_autocorrelated_chains():
    rng = np.random.default_rng(4)
    phi = 0.9
    n = 2000
    chains = np.empty((2, n))
    for c in range(2):
        noise = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = noise[0]
        for t in range(1, n):
            x[t] = phi * x[t - 1] + noise[t] * np.sqrt(1 - phi**2)
        chains[c] = x
    _, ess = diagnose_one(chains)
    total = 2 * n
    # AR(1) with phi=0.9 has ESS ~ total * (1-phi)/(1+phi) ~ total/19
    assert total / 60 < ess < total / 6


def test_ess_handles_constant_sequences():
    chains = np.ones((2, 500))
    assert np.isnan(diagnose_one(chains)[1])


def test_diagnose_names_and_warnings():
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((2, 400, 2))
    draws[0, :, 1] += 4.0  # force disagreement on the second parameter
    diag = diagnose(
        draws,
        names=["mu[price]", "sigma[price]"],
        stats=[chain_stats(400, accept=0.9), chain_stats(400, accept=0.88)],
        config=ModelConfig(chains=2),
    )
    assert set(diag.r_hat) == {"mu[price]", "sigma[price]"}
    assert diag.r_hat["mu[price]"] < 1.05
    assert diag.r_hat["sigma[price]"] > 1.2
    assert any("sigma[price]" in w for w in diag.warnings)
    assert diag.divergence_count == 0
    assert diag.max_r_hat("sigma[") == diag.r_hat["sigma[price]"]


def test_diagnose_reports_each_chains_sampler_statistics():
    draws = np.random.default_rng(6).standard_normal((2, 40, 1))
    stats = [
        chain_stats(40, accept=0.8, divergent=2, leapfrogs=15, step_size=0.3, warmup_evals=900),
        chain_stats(40, accept=0.9, divergent=0, leapfrogs=7, step_size=0.5, warmup_evals=700),
    ]
    diag = diagnose(draws, ["mu[price]"], stats, ModelConfig(chains=2, seed=3))
    assert diag.divergence_count == 2
    assert diag.divergence_rate == 2 / 80
    assert diag.mean_accept_prob == (0.8, 0.9)
    assert diag.step_size == (0.3, 0.5)
    assert diag.grad_evals_warmup == (900, 700)
    assert diag.grad_evals_sampling == (600, 280)
    assert (diag.config, diag.seed) == (ModelConfig(chains=2, seed=3), 3)


def _tie_patterns(rng, size):
    return [
        rng.integers(0, 6, size).astype(float),  # many ties
        rng.standard_normal(size).round(1),  # some ties
        rng.standard_normal(size),  # none
        np.full(size, 2.5),  # one tie group
    ]


def test_average_ranks_match_scipy_on_ties():
    from scipy.stats import rankdata

    rng = np.random.default_rng(4)
    for x in _tie_patterns(rng, 500) + _tie_patterns(rng, 51):
        assert np.array_equal(_average_ranks(x), rankdata(x, method="average"))
    rows = np.stack(_tie_patterns(rng, 300) + _tie_patterns(rng, 300))
    assert np.array_equal(_average_ranks(rows), rankdata(rows, method="average", axis=1))


@pytest.mark.parametrize("chains, n_draws", [(4, 4), (4, 250), (4, 2000)])
def test_normal_score_table_matches_scipy_ndtri(monkeypatch, chains, n_draws):
    # 16, 1,000 and 8,000 pooled split draws: four chains of the fewest draws
    # allowed, the cut demo and the full demo
    from scipy.special import ndtri

    from conjoint_wtp.infer import diagnostics

    tables, rhat_ess = [], diagnostics._rhat_ess

    def spy(draws, scores):
        tables.append(scores)
        return rhat_ess(draws, scores)

    monkeypatch.setattr(diagnostics, "_rhat_ess", spy)
    diagnose_all(np.random.default_rng(11).standard_normal((chains, n_draws, 1)))
    total = chains * n_draws
    positions = (np.arange(2, 2 * total + 1) / 2 - 0.375) / (total + 0.25)
    # each quantile is a few ulp from the exact one (against 40-digit mpmath
    # on these grids: inv_cdf within 5, ndtri within 4), so the two differ by
    # at most the sum
    np.testing.assert_array_max_ulp(tables[0], ndtri(positions), maxulp=9)


def _stuck_chains(rng, chains, n, dim):
    """NUTS-like chains that keep their state for runs of 1-30 draws."""
    out = np.empty((chains, n, dim))
    for c in range(chains):
        for j in range(dim):
            runs = rng.integers(1, 31, n)
            states = np.cumsum(rng.standard_normal(n))
            out[c, :, j] = np.repeat(states, runs)[:n]
    return out


def _diagnose_cases():
    rng = np.random.default_rng(8)
    yield "random-walks", np.cumsum(rng.standard_normal((4, 250, 50)), axis=1)
    yield "repeated-states", _stuck_chains(rng, 4, 250, 20)
    constant = rng.standard_normal((4, 250, 3))
    constant[:, :, 1] = 1.5
    yield "constant", constant
    yield "odd-draws", np.cumsum(rng.standard_normal((4, 101, 10)), axis=1)
    yield "one-chain", np.cumsum(rng.standard_normal((1, 300, 10)), axis=1)
    dim = _block_size(4, 250) + 1
    yield "block-plus-one", np.cumsum(rng.standard_normal((4, 250, dim)), axis=1)


@pytest.mark.parametrize("draws", [p for _, p in _diagnose_cases()], ids=[i for i, _ in _diagnose_cases()])
def test_diagnose_matches_per_parameter_reference(draws):
    r_hat, ess = diagnose_all(draws)
    dim = draws.shape[2]
    ref_r_hat = np.array([split_rhat(draws[:, :, j]) for j in range(dim)])
    ref_ess = np.array([ess_bulk(draws[:, :, j]) for j in range(dim)])
    # the reference's normal scores come from scipy's ndtri, diagnose's from the
    # stdlib's inv_cdf: R-hat agrees to a few float64 epsilons, NaNs in place
    np.testing.assert_allclose(r_hat, ref_r_hat, rtol=1e-14, atol=0, equal_nan=True)
    assert np.array_equal(np.isnan(ess), np.isnan(ref_ess))
    finite = ~np.isnan(ref_ess)
    np.testing.assert_allclose(ess[finite], ref_ess[finite], rtol=1e-12, atol=0)


def test_constant_parameter_has_undefined_rhat_and_ess():
    draws = np.random.default_rng(9).standard_normal((4, 250, 2))
    draws[:, :, 0] = -0.25
    r_hat, ess = diagnose_all(draws)
    assert np.isnan(r_hat[0]) and np.isnan(ess[0])
    assert np.isfinite(r_hat[1]) and np.isfinite(ess[1])


def test_four_draws_per_chain_give_finite_diagnostics_without_warnings():
    # the fewest draws the model config allows: two per half-chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_hat, ess = diagnose_all(np.random.default_rng(10).standard_normal((4, 4, 3)))
    assert np.all(np.isfinite(r_hat)) and np.all(np.isfinite(ess))
