"""R-hat and effective-sample-size behaviour on synthetic chains."""

import numpy as np

from conjoint_wtp.infer import diagnose, ess_bulk, split_rhat


def test_rhat_near_one_for_iid_chains():
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((4, 1000))
    r = split_rhat(chains)
    assert r >= 1.0 - 1e-3
    assert r < 1.01


def test_rhat_detects_location_disagreement():
    rng = np.random.default_rng(1)
    chains = rng.standard_normal((4, 1000))
    chains[0] += 3.0
    assert split_rhat(chains) > 1.2


def test_rhat_detects_within_chain_drift():
    # split-Rhat flags a trend even within a single chain
    rng = np.random.default_rng(2)
    drift = np.linspace(0.0, 4.0, 1000)
    chains = rng.standard_normal((2, 1000)) + drift
    assert split_rhat(chains) > 1.1


def test_ess_close_to_sample_size_for_iid_draws():
    rng = np.random.default_rng(3)
    chains = rng.standard_normal((4, 1000))
    ess = ess_bulk(chains)
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
    ess = ess_bulk(chains)
    total = 2 * n
    # AR(1) with phi=0.9 has ESS ~ total * (1-phi)/(1+phi) ~ total/19
    assert total / 60 < ess < total / 6


def test_ess_handles_constant_sequences():
    chains = np.ones((2, 500))
    assert np.isnan(ess_bulk(chains))


def test_diagnose_names_and_warnings():
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((2, 400, 2))
    draws[0, :, 1] += 4.0  # force disagreement on the second parameter
    diag = diagnose(
        draws,
        names=["mu[price]", "sigma[price]"],
        divergent=np.zeros(800, dtype=bool),
        accept_by_chain=(0.9, 0.88),
    )
    assert set(diag.r_hat) == {"mu[price]", "sigma[price]"}
    assert diag.r_hat["mu[price]"] < 1.05
    assert diag.r_hat["sigma[price]"] > 1.2
    assert any("sigma[price]" in w for w in diag.warnings)
    assert diag.divergence_count == 0
    assert diag.max_r_hat("sigma[") == diag.r_hat["sigma[price]"]


def test_average_ranks_match_scipy_on_ties():
    from scipy.stats import rankdata

    from conjoint_wtp.infer.diagnostics import _average_ranks

    rng = np.random.default_rng(4)
    for x in (
        rng.integers(0, 6, 500).astype(float),  # many ties
        rng.standard_normal(300).round(1),  # some ties
        rng.standard_normal(200),  # none
        np.full(50, 2.5),  # one tie group
    ):
        assert np.array_equal(_average_ranks(x), rankdata(x, method="average"))
