"""Simulation-based calibration (Talts et al. 2018, arXiv:1804.06788): the
fitted model is the documented model.

Each replication draws the parameters from the model's own prior, draws
choices from the model's likelihood at them, fits, and takes the rank of
each true value among the posterior draws. When the sampler targets exactly
the stated posterior, every rank is uniform. A wrong Jacobian, gradient or
prior term skews them, where criterion 9's HDI coverage could not tell it
from Monte Carlo noise.

The fitting scale is the SD of the A - B task rows, so it is fixed by the
tasks before any choice is drawn, and the prior is well defined given them.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chi2

from conjoint_wtp.domain import Attribute, AttributeScheme
from conjoint_wtp.infer import HierarchicalLogitModel, ModelConfig, build_design, run_nuts
from conjoint_wtp.presets import DEFAULT_PRICE_GRID
from conjoint_wtp.simulate import generate_tasks
from tests.references import ess_bulk

SCHEME = AttributeScheme(
    attributes=(
        Attribute("camera", ("Standard", "Pro"), "Standard"),
        Attribute("frame", ("Aluminum", "Titanium"), "Aluminum"),
    ),
    price_attribute="price",
)
RESPONDENTS, TASKS = 20, 10
# The priors the parameters are drawn from, and the ones the model is fitted with.
DRAW_PRIOR = FIT_PRIOR = ModelConfig(chains=1, warmup_per_chain=200, draws_per_chain=200)
REPLICATIONS = 200
BINS = 10
# Family-wise false-alarm rate: with Bonferroni over the ranked quantities,
# a correct model fails this test in at most 1% of its runs.
FAMILY_ALPHA = 0.01
# The z entries ranked, as (respondent, feature) positions.
Z_RANKED = ((0, 0), (1, 1), (2, 2))


def draw_from_prior(config, n_features, rng):
    """mu, sigma and z drawn from the priors `config` states."""
    price = np.arange(n_features) == n_features - 1  # the price is the last column
    p, f = config.prior_mu_price, config.prior_mu_feature
    mu = rng.normal(np.where(price, p.mean, f.mean), np.where(price, p.sd, f.sd))
    sigma = np.abs(rng.normal(0.0, config.prior_sigma_sd, n_features))
    z = rng.standard_normal((RESPONDENTS, n_features))
    return mu, sigma, z


def replication_ranks(seed):
    """Normalized ranks in [0, 1) of each ranked quantity's true value
    among its posterior draws, thinned to about their bulk ESS."""
    rng = np.random.default_rng([20250808, seed])
    tasks = generate_tasks(SCHEME, RESPONDENTS, TASKS, DEFAULT_PRICE_GRID, seed=seed)
    x = tasks.differences()
    scale = x.std(axis=0)
    f = SCHEME.n_features
    mu, sigma, z = draw_from_prior(DRAW_PRIOR, f, rng)
    beta = (mu + sigma * z)[tasks.respondent_id]
    chose_a = rng.random(len(tasks)) < expit(np.einsum("nf,nf->n", x / scale, beta))
    design = build_design(replace(tasks, chose_a=chose_a))
    assert np.array_equal(design.standardization.scale, scale)

    model = HierarchicalLogitModel(design, FIT_PRIOR)
    result = run_nuts(
        model,
        chains=1,
        warmup=FIT_PRIOR.warmup_per_chain,
        draws=FIT_PRIOR.draws_per_chain,
        target_accept=FIT_PRIOR.target_accept,
        max_treedepth=FIT_PRIOR.max_treedepth,
        seed=seed,
    )
    mu_d, log_sigma_d, z_d = model.unpack(result.flat())
    quantities = [(mu_d[:, j], mu[j]) for j in range(f)]
    quantities += [(log_sigma_d[:, j], np.log(sigma[j])) for j in range(f)]
    quantities += [(z_d[:, r, j], z[r, j]) for r, j in Z_RANKED]
    ranks = []
    for draws, truth in quantities:
        step = max(1, int(np.ceil(draws.size / ess_bulk(draws[None, :]))))
        kept = draws[::step]
        # ties are broken at random, so the rank is uniform for any kept count
        ranks.append((np.sum(kept < truth) + rng.random()) / (kept.size + 1))
    return ranks


@pytest.mark.slow
def test_ranks_of_prior_draws_are_uniform():
    ranks = np.array([replication_ranks(seed) for seed in range(1, REPLICATIONS + 1)])
    names = [f"mu[{c}]" for c in SCHEME.feature_columns] + [f"sigma[{c}]" for c in SCHEME.feature_columns]
    names += [f"z[{r},{SCHEME.feature_columns[j]}]" for r, j in Z_RANKED]
    counts = np.stack([np.bincount((col * BINS).astype(int), minlength=BINS) for col in ranks.T])
    expected = REPLICATIONS / BINS
    statistic = ((counts - expected) ** 2 / expected).sum(axis=1)
    p_values = chi2.sf(statistic, BINS - 1)
    bound = FAMILY_ALPHA / len(names)
    failed = {n: (round(float(p), 6), c.tolist()) for n, p, c in zip(names, p_values, counts) if p < bound}
    assert not failed, f"rank histograms not uniform (p < {bound:.4g}): {failed}"
