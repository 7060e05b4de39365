"""Log-posterior correctness: gradients, likelihood factorization, the
non-centered/centered identity, and the padded one-pass kernel against a
per-row reference on balanced and ragged panels. The reference reads the
survey table's rows, not the panel under test."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import log_expit

from conjoint_wtp.errors import ContractError
from conjoint_wtp.infer import HierarchicalLogitModel, ModelConfig, build_design
from conjoint_wtp.infer.design import Design, Standardization
from conjoint_wtp.presets import DEFAULT_PRICE_GRID
from conjoint_wtp.simulate import generate_tasks, sample_respondents, simulate_choices
from tests.helpers import ragged_dataset, tiny_dataset
from tests.references import FlatLogitModel

_LOG_2PI = math.log(2.0 * math.pi)


def tiny_design(n_respondents=5, tasks=8, seed=7):
    return build_design(tiny_dataset(n_respondents, tasks, seed))


def ragged_design():
    return build_design(ragged_dataset())


def reference_log_likelihood(dataset, design, beta):
    """Per-row Bernoulli log-likelihood at explicit per-respondent
    coefficients (centered form), row by row over the survey table on the
    design's scale; beta's rows follow design.respondent_ids."""
    x = dataset.differences() / design.standardization.scale
    position = {rid: r for r, rid in enumerate(design.respondent_ids)}
    eta = np.einsum("nf,nf->n", x, beta[[position[rid] for rid in dataset.respondent_id]])
    sgn = np.where(dataset.chose_a, 1.0, -1.0)
    return float(-np.logaddexp(0.0, -sgn * eta).sum())


def log_prior(model, theta):
    """The non-centered prior terms of log_posterior."""
    mu, log_sigma, z = model.unpack(theta)
    sigma = np.exp(log_sigma)
    tau = model.config.prior_sigma_sd
    return (
        -0.5 * (((mu - model.prior_mean) / model.prior_sd) ** 2).sum()
        - 0.5 * mu.size * _LOG_2PI
        - np.log(model.prior_sd).sum()
        + mu.size * (0.5 * math.log(2.0 / math.pi) - math.log(tau))
        - 0.5 * (sigma**2).sum() / tau**2
        + log_sigma.sum()
        - 0.5 * (z**2).sum()
        - 0.5 * z.size * _LOG_2PI
    )


def finite_difference_gradient(f, theta, h=1e-5):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        grad[i] = (f(plus)[0] - f(minus)[0]) / (2 * h)
    return grad


def empty_design(respondents=0, t_max=0, columns=("camera:Pro", "price")):
    """A panel with no answered task: every slot of every respondent is a pad."""
    f = len(columns)
    return Design(
        columns=tuple(columns),
        price_column="price",
        x=np.zeros((respondents, t_max, f)),
        n_rows=0,
        respondent_ids=tuple(range(respondents)),
        standardization=Standardization(columns=tuple(columns), mean=np.zeros(f), scale=np.ones(f)),
    )


def assert_gradient_matches_finite_differences(model, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        theta = rng.normal(0.0, 1.0, model.dim)
        _, grad = model.log_posterior(theta)
        fd = finite_difference_gradient(model.log_posterior, theta)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
        assert rel.max() < 1e-5


class TestGradient:
    def test_hierarchical_gradient_matches_finite_differences(self):
        model = HierarchicalLogitModel(tiny_design(), ModelConfig(seed=1))
        assert_gradient_matches_finite_differences(model, seed=12)

    def test_hierarchical_gradient_on_ragged_panel(self):
        model = HierarchicalLogitModel(ragged_design(), ModelConfig(seed=1))
        assert_gradient_matches_finite_differences(model, seed=12)

    def test_flat_gradient_matches_finite_differences(self):
        dataset = tiny_dataset()
        design = build_design(dataset)
        x = dataset.differences() / design.standardization.scale
        model = FlatLogitModel(
            x, dataset.chose_a, np.zeros(design.n_features), np.full(design.n_features, 2.0)
        )
        assert_gradient_matches_finite_differences(model, seed=13)


class TestZeroRecords:
    def test_hierarchical_equals_log_prior(self):
        config = ModelConfig(seed=1)
        model = HierarchicalLogitModel(empty_design(), config)
        rng = np.random.default_rng(4)
        theta = rng.normal(0.0, 0.5, model.dim)
        mu, log_sigma, _ = model.unpack(theta)
        sigma = np.exp(log_sigma)
        prior_mean = model.prior_mean
        prior_sd = model.prior_sd
        expected = (
            -0.5 * (((mu - prior_mean) / prior_sd) ** 2).sum()
            - 0.5 * mu.size * _LOG_2PI
            - np.log(prior_sd).sum()
        )
        tau = config.prior_sigma_sd
        expected += (
            mu.size * (0.5 * math.log(2.0 / math.pi) - math.log(tau))
            - 0.5 * (sigma**2).sum() / tau**2
            + log_sigma.sum()
        )
        logp, _ = model.log_posterior(theta)
        assert logp == pytest.approx(expected, rel=1e-12)

    def test_all_pad_panel_equals_log_prior(self):
        # each pad slot's -log 2 is cancelled exactly, so respondents with no
        # answered task leave the prior over mu, sigma and z
        model = HierarchicalLogitModel(empty_design(respondents=3, t_max=4), ModelConfig(seed=1))
        theta = np.random.default_rng(5).normal(0.0, 0.5, model.dim)
        logp, grad = model.log_posterior(theta)
        assert logp == pytest.approx(log_prior(model, theta), rel=1e-12)
        mu, log_sigma, z = model.unpack(theta)
        sigma = np.exp(log_sigma)
        expected = np.concatenate([
            -(mu - model.prior_mean) / model.prior_sd**2,
            1.0 - sigma**2 / model.config.prior_sigma_sd**2,
            -z.reshape(-1),
        ])
        assert np.allclose(grad, expected, rtol=1e-12, atol=0.0)

    def test_flat_equals_log_prior(self):
        model = FlatLogitModel(np.zeros((0, 3)), np.zeros(0), np.zeros(3), np.ones(3))
        theta = np.array([0.3, -1.2, 2.0])
        expected = -0.5 * (theta**2).sum() - 1.5 * _LOG_2PI
        logp, grad = model.log_posterior(theta)
        assert logp == pytest.approx(expected, rel=1e-12)
        assert grad == pytest.approx(-theta)


class TestLikelihoodFactorization:
    def test_duplicating_every_record_doubles_the_likelihood(self, scheme, truth):
        respondents = sample_respondents(scheme, truth, 4, seed=3)
        tasks = generate_tasks(scheme, 4, 5, DEFAULT_PRICE_GRID, seed=3)
        dataset = simulate_choices(scheme, respondents, tasks, seed=3)

        # each row followed by its copy under task id + 1000
        twice = np.repeat(np.arange(len(dataset)), 2)
        doubled = replace(
            dataset,
            respondent_id=dataset.respondent_id[twice],
            task_id=np.column_stack([dataset.task_id, dataset.task_id + 1000]).ravel(),
            levels=dataset.levels[twice],
            prices=dataset.prices[twice],
            chose_a=dataset.chose_a[twice],
        )

        design_one = build_design(dataset)
        design_two = build_design(doubled)
        model_one = HierarchicalLogitModel(design_one, ModelConfig(seed=1))
        model_two = HierarchicalLogitModel(design_two, ModelConfig(seed=1))

        # same respondents and features, so the prior terms cancel
        rng = np.random.default_rng(8)
        theta = rng.normal(0.0, 0.5, model_one.dim)
        mu, log_sigma, z = model_one.unpack(theta)
        single = reference_log_likelihood(dataset, design_one, mu + np.exp(log_sigma) * z)
        logp_one, _ = model_one.log_posterior(theta)
        logp_two, _ = model_two.log_posterior(theta)
        assert logp_two - logp_one == pytest.approx(single, rel=1e-12)


class TestNonCenteredIdentity:
    def test_matches_centered_density_with_jacobian(self):
        dataset = tiny_dataset(n_respondents=3, tasks=6)
        design = build_design(dataset)
        config = ModelConfig(seed=1)
        model = HierarchicalLogitModel(design, config)
        rng = np.random.default_rng(21)
        theta = rng.normal(0.0, 0.8, model.dim)
        mu, log_sigma, z = model.unpack(theta)
        sigma = np.exp(log_sigma)
        beta = mu + sigma * z
        r = model.n_respondents

        loglik = reference_log_likelihood(dataset, design, beta)
        centered_z = (
            -0.5 * (((beta - mu) / sigma) ** 2).sum()
            - r * np.log(sigma).sum()
            - 0.5 * beta.size * _LOG_2PI
        )
        prior_mu = (
            -0.5 * (((mu - model.prior_mean) / model.prior_sd) ** 2).sum()
            - 0.5 * mu.size * _LOG_2PI
            - np.log(model.prior_sd).sum()
        )
        tau = config.prior_sigma_sd
        prior_sigma = (
            mu.size * (0.5 * math.log(2.0 / math.pi) - math.log(tau))
            - 0.5 * (sigma**2).sum() / tau**2
            + log_sigma.sum()
        )
        # centered density over beta plus the z->beta Jacobian recovers the
        # non-centered density the sampler sees
        centered_total = loglik + centered_z + prior_mu + prior_sigma
        jacobian = r * np.log(sigma).sum()
        logp, _ = model.log_posterior(theta)
        assert logp == pytest.approx(centered_total + jacobian, abs=1e-10)


class TestInitialMetric:
    @pytest.mark.parametrize(
        "make_design", [lambda: tiny_design(n_respondents=7), ragged_design], ids=["balanced", "ragged"]
    )
    def test_one_over_r_on_mu_a_tenth_on_log_sigma_and_one_on_z(self, make_design):
        design = make_design()
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        inv_mass = model.initial_inv_mass()
        assert inv_mass.shape == (model.dim,)
        mu, log_sigma, z = model.unpack(inv_mass)
        assert np.all(mu == 1.0 / design.n_respondents)
        assert np.all(log_sigma == 0.1)
        assert np.all(z == 1.0)


class TestPaddedKernel:
    @pytest.mark.parametrize("make_dataset", [tiny_dataset, ragged_dataset], ids=["balanced", "ragged"])
    def test_matches_per_row_reference(self, make_dataset):
        dataset = make_dataset()
        design = build_design(dataset)
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        rng = np.random.default_rng(31)
        for _ in range(3):
            theta = rng.normal(0.0, 1.0, model.dim)
            mu, log_sigma, z = model.unpack(theta)
            loglik = reference_log_likelihood(dataset, design, mu + np.exp(log_sigma) * z)
            logp, _ = model.log_posterior(theta)
            assert logp - log_prior(model, theta) == pytest.approx(loglik, rel=1e-12)

    def test_far_tail_stays_finite_and_exact(self):
        dataset = tiny_dataset()
        design = build_design(dataset)
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        x = dataset.differences() / design.standardization.scale
        f = design.n_features
        mu = np.zeros(f)
        mu[0] = 800.0 / np.abs(x[:, 0]).max()
        theta = np.concatenate([mu, np.full(f, -30.0), np.zeros(model.n_respondents * f)])
        eta = x @ mu
        s = np.where(dataset.chose_a, 1.0, -1.0) * eta
        # rows where exp(-s) overflows, so the exact fall-back must run
        assert s.min() < -710.0
        assert np.abs(eta).max() == pytest.approx(800.0)
        logp, grad = model.log_posterior(theta)
        assert math.isfinite(logp)
        assert np.all(np.isfinite(grad))
        expected = log_prior(model, theta) + log_expit(s).sum()
        assert logp == pytest.approx(expected, rel=1e-12)
        fd = finite_difference_gradient(model.log_posterior, theta)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
        assert rel.max() < 1e-5


    @pytest.mark.parametrize(
        "block, value",
        [("log_sigma", 709.5), ("log_sigma", 400.0), ("z", 1e200)],
        ids=["beta-overflows-to-nan", "sigma-squared-overflows", "z-squared-overflows"],
    )
    def test_extreme_theta_is_off_support_without_a_warning(self, block, value):
        # the test session turns a RuntimeWarning into an error
        model = HierarchicalLogitModel(tiny_design(), ModelConfig(seed=1))
        theta = np.zeros(model.dim)
        mu, log_sigma, z = model.unpack(theta)
        z[:] = 2.0
        {"log_sigma": log_sigma, "z": z}[block][0] = value
        logp, grad = model.log_posterior(theta)
        assert logp == -math.inf
        assert not grad.any()


class TestValidation:
    def test_flat_model_shape_mismatch(self):
        with pytest.raises(ContractError):
            FlatLogitModel(np.zeros((5, 2)), np.zeros(4), np.zeros(2), np.ones(2))

    def test_config_validation(self):
        with pytest.raises(ContractError):
            ModelConfig(chains=0)
        with pytest.raises(ContractError):
            ModelConfig(target_accept=1.5)
        with pytest.raises(ContractError):
            ModelConfig(prior_sigma_sd=0.0)
