"""Log-posterior correctness: gradients, likelihood factorization, the
non-centered/centered identity, and the padded one-pass kernel against a
per-row reference on balanced and ragged panels."""

import math

import numpy as np
import pytest
from scipy.special import log_expit

from conjoint_wtp.errors import ContractError
from conjoint_wtp.infer import HierarchicalLogitModel, ModelConfig, build_design
from conjoint_wtp.infer.design import Design, Standardization
from conjoint_wtp.presets import DEFAULT_PRICE_GRID, smartphone_scheme, smartphone_truth
from conjoint_wtp.simulate import (
    ChoiceDataset,
    generate_tasks,
    sample_respondents,
    simulate_choices,
)
from tests.references import FlatLogitModel

_LOG_2PI = math.log(2.0 * math.pi)

# Tasks kept per respondent of tiny_dataset() in the ragged design.
RAGGED_TASKS = (8, 1, 5, 3, 6)


def tiny_dataset(n_respondents=5, tasks=8, seed=7):
    scheme = smartphone_scheme()
    truth = smartphone_truth()
    respondents = sample_respondents(scheme, truth, n_respondents, seed=seed)
    tasks_list = generate_tasks(scheme, n_respondents, tasks, DEFAULT_PRICE_GRID, seed=seed)
    return simulate_choices(scheme, respondents, tasks_list, seed=seed)


def tiny_design(n_respondents=5, tasks=8, seed=7):
    return build_design(tiny_dataset(n_respondents, tasks, seed))


def ragged_design():
    """tiny_design's survey with tasks dropped so the counts are unequal."""
    dataset = tiny_dataset()  # respondent ids 0..4, in order
    records = [
        record
        for record in dataset.records
        if record.task.task_id < RAGGED_TASKS[record.task.respondent_id]
    ]
    return build_design(ChoiceDataset(scheme=dataset.scheme, records=records))


def reference_log_likelihood(design, beta):
    """Per-row Bernoulli log-likelihood at explicit per-respondent
    coefficients (centered form), gathered row by row."""
    eta = np.einsum("nf,nf->n", design.x, beta[design.respondent_index])
    sgn = 2.0 * design.choices - 1.0
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


def empty_design(columns=("camera:Pro", "price")):
    f = len(columns)
    return Design(
        columns=tuple(columns),
        price_column="price",
        x=np.zeros((0, f)),
        choices=np.zeros(0, dtype=np.int8),
        respondent_index=np.zeros(0, dtype=np.int64),
        respondent_ids=(),
        row_starts=np.zeros(0, dtype=np.int64),
        standardization=Standardization(columns=tuple(columns), mean=np.zeros(f), scale=np.ones(f)),
        column_sd=np.ones(f),
    )


def to_design_units(design, theta):
    """A state given on the unit-scaled columns, in the design's units:
    mu divides and log sigma shifts by each column's unit."""
    unit = design.column_sd / design.standardization.scale
    f = design.n_features
    theta = theta.copy()
    theta[:f] /= unit
    theta[f : 2 * f] -= np.log(unit)
    return theta


def assert_gradient_matches_finite_differences(model, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        theta = rng.normal(0.0, 1.0, model.dim)
        if isinstance(model, HierarchicalLogitModel):
            theta = to_design_units(model.design, theta)
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

    def test_hierarchical_gradient_on_raw_design(self):
        design = build_design(tiny_dataset(), standardize=False)
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        assert_gradient_matches_finite_differences(model, seed=12)

    def test_flat_gradient_matches_finite_differences(self):
        design = tiny_design()
        model = FlatLogitModel(
            design.x, design.choices, np.zeros(design.n_features), np.full(design.n_features, 2.0)
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

        from conjoint_wtp.simulate import ChoiceDataset, ChoiceRecord, ChoiceTask

        doubled_records = []
        for record in dataset.records:
            doubled_records.append(record)
            task = record.task
            doubled_records.append(
                ChoiceRecord(
                    ChoiceTask(task.respondent_id, task.task_id + 1000, task.profile_a, task.profile_b),
                    record.chose_a,
                )
            )
        doubled = ChoiceDataset(scheme=scheme, records=doubled_records)

        design_one = build_design(dataset, standardize=False)
        design_two = build_design(doubled, standardize=False)
        model_one = HierarchicalLogitModel(design_one, ModelConfig(seed=1))
        model_two = HierarchicalLogitModel(design_two, ModelConfig(seed=1))

        # same respondents and features, so the prior terms cancel
        rng = np.random.default_rng(8)
        theta = rng.normal(0.0, 0.5, model_one.dim)
        mu, log_sigma, z = model_one.unpack(theta)
        single = reference_log_likelihood(design_one, mu + np.exp(log_sigma) * z)
        logp_one, _ = model_one.log_posterior(theta)
        logp_two, _ = model_two.log_posterior(theta)
        assert logp_two - logp_one == pytest.approx(single, rel=1e-12)


class TestNonCenteredIdentity:
    def test_matches_centered_density_with_jacobian(self):
        design = tiny_design(n_respondents=3, tasks=6)
        config = ModelConfig(seed=1)
        model = HierarchicalLogitModel(design, config)
        rng = np.random.default_rng(21)
        theta = rng.normal(0.0, 0.8, model.dim)
        mu, log_sigma, z = model.unpack(theta)
        sigma = np.exp(log_sigma)
        beta = mu + sigma * z
        r = model.n_respondents

        loglik = reference_log_likelihood(design, beta)
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


class TestStandardizationIsAChangeOfUnits:
    def test_raw_and_standardized_designs_are_one_posterior(self):
        # The same state in both units: the log densities differ by the
        # Jacobian of mu_raw = mu_std / sd, a constant sum(log sd), and the
        # gradients map by the chain rule.
        dataset = tiny_dataset()
        std = HierarchicalLogitModel(build_design(dataset), ModelConfig(seed=1))
        raw = HierarchicalLogitModel(build_design(dataset, standardize=False), ModelConfig(seed=1))
        sd = std.design.column_sd
        assert np.array_equal(raw.design.column_sd, sd)
        f = std.n_features
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.normal(0.0, 1.0, std.dim)
            logp_std, grad_std = std.log_posterior(theta)
            logp_raw, grad_raw = raw.log_posterior(to_design_units(raw.design, theta))
            assert logp_raw - logp_std == pytest.approx(np.log(sd).sum(), rel=1e-9)
            assert grad_raw[:f] == pytest.approx(grad_std[:f] * sd, rel=1e-9)
            assert grad_raw[f:] == pytest.approx(grad_std[f:], rel=1e-9, abs=1e-9)


class TestInitialMetric:
    @pytest.mark.parametrize(
        "make_design", [lambda: tiny_design(n_respondents=7), ragged_design], ids=["balanced", "ragged"]
    )
    def test_one_over_r_on_mu_and_one_elsewhere(self, make_design):
        design = make_design()
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        inv_mass = model.initial_inv_mass()
        assert inv_mass.shape == (model.dim,)
        mu, log_sigma, z = model.unpack(inv_mass)
        assert np.all(mu == 1.0 / design.n_respondents)
        assert np.all(log_sigma == 1.0)
        assert np.all(z == 1.0)


class TestPaddedKernel:
    def test_ragged_layout_pads_with_zeros(self):
        design = ragged_design()
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        assert design.n_rows == sum(RAGGED_TASKS)
        assert model.x3.shape == (5, 8, design.n_features)
        assert (model.sgn3 != 0).sum(axis=1).tolist() == list(RAGGED_TASKS)
        assert not model.x3[model.sgn3 == 0].any()

    @pytest.mark.parametrize("make_design", [tiny_design, ragged_design], ids=["balanced", "ragged"])
    def test_matches_per_row_reference(self, make_design):
        design = make_design()
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        rng = np.random.default_rng(31)
        for _ in range(3):
            theta = rng.normal(0.0, 1.0, model.dim)
            mu, log_sigma, z = model.unpack(theta)
            loglik = reference_log_likelihood(design, mu + np.exp(log_sigma) * z)
            logp, _ = model.log_posterior(theta)
            assert logp - log_prior(model, theta) == pytest.approx(loglik, rel=1e-12)

    def test_far_tail_stays_finite_and_exact(self):
        design = tiny_design()
        model = HierarchicalLogitModel(design, ModelConfig(seed=1))
        f = design.n_features
        mu = np.zeros(f)
        mu[0] = 800.0 / np.abs(design.x[:, 0]).max()
        theta = np.concatenate([mu, np.full(f, -30.0), np.zeros(model.n_respondents * f)])
        eta = design.x @ mu
        s = (2.0 * design.choices - 1.0) * eta
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
