"""WTP distributions, HDI behaviour, recovery reports, and pooling effects."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conjoint_wtp.dataio import write_posterior_jsonl
from conjoint_wtp.domain import Attribute, AttributeScheme
from conjoint_wtp.errors import ContractError, SignSafetyError
from conjoint_wtp.infer import ModelConfig, build_design, sample
from conjoint_wtp.infer.design import Standardization
from conjoint_wtp.infer.fit import PosteriorDraws
from conjoint_wtp.posterior import (
    WtpSummary,
    hdi,
    recovery_report,
    unscale_population,
    wtp_draws,
)
from conjoint_wtp.simulate import (
    GroundTruth,
    generate_tasks,
    sample_respondents,
    simulate_choices,
)
from tests.references import ess_bulk, individual_wtp


def make_draws(mu, sigma=None, z=None, scale=None, columns=("camera:Pro", "price")):
    mu = np.asarray(mu, dtype=float)
    n, f = mu.shape
    if sigma is None:
        sigma = np.full((n, f), 0.5)
    if z is None:
        z = np.zeros((n, 1, f))
    if scale is None:
        scale = np.ones(f)
    return PosteriorDraws(
        columns=tuple(columns),
        price_column="price",
        respondent_ids=tuple(range(z.shape[1])),
        mu=mu,
        sigma=np.asarray(sigma, dtype=float),
        z=np.asarray(z, dtype=float),
        standardization=Standardization(
            columns=tuple(columns), mean=np.zeros(f), scale=np.asarray(scale, dtype=float)
        ),
        chain_index=np.zeros(n, dtype=int),
        divergent=np.zeros(n, dtype=bool),
        config=ModelConfig(seed=0),
        seed=0,
    )


def camera_price_scheme():
    return AttributeScheme(
        attributes=(
            Attribute("camera", ("Standard", "Pro"), "Standard"),
        ),
        price_attribute="price",
    )


class TestHdi:
    def test_standard_normal_quantiles(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(100_000)
        low, high = hdi(samples, 0.95)
        assert low == pytest.approx(-1.96, abs=0.05)
        assert high == pytest.approx(1.96, abs=0.05)

    def test_exponential_hdi_hugs_zero(self):
        rng = np.random.default_rng(43)
        samples = rng.exponential(1.0, 100_000)
        low, high = hdi(samples, 0.95)
        assert low < 0.02
        assert high == pytest.approx(-math.log(0.05), abs=0.12)

    def test_constant_samples_give_zero_width(self):
        low, high = hdi(np.full(500, 3.25), 0.95)
        assert (low, high) == (3.25, 3.25)

    def test_wider_mass_contains_narrower(self):
        rng = np.random.default_rng(44)
        samples = rng.gamma(2.0, 1.0, 50_000)
        low95, high95 = hdi(samples, 0.95)
        low99, high99 = hdi(samples, 0.99)
        assert low99 <= low95
        assert high99 >= high95

    def test_translation_moves_interval_by_constant(self):
        rng = np.random.default_rng(45)
        samples = rng.standard_normal(5_000)
        low, high = hdi(samples, 0.9)
        shifted_low, shifted_high = hdi(samples + 17.5, 0.9)
        assert shifted_low == pytest.approx(low + 17.5, abs=1e-9)
        assert shifted_high == pytest.approx(high + 17.5, abs=1e-9)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractError):
            hdi(np.arange(50), 0.95)


class TestUnscale:
    def test_unit_scales_are_identity(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(200, 2))
        draws = make_draws(mu)
        mu_raw, sigma_raw = unscale_population(draws)
        assert np.array_equal(mu_raw, mu)
        assert np.array_equal(sigma_raw, draws.sigma)

    def test_wtp_commutes_with_unscaling(self):
        rng = np.random.default_rng(1)
        mu = np.column_stack([rng.normal(1.5, 0.1, 500), rng.normal(-2.0, 0.1, 500)])
        scale = np.array([0.66, 201.3])
        draws = make_draws(mu, scale=scale)
        unscaled = wtp_draws(draws, "camera:Pro").draws
        standardized_ratio = -mu[:, 0] / mu[:, 1]
        assert unscaled == pytest.approx(standardized_ratio * scale[1] / scale[0], rel=1e-12)


class TestWtpDraws:
    def test_flagged_draws_are_excluded_and_counted(self):
        mu = np.tile([1.0, -1.0], (10_000, 1))
        mu[:5, 1] = 1e-12  # five sign-unsafe draws, under the 0.1% limit
        draws = make_draws(mu)
        result = wtp_draws(draws, "camera:Pro")
        assert result.flagged_count == 5
        assert len(result.draws) == 9995

    def test_sign_safety_error_above_threshold(self):
        mu = np.tile([1.0, -1.0], (1000, 1))
        mu[:2, 1] = 0.5  # 0.2% > 0.1% limit
        draws = make_draws(mu)
        with pytest.raises(SignSafetyError):
            wtp_draws(draws, "camera:Pro")

    def test_price_column_has_no_wtp(self, tmp_path):
        # wtp_draws trusts its feature: a posterior whose only column is the
        # price has no header, so it is neither written nor read
        draws = make_draws(np.full((200, 1), -1.0), columns=("price",))
        with pytest.raises(ContractError, match="besides the price column 'price'"):
            write_posterior_jsonl(tmp_path / "posterior.jsonl", draws)
        assert list(tmp_path.iterdir()) == []

    def test_mean_of_ratio_differs_from_ratio_of_means(self):
        # skewed price-coefficient posterior: Jensen's gap makes the two
        # constructions visibly different, so the per-draw path matters
        rng = np.random.default_rng(7)
        price = -0.01 * rng.lognormal(0.0, 0.6, 20_000)
        feature = np.full_like(price, 2.0)
        draws = make_draws(np.column_stack([feature, price]))
        per_draw_mean = wtp_draws(draws, "camera:Pro").mean
        ratio_of_means = -feature.mean() / price.mean()
        assert abs(per_draw_mean - ratio_of_means) / ratio_of_means > 0.05


class TestIndividualWtp:
    def test_unknown_respondent(self):
        draws = make_draws(np.tile([1.0, -1.0], (200, 1)))
        with pytest.raises(ContractError):
            individual_wtp(draws, respondent_id=99, feature="camera:Pro")

    def test_warning_marker_for_noisy_individual(self):
        n = 1000
        mu = np.tile([1.0, -1.0], (n, 1))
        sigma = np.full((n, 2), 0.5)
        z = np.zeros((n, 1, 2))
        z[:10, 0, 1] = 3.0  # 1% of draws push this respondent's price coef positive
        draws = make_draws(mu, sigma=sigma, z=z)
        result = individual_wtp(draws, 0, "camera:Pro")
        assert result.flagged_count == 10
        assert result.sign_warning
        assert len(result.draws) == n - 10


class TestRecoveryReport:
    def _summary(self, feature, mean, low, high):
        return WtpSummary(feature=feature, mean=mean, hdi_low=low, hdi_high=high)

    def test_table_style_coverage(self):
        truth = GroundTruth(
            true_wtp={"a": 100.0, "b": 80.0},
            wtp_sd={"a": 0.0, "b": 0.0},
            price_coef_mean=-0.01,
            price_coef_sd=0.0,
        )
        report = recovery_report(
            truth,
            [self._summary("a", 102.0, 95.0, 109.0), self._summary("b", 80.0, 75.0, 85.0)],
        )
        assert report.overall_pass
        by_feature = {r.feature: r for r in report.features}
        assert by_feature["a"].covered
        assert by_feature["a"].abs_error == pytest.approx(2.0)
        assert by_feature["b"].abs_error == pytest.approx(0.0)

    def test_endpoint_counts_as_covered(self):
        truth = GroundTruth(
            true_wtp={"a": 109.0}, wtp_sd={"a": 0.0}, price_coef_mean=-0.01, price_coef_sd=0.0
        )
        report = recovery_report(truth, [self._summary("a", 100.0, 95.0, 109.0)])
        assert report.features[0].covered

    def test_missing_feature_is_an_error(self):
        truth = GroundTruth(
            true_wtp={"a": 1.0}, wtp_sd={"a": 0.0}, price_coef_mean=-0.01, price_coef_sd=0.0
        )
        with pytest.raises(ContractError):
            recovery_report(truth, [])

    def test_uncovered_feature_fails_overall(self):
        truth = GroundTruth(
            true_wtp={"a": 120.0}, wtp_sd={"a": 0.0}, price_coef_mean=-0.01, price_coef_sd=0.0
        )
        report = recovery_report(truth, [self._summary("a", 100.0, 95.0, 109.0)])
        assert not report.features[0].covered
        assert not report.overall_pass


def _survey(scheme, truth, n_respondents, tasks, seed):
    respondents = sample_respondents(scheme, truth, n_respondents, seed=seed)
    task_list = generate_tasks(
        scheme, n_respondents, tasks, (799.0, 899.0, 999.0, 1099.0, 1199.0), seed=seed
    )
    return simulate_choices(scheme, respondents, task_list, seed=seed)


def _in_cents(dataset):
    """The same survey and choices with every profile price in cents."""
    return replace(dataset, prices=dataset.prices * 100.0)


def _agree_within_two_joint_se(a, ess_a, b, ess_b):
    joint = math.hypot(a.std() / math.sqrt(ess_a), b.std() / math.sqrt(ess_b))
    return abs(a.mean() - b.mean()) < 2 * joint


class TestFitBasedOracles:
    def test_the_unit_of_price_changes_no_dollar_output(self):
        # One survey fitted with its prices in dollars and again in cents,
        # with the same choices: a coefficient per cent is 1/100 of one per
        # dollar, the feature coefficients and every dollar WTP are unchanged.
        scheme = camera_price_scheme()
        truth = GroundTruth(
            true_wtp={"camera:Pro": 200.0},
            wtp_sd={"camera:Pro": 50.0},
            price_coef_mean=-0.01,
            price_coef_sd=0.002,
        )
        config = ModelConfig(chains=2, draws_per_chain=400, warmup_per_chain=400, seed=61)
        dollars = _survey(scheme, truth, 100, 20, 61)
        dollar_draws, dollar_diag = sample(build_design(dollars), config)
        cent_draws, cent_diag = sample(build_design(_in_cents(dollars)), config)

        dollar_mu = unscale_population(dollar_draws)[0]
        # per dollar, the price coefficient is 100 times the one per cent
        cent_mu = unscale_population(cent_draws)[0]
        cent_mu[:, -1] *= 100.0
        for j, column in enumerate(dollar_draws.columns):
            ess = f"mu[{column}]"
            assert _agree_within_two_joint_se(
                dollar_mu[:, j], dollar_diag.effective_sample_size[ess],
                cent_mu[:, j], cent_diag.effective_sample_size[ess],
            ), column

        dollar_wtp = wtp_draws(dollar_draws, "camera:Pro")
        cent_wtp = wtp_draws(cent_draws, "camera:Pro")
        assert dollar_wtp.flagged_count == cent_wtp.flagged_count == 0
        in_dollars = cent_wtp.draws / 100.0
        assert _agree_within_two_joint_se(
            dollar_wtp.draws, ess_bulk(dollar_wtp.draws.reshape(config.chains, -1)),
            in_dollars, ess_bulk(in_dollars.reshape(config.chains, -1)),
        )

    def test_degenerate_hierarchy_pins_individuals_to_population(self):
        scheme = camera_price_scheme()
        truth = GroundTruth(
            true_wtp={"camera:Pro": 200.0},
            wtp_sd={"camera:Pro": 0.0},
            price_coef_mean=-0.01,
            price_coef_sd=0.0,
        )
        config = ModelConfig(chains=2, draws_per_chain=300, warmup_per_chain=400, seed=71)
        draws, _ = sample(build_design(_survey(scheme, truth, 50, 20, 71)), config)
        population = wtp_draws(draws, "camera:Pro")
        for rid in (0, 17, 49):
            ind = individual_wtp(draws, rid, "camera:Pro")
            assert ind.flagged_count == 0 and population.flagged_count == 0
            diff = ind.draws - population.draws
            assert abs(diff.mean()) < 2 * diff.std()

    def test_shrinkage_pulls_extreme_respondents_toward_population(self):
        # One respondent is planted exactly 2 population SDs above the mean
        # camera WTP; partial pooling should leave their posterior-mean WTP
        # strictly between their own value and the population mean. Tight
        # price heterogeneity keeps the WTP ratio denominators stable so the
        # test isolates shrinkage of the camera coefficient.
        scheme = camera_price_scheme()
        truth = GroundTruth(
            true_wtp={"camera:Pro": 200.0},
            wtp_sd={"camera:Pro": 50.0},
            price_coef_mean=-0.01,
            price_coef_sd=0.0005,
        )
        config = ModelConfig(chains=1, draws_per_chain=800, warmup_per_chain=500, seed=0)
        successes = 0
        reps = 20
        for seed in range(1, reps + 1):
            respondents = sample_respondents(scheme, truth, 40, seed=seed)
            respondents[0, 0] = -respondents[0, 1] * 300.0
            tasks = generate_tasks(
                scheme, 40, 60, (799.0, 899.0, 999.0, 1099.0, 1199.0), seed=seed
            )
            dataset = simulate_choices(scheme, respondents, tasks, seed=seed)
            draws, _ = sample(build_design(dataset), replace(config, seed=seed))
            posterior_mean = individual_wtp(draws, 0, "camera:Pro").mean
            if 200.0 < posterior_mean < 300.0:
                successes += 1
        assert successes >= 0.9 * reps
