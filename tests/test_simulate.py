"""Ground-truth simulation: respondents, tasks, and stochastic choices."""

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conjoint_wtp import cli
from conjoint_wtp.config import RunConfig, SimulationSettings
from conjoint_wtp.domain import AttributeScheme, encode_profile
from conjoint_wtp.errors import ConfigError, ContractError, RowError
from conjoint_wtp.infer import build_design
from conjoint_wtp.presets import DEFAULT_PRICE_GRID, smartphone_truth
from conjoint_wtp.simulate import (
    GroundTruth,
    generate_tasks,
    sample_respondents,
    simulate_choices,
)
from tests.helpers import DEMO_CONFIG, profiles, survey, take, wtp
from tests.logit_mle import fit_logit_mle


def degenerate_truth():
    # Dyadic values so the implied-WTP identity is exact in floats.
    return GroundTruth(
        true_wtp={"storage:256GB": 100.0, "storage:512GB": 250.0, "camera:Pro": 200.0, "frame:Titanium": 80.0},
        wtp_sd={"storage:256GB": 0.0, "storage:512GB": 0.0, "camera:Pro": 0.0, "frame:Titanium": 0.0},
        price_coef_mean=-0.0078125,
        price_coef_sd=0.0,
    )


class TestGroundTruth:
    def test_price_mean_must_be_negative(self):
        with pytest.raises(ContractError):
            GroundTruth(true_wtp={"f": 1.0}, wtp_sd={"f": 0.0}, price_coef_mean=0.01, price_coef_sd=0.0)

    def test_sd_keys_must_match(self):
        with pytest.raises(ContractError):
            GroundTruth(true_wtp={"f": 1.0}, wtp_sd={"g": 0.0}, price_coef_mean=-0.01, price_coef_sd=0.0)

    def test_sds_must_be_non_negative(self):
        with pytest.raises(ContractError):
            GroundTruth(true_wtp={"f": 1.0}, wtp_sd={"f": -1.0}, price_coef_mean=-0.01, price_coef_sd=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("true_wtp", {"f": math.inf}),
            ("true_wtp", {"f": math.nan}),
            ("wtp_sd", {"f": math.inf}),
            ("price_coef_mean", -math.inf),
            ("price_coef_mean", math.nan),
            ("price_coef_sd", math.inf),
            ("price_coef_sd", math.nan),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        # a NaN or infinite value would make every utility NaN, and a NaN
        # probability silently chooses profile B in every task
        args = dict(true_wtp={"f": 1.0}, wtp_sd={"f": 0.0}, price_coef_mean=-0.01, price_coef_sd=0.0)
        args[field] = value
        with pytest.raises(ContractError, match=field):
            GroundTruth(**args)


class TestSampleRespondents:
    # sample_respondents trusts its count and truth: the config checks both
    def test_zero_respondents_rejected(self):
        with pytest.raises(ContractError, match="n_respondents must be >= 1, got 0"):
            SimulationSettings(n_respondents=0, tasks_per_respondent=1, price_grid=DEFAULT_PRICE_GRID)

    def test_truth_must_cover_scheme_columns(self, scheme):
        truth = GroundTruth(
            true_wtp={"camera:Pro": 200.0}, wtp_sd={"camera:Pro": 50.0},
            price_coef_mean=-0.01, price_coef_sd=0.0,
        )
        with pytest.raises(ConfigError, match="config.ground_truth: .*storage:256GB"):
            RunConfig(seed=1, scheme=scheme, ground_truth=truth)

    def test_degenerate_truth_gives_identical_respondents_with_exact_wtp(self, scheme):
        truth = degenerate_truth()
        respondents = sample_respondents(scheme, truth, 5, seed=9)
        assert respondents.shape == (5, scheme.n_features)
        for r in respondents:
            assert np.array_equal(r, respondents[0])
        beta = respondents[0]
        price_coef = beta[-1]
        assert price_coef == truth.price_coef_mean
        for j, column in enumerate(scheme.dummy_columns):
            assert wtp(beta[j], price_coef) == truth.true_wtp[column]

    def test_camera_wtp_sample_mean_within_three_sigma(self, scheme, truth):
        n = 300
        respondents = sample_respondents(scheme, truth, n, seed=20250808)
        j = scheme.dummy_columns.index("camera:Pro")
        implied = np.array([wtp(r[j], r[-1]) for r in respondents])
        bound = 3 * 50.0 / math.sqrt(n)
        assert abs(implied.mean() - 200.0) < bound

    def test_price_coef_sample_mean_within_three_standard_errors(self, scheme, truth):
        n = 300
        respondents = sample_respondents(scheme, truth, n, seed=20250808)
        coefs = respondents[:, -1]
        bound = 3 * truth.price_coef_sd / math.sqrt(n)
        assert abs(coefs.mean() - truth.price_coef_mean) < bound
        assert np.all(coefs < 0)


class TestGenerateTasks:
    def test_default_study_scale_produces_6000_tasks(self, scheme):
        tasks = generate_tasks(scheme, 300, 20, DEFAULT_PRICE_GRID, seed=3)
        assert len(tasks) == 6000
        assert tasks.chose_a is None  # drawn, not yet answered

    def test_profiles_always_differ(self, scheme):
        tasks = generate_tasks(scheme, 50, 20, DEFAULT_PRICE_GRID, seed=3)
        assert all(a != b for a, b in (profiles(tasks, i) for i in range(len(tasks))))

    def test_level_balance_under_uniform_sampling(self, scheme):
        tasks = generate_tasks(scheme, 300, 20, DEFAULT_PRICE_GRID, seed=3)
        both = [profiles(tasks, i) for i in range(len(tasks))]
        named = [a for a, _ in both] + [b for _, b in both]
        n = len(named)
        for attr in scheme.attributes:
            expected = 1.0 / len(attr.levels)
            threshold = expected - 5 * math.sqrt(expected * (1 - expected) / n)
            for level in attr.levels:
                if level == attr.baseline:
                    continue
                freq = sum(p.levels[attr.name] == level for p in named) / n
                assert freq >= threshold
                assert freq >= 0.20

    # generate_tasks trusts its price grid: the config checks it
    def test_empty_price_grid_rejected(self):
        with pytest.raises(ContractError, match="price_grid must be non-empty"):
            SimulationSettings(n_respondents=1, tasks_per_respondent=1, price_grid=())

    @pytest.mark.parametrize("grid", [[899.0, math.inf], [0.0, 899.0], [899.0, math.nan]])
    def test_price_grid_entries_must_be_finite_and_positive(self, grid):
        with pytest.raises(ContractError, match="finite and positive"):
            SimulationSettings(n_respondents=1, tasks_per_respondent=1, price_grid=tuple(grid))

    def test_scheme_needs_an_attribute(self):
        # with no attribute and one price every profile is the same product;
        # with an attribute of two levels, a re-drawn pair repeats with
        # probability at most 1/2, so the task draw always ends
        with pytest.raises(ContractError, match="attributes must list at least one attribute"):
            AttributeScheme(attributes=(), price_attribute="price")


UP = {"storage": "512GB", "camera": "Pro", "frame": "Titanium"}
BASE = {"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}


def _single_task(scheme):
    """A one-row table: A has every upgrade at $799, B none at $1,199."""
    return survey(scheme, [(0, 0, UP, 799.0, BASE, 1199.0)])


def _same_table(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("respondent_id", "task_id", "levels", "prices", "chose_a")
    )


class TestSimulateChoices:
    def test_identical_profiles_rejected_at_task_construction(self, scheme):
        with pytest.raises(ContractError, match="task 0 for respondent 0 has identical profiles"):
            survey(scheme, [(0, 0, BASE, 799.0, BASE, 799.0)])

    def test_indifferent_respondent_chooses_half(self, scheme):
        tasks = generate_tasks(scheme, 1, 10_000, DEFAULT_PRICE_GRID, seed=17)
        dataset = simulate_choices(scheme, np.zeros((1, scheme.n_features)), tasks, seed=17)
        rate = np.mean(dataset.chose_a)
        assert abs(rate - 0.5) < 0.015

    def test_dominant_profile_always_preferred_in_probability(self, scheme, truth):
        respondents = sample_respondents(scheme, truth, 20, seed=23)
        a, b = profiles(_single_task(scheme), 0)
        x = encode_profile(scheme, a) - encode_profile(scheme, b)
        for beta in respondents:
            assert 1.0 / (1.0 + math.exp(-(x @ beta))) > 0.5

    def test_empirical_frequency_matches_analytic_probability(self, scheme, truth):
        respondent = sample_respondents(scheme, truth, 1, seed=31)
        n = 20_000
        tasks = survey(scheme, [(0, i, UP, 799.0, BASE, 1199.0) for i in range(n)])
        a, b = profiles(tasks, 0)
        x = encode_profile(scheme, a) - encode_profile(scheme, b)
        p = 1.0 / (1.0 + math.exp(-(x @ respondent[0])))
        dataset = simulate_choices(scheme, respondent, tasks, seed=31)
        freq = np.mean(dataset.chose_a)
        assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_extreme_utility_differences_choose_the_dominant_profile(self, scheme):
        # a price slope of -2.5 per dollar puts a $400 gap at |x.beta| = 1000,
        # past where exp overflows: p must be exactly 0 or 1, with no warning
        betas = np.zeros((2, scheme.n_features))
        betas[:, -1] = -2.5
        pair = (UP, 799.0, BASE, 1199.0)  # A: every upgrade at $799; B: none at $1,199
        swapped = (BASE, 1199.0, UP, 799.0)
        tasks = survey(
            scheme,
            [(rid, tid, *(pair if tid % 2 == 0 else swapped)) for rid in range(2) for tid in range(200)],
        )
        for i in range(len(tasks)):
            a, b = profiles(tasks, i)
            x = encode_profile(scheme, a) - encode_profile(scheme, b)
            assert abs(x @ betas[0]) >= 800
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataset = simulate_choices(scheme, betas, tasks, seed=3)
        assert np.array_equal(dataset.chose_a, dataset.prices[:, 0] == 799.0)

    def test_bit_identical_given_seed(self, scheme, truth):
        def run():
            respondents = sample_respondents(scheme, truth, 12, seed=77)
            tasks = generate_tasks(scheme, 12, 6, DEFAULT_PRICE_GRID, seed=77)
            return simulate_choices(scheme, respondents, tasks, seed=77)

        first, second = run(), run()
        assert _same_table(first, second)

    def test_respondent_streams_are_independent_of_cohort(self, scheme, truth):
        respondents = sample_respondents(scheme, truth, 10, seed=5)
        tasks = generate_tasks(scheme, 10, 6, DEFAULT_PRICE_GRID, seed=5)
        full = simulate_choices(scheme, respondents, tasks, seed=5)
        target = 3
        alone = simulate_choices(
            scheme,
            respondents[: target + 1],
            take(tasks, tasks.respondent_id == target),
            seed=5,
        )
        expected = take(full, full.respondent_id == target)
        assert _same_table(alone, expected)


def test_shipped_config_survey_is_byte_stable(tmp_path):
    # the sha256 of the survey the shipped config simulates; any change to
    # the respondent, task or choice streams shows here first
    assert cli.main(["simulate", "--config", str(DEMO_CONFIG), "--out", str(tmp_path)]) == 0
    data = (tmp_path / "choices.csv").read_bytes()
    assert len(data) == 383_726
    assert hashlib.sha256(data).hexdigest() == (
        "a68e137a3817934c4f29b0b00ade9d50bc08f1cad1c14994bf926a6701454f22"
    )


class TestDatasetInvariants:
    def test_records_must_be_grouped_by_respondent(self, scheme):
        rows = [(rid, tid, UP, 799.0, BASE, 1199.0) for rid, tid in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))]
        with pytest.raises(ContractError, match="records for respondent 0 are not contiguous"):
            survey(scheme, rows, chose_a=[True] * 5)

    def test_task_ids_unique_within_respondent(self, scheme):
        rows = [(0, tid, UP, 799.0, BASE, 1199.0) for tid in (4, 2, 4, 2)]
        with pytest.raises(ContractError, match="duplicate task_id 4 for respondent 0"):
            survey(scheme, rows, chose_a=[True, False, True, False])

    def test_a_bad_row_is_named(self, scheme):
        table = survey(scheme, [(0, tid, UP, 799.0, BASE, 1199.0) for tid in range(4)])
        levels = table.levels.copy()
        levels[2, 1, 1] = 2  # camera has two levels
        prices = table.prices.copy()
        prices[3, 0] = math.inf
        cases = [
            (dict(levels=levels), 2, "level 2 is out of range for attribute 'camera'"),
            (dict(prices=prices), 3, "price must be finite and positive, got inf"),
        ]
        for change, row, message in cases:
            with pytest.raises(RowError) as err:
                replace(table, **change)
            assert (err.value.row, err.value.message) == (row, message)


class TestRecoveryPremise:
    def test_pooled_mle_recovers_wtp_without_heterogeneity(self, scheme):
        truth = GroundTruth(
            true_wtp=dict(smartphone_truth().true_wtp),
            wtp_sd={k: 0.0 for k in smartphone_truth().true_wtp},
            price_coef_mean=-0.01,
            price_coef_sd=0.0,
        )
        respondents = sample_respondents(scheme, truth, 300, seed=101)
        tasks = generate_tasks(scheme, 300, 200, DEFAULT_PRICE_GRID, seed=101)
        dataset = simulate_choices(scheme, respondents, tasks, seed=101)
        design = build_design(dataset)
        scale = design.standardization.scale
        beta = fit_logit_mle(dataset.differences() / scale, dataset.chose_a)
        raw = beta / scale
        price = raw[-1]
        for j, column in enumerate(scheme.dummy_columns):
            estimate = -raw[j] / price
            assert estimate == pytest.approx(truth.true_wtp[column], rel=0.05)
