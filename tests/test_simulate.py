"""Ground-truth simulation: respondents, tasks, and stochastic choices."""

import math

import numpy as np
import pytest

from conjoint_wtp.domain import (
    AttributeScheme,
    ProductProfile,
    choice_probability,
    encode_profile,
    utility,
)
from conjoint_wtp.errors import ContractError, DesignError
from conjoint_wtp.infer import build_design
from conjoint_wtp.presets import DEFAULT_PRICE_GRID, smartphone_truth
from conjoint_wtp.simulate import (
    ChoiceDataset,
    ChoiceRecord,
    ChoiceTask,
    GroundTruth,
    RespondentParams,
    generate_tasks,
    sample_respondents,
    simulate_choices,
)
from tests.helpers import wtp
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


class TestSampleRespondents:
    def test_zero_respondents_rejected(self, scheme, truth):
        with pytest.raises(ContractError):
            sample_respondents(scheme, truth, 0, seed=1)

    def test_truth_must_cover_scheme_columns(self, scheme):
        truth = GroundTruth(
            true_wtp={"camera:Pro": 200.0}, wtp_sd={"camera:Pro": 50.0},
            price_coef_mean=-0.01, price_coef_sd=0.0,
        )
        with pytest.raises(ContractError, match="storage:256GB"):
            sample_respondents(scheme, truth, 3, seed=1)

    def test_degenerate_truth_gives_identical_respondents_with_exact_wtp(self, scheme):
        truth = degenerate_truth()
        respondents = sample_respondents(scheme, truth, 5, seed=9)
        for r in respondents:
            assert np.array_equal(r.beta, respondents[0].beta)
        beta = respondents[0].beta
        price_coef = beta[scheme.price_index]
        assert price_coef == truth.price_coef_mean
        for j, column in enumerate(scheme.dummy_columns):
            assert wtp(beta[j], price_coef) == truth.true_wtp[column]

    def test_camera_wtp_sample_mean_within_three_sigma(self, scheme, truth):
        n = 300
        respondents = sample_respondents(scheme, truth, n, seed=20250808)
        j = scheme.dummy_columns.index("camera:Pro")
        implied = np.array([wtp(r.beta[j], r.beta[scheme.price_index]) for r in respondents])
        bound = 3 * 50.0 / math.sqrt(n)
        assert abs(implied.mean() - 200.0) < bound

    def test_price_coef_sample_mean_within_three_standard_errors(self, scheme, truth):
        n = 300
        respondents = sample_respondents(scheme, truth, n, seed=20250808)
        coefs = np.array([r.beta[scheme.price_index] for r in respondents])
        bound = 3 * truth.price_coef_sd / math.sqrt(n)
        assert abs(coefs.mean() - truth.price_coef_mean) < bound
        assert np.all(coefs < 0)


class TestGenerateTasks:
    def test_default_study_scale_produces_6000_tasks(self, scheme):
        tasks = generate_tasks(scheme, 300, 20, DEFAULT_PRICE_GRID, seed=3)
        assert len(tasks) == 6000

    def test_profiles_always_differ(self, scheme):
        tasks = generate_tasks(scheme, 50, 20, DEFAULT_PRICE_GRID, seed=3)
        assert all(t.profile_a != t.profile_b for t in tasks)

    def test_level_balance_under_uniform_sampling(self, scheme):
        tasks = generate_tasks(scheme, 300, 20, DEFAULT_PRICE_GRID, seed=3)
        profiles = [t.profile_a for t in tasks] + [t.profile_b for t in tasks]
        n = len(profiles)
        for attr in scheme.attributes:
            expected = 1.0 / len(attr.levels)
            threshold = expected - 5 * math.sqrt(expected * (1 - expected) / n)
            for level in attr.levels:
                if level == attr.baseline:
                    continue
                freq = sum(p.levels[attr.name] == level for p in profiles) / n
                assert freq >= threshold
                assert freq >= 0.20

    def test_empty_price_grid_rejected(self, scheme):
        with pytest.raises(ContractError):
            generate_tasks(scheme, 1, 1, [], seed=0)

    def test_degenerate_scheme_raises_design_error(self):
        # no attribute and one price: every profile is the same product
        scheme = AttributeScheme(attributes=(), price_attribute="price")
        with pytest.raises(DesignError):
            generate_tasks(scheme, 1, 1, [999.0], seed=0)


def _single_task(scheme, respondent_id=0, task_id=0):
    a = ProductProfile(levels={"storage": "512GB", "camera": "Pro", "frame": "Titanium"}, price=799.0)
    b = ProductProfile(levels={"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}, price=1199.0)
    return ChoiceTask(respondent_id=respondent_id, task_id=task_id, profile_a=a, profile_b=b)


class TestSimulateChoices:
    def test_identical_profiles_rejected_at_task_construction(self, scheme):
        a = ProductProfile(levels={"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}, price=799.0)
        with pytest.raises(ContractError):
            ChoiceTask(respondent_id=0, task_id=0, profile_a=a, profile_b=a)

    def test_missing_respondent_params(self, scheme):
        with pytest.raises(ContractError):
            simulate_choices(scheme, [], [_single_task(scheme)], seed=0)

    def test_indifferent_respondent_chooses_half(self, scheme):
        respondent = RespondentParams(respondent_id=0, beta=np.zeros(scheme.n_features))
        tasks = generate_tasks(scheme, 1, 10_000, DEFAULT_PRICE_GRID, seed=17)
        dataset = simulate_choices(scheme, [respondent], tasks, seed=17)
        rate = np.mean([r.chose_a for r in dataset.records])
        assert abs(rate - 0.5) < 0.015

    def test_dominant_profile_always_preferred_in_probability(self, scheme, truth):
        respondents = sample_respondents(scheme, truth, 20, seed=23)
        task = _single_task(scheme)
        for r in respondents:
            u_a = utility(encode_profile(scheme, task.profile_a), r.beta)
            u_b = utility(encode_profile(scheme, task.profile_b), r.beta)
            assert choice_probability(u_a, u_b) > 0.5

    def test_empirical_frequency_matches_analytic_probability(self, scheme, truth):
        respondent = sample_respondents(scheme, truth, 1, seed=31)[0]
        n = 20_000
        template = _single_task(scheme)
        tasks = [
            ChoiceTask(0, i, template.profile_a, template.profile_b) for i in range(n)
        ]
        u_a = utility(encode_profile(scheme, template.profile_a), respondent.beta)
        u_b = utility(encode_profile(scheme, template.profile_b), respondent.beta)
        p = choice_probability(u_a, u_b)
        dataset = simulate_choices(scheme, [respondent], tasks, seed=31)
        freq = np.mean([r.chose_a for r in dataset.records])
        assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_bit_identical_given_seed(self, scheme, truth):
        def run():
            respondents = sample_respondents(scheme, truth, 12, seed=77)
            tasks = generate_tasks(scheme, 12, 6, DEFAULT_PRICE_GRID, seed=77)
            return simulate_choices(scheme, respondents, tasks, seed=77)

        first, second = run(), run()
        assert first.records == second.records

    def test_respondent_streams_are_independent_of_cohort(self, scheme, truth):
        respondents = sample_respondents(scheme, truth, 10, seed=5)
        tasks = generate_tasks(scheme, 10, 6, DEFAULT_PRICE_GRID, seed=5)
        full = simulate_choices(scheme, respondents, tasks, seed=5)
        target = 3
        alone = simulate_choices(
            scheme,
            [respondents[target]],
            [t for t in tasks if t.respondent_id == target],
            seed=5,
        )
        expected = [r for r in full.records if r.task.respondent_id == target]
        assert alone.records == expected


class TestDatasetInvariants:
    def test_records_must_be_grouped_by_respondent(self, scheme):
        t0 = _single_task(scheme, respondent_id=0, task_id=0)
        t1 = _single_task(scheme, respondent_id=1, task_id=0)
        t2 = _single_task(scheme, respondent_id=0, task_id=1)
        records = [ChoiceRecord(t, True) for t in (t0, t1, t2)]
        with pytest.raises(ContractError, match="contiguous"):
            ChoiceDataset(scheme=scheme, records=records)

    def test_task_ids_unique_within_respondent(self, scheme):
        t0 = _single_task(scheme, task_id=4)
        t1 = _single_task(scheme, task_id=4)
        with pytest.raises(ContractError, match="duplicate"):
            ChoiceDataset(scheme=scheme, records=[ChoiceRecord(t0, True), ChoiceRecord(t1, False)])


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
        beta = fit_logit_mle(design.x, design.choices)
        scale = design.standardization.scale
        raw = beta / scale
        price = raw[design.price_index]
        for j, column in enumerate(scheme.dummy_columns):
            estimate = -raw[j] / price
            assert estimate == pytest.approx(truth.true_wtp[column], rel=0.05)
