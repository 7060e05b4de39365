"""Acceptance criteria for the whole artifact.

Each criterion prints one PASS/FAIL line (run with -s to see them live).
The full-size recovery run is shared across criteria via session fixtures;
criterion 9 is the slow suite (50 end-to-end replications).
"""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from conjoint_wtp import cli
from conjoint_wtp.dataio import write_json
from conjoint_wtp.domain import Attribute, AttributeScheme
from conjoint_wtp.infer import (
    HierarchicalLogitModel,
    ModelConfig,
    build_design,
    run_nuts,
    sample,
)
from conjoint_wtp.posterior import hdi, recovery_report, summarize_wtp, wtp_draws
from conjoint_wtp.presets import (
    DEFAULT_PRICE_GRID,
    smartphone_pro_bundle,
    smartphone_scheme,
)
from conjoint_wtp.revenue import revenue_curve
from conjoint_wtp.simulate import (
    PRICE_COEF_CEILING,
    GroundTruth,
    generate_tasks,
    sample_respondents,
    simulate_choices,
)
from tests.helpers import DEMO_SEED
from tests.logit_mle import fit_logit_mle
from tests.references import FlatLogitModel, individual_beta, individual_wtp


def report_criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"CRITERION {number} [{description}]: {status}{suffix}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # make the line visible under capture
        print(line, file=sys.__stdout__)
    assert passed, f"criterion {number} failed: {description}{suffix}"


class TestCriterion1GroundTruthRecovery:
    def test_recovery_run(self, demo_report, truth):
        recovery = demo_report["recovery"]
        covered = all(f["covered"] for f in recovery["features"])
        mean_ok = all(
            abs(f["mean"] - f["true_wtp"]) <= 0.15 * f["true_wtp"] for f in recovery["features"]
        )
        rhat = demo_report["quality"]["population_r_hat"]
        rhat_ok = all(v is not None and v < 1.01 for v in rhat.values())
        detail = ", ".join(
            f"{f['feature']}: mean {f['mean']:.1f} vs {f['true_wtp']:.0f}, "
            f"HDI [{f['hdi_low']:.1f}, {f['hdi_high']:.1f}]"
            for f in recovery["features"]
        )
        detail += f"; max r_hat {max(rhat.values()):.4f}"
        report_criterion(
            1,
            "ground-truth recovery: HDI coverage, mean within 15%, r_hat < 1.01",
            covered and mean_ok and rhat_ok and recovery["overall_pass"],
            detail,
        )


class TestCriterion2GradientOracle:
    def test_gradient_matches_finite_differences(self, scheme, truth):
        respondents = sample_respondents(scheme, truth, 5, seed=7)
        tasks = generate_tasks(scheme, 5, 8, DEFAULT_PRICE_GRID, seed=7)
        dataset = simulate_choices(scheme, respondents, tasks, seed=7)
        h = 1e-5
        worst = 0.0
        for standardize in (True, False):
            design = build_design(dataset, standardize=standardize)
            model = HierarchicalLogitModel(design, ModelConfig(seed=1))
            # states drawn on the unit-scaled columns, then put in the
            # design's units (the identity on the standardized design)
            unit = design.column_sd / design.standardization.scale
            f = model.n_features
            rng = np.random.default_rng(2024)
            for _ in range(20):
                theta = rng.normal(0.0, 1.0, model.dim)
                theta[:f] /= unit
                theta[f : 2 * f] -= np.log(unit)
                worst = max(worst, _worst_gradient_error(model, theta, h))
        report_criterion(
            2,
            "analytic gradient vs central finite differences, rel err < 1e-5",
            worst < 1e-5,
            f"worst relative error {worst:.2e} over 20 states on each of the standardized and raw designs",
        )


def _worst_gradient_error(model, theta, h):
    """Largest relative error of the analytic gradient against central differences."""
    _, grad = model.log_posterior(theta)
    fd = np.empty_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        fd[i] = (model.log_posterior(plus)[0] - model.log_posterior(minus)[0]) / (2 * h)
    rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
    return float(rel.max())


class TestCriterion3QuadratureOracle:
    def test_flat_logit_matches_grid_integration(self):
        scheme = AttributeScheme(
            attributes=(
                Attribute("camera", ("Standard", "Pro"), "Standard"),
            ),
            price_attribute="price",
        )
        truth = GroundTruth(
            true_wtp={"camera:Pro": 200.0},
            wtp_sd={"camera:Pro": 0.0},
            price_coef_mean=-0.01,
            price_coef_sd=0.0,
        )
        respondents = sample_respondents(scheme, truth, 1, seed=33)
        tasks = generate_tasks(scheme, 1, 200, DEFAULT_PRICE_GRID, seed=33)
        dataset = simulate_choices(scheme, respondents, tasks, seed=33)
        design = build_design(dataset)

        prior_mean = np.array([0.0, -1.0])
        prior_sd = np.array([2.0, 1.0])
        model = FlatLogitModel(design.x, design.choices, prior_mean, prior_sd)

        # independent oracle: dense grid integration over +-5 prior SDs
        axes = [
            np.linspace(prior_mean[j] - 5 * prior_sd[j], prior_mean[j] + 5 * prior_sd[j], 201)
            for j in range(2)
        ]
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        thetas = np.column_stack([g0.ravel(), g1.ravel()])
        sgn = 2.0 * design.choices.astype(float) - 1.0
        eta = thetas @ design.x.T
        loglik = -np.logaddexp(0.0, -sgn[None, :] * eta).sum(axis=1)
        logprior = (-0.5 * ((thetas - prior_mean) / prior_sd) ** 2).sum(axis=1)
        logpost = loglik + logprior
        weights = np.exp(logpost - logpost.max())
        weights /= weights.sum()
        grid_mean = weights @ thetas
        grid_sd = np.sqrt(weights @ (thetas - grid_mean) ** 2)

        result = run_nuts(
            model, chains=4, warmup=1000, draws=8000, target_accept=0.8,
            max_treedepth=10, seed=303,
        )
        mcmc_mean = result.flat().mean(axis=0)
        errors = np.abs(mcmc_mean - grid_mean) / grid_sd
        report_criterion(
            3,
            "2-param logit posterior means match 201x201 grid quadrature within 2% of SD",
            bool(np.all(errors < 0.02)),
            f"errors {errors[0]:.4f}, {errors[1]:.4f} of posterior SD",
        )


class TestCriterion4PriorRecovery:
    def test_zero_data_run_reproduces_prior(self):
        dim = 4
        model = FlatLogitModel(
            np.zeros((0, dim)), np.zeros(0), np.zeros(dim), np.ones(dim)
        )
        result = run_nuts(
            model, chains=4, warmup=500, draws=2000, target_accept=0.8,
            max_treedepth=10, seed=404,
        )
        flat = result.flat()
        means = flat.mean(axis=0)
        sds = flat.std(axis=0)
        mean_ok = bool(np.all(np.abs(means) <= 0.05))
        sd_ok = bool(np.all(np.abs(sds - 1.0) <= 0.05))
        report_criterion(
            4,
            "zero-data run reproduces Normal(0,1) prior mean/SD within 5% at 8000 draws",
            mean_ok and sd_ok,
            f"max |mean| {np.abs(means).max():.4f}, max |sd-1| {np.abs(sds - 1).max():.4f}",
        )


class TestCriterion5HdiCorrectness:
    def test_hdi_against_analytic_distributions(self):
        rng = np.random.default_rng(505)
        normal = rng.standard_normal(100_000)
        low, high = hdi(normal, 0.95)
        normal_ok = abs(low + 1.96) <= 0.05 and abs(high - 1.96) <= 0.05

        exponential = rng.exponential(1.0, 100_000)
        exp_low, exp_high = hdi(exponential, 0.95)
        exp_ok = exp_low < 0.02

        low95, high95 = hdi(exponential, 0.95)
        low99, high99 = hdi(exponential, 0.99)
        nested = low99 <= low95 and high99 >= high95
        report_criterion(
            5,
            "HDI: normal quantiles, exponential left edge, nesting",
            normal_ok and exp_ok and nested,
            f"normal [{low:.3f}, {high:.3f}], exp left {exp_low:.4f}",
        )


class TestCriterion6Shrinkage:
    def test_partial_pooling_shrinks_individual_variance(self, demo_draws, demo_dataset):
        design = build_design(demo_dataset)
        scale = design.standardization.scale
        features = [c for c in demo_draws.columns if c != demo_draws.price_column]

        posterior_means = {f: [] for f in features}
        for rid in demo_draws.respondent_ids:
            beta = individual_beta(demo_draws, rid) / scale
            price = beta[:, demo_draws.price_index]
            keep = price < -1e-8
            for j, feature in enumerate(features):
                ratio = -beta[keep, j] / price[keep]
                posterior_means[feature].append(ratio.mean())

        ml_estimates = {f: [] for f in features}
        for pos, rid in enumerate(design.respondent_ids):
            rows = design.respondent_index == pos
            beta = fit_logit_mle(design.x[rows], design.choices[rows]) / scale
            for j, feature in enumerate(features):
                ml_estimates[feature].append(-beta[j] / beta[design.price_index])

        shrunk = {
            f: np.var(posterior_means[f]) < np.var(ml_estimates[f]) for f in features
        }
        detail = ", ".join(
            f"{f}: {np.var(posterior_means[f]):.0f} < {np.var(ml_estimates[f]):.0f}"
            for f in features
        )
        report_criterion(
            6,
            "variance of pooled individual WTPs < variance of no-pooling ML WTPs",
            all(shrunk.values()),
            detail,
        )


class TestCriterion7RevenueStructure:
    def test_revenue_simulation_structure(self, demo_draws):
        scheme = smartphone_scheme()
        scenario = smartphone_pro_bundle()
        curve = revenue_curve(demo_draws, scheme, scenario, seed=DEMO_SEED)
        monotone = bool(np.all(np.diff(curve.purchase_prob, axis=1) <= 0.0))
        bounded = bool(np.all(curve.revenue <= curve.prices[None, :]))
        interior = curve.prices[0] < curve.argmax_price < curve.prices[-1]
        report_criterion(
            7,
            "per-draw monotone demand, revenue <= price, interior argmax on $799-$1299",
            monotone and bounded and interior,
            f"argmax ${curve.argmax_price:.0f}, argmax HDI "
            f"[${curve.argmax_hdi[0]:.0f}, ${curve.argmax_hdi[1]:.0f}]",
        )


class TestCriterion8Determinism:
    def test_pipeline_runs_are_byte_identical(self, tmp_path):
        config = {
            "seed": 777,
            "scheme": {
                "attributes": [
                    {"name": "storage", "levels": ["128GB", "256GB", "512GB"], "baseline": "128GB"},
                    {"name": "camera", "levels": ["Standard", "Pro"], "baseline": "Standard"},
                    {"name": "frame", "levels": ["Aluminum", "Titanium"], "baseline": "Aluminum"},
                ],
                "price_attribute": "price",
            },
            "ground_truth": {
                "true_wtp": {
                    "storage:256GB": 100.0,
                    "storage:512GB": 250.0,
                    "camera:Pro": 200.0,
                    "frame:Titanium": 80.0,
                },
                "wtp_sd": {
                    "storage:256GB": 25.0,
                    "storage:512GB": 62.5,
                    "camera:Pro": 50.0,
                    "frame:Titanium": 20.0,
                },
                "price_coef_mean": -0.01,
                "price_coef_sd": 0.002,
            },
            "simulation": {
                "n_respondents": 300,
                "tasks_per_respondent": 20,
                "price_grid": [799, 899, 999, 1099, 1199],
            },
            "model": {"chains": 2, "draws_per_chain": 300, "warmup_per_chain": 300},
            "scenario": {
                "baseline": {
                    "levels": {"storage": "128GB", "camera": "Standard", "frame": "Aluminum"},
                    "price": 799.0,
                },
                "upgrades": {"camera": "Pro", "frame": "Titanium"},
                "price_grid": [float(p) for p in range(799, 1300, 25)],
                "market_size": 500,
            },
        }
        out = tmp_path / "run"
        config["output_dir"] = str(out)
        config_path = tmp_path / "config.json"
        write_json(config_path, config)

        assert cli.main(["pipeline", "--config", str(config_path)]) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("choices.csv", "posterior.jsonl", "report.json")
        }
        assert cli.main(["pipeline", "--config", str(config_path)]) == 0

        identical_files = all(
            (out / name).read_bytes() == first[name]
            for name in ("choices.csv", "posterior.jsonl")
        )

        def stripped(raw: bytes):
            report = json.loads(raw.decode("utf-8"))
            report.pop("timings", None)
            return report

        reports_equal = stripped(first["report.json"]) == stripped(
            (out / "report.json").read_bytes()
        )
        report_criterion(
            8,
            "repeat pipeline runs byte-identical (choices.csv, posterior.jsonl, report.json)",
            identical_files and reports_equal,
        )


@pytest.mark.slow
class TestCriterion9HdiCalibration:
    def test_coverage_over_50_replications(self):
        scheme = AttributeScheme(
            attributes=(
                Attribute("camera", ("Standard", "Pro"), "Standard"),
                Attribute("frame", ("Aluminum", "Titanium"), "Aluminum"),
            ),
            price_attribute="price",
        )
        truth = GroundTruth(
            true_wtp={"camera:Pro": 200.0, "frame:Titanium": 80.0},
            wtp_sd={"camera:Pro": 50.0, "frame:Titanium": 20.0},
            price_coef_mean=-0.01,
            price_coef_sd=0.002,
        )
        config = ModelConfig(chains=1, draws_per_chain=500, warmup_per_chain=500, seed=0)
        covered_runs = 0
        replications = 50
        for seed in range(1, replications + 1):
            respondents = sample_respondents(scheme, truth, 30, seed=seed)
            tasks = generate_tasks(scheme, 30, 20, DEFAULT_PRICE_GRID, seed=seed)
            dataset = simulate_choices(scheme, respondents, tasks, seed=seed)
            draws, _ = sample(build_design(dataset), replace(config, seed=seed))
            summaries = [
                summarize_wtp(wtp_draws(draws, feature))
                for feature in truth.true_wtp
            ]
            if recovery_report(truth, summaries).overall_pass:
                covered_runs += 1
        report_criterion(
            9,
            "95% HDI covers truth in >= 42/50 reduced-model replications",
            covered_runs >= 42,
            f"covered in {covered_runs}/50 runs",
        )


def true_revenue_curve(truth, scenario, n_consumers=400_000, seed=0):
    """Reference expected revenue per consumer under the ground truth.

    Monte Carlo over the simulator's population: a price coefficient b from
    Normal(price_coef_mean, price_coef_sd) truncated below PRICE_COEF_CEILING
    and a dollar WTP per upgraded feature from Normal(true_wtp, wtp_sd). A
    consumer buys the bundle over the baseline with probability
    expit(b * (price - base_price - bundle WTP)). The same consumers are used
    at every price, so the curve's shape carries no price-to-price noise.
    """
    rng = np.random.default_rng(seed)
    b = truth.price_coef_mean + truth.price_coef_sd * rng.standard_normal(n_consumers)
    while np.any(high := b >= PRICE_COEF_CEILING):
        b[high] = truth.price_coef_mean + truth.price_coef_sd * rng.standard_normal(high.sum())
    bundle_wtp = np.zeros(n_consumers)
    for name, level in scenario.upgrades.items():
        feature = f"{name}:{level}"
        bundle_wtp += truth.true_wtp[feature] + truth.wtp_sd[feature] * rng.standard_normal(n_consumers)
    base_price = scenario.baseline.price
    return np.array(
        [p * expit(b * (p - base_price - bundle_wtp)).mean() for p in scenario.price_grid]
    )


class TestRevenueRecoveryOracle:
    def test_true_revenue_curve_lies_in_the_demo_hdi(self, demo_report, scheme, truth):
        scenario = smartphone_pro_bundle()
        baseline = {a.name: a.baseline for a in scheme.attributes}
        assert scenario.baseline.levels == baseline  # the reference prices upgrades only
        revenue = demo_report["revenue"]
        assert revenue["prices"] == list(scenario.price_grid)
        true_curve = true_revenue_curve(truth, scenario)
        low, high = np.array(revenue["hdi_low"]), np.array(revenue["hdi_high"])
        covered = (low <= true_curve) & (true_curve <= high)
        true_argmax = scenario.price_grid[int(np.argmax(true_curve))]
        argmax_low, argmax_high = revenue["argmax_hdi"]
        argmax_covered = argmax_low <= true_argmax <= argmax_high
        report_criterion(
            10,
            "true revenue curve inside the 95% HDI at every grid price, true argmax in argmax HDI",
            bool(covered.all()) and argmax_covered,
            f"covered at {int(covered.sum())}/{covered.size} prices; true argmax ${true_argmax:.0f}, "
            f"argmax HDI [${argmax_low:.0f}, ${argmax_high:.0f}]; largest mean - truth "
            f"${np.max(np.array(revenue['mean_revenue']) - true_curve):.2f}",
        )


class TestRecoveryFitExamples:
    """Module-level examples that need the full-size recovery fit."""

    def test_camera_wtp_mean_matches_reported_range(self, demo_draws):
        mean = wtp_draws(demo_draws, "camera:Pro").mean
        assert 191.0 <= mean <= 207.0

    def test_argmax_distribution_is_concentrated(self, demo_draws):
        scheme = smartphone_scheme()
        scenario = smartphone_pro_bundle()
        curve = revenue_curve(demo_draws, scheme, scenario, seed=DEMO_SEED)
        grid_step = curve.prices[1] - curve.prices[0]
        width = curve.argmax_hdi[1] - curve.argmax_hdi[0]
        assert width <= 4 * grid_step

    def test_individual_wtp_shrinks_toward_population_on_recovery_fit(self, demo_draws):
        population = wtp_draws(demo_draws, "camera:Pro")
        for rid in demo_draws.respondent_ids[:10]:
            individual = individual_wtp(demo_draws, rid, "camera:Pro")
            assert individual.draws.size >= 0.99 * demo_draws.n_draws
