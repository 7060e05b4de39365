"""Command-line behaviour: exit codes, file contracts, resume, and the
config-echo reproducibility guarantee."""

import copy
import json
import math
import shutil
import time

import pytest

from conjoint_wtp import cli
from conjoint_wtp.config import load_run_config
from conjoint_wtp.dataio import (
    choices_header,
    read_posterior_jsonl,
    write_json,
    write_posterior_jsonl,
    z_path,
)
from conjoint_wtp.errors import FitError
from conjoint_wtp.infer import nuts
from tests.helpers import (
    DIGIT_LIMIT,
    INF_BITS,
    NAN_BITS,
    copy_posterior,
    long_int_fault,
    with_long_int,
    write_z,
    z_values,
    z_with_first_bits,
)

BASE_CONFIG = {
    "seed": 424242,
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
        "n_respondents": 25,
        "tasks_per_respondent": 10,
        "price_grid": [799, 899, 999, 1099, 1199],
    },
    "model": {
        "chains": 2,
        "draws_per_chain": 120,
        "warmup_per_chain": 150,
        "target_accept": 0.8,
    },
    "scenario": {
        "baseline": {
            "levels": {"storage": "128GB", "camera": "Standard", "frame": "Aluminum"},
            "price": 799.0,
        },
        "upgrades": {"camera": "Pro", "frame": "Titanium"},
        "price_grid": [799, 874, 949, 1024, 1099, 1174, 1249],
        "market_size": 300,
    },
}


def write_config(tmp_path, mutate=None, name="config.json"):
    config = copy.deepcopy(BASE_CONFIG)
    if mutate:
        mutate(config)
    path = tmp_path / name
    write_json(path, config)
    return path


# The report's revenue section, in order; the per-draw arrays are not in it.
REVENUE_KEYS = [
    "argmax_price", "argmax_hdi", "prices", "mean_revenue", "hdi_low", "hdi_high", "hdi_mass", "flagged_count"
]


def strip_timings(report_path):
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    report.pop("timings", None)
    return report


class TestSimulate:
    def test_writes_expected_row_count(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "choices.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 25 * 10 + 1
        assert "250" in capsys.readouterr().out
        assert (out / "provenance.json").exists()

    def test_provenance_keys_in_order(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "provenance.json", encoding="utf-8") as f:
            provenance = json.load(f)
        assert list(provenance) == ["seed", "ground_truth", "n_respondents", "tasks_per_respondent", "price_grid"]
        assert provenance["seed"] == BASE_CONFIG["seed"]
        assert provenance["price_grid"] == [float(p) for p in BASE_CONFIG["simulation"]["price_grid"]]

    def test_repeat_run_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(config), "--out", str(out_a)])
        cli.main(["simulate", "--config", str(config), "--out", str(out_b)])
        assert (out_a / "choices.csv").read_bytes() == (out_b / "choices.csv").read_bytes()

    def test_zero_respondents_exits_2_naming_field(self, tmp_path, capsys):
        def mutate(c):
            c["simulation"]["n_respondents"] = 0

        config = write_config(tmp_path, mutate)
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "n_respondents" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n_respondents", "tasks_per_respondent"])
    def test_survey_too_large_to_allocate_exits_2_naming_field(self, tmp_path, capsys, field):
        # 2**63 rows cannot be allocated (numpy's "Maximum allowed dimension
        # exceeded"), and 2**63 tasks would be drawn one at a time
        config = write_config(tmp_path, lambda c: c["simulation"].update({field: 2**63}))
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config.simulation.n_respondents x tasks_per_respondent" in err
        assert str(2**63) in err
        assert not (tmp_path / "x").exists()

    def test_scheme_without_attributes_exits_2_naming_field(self, tmp_path, capsys):
        # every profile would be the same product but for its price
        def mutate(c):
            c["scheme"]["attributes"] = []
            c["ground_truth"].update(true_wtp={}, wtp_sd={})
            del c["scenario"]

        config = write_config(tmp_path, mutate)
        out = tmp_path / "x"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert "error: config.scheme.attributes must list at least one attribute\n" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        def mutate(c):
            c["simulation"]["typo_field"] = 1

        config = write_config(tmp_path, mutate)
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "typo_field" in capsys.readouterr().err

    def test_missing_ground_truth_exits_2(self, tmp_path, capsys):
        def mutate(c):
            del c["ground_truth"]

        config = write_config(tmp_path, mutate)
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "ground_truth" in capsys.readouterr().err


class TestFit:
    def test_malformed_header_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / "choices.csv").write_text("bad,header\n1,2\n", encoding="utf-8")
        code = cli.main(["fit", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "header" in capsys.readouterr().err

    def test_header_only_csv_exits_2_naming_the_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        data = tmp_path / "header_only.csv"
        scheme = load_run_config(config).scheme
        data.write_text(",".join(choices_header(scheme)) + "\n", encoding="utf-8")
        code = cli.main(["fit", "--config", str(config), "--out", str(tmp_path / "run"), "--data", str(data)])
        assert code == 2
        assert f"{data}: the survey table has no rows" in capsys.readouterr().err

    def test_sampler_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0

        def explode(*args, **kwargs):
            raise FitError("too many divergences")

        monkeypatch.setattr(cli, "sample", explode)
        code = cli.main(["fit", "--config", str(config), "--out", str(out)])
        assert code == 3
        assert "divergences" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["1", "2", "3"])
    def test_too_few_draws_exits_2_naming_field(self, tmp_path, capsys, draws):
        # split R-hat needs two draws in each half of every chain
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        code = cli.main(["fit", "--config", str(config), "--out", str(out), "--draws", draws])
        assert code == 2
        assert "draws_per_chain must be >= 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("a_price", "inf", "row 4: price must be finite and positive"),
            ("a_price", "1e309", "row 4: price must be finite and positive"),
            ("a_price", "nan", "row 4: price must be finite and positive"),
            ("chose_a", "", "row 4: chose_a must be 0 or 1, got ''"),  # a task no one answered
            ("chose_a", "1,0", "row 4 has 12 fields, expected 11"),  # one field too many
        ],
        ids=["inf", "1e309", "nan", "unanswered", "extra-field"],
    )
    def test_bad_cell_exits_2_naming_the_row(self, tmp_path, capsys, column, value, message):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "choices.csv").read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        fields[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(fields)
        data = tmp_path / "bad_cell.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["fit", "--config", str(config), "--out", str(tmp_path / "fit"), "--data", str(data)])
        assert code == 2
        assert f"{data}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("chains, threads", [("1", "1"), ("2", "2")], ids=["serial", "pool"])
    def test_draw_count_too_large_to_hold_exits_2_before_warmup(
        self, tmp_path, monkeypatch, capsys, chains, threads
    ):
        # each chain makes its draws' array before warmup; a warmup
        # transition fails the test, in a forked pool worker as well
        def no_warmup(*args):
            raise AssertionError("a warmup transition ran")

        config = write_config(tmp_path, lambda c: c["simulation"].update(n_respondents=20, tasks_per_respondent=5))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        monkeypatch.setenv("CONJOINT_WTP_THREADS", threads)
        monkeypatch.setattr(nuts, "_transition", no_warmup)
        argv = ["fit", "--config", str(config), "--out", str(out), "--chains", chains, "--warmup", "10"]
        assert cli.main([*argv, "--draws", str(2**62)]) == 2
        message = f"error: config.model.draws_per_chain, {2**62}, is too many draws to hold\n"
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["choices.csv", "provenance.json"]

    def test_non_integer_worker_setting_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        monkeypatch.setenv("CONJOINT_WTP_THREADS", "two")
        assert cli.main(["fit", "--config", str(config), "--out", str(out)]) == 2
        assert "CONJOINT_WTP_THREADS must be an integer, got 'two'" in capsys.readouterr().err

    def test_smoke_fit_on_full_size_dataset_under_60s(self, tmp_path):
        def mutate(c):
            c["simulation"]["n_respondents"] = 300
            c["simulation"]["tasks_per_respondent"] = 20

        config = write_config(tmp_path, mutate)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        start = time.perf_counter()
        code = cli.main(
            ["fit", "--config", str(config), "--out", str(out),
             "--chains", "1", "--draws", "50", "--warmup", "50"]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0
        assert (out / "posterior.jsonl").exists()
        assert (out / "diagnostics.json").exists()

    def test_fit_on_a_ragged_csv(self, tmp_path):
        # Respondent r keeps 2 + r % 7 of its 10 tasks: 2 to 8 tasks each.
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "choices.csv").read_text(encoding="utf-8").splitlines()
        kept = [
            line for line in lines[1:]
            if int(line.split(",")[1]) < 2 + int(line.split(",")[0]) % 7
        ]
        data = tmp_path / "ragged.csv"
        data.write_text("\n".join([lines[0], *kept]) + "\n", encoding="utf-8")
        fit_out = tmp_path / "fit"
        code = cli.main(
            ["fit", "--config", str(config), "--out", str(fit_out), "--data", str(data),
             "--chains", "2", "--warmup", "100", "--draws", "100"]
        )
        assert code == 0
        draws = read_posterior_jsonl(fit_out / "posterior.jsonl")
        assert draws.respondent_ids == tuple(range(25))
        assert draws.n_draws == 200
        columns = draws.columns
        expected = [f"mu[{c}]" for c in columns] + [f"sigma[{c}]" for c in columns]
        expected += [f"z[{r},{c}]" for r in range(25) for c in columns]
        with open(fit_out / "diagnostics.json", encoding="utf-8") as f:
            diagnostics = json.load(f)
        assert list(diagnostics["r_hat"]) == expected
        assert list(diagnostics["effective_sample_size"]) == expected


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fitted")
    config = write_config(tmp)
    out = tmp / "run"
    assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    return config, out


@pytest.fixture(scope="module")
def foreign_fits(fitted_run, tmp_path_factory):
    """Output directories of fits other than fitted_run's: one of a survey
    with fewer respondents, and three of its own survey: on one chain, at
    another seed with more draws, and at its seed with more draws."""
    config, run_dir = fitted_run
    tmp = tmp_path_factory.mktemp("foreign")
    other = write_config(tmp, lambda c: c["simulation"].update(n_respondents=12), name="other.json")
    fits = {name: tmp / name for name in ("other-survey", "other-chain-count", "other-seed", "other-draws")}
    assert cli.main(["simulate", "--config", str(other), "--out", str(fits["other-survey"])]) == 0
    assert cli.main(["fit", "--config", str(other), "--out", str(fits["other-survey"])]) == 0
    for name, flags in (
        ("other-chain-count", ["--chains", "1"]),
        ("other-seed", ["--seed", "7", "--draws", "150"]),
        ("other-draws", ["--draws", "150"]),
    ):
        argv = ["fit", "--config", str(config), "--out", str(fits[name]), *flags]
        assert cli.main([*argv, "--data", str(run_dir / "choices.csv")]) == 0
    return fits


class TestWtp:
    def test_without_truth_skips_recovery(self, fitted_run, tmp_path):
        _, run_dir = fitted_run
        out = tmp_path / "wtp_only"
        code = cli.main(
            ["wtp", "--posterior", str(run_dir / "posterior.jsonl"), "--out", str(out)]
        )
        assert code == 0
        header, *rows = (out / "wtp_summary.csv").read_text(encoding="utf-8").splitlines()
        mass = header.split(",").index("hdi_mass")
        assert [row.split(",")[mass] for row in rows] == ["0.95"] * 4
        assert (out / "wtp_draws.csv").exists()
        assert not (out / "recovery.json").exists()

    def test_with_truth_writes_recovery(self, fitted_run, tmp_path):
        _, run_dir = fitted_run
        out = tmp_path / "wtp_truth"
        code = cli.main(
            [
                "wtp",
                "--posterior", str(run_dir / "posterior.jsonl"),
                "--truth", str(run_dir / "provenance.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "recovery.json", encoding="utf-8") as f:
            recovery = json.load(f)
        assert set(recovery) == {"overall_pass", "features"}

    def test_without_truth_removes_an_earlier_recovery(self, fitted_run, tmp_path):
        _, run_dir = fitted_run
        out = str(tmp_path / "wtp")
        posterior = str(run_dir / "posterior.jsonl")
        truth = str(run_dir / "provenance.json")
        assert cli.main(["wtp", "--posterior", posterior, "--truth", truth, "--out", out]) == 0
        assert (tmp_path / "wtp" / "recovery.json").exists()
        assert cli.main(["wtp", "--posterior", posterior, "--out", out]) == 0
        assert not (tmp_path / "wtp" / "recovery.json").exists()

    def test_truth_naming_a_missing_feature_changes_no_file(self, fitted_run, tmp_path, capsys):
        _, run_dir = fitted_run
        out = tmp_path / "wtp"
        posterior = str(run_dir / "posterior.jsonl")
        good = str(run_dir / "provenance.json")
        assert cli.main(["wtp", "--posterior", posterior, "--truth", good, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"wtp_summary.csv", "wtp_draws.csv", "recovery.json"} <= set(before)

        truth = copy.deepcopy(BASE_CONFIG["ground_truth"])
        truth["true_wtp"].update({"camera:Pro": 999.0, "frame:Carbon": 50.0})
        truth["wtp_sd"]["frame:Carbon"] = 10.0
        bad = tmp_path / "bad.json"
        write_json(bad, truth)
        code = cli.main(["wtp", "--posterior", posterior, "--truth", str(bad), "--out", str(out)])
        assert code == 2
        assert "no WTP summary for ground-truth feature 'frame:Carbon'" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_positive_price_posterior_exits_4(self, fitted_run, tmp_path, capsys):
        _, run_dir = fitted_run
        draws = read_posterior_jsonl(run_dir / "posterior.jsonl")
        doctored = copy.deepcopy(draws)
        flip = max(1, int(0.002 * doctored.n_draws) + 1)
        doctored.mu[:flip, -1] = 0.5
        path = tmp_path / "bad_posterior.jsonl"
        write_posterior_jsonl(path, doctored)
        code = cli.main(["wtp", "--posterior", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "price" in capsys.readouterr().err


class TestRevenue:
    def test_single_price_grid_warns_and_reports_it(self, tmp_path, capsys):
        def mutate(c):
            c["scenario"]["price_grid"] = [999.0]

        config = write_config(tmp_path, mutate)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "single point" in captured.err
        with open(out / "report.json", encoding="utf-8") as f:
            report = json.load(f)
        assert report["revenue"]["argmax_price"] == 999.0

    def test_unknown_upgrade_exits_2(self, fitted_run, tmp_path, capsys):
        # the scenario is checked against the scheme as the config is read
        def mutate(c):
            c["scenario"]["upgrades"] = {"camera": "Pro", "antenna": "5G"}

        config = write_config(tmp_path, mutate)
        _, run_dir = fitted_run
        out = tmp_path / "run"
        code = cli.main(
            ["revenue", "--config", str(config), "--out", str(out),
             "--posterior", str(run_dir / "posterior.jsonl")]
        )
        assert code == 2
        assert "config.scenario: unknown attribute 'antenna' in profile" in capsys.readouterr().err
        assert not out.exists()

    def test_standalone_revenue_merges_report(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        (out / "report.json").unlink()
        code = cli.main(["revenue", "--config", str(config), "--out", str(out)])
        assert code == 0
        with open(out / "report.json", encoding="utf-8") as f:
            report = json.load(f)
        assert list(report["revenue"]) == REVENUE_KEYS
        curve_lines = (out / "revenue_curve.csv").read_text(encoding="utf-8").splitlines()
        for line in curve_lines[1:]:
            price, mean, low, high = (float(v) for v in line.split(","))
            assert 0.0 <= mean <= price

    @pytest.mark.parametrize(
        "case", ["own-run", "other-seed", "other-config", "other-seed-posterior", "other-draws-posterior"]
    )
    def test_revenue_merges_only_into_its_own_runs_report(self, fitted_run, foreign_fits, tmp_path, capsys, case):
        # the fitted run's report and posterior, then standalone revenue at
        # another seed, for another bundle, or over a foreign fit's posterior
        # (foreign_fits: one at seed 7, one of 150 draws a chain)
        config, run_dir = fitted_run
        out = tmp_path / "o"
        out.mkdir()
        shutil.copy(run_dir / "report.json", out)
        copy_posterior(run_dir / "posterior.jsonl", out)
        posterior = out / "posterior.jsonl"
        if case == "other-config":
            config = write_config(tmp_path, lambda c: c["scenario"].update(upgrades={"camera": "Pro"}), "other.json")
        argv = ["revenue", "--config", str(config), "--out", str(out)]
        if case == "other-seed":
            argv += ["--seed", "7"]
        elif case.endswith("-posterior"):
            posterior = foreign_fits[case.removesuffix("-posterior")] / "posterior.jsonl"
            argv += ["--posterior", str(posterior)]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code = cli.main(argv)
        if case == "own-run":
            assert code == 0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            assert report["wtp"] and report["quality"] and list(report["revenue"]) == REVENUE_KEYS
            return
        assert code == 2
        fault = {
            "other-seed": "its seed is not this run's",
            "other-config": "its config.scenario is not this run's",
            "other-seed-posterior": f"its seed is not the posterior's in {posterior}",
            "other-draws-posterior": f"its config.model is not the posterior's in {posterior}",
        }[case]
        assert f"error: {out / 'report.json'} is from another run: {fault}\n" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _scenario_typo(c):
    c["scenario"]["upgrades"] = {"camera": "pro"}


def _truth_names_a_foreign_column(c):
    for key in ("true_wtp", "wtp_sd"):
        c["ground_truth"][key]["camera:Ultra"] = 300.0


def _truth_lacks_a_column(c):
    for key in ("true_wtp", "wtp_sd"):
        del c["ground_truth"][key]["camera:Pro"]


def _empty_price_grid(c):
    c["simulation"]["price_grid"] = []


def _non_finite_prices_in_grid(c):
    c["simulation"]["price_grid"] = [math.inf, 899.0, math.nan]


def _one_chain_of_50_draws(c):
    c["model"].update(chains=1, draws_per_chain=50)


def _nan_feature_prior_mean(c):
    c["model"]["prior_mu_feature"] = {"mean": math.nan}


def _infinite_price_prior_sd(c):
    c["model"]["prior_mu_price"] = {"sd": math.inf}


def _infinite_sigma_prior_sd(c):
    c["model"]["prior_sigma_sd"] = math.inf


class TestConfigCheckedBeforeAnyStage:
    @pytest.mark.parametrize(
        "mutate, start, message",
        [
            (_scenario_typo, "simulate", "config.scenario: unknown level 'pro' for attribute 'camera'"),
            (_truth_names_a_foreign_column, "fit",
             "config.ground_truth: ground truth WTP columns: missing [], unknown ['camera:Ultra']"),
            (_truth_lacks_a_column, "simulate",
             "config.ground_truth: ground truth WTP columns: missing ['camera:Pro'], unknown []"),
            (_empty_price_grid, "simulate", "config.simulation.price_grid must be non-empty"),
            (_non_finite_prices_in_grid, "simulate",
             "config.simulation.price_grid entries must be finite and positive, got [inf, nan]"),
            (_one_chain_of_50_draws, "fit", "config.model: chains x draws_per_chain is 50, an HDI needs 100"),
            (_nan_feature_prior_mean, "simulate", "config.model.prior_mu_feature.mean must be finite, got nan"),
            (_infinite_price_prior_sd, "simulate",
             "config.model.prior_mu_price.sd must be finite and positive, got inf"),
            (_infinite_sigma_prior_sd, "simulate", "config.model.prior_sigma_sd must be finite and positive, got inf"),
        ],
        ids=[
            "scenario-level", "truth-column", "truth-missing-column", "empty-price-grid", "non-finite-price-grid",
            "hdi-draws", "prior-mean-nan", "prior-sd-inf", "sigma-prior-inf",
        ],
    )
    def test_pipeline_exits_2_naming_the_field_and_writes_nothing(
        self, fitted_run, tmp_path, capsys, mutate, start, message
    ):
        config = write_config(tmp_path, mutate)
        out = tmp_path / "run"
        if start != "simulate":  # resume on the fitted run's survey
            out.mkdir()
            shutil.copy(fitted_run[1] / "choices.csv", out)
        before = sorted(p.name for p in out.iterdir()) if out.exists() else None
        code = cli.main(["pipeline", "--config", str(config), "--out", str(out), "--from", start])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == before


class TestPipeline:
    def test_end_to_end_report_and_files(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "report.json", encoding="utf-8") as f:
            report = json.load(f)
        assert report["stages_run"] == ["simulate", "fit", "wtp", "revenue"]
        for rel in report["files"].values():
            assert (out / rel).exists()
        assert set(report["timings"]) == {
            "simulate", "fit", "fit.sampling", "fit.diagnostics", "fit.posterior_write", "wtp", "revenue"
        }
        # the fit's steps are parts of its time; each figure is rounded to the millisecond
        steps = ("sampling", "diagnostics", "posterior_write")
        assert sum(report["timings"][f"fit.{s}"] for s in steps) <= report["timings"]["fit"] + 0.002
        assert report["quality"]["divergence_rate"] <= 0.05
        assert list(report["revenue"]) == REVENUE_KEYS
        assert not {"revenue", "purchase_prob"} & set(report["revenue"])

    @pytest.mark.parametrize(
        "stage, skipped",
        [("fit", ["choices.csv"]), ("wtp", ["choices.csv", "posterior.jsonl", "posterior.z.f8"])],
        ids=["fit", "wtp"],
    )
    def test_resume_from_fit_skips_simulation(self, tmp_path, stage, skipped):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in skipped}
        first = strip_timings(out / "report.json")
        code = cli.main(
            ["pipeline", "--config", str(config), "--out", str(out), "--from", stage]
        )
        assert code == 0
        report = strip_timings(out / "report.json")
        stages = ["simulate", "fit", "wtp", "revenue"]
        assert report["stages_run"] == stages[stages.index(stage) :]
        assert {name: (out / name).read_bytes() for name in skipped} == before
        # the resumed stages reproduce the first run's results from its artifacts
        assert {k: v for k, v in report.items() if k != "stages_run"} == {
            k: v for k, v in first.items() if k != "stages_run"
        }

    def test_config_echo_reproduces_run_bit_identically(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out_a)]) == 0
        report = strip_timings(out_a / "report.json")
        echoed = dict(report["config"])
        echoed.pop("output_dir", None)
        echo_path = tmp_path / "echo.json"
        write_json(echo_path, echoed)
        out_b = tmp_path / "b"
        assert cli.main(["pipeline", "--config", str(echo_path), "--out", str(out_b)]) == 0
        assert (out_a / "choices.csv").read_bytes() == (out_b / "choices.csv").read_bytes()
        for name in ("posterior.jsonl", "posterior.z.f8"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report_b = strip_timings(out_b / "report.json")
        report_a = strip_timings(out_a / "report.json")
        report_a["config"].pop("output_dir", None)
        report_b["config"].pop("output_dir", None)
        assert report_a == report_b

    def test_seed_flag_changes_results(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli.main(
            ["simulate", "--config", str(config), "--out", str(out_b), "--seed", "7"]
        ) == 0
        assert (out_a / "choices.csv").read_bytes() != (out_b / "choices.csv").read_bytes()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        # the flag's value goes through the same check as config.seed
        config = write_config(tmp_path)
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_missing_output_dir_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = cli.main(["simulate", "--config", str(config)])
        assert code == 2
        assert "output" in capsys.readouterr().err

    def test_missing_config_file_exits_5(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 5
        assert "nope.json" in capsys.readouterr().err

    def test_resume_from_revenue_runs_only_revenue(self, fitted_run):
        config, out = fitted_run
        code = cli.main(
            ["pipeline", "--config", str(config), "--out", str(out), "--from", "revenue"]
        )
        assert code == 0
        with open(out / "report.json", encoding="utf-8") as f:
            report = json.load(f)
        assert report["stages_run"] == ["revenue"]
        assert report["revenue"] is not None
        assert report["quality"] is not None  # picked up from diagnostics.json


def test_console_entry_point_runs():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "conjoint_wtp.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "conjoint-wtp" in result.stdout


def test_cli_import_loads_no_multiprocessing_and_pipeline_loads_no_scipy(tmp_path):
    # the program runs on numpy alone: no command loads scipy, and only a
    # pooled `run_nuts` imports multiprocessing, so importing the CLI does not
    import os
    import subprocess
    import sys

    from tests.helpers import DEMO_CONFIG

    probe = (
        "import sys, conjoint_wtp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

    argv = ["pipeline", "--config", str(DEMO_CONFIG), "--out", str(tmp_path)]
    argv += ["--chains", "2", "--warmup", "50", "--draws", "50"]
    probe = (
        f"import sys; from conjoint_wtp.cli import main; code = main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "CONJOINT_WTP_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "0 []"


def test_demo_config_matches_presets():
    from conjoint_wtp.config import load_run_config
    from conjoint_wtp.presets import DEFAULT_PRICE_GRID, smartphone_scheme, smartphone_truth
    from tests.helpers import DEMO_CONFIG

    config = load_run_config(DEMO_CONFIG)
    assert config.scheme == smartphone_scheme()
    assert config.ground_truth == smartphone_truth()
    assert config.simulation.price_grid == DEFAULT_PRICE_GRID
    assert config.model.chains == 4
    assert config.model.draws_per_chain == 2000
    assert config.model.warmup_per_chain == 500
    assert config.simulation.n_respondents == 300
    assert config.simulation.tasks_per_respondent == 20


# (field, value, the message after "<path>: ") for a diagnostics.json with
# that one field changed; a value of None leaves the key out.
MALFORMED_DIAGNOSTICS = [
    ("divergence_count", "lots", "diagnostics.divergence_count must be an integer, got 'lots'"),
    ("divergence_count", -1, "diagnostics.divergence_count must be >= 0, got -1"),
    ("divergence_count", True, "diagnostics.divergence_count must be an integer, got True"),
    ("divergence_rate", "high", "diagnostics.divergence_rate must be a number, got 'high'"),
    ("divergence_rate", 7.0, "diagnostics.divergence_rate must be in [0, 1], got 7.0"),
    ("mean_accept_prob", [-3, 42], "diagnostics.mean_accept_prob entries must be in [0, 1] or null, got -3.0"),
    ("mean_accept_prob", [0.8, 42], "diagnostics.mean_accept_prob entries must be in [0, 1] or null, got 42.0"),
    ("step_size", [-1, 0], "diagnostics.step_size entries must be finite and > 0, got -1.0"),
    ("step_size", [0.1, 0], "diagnostics.step_size entries must be finite and > 0, got 0.0"),
    ("grad_evals_warmup", [-5, -6], "diagnostics.grad_evals_warmup entries must be >= 0, got -5"),
    ("grad_evals_sampling", [10, -1], "diagnostics.grad_evals_sampling entries must be >= 0, got -1"),
    ("mean_accept_prob", [0.9, "x"], "diagnostics.mean_accept_prob[1] must be a number, got 'x'"),
    ("warnings", 7, "diagnostics.warnings must be a list"),
    ("warnings", ["ok", 7], "diagnostics.warnings[1] must be a string, got 7"),
    ("step_size", "x", "diagnostics.step_size must be a list"),
    ("grad_evals_warmup", [1.5], "diagnostics.grad_evals_warmup[0] must be an integer, got 1.5"),
    ("effective_sample_size", [], "diagnostics.effective_sample_size must be a JSON object"),
    ("bogus", 1, "unknown key(s) in diagnostics: bogus"),
    ("grad_evals_sampling", None, "missing required field diagnostics.grad_evals_sampling"),
    # a diagnostics.json written before it recorded its fit's config and seed
    ("config", None, "missing required field diagnostics.config"),
    ("seed", None, "missing required field diagnostics.seed"),
    ("seed", "7", "diagnostics.seed must be an integer, got '7'"),
    # each per-chain field holds config.chains entries
    ("step_size", [0.1], "diagnostics.step_size must hold config.chains = 2 entries, got 1"),
]


def _one_chain_of_20(header, rows):
    """Keep the first 20 draws, as one chain: too few for the HDIs of wtp and revenue."""
    header["config"].update(chains=1, draws_per_chain=20)
    del rows[20:]


def _price_column_only(header, rows):
    """Keep only the price column, which has no WTP to write."""
    f, j = len(header["columns"]), header["columns"].index("price")
    header["columns"] = ["price"]
    header["standardization"] = {k: [v[j]] for k, v in header["standardization"].items()}
    for row in rows:
        row["params"] = row["params"][j::f]  # mu, then sigma


# (id, change to the header object and the draw rows, the message after
# "<path>: ") for posterior files the reader once read without an error, or
# whose draw lines break the v3 form. Beside each lies the z file of the
# draws kept, which the header's z_sha256 names.
LAX_POSTERIORS = [
    ("divergent-string", lambda h, rows: rows[0].update(divergent="false"),
     "line 2: divergent must be true or false, got 'false'"),
    ("fractional-respondent-id", lambda h, rows: h.update(respondent_ids=[0.9, *range(1, 25)]),
     "bad header: posterior.respondent_ids[0] must be an integer, got 0.9"),
    ("repeated-respondent-id", lambda h, rows: h.update(respondent_ids=[0, 0, *range(2, 25)]),
     "bad header: posterior.respondent_ids must not repeat an id"),
    ("string-seed", lambda h, rows: h.update(seed="7"), "bad header: posterior.seed must be an integer, got '7'"),
    ("fractional-seed", lambda h, rows: h.update(seed=7.9), "bad header: posterior.seed must be an integer, got 7.9"),
    ("fractional-chain", lambda h, rows: rows[0].update(chain=0.7), "line 2: chain must be 0, got 0.7"),
    ("negative-chain", lambda h, rows: rows[0].update(chain=-3), "line 2: chain must be 0, got -3"),
    ("chain-past-the-last", lambda h, rows: rows[-1].update(chain=9), "line 241: chain must be 1, got 9"),
    ("draw-out-of-place", lambda h, rows: rows[4].update(draw=3), "line 6: draw must be 4, got 3"),
    ("string-scales", lambda h, rows: h["standardization"].update(scale=["1.0"] * len(h["columns"])),
     "bad header: posterior.standardization.scale[0] must be a number, got '1.0'"),
    ("more-chains-than-draws", lambda h, rows: h["config"].update(chains=7),
     "240 draws, the header's chains x draws_per_chain is 840"),
    ("last-draw-missing", lambda h, rows: rows.pop(),
     "239 draws, the header's chains x draws_per_chain is 240"),
    ("draw-past-the-last", lambda h, rows: rows.append({**rows[-1], "draw": 240}),
     "line 242: more draws than the header's chains x draws_per_chain, 240"),
    ("price-column-only", _price_column_only,
     "bad header: posterior.columns must hold a feature besides the price column 'price'"),
    ("repeated-column", lambda h, rows: h["columns"].__setitem__(1, h["columns"][0]),
     "bad header: posterior.columns must not repeat a name"),
    # the price is the last column; a header naming another would have `wtp`
    # divide by that column and report a false sign-safety failure
    ("price-column-not-last", lambda h, rows: h.update(price_column="frame:Titanium"),
     "bad header: posterior.price_column 'frame:Titanium' is not the last column of "
     "['storage:256GB', 'storage:512GB', 'camera:Pro', 'frame:Titanium', 'price']"),
    ("foreign-param-layout", lambda h, rows: h.update(param_layout="z, sigma, mu (feature-major)"),
     "bad header: posterior.param_layout must be "
     "'params: mu, sigma; z: .z.f8 file, little-endian float64, draw-major then respondent-major', "
     "got 'z, sigma, mu (feature-major)'"),
    ("too-few-draws-for-an-hdi", _one_chain_of_20,
     "posterior.config: chains x draws_per_chain is 20, an HDI needs 100"),
    ("string-params", lambda h, rows: rows[0].update(params=[str(v) for v in rows[0]["params"]]),
     "line 2: params must be a list of 10 numbers, mu then sigma"),
    # a v1 file held z as decimals in params, a v2 file as base64 in each draw line
    ("v1-file", lambda h, rows: h.update(version=1), "not a conjoint-wtp-posterior v3 file"),
    ("v2-file", lambda h, rows: h.update(version=2), "not a conjoint-wtp-posterior v3 file"),
]

# (id, change to the flat z file or None to delete it, whether the header's
# z_sha256 is set to the changed file's, exit code, stderr line) for z files
# the reader refuses. The fitted run's z file holds 2 chains x 120 draws of
# 25 respondents x 5 columns; {z} is its path, {path} the posterior's.
Z_FILE_FAULTS = [
    ("z-file-missing", None, False, 5, "i/o error: [Errno 2] No such file or directory: '{z}'"),
    ("z-one-float-short", lambda z: z[:-1], False, 2,
     "error: {z}: 239992 bytes, expected 240 draws x 25 x 5 float64, 240000"),
    ("z-one-float-long", lambda z: [*z, 0.0], False, 2,
     "error: {z}: 240008 bytes, expected 240 draws x 25 x 5 float64, 240000"),
    ("z-nan-bits", lambda z: z_with_first_bits(z, NAN_BITS), True, 2,
     "error: {z}: the z of the draw on line 2 of {path} must be finite"),
    ("z-inf-bits", lambda z: z_with_first_bits(z, INF_BITS), True, 2,
     "error: {z}: the z of the draw on line 2 of {path} must be finite"),
    # the draws in reverse order: a z file of the same shape, as another fit leaves
    ("z-of-another-fit", lambda z: z.reshape(240, -1)[::-1], False, 2,
     "error: {z}: sha256 does not match the z_sha256 in {path}; the two are from different writes"),
]


# The JSON documents a command reads: (file name, the command given the bad
# file and the config, the posterior line it is or None for a whole file, the
# keys leading to a number field that a 5,000-digit integer makes invalid
# too, and what that field's own check says of it). diagnostics.json and
# report.json are read from --out, the others from the flag naming them.
JSON_DOCUMENTS = {
    "config": ("config.json", lambda bad, config: ["simulate", "--config", bad], None,
               ("ground_truth", "price_coef_mean"), "config.ground_truth.price_coef_mean must be a number"),
    "truth": ("provenance.json", lambda bad, config: ["wtp", "--truth", bad], None,
              ("ground_truth", "true_wtp", "camera:Pro"), "ground_truth.true_wtp.camera:Pro must be a number"),
    "diagnostics": ("diagnostics.json", lambda bad, config: ["pipeline", "--config", config, "--from", "wtp"], None,
                    ("divergence_rate",), "diagnostics.divergence_rate must be a number"),
    "report": ("report.json", lambda bad, config: ["revenue", "--config", config], None,
               ("config", "ground_truth", "price_coef_mean"), "config.ground_truth.price_coef_mean must be a number"),
    "header": ("posterior.jsonl", lambda bad, config: ["wtp", "--posterior", bad], 1,
               ("standardization", "scale", 0), "posterior.standardization.scale[0] must be a number"),
    "draw-line": ("posterior.jsonl", lambda bad, config: ["wtp", "--posterior", bad], 2,
                  ("draw",), "line 2: draw must be 0, got 9"),
}


class TestMalformedInputs:
    """Unreadable config, data, posterior, truth, diagnostics and report files
    exit 2 naming the problem."""

    @pytest.mark.parametrize("command", ["wtp", "revenue"])
    @pytest.mark.parametrize("case", [case[0] for case in LAX_POSTERIORS])
    def test_lax_posterior_exits_2_naming_the_field_or_line(self, fitted_run, tmp_path, capsys, command, case):
        # the fitted run's posterior: 2 chains x 120 draws over respondents 0..24
        mutate, message = next(c[1:] for c in LAX_POSTERIORS if c[0] == case)
        config, run_dir = fitted_run
        lines = (run_dir / "posterior.jsonl").read_text(encoding="utf-8").splitlines()
        header, rows = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        mutate(header, rows)
        path = tmp_path / "posterior.jsonl"
        z = z_values(run_dir / "posterior.jsonl").reshape(len(lines) - 1, -1)
        header["z_sha256"] = write_z(path, z[: len(rows)])  # one z per draw kept
        path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *rows]), encoding="utf-8")
        out = tmp_path / "o"
        argv = [command, "--posterior", str(path), "--out", str(out)]
        if command == "revenue":
            argv += ["--config", str(config)]
        assert cli.main(argv) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["wtp", "revenue"])
    @pytest.mark.parametrize("case", [case[0] for case in Z_FILE_FAULTS])
    def test_z_file_fault_exits_naming_the_z_file(self, fitted_run, tmp_path, capsys, command, case):
        edit, repin, code, message = next(c[1:] for c in Z_FILE_FAULTS if c[0] == case)
        config, run_dir = fitted_run
        copy_posterior(run_dir / "posterior.jsonl", tmp_path)
        path = tmp_path / "posterior.jsonl"
        if edit is None:
            z_path(path).unlink()
        else:
            sha256 = write_z(path, edit(z_values(path)))
            if repin:  # so the check after the sha256 sees the edit
                header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
                path.write_text(
                    json.dumps({**json.loads(header), "z_sha256": sha256}) + "\n" + "".join(rows), encoding="utf-8"
                )
        out = tmp_path / "o"
        argv = [command, "--posterior", str(path), "--out", str(out)]
        if command == "revenue":
            argv += ["--config", str(config)]
        assert cli.main(argv) == code
        assert message.format(z=z_path(path), path=path) + "\n" in capsys.readouterr().err
        assert not out.exists()

    def test_posterior_header_missing_field_exits_2(self, fitted_run, tmp_path, capsys):
        _, run_dir = fitted_run
        lines = (run_dir / "posterior.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["standardization"]
        path = tmp_path / "posterior.jsonl"
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
        code = cli.main(["wtp", "--posterior", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{path}: bad header: missing required field posterior.standardization" in capsys.readouterr().err

    def test_truth_file_that_is_not_json_exits_2(self, fitted_run, tmp_path, capsys):
        _, run_dir = fitted_run
        truth = tmp_path / "truth.json"
        truth.write_text("{not json", encoding="utf-8")
        code = cli.main(
            ["wtp", "--posterior", str(run_dir / "posterior.jsonl"), "--truth", str(truth),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "truth.json" in capsys.readouterr().err

    def test_truth_with_price_mean_above_the_ceiling_exits_2(self, fitted_run, tmp_path, capsys):
        # every respondent's price coefficient is drawn below PRICE_COEF_CEILING
        _, run_dir = fitted_run
        truth = tmp_path / "truth.json"
        write_json(truth, {**BASE_CONFIG["ground_truth"], "price_coef_mean": -1e-5})
        code = cli.main(
            ["wtp", "--posterior", str(run_dir / "posterior.jsonl"), "--truth", str(truth),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert f"{truth}: ground_truth.price_coef_mean must be finite and below" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_revenue_posterior_columns_must_be_the_schemes(self, fitted_run, tmp_path, capsys):
        # a last column named as the header's price, but not the scheme's
        config, run_dir = fitted_run
        lines = (run_dir / "posterior.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        header["columns"][-1] = header["price_column"] = "cost"
        copy_posterior(run_dir / "posterior.jsonl", tmp_path)
        path = tmp_path / "posterior.jsonl"
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
        out = tmp_path / "o"
        code = cli.main(["revenue", "--config", str(config), "--posterior", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: posterior feature columns do not match the configured scheme: " in err
        assert "'frame:Titanium', 'cost') vs (" in err and "'frame:Titanium', 'price')" in err
        assert not out.exists()

    def test_revenue_into_unreadable_report_exits_2(self, fitted_run, tmp_path, capsys):
        config, run_dir = fitted_run
        out = tmp_path / "o"
        out.mkdir()
        (out / "report.json").write_text("[1, 2", encoding="utf-8")
        code = cli.main(
            ["revenue", "--config", str(config), "--posterior", str(run_dir / "posterior.jsonl"),
             "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "report.json" in captured.err
        # the report is read before the stage writes its curve or prints its price
        assert "revenue-maximizing price" not in captured.out
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
        assert (out / "report.json").read_text(encoding="utf-8") == "[1, 2"

    @pytest.mark.parametrize("command", ["wtp", "revenue"])
    @pytest.mark.parametrize(
        "where, token",
        [("draw", "NaN"), ("draw", "Infinity"), ("draw", "1e309"), ("scale", "Infinity")],
    )
    def test_non_finite_posterior_exits_2(self, fitted_run, tmp_path, capsys, command, where, token):
        config, run_dir = fitted_run
        lines = (run_dir / "posterior.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        header, draw = json.loads(lines[0]), json.loads(lines[5])
        if where == "scale":
            header["standardization"]["scale"][0] = "@"
        else:
            draw["params"][0] = "@"
        lines[0], lines[5] = (json.dumps(obj).replace('"@"', token) + "\n" for obj in (header, draw))
        path = tmp_path / "posterior.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        argv = ["--posterior", str(path), "--out", str(tmp_path / "o")]
        if command == "revenue":
            argv += ["--config", str(config)]
        assert cli.main([command, *argv]) == 2
        err = capsys.readouterr().err
        if where == "scale":
            message = "bad header: posterior.standardization.scale entries must be finite and > 0, got inf"
            assert f"{path}: {message}" in err
        else:
            assert f"{path}: line 6: every parameter must be finite" in err

    @pytest.mark.parametrize("field, value", [case[:2] for case in MALFORMED_DIAGNOSTICS])
    def test_malformed_diagnostics_field_exits_2(self, fitted_run, tmp_path, capsys, field, value):
        # the quality section of a resumed pipeline reads these from disk
        message = next(m for f, v, m in MALFORMED_DIAGNOSTICS if (f, v) == (field, value))
        config, run_dir = fitted_run
        out = tmp_path / "o"
        out.mkdir()
        copy_posterior(run_dir / "posterior.jsonl", out)
        diagnostics = json.loads((run_dir / "diagnostics.json").read_text(encoding="utf-8"))
        diagnostics[field] = value
        if value is None:
            del diagnostics[field]
        bad = out / "diagnostics.json"
        write_json(bad, diagnostics)
        argv = ["pipeline", "--config", str(config), "--out", str(out), "--from", "revenue"]
        assert cli.main(argv) == 2
        assert f"error: {bad}: {message}\n" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["diagnostics.json", "posterior.jsonl", "posterior.z.f8"]

    @pytest.mark.parametrize("fit", ["other-survey", "other-chain-count", "other-seed", "other-draws"])
    def test_resume_refuses_diagnostics_from_another_fit(self, fitted_run, foreign_fits, tmp_path, capsys, fit):
        config, run_dir = fitted_run
        out = tmp_path / "o"
        out.mkdir()
        copy_posterior(run_dir / "posterior.jsonl", out)
        shutil.copy(foreign_fits[fit] / "diagnostics.json", out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        argv = ["pipeline", "--config", str(config), "--out", str(out), "--from", "wtp"]
        assert cli.main(argv) == 2
        fault = {
            "other-survey": "r_hat names other parameters than",
            "other-chain-count": "config is not",
            "other-seed": "seed is not",
            "other-draws": "config is not",
        }[fit]
        err = capsys.readouterr().err
        posterior = out / "posterior.jsonl"
        assert f"error: {out / 'diagnostics.json'} is from another fit: its {fault} the posterior's in {posterior}\n" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("flags, field", [(["--seed", "7"], "seed"), (["--chains", "3"], "config.model")])
    def test_resume_refuses_a_seed_or_model_other_than_the_fits(self, fitted_run, tmp_path, capsys, flags, field):
        # the resumed report would state this run's seed and model beside
        # the quality and WTP of the fit at the posterior's
        config, run_dir = fitted_run
        out = tmp_path / "o"
        shutil.copytree(run_dir, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        argv = ["pipeline", "--config", str(config), "--out", str(out), "--from", "wtp", *flags]
        assert cli.main(argv) == 2
        message = f"error: this run's {field} is not the posterior's in {out / 'posterior.jsonl'}\n"
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "case",
        [
            "config", "data", "posterior", "diagnostics",
            *(f"{document}-{fault}" for document in JSON_DOCUMENTS for fault in ("nested", "long-int")),
        ],
    )
    def test_unreadable_input_exits_2_naming_the_file(self, fitted_run, tmp_path, capsys, case):
        # the first three files start with a byte that is not UTF-8; the
        # diagnostics file is JSON whose r_hat is a list, not an object. A
        # JSON document is also refused nested past the parser's depth, or
        # holding a 5,000-digit integer, and --out is left as it was.
        config, run_dir = fitted_run
        out = tmp_path / "o"
        out.mkdir()
        copy_posterior(run_dir / "posterior.jsonl", out)
        fault = next((f for f in ("nested", "long-int") if case.endswith(f"-{f}")), None)
        if fault:
            name, command, line, keys, field = JSON_DOCUMENTS[case.removesuffix(f"-{fault}")]
            bad = (out if name in ("diagnostics.json", "report.json") else tmp_path) / name
            text = (config if name == "config.json" else run_dir / name).read_text(encoding="utf-8")
            # a posterior's fault goes in its header (line 1) or its first draw line (line 2)
            parts, k = ([text], 0) if line is None else (text.splitlines(keepends=True), line - 1)
            parts[k] = ("[" * 100_000 if fault == "nested" else with_long_int(json.loads(parts[k]), *keys)) + "\n"
            bad.write_text("".join(parts), encoding="utf-8")
            argv = command(str(bad), str(config))
            where = {None: bad, 1: f"{bad}: bad header", 2: f"{bad}: line 2"}[line]
            message = "not valid JSON: maximum recursion depth exceeded" if fault == "nested" else long_int_fault(field)
            expected = f"error: {where}: {message}"
        elif case == "config":
            bad = tmp_path / "config.json"
            bad.write_bytes(b"\xff" + config.read_bytes())
            argv = ["simulate", "--config", str(bad)]
            expected = f"error: {bad}: not UTF-8 text: "
        elif case == "data":
            bad = tmp_path / "choices.csv"
            bad.write_bytes(b"\xff" + (run_dir / "choices.csv").read_bytes())
            argv = ["fit", "--config", str(config), "--data", str(bad)]
            expected = f"error: {bad}: not UTF-8 text: "
        elif case == "posterior":
            bad = tmp_path / "posterior.jsonl"
            bad.write_bytes(b"\xff" + (run_dir / "posterior.jsonl").read_bytes())
            argv = ["wtp", "--posterior", str(bad)]
            expected = f"error: {bad}: not UTF-8 text: "
        else:
            bad = out / "diagnostics.json"
            write_json(bad, {"r_hat": [1.0]})
            argv = ["pipeline", "--config", str(config), "--from", "wtp"]
            expected = f"error: {bad}: diagnostics.r_hat must be a JSON object"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if fault == "long-int" and not DIGIT_LIMIT:  # refused by the field's own check
            assert field in err
        else:
            assert expected in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
