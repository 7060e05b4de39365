"""The three workloads: their commands, output checks and trace probes.

Each workload runs the program's CLI as child processes. Paths are under
the run's work directory; `inputs/` is written at set-up, `out/` by the
timed commands.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import inputs
import oracles

# Posterior-population prefixes whose bulk ESS ess_per_s averages.
POPULATION_PREFIXES = ("mu[", "sigma[")
# demo_pipeline: each WTP mean within this share of the configured truth.
DEMO_WTP_TOLERANCE = 0.15


def mean_population_ess(diagnostics_path: Path) -> float:
    with open(diagnostics_path, encoding="utf-8") as f:
        ess = json.load(f)["effective_sample_size"]
    values = [v for k, v in ess.items() if k.startswith(POPULATION_PREFIXES) and v is not None]
    return sum(values) / len(values)


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class Workload:
    name = ""
    threads = 1  # CONJOINT_WTP_THREADS for every command

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.out = work / "out"

    def commands(self) -> list[list[str]]:
        """CLI argument lists, run in order."""
        raise NotImplementedError

    fit_command: int | None = None  # index of the command that fits

    def ess_per_s(self, walls: list[float], wall: float) -> float:
        return mean_population_ess(self.out / "diagnostics.json") / walls[self.fit_command]

    def check(self) -> list[str]:
        raise NotImplementedError

    def probe_args(self) -> list[str]:
        """tracer.py probe arguments for layers the commands do not reach."""
        raise NotImplementedError


class DemoPipeline(Workload):
    name = "demo_pipeline"
    threads = 2

    fit_command = 0

    def commands(self):
        return [["pipeline", "--config", str(self.inputs / "demo.json"), "--out", str(self.out)]]

    def check(self):
        config = inputs.demo_run_config()
        truth = config["ground_truth"]
        failures = []
        recovery = _read_json(self.out / "recovery.json")
        if not recovery["overall_pass"]:
            failures.append("recovery.json: overall_pass is false")
        for row in recovery["features"]:
            want = truth["true_wtp"][row["feature"]]
            if abs(row["mean"] - want) > DEMO_WTP_TOLERANCE * abs(want):
                failures.append(f"wtp[{row['feature']}] mean {row['mean']:.2f} vs truth {want}")
        curve = _read_json(self.out / "report.json")["revenue"]
        scenario = config["scenario"]
        true_revenue, _ = oracles.true_revenue_curve(
            truth,
            inputs.feature_columns(config),
            inputs.bundle_offsets(config, scenario["upgrades"]),
            scenario["baseline"]["price"],
            np.asarray(curve["prices"]),
        )
        return failures + oracles.check_revenue_against_truth(curve, true_revenue)

    def probe_args(self):
        return ["--csv", str(self.out / "choices.csv"), "--posterior", str(self.out / "posterior.jsonl")]


class FitRagged(Workload):
    name = "fit_ragged"
    fit_command = 0

    def commands(self):
        return [
            [
                "fit",
                "--config", str(self.inputs / "ragged.json"),
                "--data", str(self.inputs / "ragged.csv"),
                "--out", str(self.out),
            ]
        ]

    def check(self):
        config = inputs.load_demo_config()
        failures = []
        with open(self.out / "posterior.jsonl", encoding="utf-8") as f:
            header = json.loads(f.readline())
            mu = np.array([json.loads(line)["params"][: len(header["columns"])] for line in f])
        n_draws = inputs.RAGGED_CHAINS * inputs.RAGGED_DRAWS
        if mu.shape[0] != n_draws:
            failures.append(f"posterior has {mu.shape[0]} draws, expected {n_draws}")
        n_params = len(header["columns"]) * (2 + inputs.RAGGED_RESPONDENTS)
        if len(_read_json(self.out / "diagnostics.json")["r_hat"]) != n_params:
            failures.append(f"diagnostics.json does not cover all {n_params} parameters")
        scale = np.asarray(header["standardization"]["scale"], dtype=float)
        wtp = oracles.wtp_per_draw(mu, scale)
        features = header["columns"][:-1]
        return failures + oracles.check_truth_in_posterior(
            config["ground_truth"]["true_wtp"], wtp, features
        )

    def probe_args(self):
        n = inputs.RAGGED_RESPONDENTS
        tasks = round(sum(inputs.RAGGED_TASKS) / 2)
        return [
            "--simulate", str(n), str(tasks),
            "--csv", str(self.inputs / "ragged.csv"),
            "--posterior", str(self.out / "posterior.jsonl"),
            "--wtp",
            "--revenue", str(inputs.DEMO_CONFIG),
        ]


class Reprice(Workload):
    name = "reprice"

    def commands(self):
        posterior = str(self.inputs / "posterior.jsonl")
        cmds = [["wtp", "--posterior", posterior, "--out", str(self.out / "wtp")]]
        for k in range(len(inputs.REPRICE_BUNDLES)):
            cmds.append(
                [
                    "revenue",
                    "--config", str(self.inputs / f"bundle{k}.json"),
                    "--posterior", posterior,
                    "--out", str(self.out / f"bundle{k}"),
                ]
            )
        return cmds

    def ess_per_s(self, walls, wall):
        # The repriced draws are independent, so their ESS is their count.
        return inputs.REPRICE_CHAINS * inputs.REPRICE_DRAWS / wall

    def check(self):
        config = inputs.load_demo_config()
        d = inputs.reprice_draws(self.seed, config, with_z=False)
        features = inputs.feature_columns(config)[:-1]
        wtp = oracles.wtp_per_draw(d.mu, d.scale)
        header, rows = _read_table(self.out / "wtp" / "wtp_summary.csv")
        summary = {r[0]: (float(r[2]), float(r[3]), float(r[4])) for r in rows}
        header, rows = _read_table(self.out / "wtp" / "wtp_draws.csv")
        table = np.array([[float(v) for v in r] for r in rows])
        failures = []
        if header != features:
            failures.append(f"wtp_draws.csv columns {header}, expected {features}")
        failures += oracles.check_wtp_against_draws(features, summary, table, wtp)

        keep = d.mu[:, -1] / d.scale[-1] < -inputs.WTP_PRICE_EPS
        mu_raw, sigma_raw = d.mu[keep] / d.scale, d.sigma[keep] / d.scale
        for k, upgrades in enumerate(inputs.REPRICE_BUNDLES):
            bundle = inputs.reprice_run_config(self.seed, upgrades)
            scenario = bundle["scenario"]
            curve = _read_json(self.out / f"bundle{k}" / "report.json")["revenue"]
            prob, var = oracles.revenue_quadrature(
                mu_raw,
                sigma_raw,
                inputs.bundle_offsets(bundle, upgrades),
                scenario["baseline"]["price"],
                np.asarray(scenario["price_grid"], dtype=float),
            )
            failures += [
                f"bundle{k}: {msg}"
                for msg in oracles.check_revenue_against_quadrature(
                    curve, prob, var, scenario["market_size"]
                )
            ]
        return failures

    def probe_args(self):
        return ["--simulate", str(inputs.REPRICE_RESPONDENTS), "20", "--fit"]


WORKLOADS = {w.name: w for w in (DemoPipeline, FitRagged, Reprice)}
