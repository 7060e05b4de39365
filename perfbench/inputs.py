"""Inputs the benchmark makes, with numpy only.

Nothing here imports the program: the ragged survey and the repriced
posterior are drawn by the benchmark itself, so the checks in
`oracles.py` can recompute what the program should produce from the same
arrays. The repriced posterior is drawn from the run's seed; the fit
workloads use fixed seeds (see RAGGED_SURVEY_SEED).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "configs" / "smartphone.json"

# The program's ceiling on consumer price coefficients
# (conjoint_wtp.simulate.PRICE_COEF_CEILING); repeated here so that the
# oracles do not import the program they check.
PRICE_COEF_CEILING = -1e-4
WTP_PRICE_EPS = 1e-8

# Iteration counts of the cut demo fit (per chain; 4 chains, 2 workers),
# at the config's own seed: max population R-hat 1.023, under the 1.05
# warning line.
DEMO_WARMUP = 250
DEMO_DRAWS = 250

# fit_ragged: respondents, their task-count range, and the serial fit. The
# survey is drawn from a fixed seed and the chains use the config's seed:
# over ten seeds, a fit this short spreads its ESS per second by about a
# fifth of the median (interquartile range), as wide as any bound a steady
# benchmark can hold, so both fit workloads run the same data and chains
# on every run.
RAGGED_SURVEY_SEED = 1
RAGGED_RESPONDENTS = 400
RAGGED_TASKS = (2, 8)
RAGGED_CHAINS = 2
RAGGED_WARMUP = 150
RAGGED_DRAWS = 200

# reprice: one posterior of REPRICE_CHAINS x REPRICE_DRAWS draws over
# REPRICE_RESPONDENTS respondents, repriced for each bundle below.
REPRICE_RESPONDENTS = 300
REPRICE_CHAINS = 4
REPRICE_DRAWS = 250
REPRICE_BUNDLES = (
    {"camera": "Pro", "frame": "Titanium"},
    {"storage": "512GB", "camera": "Pro"},
    {"storage": "512GB", "camera": "Pro", "frame": "Titanium"},
)
REPRICE_GRID = tuple(float(p) for p in range(799, 1400, 25))
# Per-draw spread of the population parameters in the repriced posterior:
# dollar WTP means jitter by REPRICE_WTP_JITTER around the configured truth,
# the price mean by REPRICE_PRICE_JITTER around its truth, and every SD by a
# log-normal factor with log-SD REPRICE_SD_JITTER.
REPRICE_WTP_JITTER = 5.0
REPRICE_PRICE_JITTER = 0.0004
REPRICE_SD_JITTER = 0.1
# Column scales of the standardized fitting scale, close to those the
# demo survey's difference regressors have.
REPRICE_SCALE = (0.58, 0.58, 0.71, 0.71, 200.0)


def load_demo_config() -> dict:
    with open(DEMO_CONFIG, encoding="utf-8") as f:
        return json.load(f)


def feature_columns(config: dict) -> list[str]:
    scheme = config["scheme"]
    columns = []
    for attr in scheme["attributes"]:
        if attr["name"] == scheme["price_attribute"]:
            continue
        columns += [f"{attr['name']}:{lv}" for lv in attr["levels"] if lv != attr["baseline"]]
    return columns + [scheme["price_attribute"]]


def dummy_vector(config: dict, levels: dict) -> np.ndarray:
    """0/1 dummies of a profile's non-price levels, in feature-column order."""
    dummies = feature_columns(config)[:-1]
    x = np.zeros(len(dummies))
    for attr, level in levels.items():
        if f"{attr}:{level}" in dummies:
            x[dummies.index(f"{attr}:{level}")] = 1.0
    return x


def bundle_offsets(config: dict, upgrades: dict) -> np.ndarray:
    """Dummy difference of the bundle against the scenario's baseline."""
    base = config["scenario"]["baseline"]["levels"]
    return dummy_vector(config, {**base, **upgrades}) - dummy_vector(config, base)


def demo_run_config() -> dict:
    """The shipped case study with the fit cut to DEMO_WARMUP + DEMO_DRAWS."""
    config = load_demo_config()
    config["model"]["warmup_per_chain"] = DEMO_WARMUP
    config["model"]["draws_per_chain"] = DEMO_DRAWS
    config.pop("output_dir", None)
    return config


def ragged_run_config() -> dict:
    config = load_demo_config()
    config["model"].update(
        chains=RAGGED_CHAINS, warmup_per_chain=RAGGED_WARMUP, draws_per_chain=RAGGED_DRAWS
    )
    for key in ("output_dir", "simulation", "scenario"):
        config.pop(key, None)
    return config


def reprice_run_config(seed: int, upgrades: dict) -> dict:
    config = load_demo_config()
    config["seed"] = seed
    config["scenario"] = dict(
        copy.deepcopy(config["scenario"]), upgrades=dict(upgrades), price_grid=list(REPRICE_GRID)
    )
    for key in ("output_dir", "simulation"):
        config.pop(key, None)
    return config


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- fit_ragged


def ragged_survey(seed: int, config: dict) -> list[list[str]]:
    """Rows of a choices CSV with unequal task counts per respondent.

    Respondents follow the config's ground truth as the program's simulator
    draws it (WTP-space heterogeneity, price coefficient truncated below the
    ceiling); each answers RAGGED_TASKS (inclusive) paired tasks with prices from the
    simulation grid. Respondent ids are sparse so the id mapping is used.
    """
    rng = np.random.default_rng([seed, 1])
    truth = config["ground_truth"]
    scheme = config["scheme"]
    attrs = [a for a in scheme["attributes"] if a["name"] != scheme["price_attribute"]]
    columns = feature_columns(config)
    grid = [float(p) for p in config["simulation"]["price_grid"]]
    wtp_mean = np.array([truth["true_wtp"][c] for c in columns[:-1]])
    wtp_sd = np.array([truth["wtp_sd"][c] for c in columns[:-1]])

    header = (
        ["respondent_id", "task_id"]
        + [f"a_{a['name']}" for a in attrs]
        + ["a_price"]
        + [f"b_{a['name']}" for a in attrs]
        + ["b_price", "chose_a"]
    )
    rows = [header]
    lo, hi = RAGGED_TASKS
    for i in range(RAGGED_RESPONDENTS):
        while True:
            b = truth["price_coef_mean"] + truth["price_coef_sd"] * rng.standard_normal()
            if b < PRICE_COEF_CEILING:
                break
        beta = np.append(-b * (wtp_mean + wtp_sd * rng.standard_normal(wtp_mean.size)), b)
        for t in range(int(rng.integers(lo, hi + 1))):
            while True:
                a = _random_profile(attrs, grid, rng)
                bb = _random_profile(attrs, grid, rng)
                if a != bb:
                    break
            u = (_encode(config, a) - _encode(config, bb)) @ beta
            chose_a = rng.random() < 1.0 / (1.0 + np.exp(-u))
            rows.append(
                [str(1000 + 3 * i), str(t)]
                + [a[0][x["name"]] for x in attrs]
                + [repr(a[1])]
                + [bb[0][x["name"]] for x in attrs]
                + [repr(bb[1]), "1" if chose_a else "0"]
            )
    return rows


def _random_profile(attrs, grid, rng):
    levels = {a["name"]: a["levels"][int(rng.integers(len(a["levels"])))] for a in attrs}
    return levels, grid[int(rng.integers(len(grid)))]


def _encode(config: dict, profile) -> np.ndarray:
    levels, price = profile
    return np.append(dummy_vector(config, levels), price)


def write_csv(path: Path, rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


# ------------------------------------------------------------------- reprice


@dataclass
class RepriceDraws:
    """Population draws on the standardized scale, plus respondent z."""

    mu: np.ndarray  # (draws, features)
    sigma: np.ndarray  # (draws, features)
    z: np.ndarray  # (draws, respondents, features)
    scale: np.ndarray  # (features,)


def reprice_draws(seed: int, config: dict, with_z: bool = True) -> RepriceDraws:
    """The posterior that reprice reads: a distribution the benchmark chose.

    Per draw, each dollar WTP mean is the configured truth plus
    N(0, REPRICE_WTP_JITTER^2), the price mean is the truth plus
    N(0, REPRICE_PRICE_JITTER^2), and each SD is its configured value times
    exp(N(0, REPRICE_SD_JITTER^2)). Feature coefficients are -price * WTP,
    as in the simulator. z is standard normal. Everything is stored on the
    standardized scale (raw * REPRICE_SCALE), as the program stores it.
    """
    rng = np.random.default_rng([seed, 2])
    truth = config["ground_truth"]
    columns = feature_columns(config)
    n = REPRICE_CHAINS * REPRICE_DRAWS
    f = len(columns)
    wtp = np.array([truth["true_wtp"][c] for c in columns[:-1]])
    wtp_sd = np.array([truth["wtp_sd"][c] for c in columns[:-1]])
    price = truth["price_coef_mean"] + REPRICE_PRICE_JITTER * rng.standard_normal(n)
    wtp_draws = wtp + REPRICE_WTP_JITTER * rng.standard_normal((n, f - 1))
    jitter = np.exp(REPRICE_SD_JITTER * rng.standard_normal((n, f)))
    mu_raw = np.column_stack([-price[:, None] * wtp_draws, price])
    sigma_raw = np.column_stack(
        [-price[:, None] * wtp_sd * jitter[:, :-1], truth["price_coef_sd"] * jitter[:, -1]]
    )
    scale = np.asarray(REPRICE_SCALE, dtype=float)
    z = rng.standard_normal((n, REPRICE_RESPONDENTS, f)) if with_z else np.empty((n, 0, f))
    return RepriceDraws(mu=mu_raw * scale, sigma=sigma_raw * scale, z=z, scale=scale)
