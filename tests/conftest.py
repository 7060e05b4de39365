"""Shared fixtures: small synthetic datasets and the one full-size demo run.

The full-size run (300 respondents x 20 tasks, 4 chains x 2000 draws) is
expensive, so it executes once per session through the real CLI pipeline
and every test that needs the fitted posterior shares its artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import settings

from conjoint_wtp import cli
from conjoint_wtp.dataio import read_choices_csv, read_posterior_jsonl
from conjoint_wtp.domain import WTP_PRICE_EPS
from conjoint_wtp.errors import ContractError, SignSafetyError
from conjoint_wtp.infer import ModelConfig, build_design
from conjoint_wtp.presets import (
    DEFAULT_PRICE_GRID,
    smartphone_scheme,
    smartphone_truth,
)
from conjoint_wtp.simulate import generate_tasks, sample_respondents, simulate_choices

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smartphone.json"
DEMO_SEED = 20250808


def wtp(beta_f: float, beta_price: float, eps: float = WTP_PRICE_EPS) -> float:
    """Reference dollar value of a feature, -beta_f / beta_price, for one
    coefficient pair. A price coefficient at or above -eps raises
    SignSafetyError; a negative result is legitimate."""
    if not (eps > 0):
        raise ContractError(f"eps must be positive, got {eps}")
    if not (beta_price < -eps):
        raise SignSafetyError(f"price coefficient {beta_price} is not below -{eps}")
    return -beta_f / beta_price


@pytest.fixture(scope="session")
def scheme():
    return smartphone_scheme()


@pytest.fixture(scope="session")
def truth():
    return smartphone_truth()


@pytest.fixture(scope="session")
def small_dataset(scheme, truth):
    respondents = sample_respondents(scheme, truth, 40, seed=11)
    tasks = generate_tasks(scheme, 40, 10, DEFAULT_PRICE_GRID, seed=11)
    return simulate_choices(scheme, respondents, tasks, seed=11)


@pytest.fixture(scope="session")
def small_design(small_dataset):
    return build_design(small_dataset)


@pytest.fixture(scope="session")
def quick_config():
    return ModelConfig(chains=2, draws_per_chain=200, warmup_per_chain=250, seed=5)


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    """Full-size demo pipeline run; returns the output directory."""
    out = tmp_path_factory.mktemp("demo_run")
    code = cli.main(["pipeline", "--config", str(DEMO_CONFIG), "--out", str(out)])
    assert code == 0, "full-size pipeline run failed"
    return out


@pytest.fixture(scope="session")
def demo_report(demo_run):
    with open(demo_run / "report.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="session")
def demo_draws(demo_run):
    return read_posterior_jsonl(demo_run / "posterior.jsonl")


@pytest.fixture(scope="session")
def demo_dataset(demo_run, scheme):
    return read_choices_csv(demo_run / "choices.csv", scheme)
