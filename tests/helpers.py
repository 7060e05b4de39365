"""Constants and reference functions shared by the test modules.

They live in a plain module, not in conftest.py: when this suite and
perfbench/tests run in one session, the name `tests.conftest` can resolve
to perfbench's conftest.
"""

from __future__ import annotations

import base64
import json
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from conjoint_wtp.config import load_run_config
from conjoint_wtp.domain import WTP_PRICE_EPS, ProductProfile
from conjoint_wtp.errors import ContractError, SignSafetyError
from conjoint_wtp.presets import DEFAULT_PRICE_GRID, smartphone_scheme, smartphone_truth
from conjoint_wtp.revenue import BundleScenario
from conjoint_wtp.simulate import ChoiceDataset, generate_tasks, sample_respondents, simulate_choices

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smartphone.json"
DEMO_SEED = 20250808

# A 5,000-digit integer literal: past the 4,300 digits Python parses into an
# int by default (3.11, and 3.10 from 3.10.7), so `json` refuses it. Each
# test puts it where the value is invalid too, so a Python with no such
# limit refuses it as well: DIGIT_LIMIT says which refusal to expect.
LONG_INT = "9" * 5000
DIGIT_LIMIT = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_INT)

# Tasks kept per respondent of tiny_dataset() in ragged_dataset().
RAGGED_TASKS = (8, 1, 5, 3, 6)


def demo_scenario() -> BundleScenario:
    """The demo config's revenue scenario: the camera + frame bundle priced
    against the $799 baseline. The config is the one source of its prices."""
    return load_run_config(DEMO_CONFIG).scenario


def with_long_int(obj, *keys) -> str:
    """`obj` as JSON text with LONG_INT at the place `keys` lead to."""
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "<long int>"
    return json.dumps(obj).replace('"<long int>"', LONG_INT)


def long_int_fault(otherwise: str) -> str:
    """What a reader says of LONG_INT: that it is not valid JSON where Python
    limits an integer's digits, else `otherwise`, the field's own check."""
    return "not valid JSON: Exceeds the limit" if DIGIT_LIMIT else otherwise


def wtp(beta_f: float, beta_price: float, eps: float = WTP_PRICE_EPS) -> float:
    """Reference dollar value of a feature, -beta_f / beta_price, for one
    coefficient pair. A price coefficient at or above -eps raises
    SignSafetyError; a negative result is legitimate."""
    if not (eps > 0):
        raise ContractError(f"eps must be positive, got {eps}")
    if not (beta_price < -eps):
        raise SignSafetyError(f"price coefficient {beta_price} is not below -{eps}")
    return -beta_f / beta_price


def survey(scheme, rows, chose_a=None) -> ChoiceDataset:
    """A survey table from rows of (respondent, task, A levels, A price,
    B levels, B price), levels given by name. The names are coded through
    the scheme, so a bad one raises CodingError."""
    rows = list(rows)
    levels = [[scheme.code_levels(r[2]), scheme.code_levels(r[4])] for r in rows]
    return ChoiceDataset(
        scheme=scheme,
        respondent_id=np.array([r[0] for r in rows], dtype=np.int64),
        task_id=np.array([r[1] for r in rows], dtype=np.int64),
        levels=np.array(levels, dtype=np.intp).reshape(len(rows), 2, len(scheme.attributes)),
        prices=np.array([[r[3], r[5]] for r in rows], dtype=float).reshape(len(rows), 2),
        chose_a=None if chose_a is None else np.array(chose_a, dtype=bool),
    )


def tiny_dataset(n_respondents=5, tasks=8, seed=7) -> ChoiceDataset:
    """A small answered smartphone survey; respondent ids 0..n-1, in order."""
    scheme = smartphone_scheme()
    respondents = sample_respondents(scheme, smartphone_truth(), n_respondents, seed=seed)
    tasks_table = generate_tasks(scheme, n_respondents, tasks, DEFAULT_PRICE_GRID, seed=seed)
    return simulate_choices(scheme, respondents, tasks_table, seed=seed)


def ragged_dataset() -> ChoiceDataset:
    """tiny_dataset() with tasks dropped so respondent r answers RAGGED_TASKS[r]."""
    dataset = tiny_dataset()
    return take(dataset, dataset.task_id < np.array(RAGGED_TASKS)[dataset.respondent_id])


def take(dataset: ChoiceDataset, rows) -> ChoiceDataset:
    """The table's rows selected by a mask or an index array, as a new table."""
    return replace(
        dataset,
        respondent_id=dataset.respondent_id[rows],
        task_id=dataset.task_id[rows],
        levels=dataset.levels[rows],
        prices=dataset.prices[rows],
        chose_a=None if dataset.chose_a is None else dataset.chose_a[rows],
    )


def profiles(dataset: ChoiceDataset, row: int) -> tuple[ProductProfile, ProductProfile]:
    """Profiles A and B of one row, with their levels named."""
    attrs = dataset.scheme.attributes
    return tuple(
        ProductProfile(
            levels={a.name: a.levels[k] for a, k in zip(attrs, dataset.levels[row, side])},
            price=float(dataset.prices[row, side]),
        )
        for side in (0, 1)
    )


def z_values(row: dict) -> np.ndarray:
    """A posterior draw line's `z`, decoded from base64 little-endian float64."""
    return np.frombuffer(base64.b64decode(row["z"]), dtype="<f8")


def z_text(values) -> str:
    """`values` encoded as a posterior draw line's `z`."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def z_with_first_bits(row: dict, bits: int) -> str:
    """A draw line's `z` with its first value's 8 bytes set to the float64 bit pattern `bits`."""
    return base64.b64encode(struct.pack("<Q", bits) + base64.b64decode(row["z"])[8:]).decode("ascii")


# float64 bit patterns that decode to a signalling NaN and to +inf
NAN_BITS, INF_BITS = 0x7FF0000000000001, 0x7FF0000000000000
