"""The survey table, and synthetic market and survey generation.

`ChoiceDataset` holds the survey as one table of level indices, prices and
answers, checked once where it is built. This module builds the
ground-truth population, draws heterogeneous respondents as rows of one
coefficient array, draws randomized paired-profile tasks straight into the
table as level indices, and simulates noisy choices through the logit
model, one array operation per respondent. Everything is a pure function
of (inputs, seed): each respondent consumes an independent RNG substream,
so the output is invariant to execution order. The run config checks the
scheme, truth, sizes and price grid once, so no function here checks them
again, nor what `simulate_choices` takes from the other two. `GroundTruth`
puts the price-coefficient mean below PRICE_COEF_CEILING, so each try of the
truncated price draw lands below the ceiling with probability at least 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .domain import AttributeScheme, encode, is_price
from .errors import ContractError, RowError
from .rng import CHOICE_STREAM, RESPONDENT_STREAM, TASK_STREAM, substream

# Respondent price coefficients are sampled truncated below this ceiling so
# every simulated consumer dislikes price increases.
PRICE_COEF_CEILING = -1e-4


@dataclass(frozen=True)
class GroundTruth:
    """True population WTP means/SDs (dollars) and the price-coefficient law.

    Keys of `true_wtp` and `wtp_sd` are feature-column names from the
    attribute scheme (dummy columns only; price has its own coefficient).
    """

    true_wtp: Mapping[str, float]
    wtp_sd: Mapping[str, float]
    price_coef_mean: float
    price_coef_sd: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_wtp", dict(self.true_wtp))
        object.__setattr__(self, "wtp_sd", dict(self.wtp_sd))
        if not -math.inf < self.price_coef_mean < PRICE_COEF_CEILING:
            raise ContractError(
                f"price_coef_mean must be finite and below {PRICE_COEF_CEILING}, got {self.price_coef_mean}"
            )
        if not 0 <= self.price_coef_sd < math.inf:
            raise ContractError(f"price_coef_sd must be finite and non-negative, got {self.price_coef_sd}")
        if set(self.wtp_sd) != set(self.true_wtp):
            raise ContractError("wtp_sd must have exactly the same feature keys as true_wtp")
        for feature, value in self.true_wtp.items():
            if not math.isfinite(value):
                raise ContractError(f"true_wtp[{feature!r}] must be finite, got {value}")
        for feature, sd in self.wtp_sd.items():
            if not 0 <= sd < math.inf:
                raise ContractError(f"wtp_sd[{feature!r}] must be finite and non-negative, got {sd}")


def _first_repeat(keys: np.ndarray):
    """The index of the first row whose key an earlier row holds, or None."""
    _, first = np.unique(keys, axis=0, return_index=True)
    repeats = np.setdiff1d(np.arange(len(keys)), first)
    return repeats[0] if repeats.size else None


@dataclass(eq=False)
class ChoiceDataset:
    """The survey as one table, one row per paired task: the sole input to
    inference. `levels` (n, 2, attributes) holds the level indices of
    profiles A and B, `prices` (n, 2) their dollar prices and `chose_a` (n)
    the answers, or None before anyone answers. The constructor checks
    every row once; a fault in one row is a RowError naming it, and a table
    with no rows is refused. `row_starts` marks each respondent's first row.
    """

    scheme: AttributeScheme
    respondent_id: np.ndarray
    task_id: np.ndarray
    levels: np.ndarray
    prices: np.ndarray
    chose_a: np.ndarray | None = None

    def __post_init__(self) -> None:
        rid, tid, levels, prices = self.respondent_id, self.task_id, self.levels, self.prices
        attrs = self.scheme.attributes
        if len(rid) == 0:
            raise ContractError("the survey table has no rows")
        bad = (levels < 0) | (levels >= [len(a.levels) for a in attrs])
        if bad.any():
            i, side, j = np.argwhere(bad)[0]
            raise RowError(i, f"level {levels[i, side, j]} is out of range for attribute {attrs[j].name!r}")
        bad = ~is_price(prices)
        if bad.any():
            i, side = np.argwhere(bad)[0]
            raise RowError(i, f"price must be finite and positive, got {prices[i, side]}")
        same = (levels[:, 0] == levels[:, 1]).all(axis=1) & (prices[:, 0] == prices[:, 1])
        if same.any():
            i = np.argmax(same)
            raise RowError(i, f"task {tid[i]} for respondent {rid[i]} has identical profiles")
        self.row_starts = np.flatnonzero(np.r_[True, rid[1:] != rid[:-1]])
        if (run := _first_repeat(rid[self.row_starts])) is not None:
            raise ContractError(f"records for respondent {rid[self.row_starts[run]]} are not contiguous")
        if (i := _first_repeat(np.column_stack([rid, tid]))) is not None:
            raise ContractError(f"duplicate task_id {tid[i]} for respondent {rid[i]}")

    def __len__(self) -> int:
        return len(self.respondent_id)

    def differences(self) -> np.ndarray:
        """encode(profile A) - encode(profile B), one feature row per task."""
        x = encode(self.scheme, self.levels, self.prices)
        return x[:, 0] - x[:, 1]


def sample_respondents(
    scheme: AttributeScheme, truth: GroundTruth, n: int, seed: int
) -> np.ndarray:
    """Draw n respondents from the ground-truth population.

    Returns the (n, features) coefficient array in scheme column order; row
    i is respondent i. Per respondent: a price coefficient from the
    truncated normal (always below PRICE_COEF_CEILING), then a personal
    dollar WTP vector, converted to utility coefficients via
    beta_f = -beta_price * wtp_f. Heterogeneity therefore lives in WTP
    space, and each respondent's implied WTP is exactly their drawn one.
    """
    columns = scheme.dummy_columns
    wtp_mean = np.array([truth.true_wtp[c] for c in columns])
    wtp_sd = np.array([truth.wtp_sd[c] for c in columns])
    betas = np.empty((n, scheme.n_features))
    for rid in range(n):
        rng = substream(seed, RESPONDENT_STREAM, rid)
        while True:
            price_coef = truth.price_coef_mean + truth.price_coef_sd * rng.standard_normal()
            if price_coef < PRICE_COEF_CEILING:
                break
        wtp = wtp_mean + wtp_sd * rng.standard_normal(len(columns))
        betas[rid, :-1] = -price_coef * wtp
        betas[rid, -1] = price_coef
    return betas


def generate_tasks(
    scheme: AttributeScheme,
    n_respondents: int,
    tasks_per_respondent: int,
    price_grid: Sequence[float],
    seed: int,
) -> ChoiceDataset:
    """Randomized paired-profile tasks, unanswered: levels uniform per
    attribute, price uniform over the grid, identical pairs rejected and
    re-drawn (with an attribute of two or more levels, a re-draw repeats
    with probability <= 1/2). Per respondent stream, each profile takes one
    integer draw per attribute and then one for its price, A before B."""
    sizes = [len(attr.levels) for attr in scheme.attributes]
    pairs = []
    for rid in range(n_respondents):
        rng = substream(seed, TASK_STREAM, rid)
        for _ in range(tasks_per_respondent):
            while True:
                pair = [
                    ([rng.integers(k) for k in sizes], price_grid[rng.integers(len(price_grid))])
                    for _ in range(2)
                ]
                if pair[0] != pair[1]:
                    break
            pairs.append(pair)
    return ChoiceDataset(
        scheme=scheme,
        respondent_id=np.repeat(np.arange(n_respondents), tasks_per_respondent),
        task_id=np.tile(np.arange(tasks_per_respondent), n_respondents),
        levels=np.array([[a[0], b[0]] for a, b in pairs], dtype=np.intp),
        prices=np.array([[a[1], b[1]] for a, b in pairs]),
    )


def simulate_choices(
    scheme: AttributeScheme,
    betas: np.ndarray,
    tasks: ChoiceDataset,
    seed: int,
) -> ChoiceDataset:
    """The tasks answered through the logit model: the same table with `chose_a`.

    `betas` is sample_respondents' (n, features) array. Per respondent:
    p = P(choose A) = 1 / (1 + exp(-(x_a - x_b) . beta)) for all of their
    tasks at once, then one uniform draw per task. A utility difference too
    large for exp gives p of exactly 0 or 1: the dominant profile wins.
    """
    rids = tasks.respondent_id
    x = tasks.differences()
    chose_a = np.empty(len(tasks), dtype=bool)
    bounds = np.r_[tasks.row_starts, len(tasks)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rid = int(rids[start])
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-(x[start:stop] @ betas[rid])))
        chose_a[start:stop] = substream(seed, CHOICE_STREAM, rid).random(stop - start) < p
    return replace(tasks, chose_a=chose_a)
