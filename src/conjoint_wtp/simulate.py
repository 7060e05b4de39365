"""Synthetic market and survey generation.

Builds the ground-truth population, draws heterogeneous respondents as rows
of one coefficient array, generates randomized paired-profile choice tasks,
and simulates noisy choices through the logit model, one array operation
per respondent. Everything is a pure function of (inputs, seed): each
respondent consumes an independent RNG substream, so the output is
invariant to execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .domain import AttributeScheme, ProductProfile, check_price_grid, encode_profile
from .errors import ContractError, DesignError
from .rng import CHOICE_STREAM, RESPONDENT_STREAM, TASK_STREAM, substream

# Respondent price coefficients are sampled truncated below this ceiling so
# every simulated consumer dislikes price increases.
PRICE_COEF_CEILING = -1e-4

_MAX_TRUNCATION_ATTEMPTS = 10_000
_MAX_PAIR_ATTEMPTS = 1_000


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
        if not -math.inf < self.price_coef_mean < 0:
            raise ContractError(f"price_coef_mean must be finite and negative, got {self.price_coef_mean}")
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


@dataclass(frozen=True)
class ChoiceTask:
    """A paired comparison shown to one respondent."""

    respondent_id: int
    task_id: int
    profile_a: ProductProfile
    profile_b: ProductProfile

    def __post_init__(self) -> None:
        if self.profile_a == self.profile_b:
            raise ContractError(
                f"task {self.task_id} for respondent {self.respondent_id} has identical profiles"
            )


@dataclass(frozen=True)
class ChoiceRecord:
    task: ChoiceTask
    chose_a: bool


@dataclass
class ChoiceDataset:
    """Respondent-grouped choice records; the sole input to inference."""

    scheme: AttributeScheme
    records: list[ChoiceRecord]

    def __post_init__(self) -> None:
        """Structure only: contiguous respondents and unique task ids per
        respondent. Profiles are checked where they are encoded."""
        seen: set[int] = set()
        keys: set[tuple[int, int]] = set()
        previous: int | None = None
        for record in self.records:
            rid, tid = record.task.respondent_id, record.task.task_id
            if rid != previous and rid in seen:
                raise ContractError(f"records for respondent {rid} are not contiguous")
            if (rid, tid) in keys:
                raise ContractError(f"duplicate task_id {tid} for respondent {rid}")
            seen.add(rid)
            keys.add((rid, tid))
            previous = rid

    def __len__(self) -> int:
        return len(self.records)


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
    if n < 1:
        raise ContractError(f"need at least one respondent, got n={n}")
    columns = scheme.dummy_columns
    missing = [c for c in columns if c not in truth.true_wtp]
    if missing:
        raise ContractError(f"ground truth is missing WTP for feature columns {missing}")
    extra = [c for c in truth.true_wtp if c not in columns]
    if extra:
        raise ContractError(f"ground truth names unknown feature columns {extra}")

    wtp_mean = np.array([truth.true_wtp[c] for c in columns])
    wtp_sd = np.array([truth.wtp_sd[c] for c in columns])
    betas = np.empty((n, scheme.n_features))
    for rid in range(n):
        rng = substream(seed, RESPONDENT_STREAM, rid)
        for _ in range(_MAX_TRUNCATION_ATTEMPTS):
            price_coef = truth.price_coef_mean + truth.price_coef_sd * rng.standard_normal()
            if price_coef < PRICE_COEF_CEILING:
                break
        else:
            raise ContractError(
                f"could not draw a price coefficient below {PRICE_COEF_CEILING} from "
                f"Normal({truth.price_coef_mean}, {truth.price_coef_sd})"
            )
        wtp = wtp_mean + wtp_sd * rng.standard_normal(len(columns))
        betas[rid, : len(columns)] = -price_coef * wtp
        betas[rid, scheme.price_index] = price_coef
    return betas


def generate_tasks(
    scheme: AttributeScheme,
    n_respondents: int,
    tasks_per_respondent: int,
    price_grid: Sequence[float],
    seed: int,
) -> list[ChoiceTask]:
    """Randomized paired-profile tasks: levels uniform per attribute, price
    uniform over the grid, identical pairs rejected and re-drawn."""
    if n_respondents < 1:
        raise ContractError(f"n_respondents must be >= 1, got {n_respondents}")
    if tasks_per_respondent < 1:
        raise ContractError(f"tasks_per_respondent must be >= 1, got {tasks_per_respondent}")
    prices = [float(p) for p in price_grid]
    check_price_grid(prices)

    tasks = []
    for rid in range(n_respondents):
        rng = substream(seed, TASK_STREAM, rid)
        for tid in range(tasks_per_respondent):
            for _ in range(_MAX_PAIR_ATTEMPTS):
                profile_a = _random_profile(scheme, prices, rng)
                profile_b = _random_profile(scheme, prices, rng)
                if profile_a != profile_b:
                    break
            else:
                raise DesignError(
                    "could not draw two distinct profiles; the scheme and price grid "
                    "admit too few distinct products"
                )
            tasks.append(
                ChoiceTask(respondent_id=rid, task_id=tid, profile_a=profile_a, profile_b=profile_b)
            )
    return tasks


def _random_profile(
    scheme: AttributeScheme, prices: list[float], rng: np.random.Generator
) -> ProductProfile:
    levels = {
        attr.name: attr.levels[rng.integers(len(attr.levels))]
        for attr in scheme.attributes
    }
    price = prices[rng.integers(len(prices))]
    return ProductProfile(levels=levels, price=price)


def simulate_choices(
    scheme: AttributeScheme,
    betas: np.ndarray,
    tasks: Sequence[ChoiceTask],
    seed: int,
) -> ChoiceDataset:
    """Simulate each respondent's choices through the logit model.

    `betas` is sample_respondents' (n, features) array: row i holds
    respondent i's coefficients, all finite. Per respondent, in order of first
    appearance: p = P(choose A) = 1 / (1 + exp(-(x_a - x_b) . beta)) for all
    of their tasks at once, then one uniform draw per task. The randomness
    is the uniform draws only; a utility difference too large for exp gives
    p of exactly 0 or 1, so the dominant profile is always chosen.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 2 or betas.shape[1] != scheme.n_features:
        raise ContractError(f"betas must be (respondents, {scheme.n_features}), got {betas.shape}")
    if not np.isfinite(betas).all():
        raise ContractError("betas must be finite")
    grouped: dict[int, list[ChoiceTask]] = {}
    for task in tasks:
        grouped.setdefault(task.respondent_id, []).append(task)

    records: list[ChoiceRecord] = []
    for rid, group in grouped.items():
        if not 0 <= rid < len(betas):
            raise ContractError(f"no respondent params for respondent {rid}")
        x = np.array(
            [encode_profile(scheme, t.profile_a) - encode_profile(scheme, t.profile_b) for t in group]
        )
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-(x @ betas[rid])))
        chose_a = substream(seed, CHOICE_STREAM, rid).random(len(group)) < p
        records.extend(ChoiceRecord(task=t, chose_a=bool(c)) for t, c in zip(group, chose_a))
    return ChoiceDataset(scheme=scheme, records=records)
