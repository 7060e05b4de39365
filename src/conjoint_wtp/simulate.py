"""Synthetic market and survey generation.

Builds the ground-truth population, draws heterogeneous respondents,
generates randomized paired-profile choice tasks, and simulates noisy
choices through the logit model. Everything is a pure function of
(inputs, seed): each respondent consumes an independent RNG substream, so
the output is invariant to execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .domain import AttributeScheme, ProductProfile, choice_probability, encode_profile, utility
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
        if not (self.price_coef_mean < 0):
            raise ContractError(f"price_coef_mean must be negative, got {self.price_coef_mean}")
        if self.price_coef_sd < 0:
            raise ContractError(f"price_coef_sd must be non-negative, got {self.price_coef_sd}")
        if set(self.wtp_sd) != set(self.true_wtp):
            raise ContractError("wtp_sd must have exactly the same feature keys as true_wtp")
        for feature, sd in self.wtp_sd.items():
            if sd < 0:
                raise ContractError(f"wtp_sd[{feature!r}] must be non-negative, got {sd}")


@dataclass(frozen=True)
class RespondentParams:
    """One simulated respondent's coefficient vector (scheme column order)."""

    respondent_id: int
    beta: np.ndarray


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
        self.validate()

    def validate(self) -> None:
        """Structure only: contiguous respondents and unique task ids per
        respondent. Profiles are checked where they are encoded."""
        seen_done: set[int] = set()
        current: int | None = None
        task_ids: set[int] = set()
        for record in self.records:
            rid = record.task.respondent_id
            if rid != current:
                if rid in seen_done:
                    raise ContractError(f"records for respondent {rid} are not contiguous")
                if current is not None:
                    seen_done.add(current)
                current = rid
                task_ids = set()
            if record.task.task_id in task_ids:
                raise ContractError(
                    f"duplicate task_id {record.task.task_id} for respondent {rid}"
                )
            task_ids.add(record.task.task_id)

    def __len__(self) -> int:
        return len(self.records)


def sample_respondents(
    scheme: AttributeScheme, truth: GroundTruth, n: int, seed: int
) -> list[RespondentParams]:
    """Draw n respondents from the ground-truth population.

    Per respondent: a price coefficient from the truncated normal
    (always below PRICE_COEF_CEILING), then a personal dollar WTP per
    feature, converted to utility coefficients via
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

    respondents = []
    for rid in range(n):
        rng = substream(seed, RESPONDENT_STREAM, rid)
        price_coef = _truncated_price_coef(truth, rng)
        beta = np.empty(scheme.n_features)
        for j, column in enumerate(columns):
            wtp_i = truth.true_wtp[column] + truth.wtp_sd[column] * rng.standard_normal()
            beta[j] = -price_coef * wtp_i
        beta[scheme.price_index] = price_coef
        respondents.append(RespondentParams(respondent_id=rid, beta=beta))
    return respondents


def _truncated_price_coef(truth: GroundTruth, rng: np.random.Generator) -> float:
    for _ in range(_MAX_TRUNCATION_ATTEMPTS):
        draw = truth.price_coef_mean + truth.price_coef_sd * rng.standard_normal()
        if draw < PRICE_COEF_CEILING:
            return draw
    raise ContractError(
        f"could not draw a price coefficient below {PRICE_COEF_CEILING} from "
        f"Normal({truth.price_coef_mean}, {truth.price_coef_sd})"
    )


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
    if not prices:
        raise ContractError("price_grid must be non-empty")
    if any(not p > 0 for p in prices):
        raise ContractError(f"price_grid entries must be positive, got {prices}")

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
    respondents: Sequence[RespondentParams],
    tasks: Sequence[ChoiceTask],
    seed: int,
) -> ChoiceDataset:
    """Simulate each respondent's choices through the logit model.

    For every task: p = P(choose A) from the utility difference under that
    respondent's coefficients, then a Bernoulli draw. The randomness is the
    Bernoulli draw only; p itself is never exactly 0 or 1.
    """
    params_by_id = {r.respondent_id: r for r in respondents}
    records: list[ChoiceRecord] = []
    grouped: dict[int, list[ChoiceTask]] = {}
    order: list[int] = []
    for task in tasks:
        if task.respondent_id not in params_by_id:
            raise ContractError(f"no respondent params for respondent {task.respondent_id}")
        if task.respondent_id not in grouped:
            grouped[task.respondent_id] = []
            order.append(task.respondent_id)
        grouped[task.respondent_id].append(task)

    for rid in order:
        rng = substream(seed, CHOICE_STREAM, rid)
        beta = params_by_id[rid].beta
        for task in grouped[rid]:
            u_a = utility(encode_profile(scheme, task.profile_a), beta)
            u_b = utility(encode_profile(scheme, task.profile_b), beta)
            p = choice_probability(u_a, u_b)
            chose_a = bool(rng.random() < p)
            records.append(ChoiceRecord(task=task, chose_a=chose_a))
    return ChoiceDataset(scheme=scheme, records=records)
