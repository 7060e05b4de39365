"""Design-matrix construction for the choice model.

Each record becomes one row of difference regressors,
encode(profile_a) - encode(profile_b), divided by each column's population
SD. That is the one scale the model is fitted on, and this module alone
chooses it. Standardizing is a change of units only: the columns are never
centered. The scaling is kept alongside the matrix because unscaling is
mandatory before any dollar-valued output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domain import encode_profile
from ..errors import ContractError, DataError
from ..simulate import ChoiceDataset

_MIN_SCALE = 1e-12


@dataclass(frozen=True)
class Standardization:
    """Per-column scaling applied to the difference regressors. `mean` is
    part of the posterior file format and is always zero: columns are never
    centered."""

    columns: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        for name, values in (("mean", self.mean), ("scale", self.scale)):
            if np.shape(values) != (len(self.columns),):
                raise ContractError(
                    f"standardization {name} has shape {np.shape(values)}, "
                    f"expected one entry per column ({len(self.columns)})"
                )
        bad = [c for c, s in zip(self.columns, self.scale) if not 0 < s < np.inf]
        if bad:
            raise ContractError(f"standardization scale must be finite and positive, bad columns: {bad}")


@dataclass(frozen=True)
class Design:
    """Difference regressors grouped by respondent, each column divided by
    its population SD. `standardization.scale` records those SDs.
    """

    columns: tuple[str, ...]
    price_column: str
    x: np.ndarray
    choices: np.ndarray
    respondent_index: np.ndarray
    respondent_ids: tuple[int, ...]
    row_starts: np.ndarray
    standardization: Standardization

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_respondents(self) -> int:
        return len(self.respondent_ids)

    @property
    def price_index(self) -> int:
        return self.columns.index(self.price_column)


def build_design(dataset: ChoiceDataset) -> Design:
    """Build the standardized difference-regressor matrix and choice vector.

    Rows keep the dataset's respondent grouping; `row_starts` marks each
    respondent's first row, from which the model builds its padded
    (respondent, task, feature) layout once. A constant column has no SD to
    divide by and is a DataError.
    """
    if len(dataset.records) == 0:
        raise ContractError("dataset has no records")
    scheme = dataset.scheme
    columns = scheme.feature_columns
    n = len(dataset.records)
    x = np.empty((n, len(columns)))
    choices = np.empty(n, dtype=np.int8)
    resp_index = np.empty(n, dtype=np.int64)

    id_order: list[int] = []
    id_to_pos: dict[int, int] = {}
    for i, record in enumerate(dataset.records):
        x[i] = encode_profile(scheme, record.task.profile_a) - encode_profile(
            scheme, record.task.profile_b
        )
        choices[i] = 1 if record.chose_a else 0
        rid = record.task.respondent_id
        if rid not in id_to_pos:
            id_to_pos[rid] = len(id_order)
            id_order.append(rid)
        resp_index[i] = id_to_pos[rid]

    scale = x.std(axis=0)
    constant = [c for c, s in zip(columns, scale) if s < _MIN_SCALE]
    if constant:
        raise DataError(f"constant difference column(s): {constant}")
    x /= scale

    row_starts = np.flatnonzero(np.r_[True, resp_index[1:] != resp_index[:-1]])
    return Design(
        columns=columns,
        price_column=scheme.price_attribute,
        x=x,
        choices=choices,
        respondent_index=resp_index,
        respondent_ids=tuple(id_order),
        row_starts=row_starts,
        standardization=Standardization(columns=columns, mean=np.zeros(len(columns)), scale=scale),
    )
