"""Design-matrix construction for the choice model.

Each row of the survey table becomes one row of difference regressors,
encode(profile A) - encode(profile B) (`ChoiceDataset.differences`),
divided by each column's population SD. That is the one scale the model is
fitted on, and this module alone chooses it. Standardizing is a change of
units only: the columns are never centered. The scaling is kept alongside
the matrix because unscaling is mandatory before any dollar-valued output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    Rows keep the dataset's row order, which groups them by respondent;
    `row_starts` marks each respondent's first row, from which the model
    builds its padded (respondent, task, feature) layout once. A constant
    column has no SD to divide by and is a DataError.
    """
    if len(dataset) == 0:
        raise ContractError("dataset has no records")
    if dataset.chose_a is None:
        raise ContractError("dataset has no choices")
    columns = dataset.scheme.feature_columns
    x = dataset.differences()
    scale = x.std(axis=0)
    constant = [c for c, s in zip(columns, scale) if s < _MIN_SCALE]
    if constant:
        raise DataError(f"constant difference column(s): {constant}")
    x /= scale

    row_starts = dataset.row_starts
    return Design(
        columns=columns,
        price_column=dataset.scheme.price_attribute,
        x=x,
        choices=dataset.chose_a.astype(np.int8),
        respondent_index=np.repeat(np.arange(len(row_starts)), np.diff(np.r_[row_starts, len(dataset)])),
        respondent_ids=tuple(dataset.respondent_id[row_starts].tolist()),
        row_starts=row_starts,
        standardization=Standardization(columns=columns, mean=np.zeros(len(columns)), scale=scale),
    )
