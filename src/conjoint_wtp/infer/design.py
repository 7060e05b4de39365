"""The respondent x task panel the choice model fits.

Each row of the survey table becomes one row of difference regressors,
encode(profile A) - encode(profile B) (`ChoiceDataset.differences`),
divided by each column's population SD over the real rows. That is the one
scale the model is fitted on, and this module alone chooses it.
Standardizing is a change of units only: the columns are never centered.
The scaling is kept alongside the panel because unscaling is mandatory
before any dollar-valued output.

Each row is stored signed, chosen minus rejected: sign * (A - B) / scale,
sign +1 where A was chosen and -1 where B was, so its logit is the chosen
option's. The SD is of the A - B rows, fixed before any choice is drawn.

The rows are laid out once as a padded (respondents, T_max, features)
array: respondent r's tasks fill the first slots of row r, in table order.
Each pad slot of a ragged panel is a zero row, so its logit is 0: it adds
exactly -log 2 to the likelihood, which the model cancels with a constant,
and 0 to the score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..simulate import ChoiceDataset

_MIN_SCALE = 1e-12


@dataclass(frozen=True)
class Standardization:
    """Per-column scaling of the difference regressors, a plain record: `build_design`
    makes each scale a positive SD, and the posterior header checks one read back.
    `mean` is part of the posterior file format and always zero: columns are never centered."""

    columns: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class Design:
    """The panel the model fits. `x` (respondents, T_max, features) holds
    respondent r's signed, standardized difference rows (chosen minus
    rejected) in the first slots of row r, and zero rows in its pad slots;
    `n_rows` counts the real slots. Row r is respondent `respondent_ids[r]`;
    `columns` are the scheme's, price last; `standardization.scale` holds their SDs.
    """

    columns: tuple[str, ...]
    x: np.ndarray
    n_rows: int
    respondent_ids: tuple[int, ...]
    standardization: Standardization

    @property
    def n_features(self) -> int:
        return self.x.shape[2]

    @property
    def n_respondents(self) -> int:
        return len(self.respondent_ids)


def build_design(dataset: ChoiceDataset) -> Design:
    """Lay out the answered survey table as the standardized panel.

    Respondents keep the table's order, and so do each respondent's tasks.
    A constant column has no SD to divide by and is a DataError.
    """
    columns = dataset.scheme.feature_columns
    rows = dataset.differences()
    scale = rows.std(axis=0)
    constant = [c for c, s in zip(columns, scale) if s < _MIN_SCALE]
    if constant:
        raise DataError(f"constant difference column(s): {constant}")
    rows /= scale
    rows[~dataset.chose_a] *= -1.0  # chosen minus rejected

    starts = dataset.row_starts
    counts = np.diff(np.r_[starts, len(dataset)])
    respondent = np.repeat(np.arange(len(starts)), counts)
    slot = np.arange(len(dataset)) - starts[respondent]
    x = np.zeros((len(starts), counts.max(), len(columns)))
    x[respondent, slot] = rows
    return Design(
        columns=columns,
        x=x,
        n_rows=len(dataset),
        respondent_ids=tuple(dataset.respondent_id[starts].tolist()),
        standardization=Standardization(columns=columns, mean=np.zeros(len(columns)), scale=scale),
    )
