"""The fitted panel: difference rows, their standardization, and the
respondent x task layout with its pad slots."""

import numpy as np
import pytest

from conjoint_wtp.dataio import read_choices_csv, write_choices_csv
from conjoint_wtp.domain import encode_profile
from conjoint_wtp.errors import CodingError, ContractError, DataError
from conjoint_wtp.infer import build_design
from tests.helpers import RAGGED_TASKS, profiles, ragged_dataset, survey, tiny_dataset


BASE = {"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}
UP = {"storage": "512GB", "camera": "Pro", "frame": "Titanium"}


def test_shared_levels_difference_out(scheme):
    levels = {"storage": "256GB", "camera": "Pro", "frame": "Aluminum"}
    rows = [
        (0, 0, levels, 999.0, levels, 899.0),
        (0, 1, UP, 799.0, BASE, 1199.0),
        (0, 2, {**BASE, "storage": "256GB"}, 899.0, BASE, 799.0),  # no constant column
    ]
    dataset = survey(scheme, rows, chose_a=[True, False, True])
    design = build_design(dataset)
    dollars = design.x[0, 0] * design.standardization.scale
    assert dollars[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert dollars[4] == pytest.approx(100.0, rel=1e-12)


def _raw_differences(dataset):
    """encode_profile(A) - encode_profile(B) per row, in dollars and dummies."""
    return np.array(
        [
            encode_profile(dataset.scheme, a) - encode_profile(dataset.scheme, b)
            for a, b in (profiles(dataset, i) for i in range(len(dataset)))
        ]
    )


def _signed(dataset, rows):
    """Each row as chosen minus rejected: negated where B was chosen."""
    return np.where(dataset.chose_a, 1.0, -1.0)[:, None] * rows


def test_standardized_columns_have_unit_sd_and_no_centering(small_dataset):
    # standardizing divides each column by its SD and subtracts nothing:
    # a logit without intercept must not get a per-respondent offset
    design = build_design(small_dataset)
    raw = _raw_differences(small_dataset)
    scale = design.standardization.scale
    # the table's difference rows are the named profiles' codes, bit for bit
    assert np.array_equal(small_dataset.differences(), raw)
    rows = design.x.reshape(-1, design.n_features)  # a balanced panel: table order, no pads
    assert design.n_rows == len(small_dataset) == len(rows)
    # the SD is of the A - B rows, taken before the sign
    assert np.all(np.abs(_signed(small_dataset, rows).std(axis=0) - 1.0) < 1e-10)
    assert np.array_equal(scale, raw.std(axis=0))
    assert np.array_equal(rows, _signed(small_dataset, raw / scale))
    assert np.abs(raw.mean(axis=0)).max() > 0.1  # there was a mean to subtract
    assert not design.standardization.mean.any()


def test_price_difference_scales_linearly(scheme):
    # Two records whose price differences differ by $100: after z-scoring,
    # the rows differ by exactly 100/scale in the price column.
    mid = {"storage": "256GB", "camera": "Pro", "frame": "Titanium"}
    low = {"storage": "256GB", "camera": "Standard", "frame": "Titanium"}
    rows = [
        (0, 0, mid, 899.0, BASE, 799.0),
        (0, 1, UP, 999.0, BASE, 799.0),
        (0, 2, BASE, 799.0, low, 1099.0),
    ]
    dataset = survey(scheme, rows, chose_a=[True, False, True])
    design = build_design(dataset)
    raw = _raw_differences(dataset)[:, -1]
    assert raw[1] - raw[0] == 100.0
    scale = design.standardization.scale[-1]
    # B was chosen in the second row, so its signed row is B - A
    delta = -design.x[0, 1, -1] - design.x[0, 0, -1]
    assert delta * scale == pytest.approx(100.0, rel=1e-12)


def _constant_columns_dataset(scheme):
    # storage and camera never differ between the sides, so their
    # difference columns are constant zero.
    rows = [
        (0, i, {"storage": "128GB", "camera": "Standard", "frame": "Titanium"}, p,
         {"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}, 799.0)
        for i, p in enumerate([799.0, 899.0, 999.0])
    ]
    return survey(scheme, rows, chose_a=[True] * 3)


def test_constant_column_is_a_data_error(scheme):
    with pytest.raises(DataError, match="storage:256GB"):
        build_design(_constant_columns_dataset(scheme))


def test_empty_dataset_rejected(scheme):
    # refused where the table is built, so no design is ever empty
    with pytest.raises(ContractError, match="the survey table has no rows"):
        survey(scheme, [], chose_a=[])


def test_unanswered_tasks_rejected(tmp_path, scheme):
    # build_design trusts its table to be answered: the CSV reader refuses a
    # row with no choice
    path = tmp_path / "choices.csv"
    write_choices_csv(path, survey(scheme, [(0, 0, UP, 799.0, BASE, 1199.0)], chose_a=[True]))
    path.write_text(path.read_text(encoding="utf-8").replace(",1\n", ",\n"), encoding="utf-8")
    with pytest.raises(DataError, match="row 2: chose_a must be 0 or 1, got ''"):
        read_choices_csv(path, scheme)


def test_respondent_blocks_and_choices(scheme):
    mid = {"storage": "256GB", "camera": "Standard", "frame": "Aluminum"}
    pro = {"storage": "256GB", "camera": "Pro", "frame": "Aluminum"}
    rows = [
        (7, 0, UP, 799.0, BASE, 1199.0),
        (7, 1, mid, 899.0, UP, 999.0),
        (9, 0, pro, 899.0, BASE, 999.0),
    ]
    dataset = survey(scheme, rows, chose_a=[True, False, True])
    design = build_design(dataset)
    assert design.respondent_ids == (7, 9)
    assert design.n_rows == 3
    rows = _raw_differences(dataset) / design.standardization.scale
    # A chosen, B chosen, A chosen; respondent 9's second slot is a pad
    assert np.array_equal(design.x[0], [rows[0], -rows[1]])
    assert np.array_equal(design.x[1], [rows[2], np.zeros(design.n_features)])


def test_ragged_layout_pads_with_zeros():
    dataset = ragged_dataset()
    design = build_design(dataset)
    # each respondent's tasks fill the first slots of its row
    real = np.arange(max(RAGGED_TASKS)) < np.array(RAGGED_TASKS)[:, None]
    assert design.x.shape == (5, max(RAGGED_TASKS), design.n_features)
    assert design.n_rows == sum(RAGGED_TASKS) == len(dataset)
    assert not design.x[~real].any()
    assert np.all(design.x[real].any(axis=1))  # no real row is a zero row
    # the column SDs are taken over the real A - B rows, not the pads
    assert np.array_equal(design.standardization.scale, dataset.differences().std(axis=0))
    rows = dataset.differences() / design.standardization.scale
    assert np.array_equal(design.x[real], _signed(dataset, rows))
    assert not dataset.chose_a.all() and dataset.chose_a.any()  # both signs occur


def test_balanced_panel_has_no_pad():
    dataset = tiny_dataset()
    design = build_design(dataset)
    assert design.x.shape == (5, 8, design.n_features)
    assert design.n_rows == 5 * 8
    rows = dataset.differences() / design.standardization.scale
    assert np.array_equal(design.x.reshape(-1, design.n_features), _signed(dataset, rows))
    assert not dataset.chose_a.all() and dataset.chose_a.any()  # both signs occur


@pytest.mark.parametrize(
    "levels, named",
    [
        ({**BASE, "battery": "big"}, "unknown attribute 'battery'"),
        ({"storage": "128GB", "camera": "Standard"}, "missing attribute 'frame'"),
        ({**BASE, "storage": "1TB"}, "unknown level '1TB'"),
    ],
    ids=["unknown-attribute", "missing-attribute", "unknown-level"],
)
def test_bad_profile_in_a_library_built_dataset_fails_the_design(scheme, levels, named):
    # a profile's level names are coded through the scheme where it enters
    # the table, so a bad one never reaches the design
    rows = [(0, 0, UP, 999.0, BASE, 799.0), (0, 1, BASE, 899.0, levels, 799.0)]
    with pytest.raises(CodingError, match=named):
        build_design(survey(scheme, rows, chose_a=[True, False]))
