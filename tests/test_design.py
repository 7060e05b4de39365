"""Difference-regressor matrix construction and standardization."""

import numpy as np
import pytest

from conjoint_wtp.domain import ProductProfile
from conjoint_wtp.errors import CodingError, ContractError, DataError
from conjoint_wtp.infer import build_design
from conjoint_wtp.simulate import ChoiceDataset, ChoiceRecord, ChoiceTask


def _task(rid, tid, a_levels, a_price, b_levels, b_price):
    return ChoiceTask(
        respondent_id=rid,
        task_id=tid,
        profile_a=ProductProfile(levels=a_levels, price=a_price),
        profile_b=ProductProfile(levels=b_levels, price=b_price),
    )


BASE = {"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}
UP = {"storage": "512GB", "camera": "Pro", "frame": "Titanium"}


def test_shared_levels_difference_out(scheme):
    levels = {"storage": "256GB", "camera": "Pro", "frame": "Aluminum"}
    task = _task(0, 0, levels, 999.0, levels, 899.0)
    other = _task(0, 1, UP, 799.0, BASE, 1199.0)
    mid = _task(0, 2, {**BASE, "storage": "256GB"}, 899.0, BASE, 799.0)  # no constant column
    records = [ChoiceRecord(task, True), ChoiceRecord(other, False), ChoiceRecord(mid, True)]
    dataset = ChoiceDataset(scheme=scheme, records=records)
    design = build_design(dataset, standardize=False)
    assert design.x[0, :4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert design.x[0, 4] == 100.0


def test_standardized_columns_have_unit_sd_and_no_centering(small_dataset):
    # standardizing divides each column by its SD and subtracts nothing:
    # a logit without intercept must not get a per-respondent offset
    design = build_design(small_dataset)
    raw = build_design(small_dataset, standardize=False)
    assert np.all(np.abs(design.x.std(axis=0) - 1.0) < 1e-10)
    assert np.array_equal(design.x, raw.x / design.column_sd)
    assert np.array_equal(design.standardization.scale, design.column_sd)
    assert not design.standardization.mean.any()
    assert np.array_equal(raw.column_sd, design.column_sd)
    assert np.array_equal(raw.standardization.scale, np.ones(design.n_features))


def test_price_difference_scales_linearly(scheme):
    # Two records whose price differences differ by $100: after z-scoring,
    # the rows differ by exactly 100/scale in the price column.
    mid = {"storage": "256GB", "camera": "Pro", "frame": "Titanium"}
    low = {"storage": "256GB", "camera": "Standard", "frame": "Titanium"}
    records = [
        ChoiceRecord(_task(0, 0, mid, 899.0, BASE, 799.0), True),
        ChoiceRecord(_task(0, 1, UP, 999.0, BASE, 799.0), False),
        ChoiceRecord(_task(0, 2, BASE, 799.0, low, 1099.0), True),
    ]
    dataset = ChoiceDataset(scheme=scheme, records=records)
    design = build_design(dataset)
    scale = design.standardization.scale[design.price_index]
    delta = design.x[1, design.price_index] - design.x[0, design.price_index]
    assert delta == pytest.approx(100.0 / scale, rel=1e-12)


def _constant_columns_dataset(scheme):
    # storage and camera never differ between the sides, so their
    # difference columns are constant zero.
    records = [
        ChoiceRecord(
            _task(0, i, {"storage": "128GB", "camera": "Standard", "frame": "Titanium"}, p,
                  {"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}, 799.0),
            True,
        )
        for i, p in enumerate([799.0, 899.0, 999.0])
    ]
    return ChoiceDataset(scheme=scheme, records=records)


def test_constant_column_is_a_data_error(scheme):
    with pytest.raises(DataError, match="storage:256GB"):
        build_design(_constant_columns_dataset(scheme))


def test_constant_column_is_a_data_error_on_a_raw_design(scheme):
    with pytest.raises(DataError, match="storage:256GB"):
        build_design(_constant_columns_dataset(scheme), standardize=False)


def test_empty_dataset_rejected(scheme):
    dataset = ChoiceDataset(scheme=scheme, records=[])
    with pytest.raises(ContractError):
        build_design(dataset)


def test_respondent_blocks_and_choices(scheme):
    mid = {"storage": "256GB", "camera": "Standard", "frame": "Aluminum"}
    pro = {"storage": "256GB", "camera": "Pro", "frame": "Aluminum"}
    records = [
        ChoiceRecord(_task(7, 0, UP, 799.0, BASE, 1199.0), True),
        ChoiceRecord(_task(7, 1, mid, 899.0, UP, 999.0), False),
        ChoiceRecord(_task(9, 0, pro, 899.0, BASE, 999.0), True),
    ]
    dataset = ChoiceDataset(scheme=scheme, records=records)
    design = build_design(dataset)
    assert design.respondent_ids == (7, 9)
    assert design.respondent_index.tolist() == [0, 0, 1]
    assert design.row_starts.tolist() == [0, 2]
    assert design.choices.tolist() == [1, 0, 1]


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
    # ChoiceDataset checks structure only; the profile check is in encoding.
    records = [
        ChoiceRecord(_task(0, 0, UP, 999.0, BASE, 799.0), True),
        ChoiceRecord(_task(0, 1, BASE, 899.0, levels, 799.0), False),
    ]
    dataset = ChoiceDataset(scheme=scheme, records=records)
    with pytest.raises(CodingError, match=named):
        build_design(dataset)
