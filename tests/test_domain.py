"""Attribute coding, utility, logit choice, and the WTP ratio."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjoint_wtp.domain import (
    Attribute,
    AttributeScheme,
    ProductProfile,
    choice_probability,
    encode_profile,
    utility,
)
from conjoint_wtp.errors import CodingError, ContractError, SignSafetyError
from tests.conftest import wtp


def decode_features(scheme, values):
    """Reference inverse of encode_profile: the profile a feature vector codes."""
    values = np.asarray(values, dtype=float)
    if values.shape != (scheme.n_features,):
        raise ContractError(f"feature vector has length {values.shape}, scheme expects {scheme.n_features}")
    levels = {}
    for attr in scheme.non_price_attributes:
        active = []
        for level in attr.levels:
            if level == attr.baseline:
                continue
            v = values[scheme.column_index(f"{attr.name}:{level}")]
            if v not in (0.0, 1.0):
                raise ContractError(f"dummy for {attr.name}:{level} is {v}, expected 0 or 1")
            if v == 1.0:
                active.append(level)
        if len(active) > 1:
            raise ContractError(f"attribute {attr.name!r} has multiple active dummies")
        levels[attr.name] = active[0] if active else attr.baseline
    return ProductProfile(levels=levels, price=float(values[scheme.price_index]))


def baseline_profile(scheme, price=799.0):
    return ProductProfile(
        levels={a.name: a.baseline for a in scheme.non_price_attributes}, price=price
    )


class TestScheme:
    def test_column_order_is_deterministic(self, scheme):
        assert scheme.feature_columns == (
            "storage:256GB",
            "storage:512GB",
            "camera:Pro",
            "frame:Titanium",
            "price",
        )
        assert scheme.price_index == 4

    def test_needs_two_levels(self):
        with pytest.raises(ContractError):
            Attribute(name="color", levels=("Black",), baseline="Black")

    def test_baseline_must_be_a_level(self):
        with pytest.raises(ContractError):
            Attribute(name="color", levels=("Black", "White"), baseline="Red")

    def test_price_attribute_must_exist(self):
        with pytest.raises(ContractError):
            AttributeScheme(
                attributes=(Attribute("color", ("Black", "White"), "Black"),),
                price_attribute="price",
            )

    def test_price_levels_must_be_positive_dollars(self):
        with pytest.raises(ContractError):
            AttributeScheme(
                attributes=(
                    Attribute("color", ("Black", "White"), "Black"),
                    Attribute("price", ("799", "free"), "799"),
                ),
                price_attribute="price",
            )


class TestEncode:
    def test_all_baseline_is_all_zero_dummies(self, scheme):
        x = encode_profile(scheme, baseline_profile(scheme, price=799.0))
        assert x.tolist() == [0.0, 0.0, 0.0, 0.0, 799.0]

    def test_upgrade_dummies(self, scheme):
        profile = ProductProfile(
            levels={"storage": "512GB", "camera": "Pro", "frame": "Aluminum"}, price=1099.0
        )
        x = encode_profile(scheme, profile)
        assert x.tolist() == [0.0, 1.0, 1.0, 0.0, 1099.0]

    def test_coding_is_local_to_the_changed_attribute(self, scheme):
        a = ProductProfile(levels={"storage": "256GB", "camera": "Pro", "frame": "Aluminum"}, price=999.0)
        b = ProductProfile(levels={"storage": "256GB", "camera": "Pro", "frame": "Titanium"}, price=999.0)
        diff = encode_profile(scheme, a) - encode_profile(scheme, b)
        assert diff.tolist() == [0.0, 0.0, 0.0, -1.0, 0.0]

    def test_unknown_attribute_is_named(self, scheme):
        profile = ProductProfile(
            levels={"storage": "256GB", "camera": "Pro", "frame": "Aluminum", "battery": "big"},
            price=999.0,
        )
        with pytest.raises(CodingError, match="battery"):
            encode_profile(scheme, profile)

    def test_unknown_level_is_named(self, scheme):
        profile = ProductProfile(
            levels={"storage": "1TB", "camera": "Pro", "frame": "Aluminum"}, price=999.0
        )
        with pytest.raises(CodingError, match="1TB"):
            encode_profile(scheme, profile)

    def test_missing_attribute_is_named(self, scheme):
        profile = ProductProfile(levels={"storage": "256GB", "camera": "Pro"}, price=999.0)
        with pytest.raises(CodingError, match="frame"):
            encode_profile(scheme, profile)


@st.composite
def profiles(draw):
    storage = draw(st.sampled_from(["128GB", "256GB", "512GB"]))
    camera = draw(st.sampled_from(["Standard", "Pro"]))
    frame = draw(st.sampled_from(["Aluminum", "Titanium"]))
    price = draw(st.floats(min_value=1.0, max_value=5000.0, allow_nan=False))
    return ProductProfile(levels={"storage": storage, "camera": camera, "frame": frame}, price=price)


class TestRoundTrip:
    @given(profile=profiles())
    def test_decode_inverts_encode(self, profile):
        from conjoint_wtp.presets import smartphone_scheme

        scheme = smartphone_scheme()
        assert decode_features(scheme, encode_profile(scheme, profile)) == profile

    def test_decode_rejects_fractional_dummy(self, scheme):
        x = encode_profile(scheme, baseline_profile(scheme))
        x[0] = 0.5
        with pytest.raises(ContractError):
            decode_features(scheme, x)


class TestUtility:
    def test_zero_vector_gives_zero(self):
        beta = np.array([3.0, -2.0, 0.7])
        assert utility(np.zeros(3), beta) == 0.0

    def test_price_only_term(self):
        x = np.array([0.0, 999.0])
        beta = np.array([0.0, -0.01])
        assert utility(x, beta) == pytest.approx(-9.99, rel=1e-12)

    def test_two_term_sum(self):
        x = np.array([1.0, 0.0, 899.0])
        beta = np.array([1.0, 0.0, -0.01])
        assert utility(x, beta) == pytest.approx(1.0 - 8.99, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            utility(np.zeros(3), np.zeros(4))

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        data=st.data(),
    )
    def test_linearity(self, a, b, data):
        n = 4
        x = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        b1 = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        b2 = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        lhs = utility(x, a * b1 + b * b2)
        rhs = a * utility(x, b1) + b * utility(x, b2)
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestChoiceProbability:
    def test_equal_utilities_give_half(self):
        assert choice_probability(1.7, 1.7) == 0.5

    def test_large_difference_saturates_without_overflow(self):
        p = choice_probability(1e3, 0.0)
        assert 1.0 - 1e-12 < p < 1.0

    def test_large_negative_difference(self):
        p = choice_probability(0.0, 1e3)
        assert 0.0 < p < 1e-12

    def test_stable_up_to_700(self):
        assert 0.0 < choice_probability(700.0, 0.0) < 1.0
        assert 0.0 < choice_probability(0.0, 700.0) < 1.0

    @given(
        u_a=st.floats(-500, 500),
        u_b=st.floats(-500, 500),
    )
    def test_complementarity(self, u_a, u_b):
        total = choice_probability(u_a, u_b) + choice_probability(u_b, u_a)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(-5, 5, 21)
        increasing = [choice_probability(u, 0.0) for u in grid]
        assert all(b > a for a, b in zip(increasing, increasing[1:]))
        decreasing = [choice_probability(0.0, u) for u in grid]
        assert all(b < a for a, b in zip(decreasing, decreasing[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            choice_probability(math.inf, 0.0)
        with pytest.raises(ContractError):
            choice_probability(0.0, math.nan)


class TestWtp:
    def test_direct_ratio(self):
        assert wtp(2.0, -0.01) == pytest.approx(200.0, rel=1e-12)

    def test_zero_numerator(self):
        assert wtp(0.0, -0.37) == 0.0

    def test_negative_wtp_is_legitimate(self):
        assert wtp(-0.8, -0.01) == pytest.approx(-80.0, rel=1e-12)

    def test_sign_safety(self):
        with pytest.raises(SignSafetyError):
            wtp(1.0, 0.0)
        with pytest.raises(SignSafetyError):
            wtp(1.0, 1e-9)
        with pytest.raises(SignSafetyError):
            wtp(1.0, -1e-9)

    @given(
        beta_f=st.floats(-10, 10),
        beta_price=st.floats(-10, -1e-3),
        c=st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, beta_f, beta_price, c):
        assert wtp(c * beta_f, c * beta_price) == pytest.approx(
            wtp(beta_f, beta_price), rel=1e-9, abs=1e-9
        )
