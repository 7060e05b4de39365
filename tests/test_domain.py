"""Attribute coding, the profile price rule, and the WTP ratio."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjoint_wtp.domain import (
    Attribute,
    AttributeScheme,
    ProductProfile,
    encode_profile,
)
from conjoint_wtp.errors import CodingError, ContractError, SignSafetyError
from conjoint_wtp.simulate import simulate_choices
from tests.helpers import survey, wtp


def decode_features(scheme, values):
    """Reference inverse of encode_profile: the profile a feature vector codes."""
    values = np.asarray(values, dtype=float)
    if values.shape != (scheme.n_features,):
        raise ContractError(f"feature vector has length {values.shape}, scheme expects {scheme.n_features}")
    levels = {}
    for attr in scheme.attributes:
        active = []
        for level in attr.levels:
            if level == attr.baseline:
                continue
            v = values[scheme.feature_columns.index(f"{attr.name}:{level}")]
            if v not in (0.0, 1.0):
                raise ContractError(f"dummy for {attr.name}:{level} is {v}, expected 0 or 1")
            if v == 1.0:
                active.append(level)
        if len(active) > 1:
            raise ContractError(f"attribute {attr.name!r} has multiple active dummies")
        levels[attr.name] = active[0] if active else attr.baseline
    return ProductProfile(levels=levels, price=float(values[-1]))


def baseline_profile(scheme, price=799.0):
    return ProductProfile(
        levels={a.name: a.baseline for a in scheme.attributes}, price=price
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
        assert scheme.n_features == 5

    def test_needs_two_levels(self):
        with pytest.raises(ContractError):
            Attribute(name="color", levels=("Black",), baseline="Black")

    def test_baseline_must_be_a_level(self):
        with pytest.raises(ContractError):
            Attribute(name="color", levels=("Black", "White"), baseline="Red")

    def test_price_attribute_must_not_be_listed(self):
        # price_attribute names the price column; survey prices come from
        # the price grid, so a listed price attribute's levels would go unread
        with pytest.raises(ContractError, match="price attribute 'price' must not be listed"):
            AttributeScheme(
                attributes=(
                    Attribute("color", ("Black", "White"), "Black"),
                    Attribute("price", ("799", "899"), "799"),
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


@pytest.mark.parametrize("price", [0.0, -5.0, math.inf, -math.inf, math.nan])
def test_profile_price_must_be_finite_and_positive(price):
    with pytest.raises(ContractError, match="price must be finite and positive"):
        ProductProfile(levels={"storage": "128GB"}, price=price)


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


class TestChoiceProbability:
    def test_equal_utilities_give_half(self, scheme):
        # A's Pro camera is worth exactly its $128 premium (1.0 = 128 / 128),
        # so the two distinct profiles have equal utility and P(choose A) = 1/2
        beta = np.zeros(scheme.n_features)
        beta[scheme.feature_columns.index("camera:Pro")] = 1.0
        beta[-1] = -0.0078125
        a = baseline_profile(scheme, price=927.0)
        a = ProductProfile(levels={**a.levels, "camera": "Pro"}, price=a.price)
        b = baseline_profile(scheme, price=799.0)
        assert (encode_profile(scheme, a) - encode_profile(scheme, b)) @ beta == 0.0
        n = 10_000
        tasks = survey(scheme, [(0, i, a.levels, a.price, b.levels, b.price) for i in range(n)])
        dataset = simulate_choices(scheme, beta[None, :], tasks, seed=5)
        rate = np.mean(dataset.chose_a)
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / n)


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
