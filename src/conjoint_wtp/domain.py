"""Core choice model: attribute coding, linear utility, logit choice, WTP sign floor.

Everything here is a pure function over plain numpy vectors. The feature
vector layout is fixed by the attribute scheme: one 0/1 dummy per
non-baseline level of each non-price attribute (attribute order, then level
order), followed by a single continuous price column in dollars. Coefficient
vectors are aligned to the same columns, with the price entry in utility per
dollar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CodingError, ContractError

# Price coefficients closer to zero than this are treated as sign-unsafe:
# the WTP ratio would blow up or flip sign.
WTP_PRICE_EPS = 1e-8

_ONE_BELOW = float(np.nextafter(1.0, 0.0))
_ZERO_ABOVE = float(np.nextafter(0.0, 1.0))


@dataclass(frozen=True)
class Attribute:
    """One product attribute with its declared levels and baseline."""

    name: str
    levels: tuple[str, ...]
    baseline: str

    def __post_init__(self) -> None:
        if len(set(self.levels)) < 2:
            raise ContractError(f"attribute {self.name!r} needs >= 2 distinct levels, got {self.levels}")
        if len(set(self.levels)) != len(self.levels):
            raise ContractError(f"attribute {self.name!r} has duplicate levels")
        if self.baseline not in self.levels:
            raise ContractError(f"baseline {self.baseline!r} is not a level of attribute {self.name!r}")


@dataclass(frozen=True)
class AttributeScheme:
    """Catalog of attributes plus the designated price attribute.

    Derives the deterministic feature-column order used everywhere else:
    `feature_columns` is the tuple of "<attr>:<level>" dummy names followed
    by the price attribute's name.
    """

    attributes: tuple[Attribute, ...]
    price_attribute: str

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ContractError("attribute names must be unique")
        if self.price_attribute not in names:
            raise ContractError(f"price attribute {self.price_attribute!r} is not in the scheme")
        for level in self._price_attr().levels:
            try:
                value = float(level)
            except ValueError:
                value = math.nan
            if not (value > 0):
                raise ContractError(
                    f"price attribute level {level!r} is not a positive dollar amount"
                )

    def _price_attr(self) -> Attribute:
        for a in self.attributes:
            if a.name == self.price_attribute:
                return a
        raise AssertionError("unreachable: validated in __post_init__")

    @property
    def non_price_attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.name != self.price_attribute)

    @property
    def dummy_columns(self) -> tuple[str, ...]:
        cols = []
        for attr in self.non_price_attributes:
            for level in attr.levels:
                if level != attr.baseline:
                    cols.append(f"{attr.name}:{level}")
        return tuple(cols)

    @property
    def feature_columns(self) -> tuple[str, ...]:
        return self.dummy_columns + (self.price_attribute,)

    @property
    def n_features(self) -> int:
        return len(self.feature_columns)

    @property
    def price_index(self) -> int:
        return self.n_features - 1

    def column_index(self, column: str) -> int:
        try:
            return self.feature_columns.index(column)
        except ValueError:
            raise CodingError(f"unknown feature column {column!r}") from None


@dataclass(frozen=True)
class ProductProfile:
    """A concrete product: one level per non-price attribute plus a price."""

    levels: Mapping[str, str]
    price: float

    def __post_init__(self) -> None:
        if not (self.price > 0):
            raise ContractError(f"price must be positive, got {self.price}")
        object.__setattr__(self, "levels", dict(self.levels))


def validate_profile(scheme: AttributeScheme, profile: ProductProfile) -> None:
    """Raise CodingError unless the profile assigns exactly the scheme's attributes."""
    expected = {a.name for a in scheme.non_price_attributes}
    for name in profile.levels:
        if name not in expected:
            raise CodingError(f"unknown attribute {name!r} in profile")
    for attr in scheme.non_price_attributes:
        level = profile.levels.get(attr.name)
        if level is None:
            raise CodingError(f"profile is missing attribute {attr.name!r}")
        if level not in attr.levels:
            raise CodingError(f"unknown level {level!r} for attribute {attr.name!r}")


def encode_profile(scheme: AttributeScheme, profile: ProductProfile) -> np.ndarray:
    """Dummy-code a profile into the scheme's feature-column order.

    Baseline levels code as all-zeros for their attribute; the price is
    copied verbatim in dollars into the last column.
    """
    validate_profile(scheme, profile)
    values = np.zeros(scheme.n_features)
    for attr in scheme.non_price_attributes:
        level = profile.levels[attr.name]
        if level != attr.baseline:
            values[scheme.column_index(f"{attr.name}:{level}")] = 1.0
    values[scheme.price_index] = profile.price
    return values


def utility(x: np.ndarray, beta: np.ndarray) -> float:
    """Linear utility: the inner product of a feature vector and coefficients."""
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if x.shape != beta.shape:
        raise ContractError(f"dimension mismatch: features {x.shape} vs coefficients {beta.shape}")
    return float(x @ beta)


def choice_probability(u_a: float, u_b: float) -> float:
    """Probability of choosing A over B: the logistic of the utility difference.

    Numerically stable for arbitrarily large differences and clamped into the
    open interval (0, 1) so downstream Bernoulli sampling never degenerates.
    """
    if not (math.isfinite(u_a) and math.isfinite(u_b)):
        raise ContractError(f"utilities must be finite, got ({u_a}, {u_b})")
    diff = u_a - u_b
    if diff >= 0:
        p = 1.0 / (1.0 + math.exp(-diff))
    else:
        z = math.exp(diff)
        p = z / (1.0 + z)
    if p >= 1.0:
        return _ONE_BELOW
    if p <= 0.0:
        return _ZERO_ABOVE
    return p
