"""Attribute coding, the price rule and the WTP sign floor.

The feature vector layout is fixed by the attribute scheme: one 0/1 dummy
per non-baseline level of each attribute (attribute order, then level
order), followed by a single continuous price column in dollars.
Coefficient vectors are aligned to the same columns, with the price entry
in utility per dollar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CodingError, ContractError

# Price coefficients closer to zero than this are treated as sign-unsafe:
# the WTP ratio would blow up or flip sign.
WTP_PRICE_EPS = 1e-8


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
    """Catalog of product attributes plus the name of the price column.

    Price is not an attribute: prices come from the price grid, so
    `price_attribute` only names the last feature column. Derived once, as
    plain attributes that equality and hashing do not see: the "<attr>:<level>"
    `dummy_columns`, then `price_attribute` last, make `feature_columns`, the
    one statement of the layout; `dummy_levels` gives each dummy's (attribute
    index, level index), and `level_index` maps attribute -> {level: index}.
    """

    attributes: tuple[Attribute, ...]
    price_attribute: str

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ContractError("attributes must list at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ContractError("attribute names must be unique")
        if self.price_attribute in names:
            raise ContractError(
                f"price attribute {self.price_attribute!r} must not be listed among the "
                "attributes: it names the price column, and prices come from the price grid"
            )
        dummies = [
            (f"{attr.name}:{level}", (j, k))
            for j, attr in enumerate(self.attributes)
            for k, level in enumerate(attr.levels)
            if level != attr.baseline
        ]
        derived = {
            "dummy_columns": tuple(name for name, _ in dummies),
            "dummy_levels": tuple(code for _, code in dummies),
            "feature_columns": tuple(name for name, _ in dummies) + (self.price_attribute,),
            "n_features": len(dummies) + 1,
            "level_index": {a.name: {level: k for k, level in enumerate(a.levels)} for a in self.attributes},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def code_levels(self, levels: Mapping[str, str]) -> list[int]:
        """Each attribute's level index for a profile's {attribute: level}
        names; the one check of names against the scheme, so a missing
        attribute, unknown level or unknown attribute is a CodingError."""
        codes = []
        for name, index in self.level_index.items():
            level = levels.get(name)
            if level is None:
                raise CodingError(f"profile is missing attribute {name!r}")
            try:
                codes.append(index[level])
            except KeyError:
                raise CodingError(f"unknown level {level!r} for attribute {name!r}") from None
        if len(levels) != len(codes):
            unknown = next(name for name in levels if name not in self.level_index)
            raise CodingError(f"unknown attribute {unknown!r} in profile")
        return codes


def is_price(value):
    """The price rule, for a number or elementwise for an array: finite and positive."""
    return (value > 0) & (value < math.inf)


def check_price_grid(prices: Sequence[float]) -> None:
    """The one price rule for a grid: non-empty, every entry finite and positive."""
    if not prices:
        raise ContractError("price_grid must be non-empty")
    bad = [p for p in prices if not is_price(p)]
    if bad:
        raise ContractError(f"price_grid entries must be finite and positive, got {bad}")


@dataclass(frozen=True)
class ProductProfile:
    """A concrete product: one level per attribute plus a finite positive price."""

    levels: Mapping[str, str]
    price: float

    def __post_init__(self) -> None:
        if not is_price(self.price):
            raise ContractError(f"price must be finite and positive, got {self.price}")
        object.__setattr__(self, "levels", dict(self.levels))


def encode(scheme: AttributeScheme, levels: np.ndarray, prices) -> np.ndarray:
    """Every feature row in the program: `levels` (..., attributes) level
    indices and dollar `prices` (...) dummy-coded in feature-column order. A
    baseline level codes as zeros; the price is copied into the last column.
    """
    x = np.zeros(np.shape(prices) + (scheme.n_features,))
    for column, (j, k) in enumerate(scheme.dummy_levels):
        x[..., column] = levels[..., j] == k
    x[..., -1] = prices
    return x


def encode_profile(scheme: AttributeScheme, profile: ProductProfile) -> np.ndarray:
    """One named profile's feature row: its level names coded through the
    scheme (CodingError names a bad one), then `encode`."""
    return encode(scheme, np.array(scheme.code_levels(profile.levels), dtype=np.intp), profile.price)
