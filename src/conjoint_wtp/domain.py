"""Core choice model: attribute coding, linear utility, logit choice, WTP sign floor.

Everything here is a pure function over plain numpy vectors. The feature
vector layout is fixed by the attribute scheme: one 0/1 dummy per
non-baseline level of each attribute (attribute order, then level order),
followed by a single continuous price column in dollars. Coefficient vectors
are aligned to the same columns, with the price entry in utility per dollar.
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
    """Catalog of product attributes plus the name of the price column.

    Price is not an attribute: a profile carries its price in dollars, and
    the survey draws prices from its price grid, so `price_attribute` only
    names the last feature column and must not be a listed attribute.
    Derives, once at construction, the deterministic feature-column order
    used everywhere else: `feature_columns` is the tuple of "<attr>:<level>"
    dummy names (`dummy_columns`) followed by `price_attribute`, at
    `price_index`. `level_columns` maps each attribute to {level: column},
    with None for the baseline. These are plain attributes, not dataclass
    fields, so equality and hashing see only the declaration.
    """

    attributes: tuple[Attribute, ...]
    price_attribute: str

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ContractError("attribute names must be unique")
        if self.price_attribute in names:
            raise ContractError(
                f"price attribute {self.price_attribute!r} must not be listed among the "
                "attributes: it names the price column, and prices come from the price grid"
            )
        dummies: list[str] = []
        level_columns: dict[str, dict[str, int | None]] = {}
        for attr in self.attributes:
            columns = level_columns[attr.name] = {}
            for level in attr.levels:
                if level == attr.baseline:
                    columns[level] = None
                else:
                    columns[level] = len(dummies)
                    dummies.append(f"{attr.name}:{level}")
        derived = {
            "dummy_columns": tuple(dummies),
            "feature_columns": tuple(dummies) + (self.price_attribute,),
            "n_features": len(dummies) + 1,
            "price_index": len(dummies),
            "level_columns": level_columns,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ProductProfile:
    """A concrete product: one level per attribute plus a price."""

    levels: Mapping[str, str]
    price: float

    def __post_init__(self) -> None:
        if not (self.price > 0):
            raise ContractError(f"price must be positive, got {self.price}")
        object.__setattr__(self, "levels", dict(self.levels))


def encode_profile(scheme: AttributeScheme, profile: ProductProfile) -> np.ndarray:
    """Dummy-code a profile into the scheme's feature-column order.

    The one check of a profile against a scheme: an unknown attribute, a
    missing attribute or an unknown level raises CodingError naming it.
    Baseline levels code as all-zeros for their attribute; the price is
    copied verbatim in dollars into the last column.
    """
    levels = profile.levels
    values = np.zeros(scheme.n_features)
    for name, columns in scheme.level_columns.items():
        level = levels.get(name)
        if level is None:
            raise CodingError(f"profile is missing attribute {name!r}")
        try:
            column = columns[level]
        except KeyError:
            raise CodingError(f"unknown level {level!r} for attribute {name!r}") from None
        if column is not None:
            values[column] = 1.0
    if len(levels) != len(scheme.level_columns):
        unknown = next(name for name in levels if name not in scheme.level_columns)
        raise CodingError(f"unknown attribute {unknown!r} in profile")
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
