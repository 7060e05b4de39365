"""Built-in smartphone case study: scheme, ground truth, and survey price grid.

A three-attribute handset (storage, camera system, frame material) plus
price. Dollar WTP means follow the demo study shipped with the README;
heterogeneity defaults to $50 on the camera and 25% of the mean elsewhere,
and the population price coefficient puts typical utility differences in a
range where simulated choices are informative but noisy. The revenue
scenario lives only in `configs/smartphone.json`.
"""

from __future__ import annotations

from .domain import Attribute, AttributeScheme
from .simulate import GroundTruth

DEFAULT_PRICE_GRID = (799.0, 899.0, 999.0, 1099.0, 1199.0)


def smartphone_scheme() -> AttributeScheme:
    return AttributeScheme(
        attributes=(
            Attribute(name="storage", levels=("128GB", "256GB", "512GB"), baseline="128GB"),
            Attribute(name="camera", levels=("Standard", "Pro"), baseline="Standard"),
            Attribute(name="frame", levels=("Aluminum", "Titanium"), baseline="Aluminum"),
        ),
        price_attribute="price",
    )


def smartphone_truth() -> GroundTruth:
    return GroundTruth(
        true_wtp={
            "storage:256GB": 100.0,
            "storage:512GB": 250.0,
            "camera:Pro": 200.0,
            "frame:Titanium": 80.0,
        },
        wtp_sd={
            "storage:256GB": 25.0,
            "storage:512GB": 62.5,
            "camera:Pro": 50.0,
            "frame:Titanium": 20.0,
        },
        price_coef_mean=-0.01,
        price_coef_sd=0.002,
    )
