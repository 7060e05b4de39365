"""Constants and reference functions shared by the test modules.

They live in a plain module, not in conftest.py: when this suite and
perfbench/tests run in one session, the name `tests.conftest` can resolve
to perfbench's conftest.
"""

from __future__ import annotations

from pathlib import Path

from conjoint_wtp.domain import WTP_PRICE_EPS
from conjoint_wtp.errors import ContractError, SignSafetyError

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smartphone.json"
DEMO_SEED = 20250808


def wtp(beta_f: float, beta_price: float, eps: float = WTP_PRICE_EPS) -> float:
    """Reference dollar value of a feature, -beta_f / beta_price, for one
    coefficient pair. A price coefficient at or above -eps raises
    SignSafetyError; a negative result is legitimate."""
    if not (eps > 0):
        raise ContractError(f"eps must be positive, got {eps}")
    if not (beta_price < -eps):
        raise SignSafetyError(f"price coefficient {beta_price} is not below -{eps}")
    return -beta_f / beta_price
