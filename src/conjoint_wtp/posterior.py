"""Dollar-valued WTP distributions from posterior draws.

The WTP ratio is computed per draw, never as a ratio of posterior means:
the ratio of a skewed posterior is not the posterior of the ratio. Draws
whose price coefficient is not safely negative are excluded and counted,
and the population-level operations fail loudly if more than 0.1% of draws
are flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import WTP_PRICE_EPS
from .errors import ContractError, SignSafetyError
from .infer.fit import PosteriorDraws
from .simulate import GroundTruth

POPULATION_FLAG_LIMIT = 0.001
HDI_MASS = 0.95

MIN_HDI_SAMPLES = 100


@dataclass
class WtpDraws:
    """Per-draw dollar WTP for one feature, with sign-unsafe draws removed."""

    feature: str
    draws: np.ndarray
    flagged_count: int

    @property
    def mean(self) -> float:
        return float(self.draws.mean())


@dataclass(frozen=True)
class WtpSummary:
    """Posterior mean and highest-density interval for one feature's WTP."""

    feature: str
    mean: float
    hdi_low: float
    hdi_high: float
    hdi_mass: float = HDI_MASS
    flagged_count: int = 0


@dataclass(frozen=True)
class FeatureRecovery:
    """One feature's truth against its WTP summary, as listed in recovery.json."""

    feature: str
    true_wtp: float
    mean: float
    hdi_low: float
    hdi_high: float
    hdi_mass: float
    covered: bool
    abs_error: float


@dataclass(frozen=True)
class RecoveryReport:
    """Per-feature truth coverage; passes only if every HDI contains truth.
    `config.to_dict` of it is the recovery.json document and the report's
    `recovery` section."""

    overall_pass: bool
    features: tuple[FeatureRecovery, ...]


def unscale_population(draws: PosteriorDraws) -> tuple[np.ndarray, np.ndarray]:
    """Population mean/SD draws on the raw (dollar/level) scale.

    Standardization only rescales columns, so slopes divide by the column
    scale; the column means never enter.
    """
    scale = draws.standardization.scale
    return draws.mu / scale, draws.sigma / scale


def sign_safe_draws(price_mean: np.ndarray) -> tuple[np.ndarray, int]:
    """Mask of the draws whose raw price mean is safely negative, and the
    count flagged; more than POPULATION_FLAG_LIMIT flagged raises."""
    keep = price_mean < -WTP_PRICE_EPS
    flagged = int(keep.size - keep.sum())
    if flagged > POPULATION_FLAG_LIMIT * keep.size:
        raise SignSafetyError(
            f"{flagged} of {keep.size} draws have a non-negative price effect; "
            "the model did not learn that higher prices reduce utility"
        )
    return keep, flagged


def wtp_draws(draws: PosteriorDraws, feature: str) -> WtpDraws:
    """Population WTP distribution for one feature: the per-draw ratio of its
    unscaled population mean to the price's, the last column's."""
    j = draws.columns.index(feature)
    mu_raw, _ = unscale_population(draws)
    keep, flagged = sign_safe_draws(mu_raw[:, -1])
    ratios = -mu_raw[keep, j] / mu_raw[keep, -1]
    return WtpDraws(feature=feature, draws=ratios, flagged_count=flagged)


def hdi(samples: np.ndarray, mass: float = HDI_MASS) -> tuple[float, float]:
    """Shortest contiguous interval holding ceil(mass * n) sorted samples.

    Ties in width resolve to the leftmost window, so the result is
    deterministic. This is a highest-density interval, not an equal-tailed
    one: for skewed samples the interval hugs the mode. `mass` is in (0, 1).
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < MIN_HDI_SAMPLES:
        raise ContractError(f"need at least {MIN_HDI_SAMPLES} samples for an HDI, got {n}")
    k = math.ceil(mass * n)
    widths = s[k - 1 :] - s[: n - k + 1]
    i = int(np.argmin(widths))
    return float(s[i]), float(s[i + k - 1])


def summarize_wtp(wd: WtpDraws) -> WtpSummary:
    low, high = hdi(wd.draws, HDI_MASS)
    return WtpSummary(
        feature=wd.feature,
        mean=wd.mean,
        hdi_low=low,
        hdi_high=high,
        flagged_count=wd.flagged_count,
    )


def recovery_report(truth: GroundTruth, summaries: list[WtpSummary]) -> RecoveryReport:
    """Compare WTP summaries against ground truth, feature by feature.

    Coverage uses closed-interval endpoints: truth exactly on an HDI edge
    counts as covered.
    """
    by_feature = {s.feature: s for s in summaries}
    results = []
    for feature, true_value in truth.true_wtp.items():
        summary = by_feature.get(feature)
        if summary is None:
            raise ContractError(f"no WTP summary for ground-truth feature {feature!r}")
        covered = summary.hdi_low <= true_value <= summary.hdi_high
        results.append(
            FeatureRecovery(
                feature=feature,
                true_wtp=float(true_value),
                mean=summary.mean,
                hdi_low=summary.hdi_low,
                hdi_high=summary.hdi_high,
                hdi_mass=summary.hdi_mass,
                covered=bool(covered),
                abs_error=float(abs(summary.mean - true_value)),
            )
        )
    return RecoveryReport(overall_pass=all(r.covered for r in results), features=tuple(results))
