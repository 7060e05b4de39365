"""MCMC quality diagnostics: rank-normalized split R-hat and bulk ESS.

R-hat splits each chain in half, rank-normalizes the pooled draws, and
applies the classic between/within variance ratio. ESS sums autocorrelations
(FFT-based) with Geyer's initial monotone positive-pair truncation on the
same rank-normalized split chains. Both are deterministic functions of the
draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Diagnostics:
    """Per-parameter convergence metrics plus sampler health counters."""

    r_hat: dict[str, float]
    effective_sample_size: dict[str, float]
    divergence_count: int
    divergence_rate: float
    mean_accept_prob: tuple[float, ...]
    warnings: list[str] = field(default_factory=list)

    def max_r_hat(self, prefix: str = "") -> float:
        values = [v for k, v in self.r_hat.items() if k.startswith(prefix) and math.isfinite(v)]
        return max(values) if values else math.nan


def _split_chains(draws: np.ndarray) -> np.ndarray:
    """(chains, draws, ...) -> (2*chains, draws//2, ...), dropping an odd draw."""
    n = draws.shape[1]
    half = n // 2
    if half < 1:
        raise ValueError("need at least 2 draws per chain to split")
    first = draws[:, :half]
    second = draws[:, n - half :]
    return np.concatenate([first, second], axis=0)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, ties sharing the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Fractional ranks of the pooled sample mapped through the normal quantile."""
    from scipy.special import ndtri  # imported here so only `diagnose` pays for scipy

    pooled = x.reshape(-1)
    z = ndtri((_average_ranks(pooled) - 0.375) / (pooled.size + 0.25))
    return z.reshape(x.shape)


def split_rhat(chain_draws: np.ndarray) -> float:
    """Rank-normalized split R-hat for one parameter, draws as (chains, n)."""
    chains = _split_chains(np.asarray(chain_draws, dtype=float))
    z = _rank_normalize(chains)
    m, n = z.shape
    chain_means = z.mean(axis=1)
    w = z.var(axis=1, ddof=1).mean()
    b = n * chain_means.var(ddof=1) if m > 1 else 0.0
    if w <= 0:
        return math.nan
    var_plus = (n - 1) / n * w + b / n
    return float(math.sqrt(var_plus / w))


def _chain_autocovariance(z: np.ndarray) -> np.ndarray:
    """Biased autocovariance per chain via FFT; z is (chains, n)."""
    m, n = z.shape
    centered = z - z.mean(axis=1, keepdims=True)
    size = 2 ** math.ceil(math.log2(2 * n))
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n].real
    return acov / n


def ess_bulk(chain_draws: np.ndarray) -> float:
    """Bulk effective sample size with Geyer truncation, draws as (chains, n)."""
    chains = _split_chains(np.asarray(chain_draws, dtype=float))
    z = _rank_normalize(chains)
    m, n = z.shape
    if np.allclose(z.var(axis=1), 0.0):
        return math.nan
    acov = _chain_autocovariance(z)
    chain_var = acov[:, 0] * n / (n - 1)
    w = chain_var.mean()
    var_plus = w * (n - 1) / n
    if m > 1:
        var_plus += z.mean(axis=1).var(ddof=1)
    if var_plus <= 0:
        return math.nan

    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs, stop at the first negative pair, then
    # enforce a monotone non-increasing sequence.
    max_pairs = (n - 1) // 2
    pair_sums = []
    for k in range(max_pairs):
        s = rho[2 * k] + rho[2 * k + 1]
        if s < 0:
            break
        pair_sums.append(s)
    running_min = math.inf
    tau = -rho[0]
    for s in pair_sums:
        running_min = min(running_min, s)
        tau += 2.0 * running_min
    if tau <= 0:
        return float(m * n)
    ess = m * n / tau
    return float(min(ess, m * n * math.log10(max(m * n, 10))))


def diagnose(
    draws: np.ndarray,
    names: list[str],
    divergent: np.ndarray,
    accept_by_chain: tuple[float, ...],
    rhat_warn_threshold: float = 1.05,
    warn_prefixes: tuple[str, ...] = ("mu[", "sigma["),
) -> Diagnostics:
    """Compute R-hat/ESS for every named parameter of (chains, draws, dim)."""
    r_hat: dict[str, float] = {}
    ess: dict[str, float] = {}
    for j, name in enumerate(names):
        series = draws[:, :, j]
        r_hat[name] = split_rhat(series)
        ess[name] = ess_bulk(series)
    warnings = []
    for name, value in r_hat.items():
        if name.startswith(warn_prefixes) and math.isfinite(value) and value > rhat_warn_threshold:
            warnings.append(f"r_hat[{name}] = {value:.4f} exceeds {rhat_warn_threshold}")
    n_div = int(np.asarray(divergent).sum())
    total = int(np.asarray(divergent).size)
    return Diagnostics(
        r_hat=r_hat,
        effective_sample_size=ess,
        divergence_count=n_div,
        divergence_rate=n_div / total if total else 0.0,
        mean_accept_prob=accept_by_chain,
        warnings=warnings,
    )
