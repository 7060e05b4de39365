"""MCMC quality diagnostics: rank-normalized split R-hat and bulk ESS.

`diagnose` splits each chain in half and rank-normalizes each parameter's
pooled split draws once. Both statistics come from that one array: R-hat is
the classic between/within variance ratio, and ESS sums autocorrelations
(FFT-based) with Geyer's initial monotone positive-pair truncation
(Vehtari et al. 2021, arXiv:1903.08008). Parameters are taken in blocks
sized from the draw count, so the FFT buffers stay within a few MB however
long the chains are. Both are deterministic functions of the draws.

Beside them it carries each chain's sampler statistics: mean acceptance,
adapted step size, and gradient evaluations in warmup and in sampling.
These are counts, not timings, so repeat runs write the same file.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from .nuts import ChainStats

RHAT_WARN_THRESHOLD = 1.05
# Name prefixes of the population parameters, whose R-hat the run reports.
POPULATION_PREFIXES = ("mu[", "sigma[")

# Bytes of one float64 (split chains x FFT length) buffer for a block of
# parameters; a block holds a few such buffers at once. Small blocks stay in
# cache: at 4 chains this is 8 parameters at 250 draws, 1 at 2,000.
_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class Diagnostics:
    """Per-parameter convergence metrics plus sampler health counters;
    `diagnostics.json` is this dataclass as the config walker writes it."""

    r_hat: Mapping[str, float]
    effective_sample_size: Mapping[str, float]
    divergence_count: int
    divergence_rate: float
    # one entry per chain
    mean_accept_prob: tuple[float, ...]
    step_size: tuple[float, ...]
    grad_evals_warmup: tuple[int, ...]
    grad_evals_sampling: tuple[int, ...]
    warnings: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.divergence_count < 0:
            raise ContractError(f"divergence_count must be >= 0, got {self.divergence_count}")

    def max_r_hat(self, prefix: str | tuple[str, ...] = "") -> float:
        """Largest finite R-hat among the names starting with `prefix` (one or several)."""
        values = [v for k, v in self.r_hat.items() if k.startswith(prefix) and math.isfinite(v)]
        return max(values) if values else math.nan


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, ties sharing the mean of their ranks.

    Equal values get equal ranks, so the order the sort leaves them in does
    not matter and the sort need not be stable.
    """
    order = np.argsort(x, axis=-1)
    ordered = np.take_along_axis(x, order, axis=-1)
    size = x.shape[-1]
    edge = np.ones(x.shape[:-1] + (1,), dtype=bool)
    new = ordered[..., 1:] != ordered[..., :-1]
    pos = np.arange(size)
    # each sorted position's tie group runs from `starts` up to `ends`
    starts = np.maximum.accumulate(np.where(np.concatenate([edge, new], -1), pos, 0), axis=-1)
    ends = np.where(np.concatenate([new, edge], -1), pos + 1, size)
    ends = np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (starts + ends + 1) / 2.0, axis=-1)
    return ranks


def _fft_size(n: int) -> int:
    return 2 ** math.ceil(math.log2(2 * n))


def _block_size(chains: int, n_draws: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * 2 * chains * _fft_size(n_draws // 2)))


def _rhat_ess(draws: np.ndarray, ndtri) -> tuple[np.ndarray, np.ndarray]:
    """Split R-hat and bulk ESS of each parameter of (chains, n, block)."""
    chains, n_draws, block = draws.shape
    n = n_draws // 2
    m = 2 * chains
    # (block, 2 * chains, n): first halves of every chain, then second halves
    by_param = draws.transpose(2, 0, 1)
    split = np.concatenate([by_param[..., :n], by_param[..., n_draws - n :]], axis=1)
    pooled = split.reshape(block, m * n)
    z = ndtri((_average_ranks(pooled) - 0.375) / (m * n + 0.25)).reshape(block, m, n)

    chain_means = z.mean(axis=2)
    between = chain_means.var(axis=1, ddof=1)
    w = z.var(axis=2, ddof=1).mean(axis=1)
    b = n * between
    r_hat = np.sqrt(((n - 1) / n * w + b / n) / w)
    r_hat[w <= 0] = np.nan

    size = _fft_size(n)
    f = np.fft.rfft(z - chain_means[..., None], size, axis=2)
    acov = np.fft.irfft(f * np.conj(f), size, axis=2)[..., :n] / n
    # ESS takes the within-chain variance from lag 0 of the autocovariance
    w_acov = (acov[..., 0] * n / (n - 1)).mean(axis=1)
    var_plus = w_acov * (n - 1) / n + between
    rho = 1.0 - (w_acov[:, None] - acov.mean(axis=1)) / var_plus[:, None]
    rho[:, 0] = 1.0
    # Geyer: sum consecutive pairs, stop at the first negative pair, and
    # make the kept sums monotone non-increasing. cumsum adds the terms in
    # lag order, so tau rounds as a loop over lags would.
    lags = 2 * ((n - 1) // 2)
    pairs = rho[:, 0:lags:2] + rho[:, 1:lags:2]
    stop = np.concatenate([pairs < 0, np.ones((block, 1), dtype=bool)], axis=1).argmax(axis=1)
    terms = np.concatenate([np.full((block, 1), -1.0), 2.0 * np.minimum.accumulate(pairs, axis=1)], 1)
    tau = np.cumsum(terms, axis=1)[np.arange(block), stop]
    total = m * n
    ess = np.where(tau > 0, np.minimum(total / tau, total * math.log10(max(total, 10))), total)
    # with every split chain constant there is no rank spread: ESS is undefined
    ess[np.all(z.var(axis=2) <= 1e-8, axis=1)] = np.nan
    return r_hat, ess


def diagnose(draws: np.ndarray, names: list[str], stats: Sequence[ChainStats]) -> Diagnostics:
    """Compute R-hat/ESS for every named parameter of (chains, draws, dim),
    and collect each chain's sampler statistics."""
    from scipy.special import ndtri  # imported here so only `diagnose` pays for scipy

    draws = np.asarray(draws, dtype=float)
    chains, n_draws, dim = draws.shape
    block = _block_size(chains, n_draws)
    r_hat = np.empty(dim)
    ess = np.empty(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, dim, block):
            stop = start + block
            r_hat[start:stop], ess[start:stop] = _rhat_ess(draws[:, :, start:stop], ndtri)
    r_hat_by_name = dict(zip(names, r_hat.tolist()))
    warnings = tuple(
        f"r_hat[{name}] = {value:.4f} exceeds {RHAT_WARN_THRESHOLD}"
        for name, value in r_hat_by_name.items()
        if name.startswith(POPULATION_PREFIXES) and math.isfinite(value) and value > RHAT_WARN_THRESHOLD
    )
    divergent = np.concatenate([c.divergent for c in stats])
    n_div = int(divergent.sum())
    return Diagnostics(
        r_hat=r_hat_by_name,
        effective_sample_size=dict(zip(names, ess.tolist())),
        divergence_count=n_div,
        divergence_rate=n_div / divergent.size if divergent.size else 0.0,
        mean_accept_prob=tuple(c.mean_accept for c in stats),
        step_size=tuple(c.step_size for c in stats),
        grad_evals_warmup=tuple(c.grad_evals_warmup for c in stats),
        grad_evals_sampling=tuple(c.grad_evals_sampling for c in stats),
        warnings=warnings,
    )
