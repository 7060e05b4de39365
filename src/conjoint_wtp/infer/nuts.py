"""No-U-Turn sampler: dynamic multinomial trajectories over a diagonal metric.

One transition samples a momentum, then repeatedly doubles a leapfrog
trajectory in a random direction until the generalized U-turn criterion
fires, a divergence is hit, or the tree-depth cap is reached. One join,
`_join`, extends a piece of trajectory by the adjacent piece, inside a
subtree and at the top alike: it takes the new edge, sums the weights,
momenta and counts, and checks the joined span for a U-turn. Only the
proposal rule differs. A subtree picks between its halves multinomially by
weight (uniform rule); the trajectory takes each new subtree's state with
the biased-progressive rule, which prefers states far from the start.

Warmup starts from the model's initial diagonal metric and follows the
windowed schedule: an initial step-size-only buffer, expanding windows that
re-estimate the diagonal metric from the warmup draws (step size
re-initialized and dual averaging restarted at every window close), and a
final step-size-only buffer. Post-warmup, the step size is frozen at the
dual-averaged value. For the hierarchical logit the initial metric is 1/R on
the population means (about their posterior variance), 1 on the offsets and
0.1 on the log SDs. The last is not the log SDs' posterior scale, which
spans 0.03-1.5 on the demo survey: it is the start measured to cut the
initial buffer from about 70 leapfrog steps an iteration to 37-49.

Chains are independent given (seed, chain index), so serial and parallel
execution produce bit-identical results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, FitError
from ..rng import CHAIN_STREAM, substream

# Energy error that flags a transition as divergent (leapfrog blow-up).
DIVERGENCE_THRESHOLD = 1000.0

_MAX_INIT_TRIES = 100

# Warmup layout: step-size-only buffers around expanding metric windows.
_INIT_BUFFER = 75
_TERM_BUFFER = 50
_BASE_WINDOW = 25

# Dual averaging of the step size (Hoffman & Gelman 2014): shrinkage
# strength, iteration offset and decay exponent of the averaged iterate.
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75


@dataclass
class ChainStats:
    """Per-draw sampler statistics for one chain (post-warmup only), plus
    the adapted step size and metric and the chain's gradient count in warmup."""

    accept_stat: np.ndarray
    divergent: np.ndarray
    energy: np.ndarray
    energy_error: np.ndarray
    tree_depth: np.ndarray
    n_leapfrog: np.ndarray
    step_size: float
    inv_mass: np.ndarray
    grad_evals_warmup: int  # the start, step-size searches and warmup transitions

    @property
    def mean_accept(self) -> float:
        return float(self.accept_stat.mean()) if self.accept_stat.size else math.nan

    @property
    def grad_evals_sampling(self) -> int:
        return int(self.n_leapfrog.sum())  # one gradient per leapfrog step


@dataclass
class SampleResult:
    """Draws stacked as (chains, draws, dim) plus per-chain statistics."""

    draws: np.ndarray
    stats: list[ChainStats]

    def flat(self) -> np.ndarray:
        return self.draws.reshape(-1, self.draws.shape[2])


def _log_add_exp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) for two floats, without a numpy scalar call."""
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


class _Hamiltonian:
    """Leapfrog dynamics under a diagonal inverse metric.

    A phase-space state is the tuple (q, p, grad, logp, v), where v is the
    velocity inv_mass * p; carrying it saves recomputing it for the energy
    and the U-turn checks.
    """

    def __init__(self, log_posterior, inv_mass: np.ndarray):
        self.log_posterior = log_posterior
        self.inv_mass = inv_mass
        self.momentum_sd = 1.0 / np.sqrt(inv_mass)

    def sample_momentum(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.inv_mass.shape[0]) * self.momentum_sd

    def energy(self, logp: float, p: np.ndarray, v: np.ndarray) -> float:
        return -logp + 0.5 * float(p @ v)

    def velocity(self, p: np.ndarray) -> np.ndarray:
        return self.inv_mass * p

    def leapfrog(self, q, p, grad, step):
        half = 0.5 * step
        p_half = p + half * grad
        q_new = q + step * self.velocity(p_half)
        logp_new, grad_new = self.log_posterior(q_new)
        p_new = p_half + half * grad_new
        return q_new, p_new, grad_new, logp_new, self.velocity(p_new)


@dataclass(slots=True)
class _Tree:
    """A built subtree: its two edge states, the multinomial proposal
    (q, grad, logp, energy), and the sums merged up the tree."""

    left: tuple
    right: tuple
    proposal: tuple
    log_sum_weight: float
    rho: np.ndarray
    sum_accept: float
    n_states: int
    divergent: bool
    turning: bool


def _is_turning(rho: np.ndarray, v_left: np.ndarray, v_right: np.ndarray) -> bool:
    return float(v_left @ rho) <= 0.0 or float(v_right @ rho) <= 0.0


def _join(old: _Tree, new: _Tree, direction: int) -> _Tree:
    """`old` extended by the adjacent `new` on the `direction` side, keeping
    `old`'s proposal. The joined span's U-turn is checked only when `new` is
    usable, that is, neither divergent nor turning."""
    left, right = (old.left, new.right) if direction > 0 else (new.left, old.right)
    rho = old.rho + new.rho
    return _Tree(
        left,
        right,
        old.proposal,
        _log_add_exp(old.log_sum_weight, new.log_sum_weight),
        rho,
        old.sum_accept + new.sum_accept,
        old.n_states + new.n_states,
        new.divergent,
        new.turning or (not new.divergent and _is_turning(rho, left[4], right[4])),
    )


def _build_tree(ham, depth, state, direction, step, h0, rng) -> _Tree:
    if depth == 0:
        leaf = ham.leapfrog(state[0], state[1], state[2], direction * step)
        q1, p1, grad1, logp1, v1 = leaf
        h = ham.energy(logp1, p1, v1)
        delta = h - h0
        if not math.isfinite(h):
            divergent = True
            delta = math.inf
        else:
            divergent = delta > DIVERGENCE_THRESHOLD
        return _Tree(
            leaf,
            leaf,
            (q1, grad1, logp1, h),
            -math.inf if divergent else -delta,
            p1,
            math.exp(min(0.0, -delta)) if math.isfinite(delta) else 0.0,
            1,
            divergent,
            False,
        )

    inner = _build_tree(ham, depth - 1, state, direction, step, h0, rng)
    if inner.divergent or inner.turning:
        return inner
    start = inner.right if direction > 0 else inner.left
    outer = _build_tree(ham, depth - 1, start, direction, step, h0, rng)
    tree = _join(inner, outer, direction)
    # uniform multinomial selection between the two halves
    if not (outer.divergent or outer.turning):
        if math.log(rng.random()) < outer.log_sum_weight - tree.log_sum_weight:
            tree.proposal = outer.proposal
    return tree


def _transition(ham, q, grad, logp, step, max_depth, rng):
    p0 = ham.sample_momentum(rng)
    v0 = ham.velocity(p0)
    h0 = ham.energy(logp, p0, v0)
    start = (q, p0, grad, logp, v0)
    path = _Tree(start, start, (q, grad, logp, h0), 0.0, p0, 0.0, 0, False, False)
    depth = 0
    while depth < max_depth and not (path.divergent or path.turning):
        direction = 1 if rng.random() < 0.5 else -1
        edge = path.right if direction > 0 else path.left
        subtree = _build_tree(ham, depth, edge, direction, step, h0, rng)
        joined = _join(path, subtree, direction)
        # biased progressive: prefer the new half of the trajectory
        if not (subtree.divergent or subtree.turning):
            if math.log(rng.random()) < subtree.log_sum_weight - path.log_sum_weight:
                joined.proposal = subtree.proposal
            depth += 1
        path = joined
    accept_stat = path.sum_accept / path.n_states if path.n_states else 0.0
    prop_q, prop_grad, prop_logp, prop_energy = path.proposal
    # after the new state, one value per ChainStats array, in field order
    return (
        prop_q,
        prop_grad,
        prop_logp,
        accept_stat,
        path.divergent,
        prop_energy,
        prop_energy - h0,
        depth,
        path.n_states,  # one leapfrog step per new state
    )


def _find_reasonable_step_size(ham, q, grad, logp, rng) -> float:
    """Double/halve until one leapfrog step has acceptance near 0.5."""
    step = 1.0
    p = ham.sample_momentum(rng)
    h0 = ham.energy(logp, p, ham.velocity(p))

    def accept_logprob(eps: float) -> float:
        _, p1, _, logp1, v1 = ham.leapfrog(q, p, grad, eps)
        h1 = ham.energy(logp1, p1, v1)
        return h0 - h1 if math.isfinite(h1) else -math.inf

    a = accept_logprob(step)
    direction = 1.0 if a > math.log(0.5) else -1.0
    for _ in range(100):
        if direction > 0 and not (a > math.log(0.5)):
            break
        if direction < 0 and not (a < math.log(0.5)):
            break
        step *= 2.0**direction
        if step > 1e7 or step < 1e-10:
            break
        a = accept_logprob(step)
    return step


class _DualAveraging:
    """Nesterov dual averaging on log step size, targeting an accept rate."""

    def __init__(self, step0: float, target: float):
        self.mu = math.log(10.0 * step0)
        self.target = target
        self.count = 0
        self.h_bar = 0.0
        self.log_step = math.log(step0)
        self.log_step_bar = math.log(step0)

    def update(self, accept_stat: float) -> float:
        self.count += 1
        w = 1.0 / (self.count + _DA_T0)
        self.h_bar = (1.0 - w) * self.h_bar + w * (self.target - min(accept_stat, 1.0))
        self.log_step = self.mu - math.sqrt(self.count) / _DA_GAMMA * self.h_bar
        eta = self.count**-_DA_KAPPA
        self.log_step_bar = eta * self.log_step + (1.0 - eta) * self.log_step_bar
        return math.exp(self.log_step)

    def adapted(self) -> float:
        return math.exp(self.log_step_bar)


class _RunningVariance:
    """Welford accumulator with Stan-style shrinkage toward a small diagonal."""

    def __init__(self, dim: int):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def add(self, x: np.ndarray) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def regularized_variance(self) -> np.ndarray:
        if self.n < 2:
            return np.ones_like(self.mean)
        var = self.m2 / (self.n - 1)
        w = self.n / (self.n + 5.0)
        return w * var + 1e-3 * (1.0 - w)


def _adaptation_windows(warmup: int) -> list[int]:
    """Iteration indices (1-based) at which the metric is re-estimated."""
    if warmup < _INIT_BUFFER + _TERM_BUFFER + _BASE_WINDOW:
        return []
    ends = []
    start, width = _INIT_BUFFER, _BASE_WINDOW
    boundary = warmup - _TERM_BUFFER
    while start + width <= boundary:
        end = start + width
        if end + 2 * width > boundary:
            end = boundary
        ends.append(end)
        start = end
        width *= 2
    return ends


def _run_chain(args):
    """One chain's draws and statistics. A leapfrog step that blows up can
    overflow the energy to inf, which marks the transition divergent; that
    overflow is expected, so numpy does not warn of it."""
    model, warmup, draws, target_accept, max_depth, seed, chain_idx = args
    with np.errstate(over="ignore"):
        rng = substream(seed, CHAIN_STREAM, chain_idx)
        dim = model.dim
        grad_evals = 0

        def log_posterior(theta):
            nonlocal grad_evals
            grad_evals += 1
            return model.log_posterior(theta)

        for _ in range(1 + _MAX_INIT_TRIES):
            q = model.initial_position(rng)
            logp, grad = log_posterior(q)
            if math.isfinite(logp):
                break
        else:
            raise FitError("could not find a finite starting point for the sampler")

        ham = _Hamiltonian(log_posterior, model.initial_inv_mass())
        step = _find_reasonable_step_size(ham, q, grad, logp, rng)
        averager = _DualAveraging(step, target_accept)
        windows = _adaptation_windows(warmup)
        window_set = set(windows)
        slow_start = _INIT_BUFFER if windows else warmup
        slow_end = windows[-1] if windows else 0
        welford = _RunningVariance(dim)

        for m in range(1, warmup + 1):
            q, grad, logp, accept, *_ = _transition(ham, q, grad, logp, step, max_depth, rng)
            step = averager.update(accept)
            if slow_start < m <= slow_end:
                welford.add(q)
            if m in window_set:
                ham = _Hamiltonian(log_posterior, welford.regularized_variance())
                welford = _RunningVariance(dim)
                step = _find_reasonable_step_size(ham, q, grad, logp, rng)
                averager = _DualAveraging(step, target_accept)
        if warmup > 0:
            step = averager.adapted()
        warmup_evals = grad_evals

        out = np.empty((draws, dim))
        rows = []
        for s in range(draws):
            q, grad, logp, *row = _transition(ham, q, grad, logp, step, max_depth, rng)
            out[s] = q
            rows.append(row)
        dtypes = (float, bool, float, float, np.int64, np.int64)
        columns = (np.array([row[k] for row in rows], dtype) for k, dtype in enumerate(dtypes))
        return out, ChainStats(
            *columns, step_size=step, inv_mass=ham.inv_mass, grad_evals_warmup=warmup_evals
        )


def resolve_workers(chains: int) -> int:
    """Worker count: CONJOINT_WTP_THREADS, else the CPU count, at most one per chain."""
    env = os.environ.get("CONJOINT_WTP_THREADS", "").strip()
    try:
        workers = int(env) if env else os.cpu_count() or 1
    except ValueError:
        raise ConfigError(f"CONJOINT_WTP_THREADS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigError(f"CONJOINT_WTP_THREADS must be >= 1, got {env!r}")
    return min(chains, workers)


def run_nuts(
    model,
    *,
    chains: int,
    warmup: int,
    draws: int,
    target_accept: float,
    max_treedepth: int,
    seed: int,
) -> SampleResult:
    """Run independent NUTS chains over `model.log_posterior`.

    The model must expose dim, log_posterior(theta) -> (logp, grad),
    initial_position(rng) and initial_inv_mass(), the diagonal inverse
    metric warmup starts from. Chains run in a pool of resolve_workers(chains)
    processes, or serially for one; the results are identical either way.
    """
    jobs = [
        (model, warmup, draws, target_accept, max_treedepth, seed, chain_idx)
        for chain_idx in range(chains)
    ]
    n_workers = resolve_workers(chains)
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: only a pool loads multiprocessing

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_chain, jobs))
    else:
        results = [_run_chain(job) for job in jobs]
    draws_out = np.stack([r[0] for r in results])
    return SampleResult(draws=draws_out, stats=[r[1] for r in results])
