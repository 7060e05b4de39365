"""Sampler mechanics: leapfrog geometry, adaptation, determinism, and
statistical correctness against analytic targets."""

import math
from dataclasses import fields

import numpy as np
import pytest

from conjoint_wtp.errors import ConfigError
from conjoint_wtp.infer import HierarchicalLogitModel, ModelConfig, build_design, run_nuts
from conjoint_wtp.infer.nuts import (
    _adaptation_windows,
    _find_reasonable_step_size,
    _Hamiltonian,
    _join,
    _Tree,
    resolve_workers,
)
from tests.helpers import ragged_dataset


class StandardNormalTarget:
    """Independent standard normals; the simplest exactly-known posterior."""

    def __init__(self, dim):
        self.dim = dim

    def log_posterior(self, theta):
        return float(-0.5 * theta @ theta), -theta

    def initial_position(self, rng):
        return rng.uniform(-1.0, 1.0, self.dim)

    def initial_inv_mass(self):
        return np.ones(self.dim)


class WalledTarget:
    """Standard normal with a hard wall: off-support points are -inf."""

    dim = 2

    def log_posterior(self, theta):
        if np.any(np.abs(theta) > 1.5):
            return -np.inf, np.zeros_like(theta)
        return float(-0.5 * theta @ theta), -theta

    def initial_position(self, rng):
        return rng.uniform(-0.5, 0.5, self.dim)

    def initial_inv_mass(self):
        return np.ones(self.dim)


class NarrowTarget:
    """A normal of SD 1e-150: a leapfrog step of any size the search tries
    leaves a momentum near 1e290, whose energy overflows to inf."""

    dim = 1

    def log_posterior(self, theta):
        x = float(theta[0])
        logp = -0.5e300 * x * x
        if not math.isfinite(logp):
            return -np.inf, np.zeros(1)
        return logp, np.array([-1e300 * x])

    def initial_position(self, rng):
        return rng.uniform(-1.0, 1.0, 1)

    def initial_inv_mass(self):
        return np.ones(1)


class TestLeapfrog:
    def test_forward_then_momentum_flip_returns_to_start(self):
        rng = np.random.default_rng(0)
        target = StandardNormalTarget(6)
        ham = _Hamiltonian(target.log_posterior, inv_mass=np.full(6, 1.3))
        q0 = rng.normal(size=6)
        p0 = ham.sample_momentum(rng)
        logp, grad = target.log_posterior(q0)

        q, p, g = q0, p0, grad
        for _ in range(25):
            q, p, g, _, _ = ham.leapfrog(q, p, g, 0.05)
        p = -p
        for _ in range(25):
            q, p, g, _, _ = ham.leapfrog(q, p, g, 0.05)
        assert np.max(np.abs(q - q0)) < 1e-8
        assert np.max(np.abs(-p - p0)) < 1e-8

    def test_energy_is_conserved_at_small_step(self):
        target = StandardNormalTarget(4)
        ham = _Hamiltonian(target.log_posterior, inv_mass=np.ones(4))
        rng = np.random.default_rng(1)
        q = rng.normal(size=4)
        p = ham.sample_momentum(rng)
        logp, grad = target.log_posterior(q)
        h0 = ham.energy(logp, p, ham.velocity(p))
        for _ in range(100):
            q, p, grad, logp, v = ham.leapfrog(q, p, grad, 0.01)
        assert abs(ham.energy(logp, p, v) - h0) < 1e-3


def _piece(name, v_left, v_right, rho, *, divergent=False, turning=False):
    """A hand-built trajectory piece in one dimension under the unit metric,
    so each edge's velocity is its momentum; the edges and the proposal carry
    `name` so a test can tell whose they are."""
    def edge(side, v):
        return (f"{name}.{side}", None, None, None, np.array([v]))

    return _Tree(edge("left", v_left), edge("right", v_right), f"{name}.proposal",
                 -1.0, np.array([rho]), 0.25, 2, divergent, turning)


class TestTrajectory:
    def test_divergent_piece_stops_with_the_old_proposal(self):
        joined = _join(_piece("old", 1.0, 1.0, 1.0), _piece("new", -5.0, -5.0, -9.0, divergent=True), 1)
        assert joined.divergent and not joined.turning
        assert joined.proposal == "old.proposal"
        assert (joined.n_states, joined.sum_accept) == (4, 0.5)
        assert joined.log_sum_weight == pytest.approx(-1.0 + math.log(2.0))

    def test_joined_momentum_against_an_edge_velocity_turns(self):
        old = _piece("old", 1.0, 1.0, 1.0)
        assert _join(old, _piece("new", -1.0, -1.0, -3.0), 1).turning  # rho = -2 opposes old.left
        assert not _join(old, _piece("new", 1.0, 1.0, 1.0), 1).turning

    def test_turning_piece_stops_without_a_check_of_the_joined_span(self):
        joined = _join(_piece("old", 1.0, 1.0, 1.0), _piece("new", 1.0, 1.0, 1.0, turning=True), -1)
        assert joined.turning and not joined.divergent

    def test_edges_follow_the_direction(self):
        old, new = _piece("old", 1.0, 1.0, 1.0), _piece("new", 1.0, 1.0, 1.0)
        forward, backward = _join(old, new, 1), _join(old, new, -1)
        assert (forward.left[0], forward.right[0]) == ("old.left", "new.right")
        assert (backward.left[0], backward.right[0]) == ("new.left", "old.right")
        assert forward.proposal == backward.proposal == "old.proposal"

    def test_depth_cap_bounds_every_trajectory(self):
        # at cap 2 the trajectory holds at most a one-state and a two-state
        # subtree; a transition that reaches the cap built both in full
        result = run_nuts(StandardNormalTarget(50), chains=1, warmup=150, draws=200,
                          target_accept=0.8, max_treedepth=2, seed=4)
        stats = result.stats[0]
        assert stats.tree_depth.max() <= 2 and stats.n_leapfrog.max() <= 3
        capped = (stats.tree_depth == 2) & ~stats.divergent
        assert capped.any()
        assert np.all(stats.n_leapfrog[capped] == 3)


class TestStepSizeSearch:
    def test_each_trial_step_costs_one_gradient(self):
        # the search doubles or halves from 1.0, so the step it returns is
        # 2**k after |k| + 1 trial leapfrogs, each one log_posterior call
        for scale, seed in [(0.05, 0), (0.3, 1), (3.0, 2), (40.0, 3)]:
            calls = 0

            def log_posterior(theta, scale=scale):
                nonlocal calls
                calls += 1
                return float(-0.5 * theta @ theta / scale**2), -theta / scale**2

            rng = np.random.default_rng(seed)
            q = rng.normal(0.0, scale, 5)
            logp, grad = log_posterior(q)
            calls = 0
            ham = _Hamiltonian(log_posterior, np.ones(5))
            step = _find_reasonable_step_size(ham, q, grad, logp, rng)
            assert calls == abs(math.log2(step)) + 1


class TestAdaptationSchedule:
    def test_default_windows_match_doubling_schedule(self):
        assert _adaptation_windows(1000) == [100, 150, 250, 450, 950]

    def test_short_warmup_has_no_metric_windows(self):
        assert _adaptation_windows(100) == []

    def test_windows_end_at_term_buffer(self):
        # the final window absorbs the remainder up to warmup - term_buffer
        windows = _adaptation_windows(400)
        assert windows[-1] == 350
        assert windows == [100, 150, 350]


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        target = StandardNormalTarget(3)
        kwargs = dict(chains=2, warmup=200, draws=100, target_accept=0.8,
                      max_treedepth=10, seed=99)
        first = run_nuts(target, **kwargs)
        second = run_nuts(target, **kwargs)
        assert np.array_equal(first.draws, second.draws)

    def test_serial_and_parallel_chains_agree(self, monkeypatch):
        target = StandardNormalTarget(3)
        kwargs = dict(chains=2, warmup=200, draws=100, target_accept=0.8,
                      max_treedepth=10, seed=7)
        monkeypatch.setenv("CONJOINT_WTP_THREADS", "1")
        serial = run_nuts(target, **kwargs)
        monkeypatch.setenv("CONJOINT_WTP_THREADS", "2")
        parallel = run_nuts(target, **kwargs)
        assert np.array_equal(serial.draws, parallel.draws)
        for a, b in zip(serial.stats, parallel.stats):
            assert np.array_equal(a.divergent, b.divergent)
            assert a.step_size == b.step_size

    def test_serial_and_parallel_fits_agree_on_a_ragged_panel(self, monkeypatch):
        # the workers unpickle the model and its panel; every bit must survive
        model = HierarchicalLogitModel(build_design(ragged_dataset()), ModelConfig(seed=1))
        kwargs = dict(chains=2, warmup=30, draws=20, target_accept=0.8, max_treedepth=10, seed=9)
        monkeypatch.setenv("CONJOINT_WTP_THREADS", "1")
        serial = run_nuts(model, **kwargs)
        monkeypatch.setenv("CONJOINT_WTP_THREADS", "2")
        parallel = run_nuts(model, **kwargs)
        assert np.array_equal(serial.draws, parallel.draws)
        for a, b in zip(serial.stats, parallel.stats):
            for field in fields(a):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name

    def test_workers_env_cap(self, monkeypatch):
        monkeypatch.setenv("CONJOINT_WTP_THREADS", "1")
        assert resolve_workers(8) == 1
        monkeypatch.setenv("CONJOINT_WTP_THREADS", "16")
        assert resolve_workers(4) == 4
        monkeypatch.delenv("CONJOINT_WTP_THREADS")
        assert resolve_workers(1) == 1

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_worker_setting_below_one_is_a_config_error(self, monkeypatch, value):
        # checked before any process pool starts; the CLI exits 2 naming it
        monkeypatch.setenv("CONJOINT_WTP_THREADS", value)
        message = f"CONJOINT_WTP_THREADS must be >= 1, got '{value}'"
        with pytest.raises(ConfigError, match=message) as raised:
            resolve_workers(4)
        assert raised.value.exit_code == 2


class TestStatisticalCorrectness:
    def test_standard_normal_moments(self):
        target = StandardNormalTarget(5)
        result = run_nuts(target, chains=2, warmup=500, draws=1500,
                          target_accept=0.8, max_treedepth=10, seed=3)
        flat = result.flat()
        assert np.all(np.abs(flat.mean(axis=0)) < 0.1)
        assert np.all(np.abs(flat.std(axis=0) - 1.0) < 0.1)

    def test_acceptance_tracks_target(self):
        target = StandardNormalTarget(10)
        result = run_nuts(target, chains=1, warmup=600, draws=400,
                          target_accept=0.9, max_treedepth=10, seed=11)
        assert 0.75 < result.stats[0].mean_accept <= 1.0

    def test_energy_error_median_is_small_at_adapted_step(self, small_design, quick_config):
        from conjoint_wtp.infer import HierarchicalLogitModel

        model = HierarchicalLogitModel(small_design, quick_config)
        result = run_nuts(model, chains=1, warmup=500, draws=300,
                          target_accept=0.8, max_treedepth=10, seed=2)
        median_error = float(np.median(np.abs(result.stats[0].energy_error)))
        assert median_error < 0.2

    def test_hard_wall_produces_divergence_flags(self):
        target = WalledTarget()
        result = run_nuts(target, chains=1, warmup=0, draws=200,
                          target_accept=0.8, max_treedepth=6, seed=13)
        # with no warmup the step stays at the coarse initial guess, so the
        # wall is hit and flagged rather than crashing
        assert result.stats[0].divergent.any()
        assert np.all(np.isfinite(result.draws))

    def test_energy_overflow_is_a_divergence_without_a_warning(self):
        # the test session turns a RuntimeWarning into an error
        result = run_nuts(NarrowTarget(), chains=1, warmup=5, draws=5,
                          target_accept=0.8, max_treedepth=6, seed=13)
        assert result.stats[0].divergent.all()
        assert np.all(np.isfinite(result.draws))

    def test_initial_metric_on_the_posterior_scale_shortens_warmup(self):
        class BadlyScaledNormal:
            dim = 10
            variances = np.r_[np.full(5, 0.05**2), np.ones(5)]

            def __init__(self, inv_mass):
                self.inv_mass = inv_mass

            def log_posterior(self, theta):
                return float(-0.5 * (theta**2 / self.variances).sum()), -theta / self.variances

            def initial_position(self, rng):
                return rng.uniform(-1.0, 1.0, self.dim)

            def initial_inv_mass(self):
                return self.inv_mass

        kwargs = dict(chains=1, warmup=200, draws=20, target_accept=0.8, max_treedepth=10, seed=5)
        identity = run_nuts(BadlyScaledNormal(np.ones(10)), **kwargs).stats[0]
        scaled = run_nuts(BadlyScaledNormal(BadlyScaledNormal.variances), **kwargs).stats[0]
        assert scaled.grad_evals_warmup < 0.8 * identity.grad_evals_warmup
        # the sampling count is the draws' leapfrog steps
        assert scaled.grad_evals_sampling == scaled.n_leapfrog.sum()

    def test_log_sigma_start_at_a_tenth_shortens_hierarchical_warmup(self, small_design):
        class UnitLogSigma(HierarchicalLogitModel):
            def initial_inv_mass(self):
                inv_mass = super().initial_inv_mass()
                inv_mass[self.n_features : 2 * self.n_features] = 1.0
                return inv_mass

        def warmup_grads(model_class):
            model = model_class(small_design, ModelConfig(seed=1))
            return [
                run_nuts(model, chains=1, warmup=150, draws=1, target_accept=0.8,
                         max_treedepth=10, seed=seed).stats[0].grad_evals_warmup
                for seed in (1, 2, 3)
            ]

        # 40 x 10 survey: 3,956 + 3,994 + 3,820 = 11,770 gradients from the
        # model's start, against 5,142 + 5,549 + 5,945 = 16,636 from log_sigma at 1
        assert sum(warmup_grads(HierarchicalLogitModel)) < sum(warmup_grads(UnitLogSigma))

    def test_mass_matrix_adapts_to_scale(self):
        class ScaledNormal:
            dim = 4
            scales = np.array([0.1, 1.0, 10.0, 100.0])

            def log_posterior(self, theta):
                v = self.scales**2
                return float(-0.5 * (theta**2 / v).sum()), -theta / v

            def initial_position(self, rng):
                return rng.uniform(-1.0, 1.0, 4)

            def initial_inv_mass(self):
                return np.ones(self.dim)

        target = ScaledNormal()
        result = run_nuts(target, chains=1, warmup=800, draws=800,
                          target_accept=0.8, max_treedepth=10, seed=17)
        inv_mass = result.stats[0].inv_mass
        # learned metric should be within a factor ~3 of the true variances
        ratio = inv_mass / target.scales**2
        assert np.all(ratio > 1 / 3)
        assert np.all(ratio < 3)
        flat = result.flat()
        assert np.all(np.abs(flat.std(axis=0) / target.scales - 1.0) < 0.25)
