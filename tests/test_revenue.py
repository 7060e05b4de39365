"""Bundle revenue simulation: monotone demand, bounds, and the closed-form
zero-heterogeneity oracle."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import expit

from conjoint_wtp.domain import ProductProfile, encode_profile
from conjoint_wtp.errors import CodingError, ContractError, SignSafetyError
from conjoint_wtp.infer import ModelConfig
from conjoint_wtp.infer.design import Standardization
from conjoint_wtp.infer.fit import PosteriorDraws
from conjoint_wtp.presets import smartphone_scheme
from conjoint_wtp.revenue import BundleScenario, revenue_curve
from conjoint_wtp.rng import MARKET_STREAM, substream
from conjoint_wtp.simulate import PRICE_COEF_CEILING
from tests.helpers import demo_scenario

COLUMNS = ("storage:256GB", "storage:512GB", "camera:Pro", "frame:Titanium", "price")


def make_draws(mu, sigma, seed=0):
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n, f = mu.shape
    return PosteriorDraws(
        columns=COLUMNS,
        price_column="price",
        respondent_ids=(),
        mu=mu,
        sigma=sigma,
        z=np.zeros((n, 0, f)),
        standardization=Standardization(columns=COLUMNS, mean=np.zeros(f), scale=np.ones(f)),
        chain_index=np.zeros(n, dtype=int),
        divergent=np.zeros(n, dtype=bool),
        config=ModelConfig(seed=0),
        seed=seed,
    )


def purchase_probability(mu, sigma, scheme, scenario, price, noise):
    """Reference: the share of consumers beta = mu + sigma * noise (price
    coefficient capped at the simulator's ceiling) who prefer the bundle at
    `price` to the baseline, computed one consumer at a time."""
    x = encode_profile(scheme, scenario.bundle_profile(price)) - encode_profile(scheme, scenario.baseline)
    total = 0.0
    for row in noise:
        beta = mu + sigma * row
        beta[-1] = min(beta[-1], PRICE_COEF_CEILING)
        total += expit(x @ beta)
    return total / len(noise)


def curve_purchase_probability(mu, scheme, scenario, price):
    """revenue_curve's purchase probability at one price for a population with
    no heterogeneity (one draw, repeated: the curve's HDI needs 100 draws)."""
    draws = make_draws(np.tile(mu, (100, 1)), np.zeros((100, len(mu))))
    curve = revenue_curve(draws, scheme, dataclasses.replace(scenario, price_grid=(price,)), seed=0)
    assert np.all(curve.purchase_prob == curve.purchase_prob[0])
    return curve.purchase_prob[0, 0]


def realistic_draws(n=120, seed=3):
    rng = np.random.default_rng(seed)
    mu = np.column_stack(
        [
            rng.normal(1.0, 0.05, n),
            rng.normal(2.5, 0.08, n),
            rng.normal(2.0, 0.07, n),
            rng.normal(0.8, 0.05, n),
            rng.normal(-0.01, 0.0004, n),
        ]
    )
    sigma = np.column_stack(
        [
            rng.uniform(0.2, 0.3, n),
            rng.uniform(0.5, 0.7, n),
            rng.uniform(0.4, 0.6, n),
            rng.uniform(0.15, 0.25, n),
            rng.uniform(0.0015, 0.0025, n),
        ]
    )
    return make_draws(mu, sigma, seed=seed)


class TestScenarioValidation:
    def test_empty_price_grid_rejected(self):
        with pytest.raises(ContractError):
            BundleScenario(
                baseline=ProductProfile(levels={"camera": "Standard"}, price=799.0),
                upgrades={"camera": "Pro"},
                price_grid=(),
            )

    def test_grid_must_increase(self):
        with pytest.raises(ContractError):
            BundleScenario(
                baseline=ProductProfile(levels={"camera": "Standard"}, price=799.0),
                upgrades={"camera": "Pro"},
                price_grid=(899.0, 899.0),
            )

    def test_upgrades_must_be_non_empty(self):
        with pytest.raises(ContractError):
            BundleScenario(
                baseline=ProductProfile(levels={"camera": "Standard"}, price=799.0),
                upgrades={},
                price_grid=(899.0,),
            )

    def test_unknown_upgrade_level_is_rejected(self):
        scheme = smartphone_scheme()
        scenario = BundleScenario(
            baseline=ProductProfile(
                levels={"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}, price=799.0
            ),
            upgrades={"camera": "Ultra"},
            price_grid=(899.0, 999.0),
        )
        draws = realistic_draws(n=110)
        with pytest.raises(CodingError, match="Ultra"):
            revenue_curve(draws, scheme, scenario, seed=1)

    def test_noop_upgrade_is_rejected(self):
        scheme = smartphone_scheme()
        scenario = BundleScenario(
            baseline=ProductProfile(
                levels={"storage": "128GB", "camera": "Standard", "frame": "Aluminum"}, price=799.0
            ),
            upgrades={"camera": "Standard"},
            price_grid=(899.0, 999.0),
        )
        draws = realistic_draws(n=110)
        with pytest.raises(ContractError):
            revenue_curve(draws, scheme, scenario, seed=1)


class TestClosedForm:
    def test_indifference_price_gives_exactly_half(self):
        scheme = smartphone_scheme()
        scenario = demo_scenario()
        beta_price = -0.0078125  # dyadic so the utility cancellation is exact
        wtp_sum = 280.0  # camera 200 + frame 80
        mu = np.array([1.0, 2.5, -beta_price * 200.0, -beta_price * 80.0, beta_price])
        p_star = scenario.baseline.price + wtp_sum
        assert curve_purchase_probability(mu, scheme, scenario, p_star) == 0.5

    def test_matches_logistic_demand_at_any_price(self):
        scheme = smartphone_scheme()
        scenario = demo_scenario()
        beta_price = -0.01
        mu = np.array([1.0, 2.5, 2.0, 0.8, beta_price])
        p0 = scenario.baseline.price
        wtp_sum = (mu[2] + mu[3]) / -beta_price
        for price in (799.0, 950.0, 1100.0, 1299.0):
            expected = expit(-beta_price * (p0 + wtp_sum - price))
            got = curve_purchase_probability(mu, scheme, scenario, price)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_heterogeneity_revenue_has_interior_max_on_default_grid(self):
        # analytic bracket check: p * sigmoid(-beta (p - p0 - W)) peaks
        # strictly inside the demo scenario's grid for the demo ground truth
        beta = 0.01
        p0, wtp_sum = 799.0, 280.0
        grid = demo_scenario().price_grid
        fine = np.linspace(grid[0], grid[-1], 20001)
        revenue = fine * expit(-beta * (fine - p0 - wtp_sum))
        best = fine[np.argmax(revenue)]
        assert grid[0] < best < grid[-1]


class TestRevenueCurve:
    def test_matches_per_consumer_reference(self):
        scheme = smartphone_scheme()
        scenario = dataclasses.replace(demo_scenario(), market_size=40)
        draws = realistic_draws(n=100)
        draws.sigma[:, -1] *= 4.0  # wide enough that some consumers hit the price ceiling
        curve = revenue_curve(draws, scheme, scenario, seed=7)
        assert curve.purchase_prob.shape[0] == draws.n_draws  # no draw flagged
        for i in (0, 41, 99):
            noise = substream(7, MARKET_STREAM, i).standard_normal((40, draws.n_features))
            for j, price in enumerate(scenario.price_grid):
                expected = purchase_probability(
                    draws.mu[i], draws.sigma[i], scheme, scenario, price, noise
                )
                assert curve.purchase_prob[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_demand_is_exactly_monotone_per_draw(self):
        scheme = smartphone_scheme()
        scenario = demo_scenario()
        curve = revenue_curve(realistic_draws(), scheme, scenario, seed=11)
        assert np.all(np.diff(curve.purchase_prob, axis=1) <= 0.0)

    def test_far_tail_consumers_buy_with_probability_exactly_zero_or_one(self):
        # consumers' logit arguments sit beyond +-709, where exp over- or
        # underflows: purchase is exactly 1 or 0, with no RuntimeWarning
        scheme = smartphone_scheme()
        scenario = demo_scenario()
        mu = np.tile([0.0, 0.0, 500.0, 500.0, -4.0], (100, 1))
        mu[:10, 2:4] = 3000.0  # buys at every price
        mu[10:20, 2:4] = -3000.0  # buys at no price
        sigma = np.tile([1.0, 1.0, 5.0, 5.0, 0.0], (100, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = revenue_curve(make_draws(mu, sigma), scheme, scenario, seed=5)
        prob = curve.purchase_prob
        offsets = curve.prices - scenario.baseline.price
        assert np.all(prob[:10] == 1.0)
        assert np.all(prob[10:20] == 0.0)
        assert np.all(prob[20:, offsets <= 50.0] == 1.0)  # u - 4 * dp > 709
        assert np.all(prob[20:, offsets >= 450.0] == 0.0)  # u - 4 * dp < -709
        middle = prob[20:, offsets == 250.0]
        assert np.all((0.0 < middle) & (middle < 1.0))
        assert np.all(np.diff(prob, axis=1) <= 0.0)

    def test_revenue_draws_bounded_by_price(self):
        scheme = smartphone_scheme()
        scenario = demo_scenario()
        curve = revenue_curve(realistic_draws(), scheme, scenario, seed=11)
        assert np.all(curve.revenue >= 0.0)
        assert np.all(curve.revenue <= curve.prices[None, :])

    def test_doubling_market_size_concentrates(self):
        scheme = smartphone_scheme()
        base = demo_scenario()
        small = BundleScenario(
            baseline=base.baseline,
            upgrades=base.upgrades,
            price_grid=base.price_grid,
            market_size=400,
        )
        big = BundleScenario(
            baseline=base.baseline,
            upgrades=base.upgrades,
            price_grid=base.price_grid,
            market_size=800,
        )
        draws = realistic_draws()
        p_small = revenue_curve(draws, scheme, small, seed=21).purchase_prob
        p_big = revenue_curve(draws, scheme, big, seed=21).purchase_prob
        p = np.clip(p_big, 1e-6, 1 - 1e-6)
        bound = 3.0 * np.sqrt(p * (1 - p) / small.market_size)
        within = np.abs(p_small - p_big) <= bound
        assert within.mean() >= 0.99

    def test_argmax_fields(self):
        scheme = smartphone_scheme()
        scenario = demo_scenario()
        curve = revenue_curve(realistic_draws(), scheme, scenario, seed=31)
        assert curve.argmax_price in curve.prices
        assert curve.argmax_hdi[0] <= curve.argmax_price <= curve.argmax_hdi[1]

    def test_sign_safety_propagates(self):
        mu = np.tile([1.0, 2.5, 2.0, 0.8, -0.01], (200, 1))
        mu[:5, 4] = 0.02  # 2.5% of draws price-positive
        draws = make_draws(mu, np.full((200, 5), 0.1))
        with pytest.raises(SignSafetyError):
            revenue_curve(draws, smartphone_scheme(), demo_scenario(), seed=1)

    def test_all_flagged_draws_error(self):
        mu = np.tile([1.0, 2.5, 2.0, 0.8, 0.01], (150, 1))
        draws = make_draws(mu, np.full((150, 5), 0.1))
        with pytest.raises(SignSafetyError):
            revenue_curve(draws, smartphone_scheme(), demo_scenario(), seed=1)
