import math
import re
from dataclasses import replace

import numpy as np
import pytest

from evstation import (
    AdmissionRule,
    DomainError,
    EconomicParams,
    StationParams,
    analyze_admission,
    build_generator,
    demand_response,
    erlang_blocking,
    erlang_steady_state,
    gen_poisson_arrivals,
    per_ev_profit,
    price_for_demand,
    replicate,
    run_loss_admission,
    utility,
)
from evstation.optimizer import objective
from evstation.queueing import profit_s


def test_utility_endpoints(econ_default):
    assert utility(0.0, econ_default) == 0.0
    assert utility(econ_default.phi, econ_default) == pytest.approx(econ_default.u_phi)


def test_utility_increasing_concave(econ_default):
    grid = np.linspace(0.0, econ_default.phi, 200)
    vals = np.array([utility(float(d), econ_default) for d in grid])
    diffs = np.diff(vals)
    assert np.all(diffs > 0)
    assert np.all(np.diff(diffs) < 0)


def test_utility_domain(econ_default):
    with pytest.raises(DomainError):
        utility(-1.0, econ_default)
    with pytest.raises(DomainError):
        utility(econ_default.phi + 1.0, econ_default)


def test_demand_response_closed_form(econ_default):
    # beta=0.05, phi=100, u_phi=100: xi = (1 - e^-5)/5, d(2) = -ln(2 xi)/0.05
    xi = (1.0 - math.exp(-5.0)) / 5.0
    assert econ_default.xi == pytest.approx(xi, rel=1e-12)
    expected = min(max(-math.log(2.0 * xi) / 0.05, 0.0), 100.0)
    assert demand_response(2.0, econ_default) == pytest.approx(expected, rel=1e-12)


def test_demand_response_clamps(econ_default):
    assert demand_response(0.0, econ_default) == econ_default.phi
    at_choke = demand_response(econ_default.choke_price, econ_default)
    assert at_choke == 0.0 and math.copysign(1.0, at_choke) == 1.0  # not -0.0, written -0
    assert demand_response(econ_default.choke_price * 2, econ_default) == 0.0
    tiny = 1e-9
    assert demand_response(tiny, econ_default) == econ_default.phi


def test_demand_response_maximizes_surplus(econ_default):
    # The closed form should never lose to a fine grid search of the surplus.
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, econ_default.phi, 100_001)
    util = np.array([utility(float(d), econ_default) for d in grid])
    for r in rng.uniform(0.05, econ_default.choke_price * 1.2, size=25):
        surplus = util - r * grid
        best_grid = grid[int(np.argmax(surplus))]
        d_star = demand_response(float(r), econ_default)
        resolution = grid[1] - grid[0]
        assert abs(d_star - best_grid) <= resolution + 1e-9


def test_price_demand_roundtrip(econ_default):
    for d in (0.5, 5.0, 40.0, 99.0):
        r = price_for_demand(d, econ_default)
        assert demand_response(r, econ_default) == pytest.approx(d, rel=1e-10)


def test_price_for_demand_domain(econ_default):
    with pytest.raises(DomainError):
        price_for_demand(0.0, econ_default)
    with pytest.raises(DomainError):
        price_for_demand(econ_default.phi + 0.1, econ_default)


def test_per_ev_profit(econ_default):
    d, wait = 20.0, 5.0
    expected = (price_for_demand(d, econ_default) - econ_default.p_e) * d - 0.4 * wait
    assert per_ev_profit(d, wait, econ_default) == pytest.approx(expected)
    assert per_ev_profit(0.0, 0.0, econ_default) == 0.0


def test_param_validation():
    with pytest.raises(DomainError):
        EconomicParams(beta=0.0, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    with pytest.raises(DomainError):
        EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=-0.1, c=0.4)
    with pytest.raises(DomainError, match="wait_model"):
        EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4, wait_model="kingman")
    with pytest.raises(DomainError, match=r"parking_capacity \(3\) must be >= m \(4\)"):
        StationParams(m=4, alpha=11.5, parking_capacity=3, lam=0.3, tau=1.01)
    with pytest.raises(DomainError):
        StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.0)
    # NaN fails every comparison, so each field is also checked for finiteness.
    with pytest.raises(DomainError, match="finite"):
        EconomicParams(beta=math.nan, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    with pytest.raises(DomainError, match="finite"):
        EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=math.inf)
    for bad in ({"lam": math.nan}, {"tau": math.nan}, {"alpha": math.inf}):
        fields = {"m": 4, "alpha": 11.5, "parking_capacity": 40, "lam": 0.3, "tau": 1.01, **bad}
        with pytest.raises(DomainError, match="finite"):
            StationParams(**fields)


def test_station_counts_are_integers():
    # A fractional port count or lot size would construct and then crash the
    # simulator, which sizes its port list with m; a bool is no count either.
    base = {"m": 4, "alpha": 11.5, "parking_capacity": 40, "lam": 0.3, "tau": 1.01}
    for bad in ({"m": 4.5}, {"m": 4.0}, {"parking_capacity": 40.5}, {"m": True}):
        with pytest.raises(DomainError, match="integer"):
            StationParams(**{**base, **bad})


# Every entry point that takes a count, called with the count k.
_COUNT_CALLS = {
    "erlang_steady_state": lambda k, econ, station: erlang_steady_state(k, 1.0),
    "erlang_blocking": lambda k, econ, station: erlang_blocking(k, 1.0),
    "analyze_admission": lambda k, econ, station: analyze_admission(k, 10.0, station),
    "profit_s": lambda k, econ, station: profit_s(k, 10.0, econ, station),
    "objective": lambda k, econ, station: objective([k], [10.0], econ, station),
    "AdmissionRule": lambda k, econ, station: AdmissionRule(10.0, k, 1.0),
    "run_loss_admission": lambda k, econ, station: run_loss_admission(np.array([1.0]), k, 1.0),
    "build_generator": lambda k, econ, station: build_generator(k, 1.0, 1.0),
    "replicate": lambda k, econ, station: replicate(
        [([AdmissionRule(15.0)], econ, station, 240.0)], k, 1
    ),
}


@pytest.mark.parametrize(
    "call, count", [(call, count) for call in _COUNT_CALLS for count in (2.5, True)]
)
def test_counts_are_whole_numbers(call, count, econ_default, station_default):
    # StationParams' rule for every count (test_station_counts_are_integers):
    # a fraction used to run (a 4-state distribution at n = 2.5) or fail with
    # a TypeError or IndexError, and True ran as 1.
    with pytest.raises(DomainError, match="integer|whole number"):
        _COUNT_CALLS[call](count, econ_default, station_default)


# Every real input that _check_real guards: its name, its floor, whether the
# floor itself is refused, and a call with the value x.
_REAL_CALLS = {
    "EconomicParams.beta": ("beta", 0.0, True, lambda x, econ, st: replace(econ, beta=x)),
    "EconomicParams.phi": ("phi", 0.0, True, lambda x, econ, st: replace(econ, phi=x)),
    "EconomicParams.u_phi": ("u_phi", 0.0, True, lambda x, econ, st: replace(econ, u_phi=x)),
    "EconomicParams.p_e": ("p_e", 0.0, False, lambda x, econ, st: replace(econ, p_e=x)),
    "EconomicParams.c": ("c", 0.0, False, lambda x, econ, st: replace(econ, c=x)),
    "StationParams.alpha": ("alpha", 0.0, True, lambda x, econ, st: replace(st, alpha=x)),
    "StationParams.lam": ("lam", 0.0, True, lambda x, econ, st: replace(st, lam=x)),
    "StationParams.tau": ("tau", 1.0, True, lambda x, econ, st: replace(st, tau=x)),
    "erlang_steady_state": ("offered load", 0.0, False, lambda x, econ, st: erlang_steady_state(2, x)),
    "erlang_blocking": ("offered load", 0.0, False, lambda x, econ, st: erlang_blocking(2, x)),
    "analyze_admission": ("demand", 0.0, True, lambda x, econ, st: analyze_admission(2, x, st)),
    "gen_poisson_arrivals.lam": (
        "lam", 0.0, True, lambda x, econ, st: gen_poisson_arrivals(x, 10.0, np.random.default_rng(1))
    ),
    "gen_poisson_arrivals.horizon": (
        "horizon", 0.0, False, lambda x, econ, st: gen_poisson_arrivals(0.3, x, np.random.default_rng(1))
    ),
    "AdmissionRule.t_v": ("t_v", 0.0, False, lambda x, econ, st: AdmissionRule(10.0, 2, x)),
    "run_loss_admission.t_v": (
        "t_v", 0.0, False, lambda x, econ, st: run_loss_admission(np.array([1.0]), 2, x)
    ),
    "replicate.horizon": (
        "horizon", 0.0, True, lambda x, econ, st: replicate([([AdmissionRule(15.0)], econ, st, x)], 1, 1)
    ),
    "build_generator.lam": ("lam", 0.0, True, lambda x, econ, st: build_generator(2, x, 1.0)),
    "build_generator.t_v": ("t_v", 0.0, True, lambda x, econ, st: build_generator(2, 1.0, x)),
    "per_ev_profit.wait": ("wait", 0.0, False, lambda x, econ, st: per_ev_profit(10.0, x, econ)),
}


@pytest.mark.parametrize(
    "call, value",
    [
        (call, value)
        for call in _REAL_CALLS
        for value in ("nan", "inf", "-inf", "floor", "10**400", "10**5000")
    ],
)
def test_reals_are_finite_and_above_their_floor(call, value, econ_default, station_default):
    # One rule for every real input: NaN and +-inf are refused, and so is the
    # floor itself (strict) or the float just below it; the message leads
    # with the argument's name. An int a float cannot hold is refused by its
    # size, as printing 10**5000 itself raises on Python 3.11 and later.
    name, least, strict, run = _REAL_CALLS[call]
    expected = f"^{re.escape(name)} must be"
    if value == "floor":
        x = least if strict else math.nextafter(least, -math.inf)
    elif value.startswith("10**"):
        x = 10 ** int(value[4:])
        expected = rf"^{re.escape(name)} must fit in a float, got an integer of {x.bit_length()} bits$"
    else:
        x = float(value)
    with pytest.raises(DomainError, match=expected):
        run(x, econ_default, station_default)


def test_service_time_units():
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    # 11.5 kW delivers 11.5 kWh in 60 minutes.
    assert station.service_time(11.5) == pytest.approx(60.0)
    assert station.alpha_per_min == pytest.approx(11.5 / 60.0)


def test_nan_arguments_rejected(econ_default):
    # NaN fails every comparison, so a range check written as `x < lo` would
    # let it through and return NaN.
    nan = math.nan
    for call in (
        lambda: demand_response(nan, econ_default),
        lambda: price_for_demand(nan, econ_default),
        lambda: utility(nan, econ_default),
        lambda: per_ev_profit(nan, 0.0, econ_default),
        lambda: per_ev_profit(20.0, nan, econ_default),
        lambda: per_ev_profit(0.0, nan, econ_default),
    ):
        with pytest.raises(DomainError):
            call()
