import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from evstation import (
    DomainError,
    StationParams,
    admitted_interarrival_moments,
    analyze_admission,
    erlang_blocking,
    erlang_steady_state,
    threshold_t_v,
)
from evstation.queueing import (
    erlang_c,
    interarrival_pdf,
    mean_wait,
)


def exact_erlang(n: int, a: Fraction) -> list:
    """Rational-arithmetic evaluation of the occupancy distribution."""
    terms = [a**i / math.factorial(i) for i in range(n + 1)]
    total = sum(terms)
    return [t / total for t in terms]


def test_erlang_steady_state_empty():
    probs = erlang_steady_state(5, 0.0)
    assert probs[0] == 1.0
    assert np.all(probs[1:] == 0.0)


def test_erlang_rejects_non_finite_load():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="offered load"):
            erlang_steady_state(5, bad)
        with pytest.raises(DomainError, match="offered load"):
            erlang_blocking(5, bad)


def test_erlang_steady_state_two_state():
    probs = erlang_steady_state(1, 1.0)
    assert probs == pytest.approx([0.5, 0.5])


def test_erlang_steady_state_matches_exact_arithmetic():
    for n in (2, 4, 10, 25, 50):
        for a in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)):
            exact = [float(p) for p in exact_erlang(n, a)]
            got = erlang_steady_state(n, float(a))
            assert got == pytest.approx(exact, rel=1e-12)
            assert float(np.sum(got)) == pytest.approx(1.0, abs=1e-12)


def test_erlang_blocking_recursion_consistent():
    for n in (1, 3, 7, 20):
        for a in (0.5, 1.0, 2.0, 4.0):
            assert erlang_blocking(n, a) == pytest.approx(
                float(erlang_steady_state(n, a)[n]), rel=1e-12
            )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 64), st.floats(0.0, 500.0), st.floats(0.0, 500.0))
def test_erlang_blocking_property(n, a, a2):
    # The log-space state vector and the B-recursion share no arithmetic.
    # Below 1e-300 the state vector's last entry nears underflow, so only
    # the ordering is checked there.
    b = erlang_blocking(n, a)
    if b > 1e-300:
        assert float(erlang_steady_state(n, a)[n]) == pytest.approx(b, rel=1e-12, abs=0.0)
    # B never increases with the server count, and never decreases with the load.
    assert erlang_blocking(n + 1, a) <= b
    lo, hi = sorted((a, a2))
    assert erlang_blocking(n, lo) <= erlang_blocking(n, hi)


def test_threshold_spacing(station_default):
    # T_v = tau * m * (d / alpha) / n in minutes.
    d = 11.5
    assert threshold_t_v(4, d, station_default) == pytest.approx(1.01 * 4 * 60.0 / 4)


def test_admission_probability_limits(station_default):
    assert analyze_admission(4, 1e-9, station_default).p_admit == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        analyze_admission(0, 1.0, station_default)
    with pytest.raises(DomainError):
        analyze_admission(4, -1.0, station_default)


def test_admission_probability_hand_value():
    # alpha = 1 kW, lam = 0.3/min, m = 4, tau = 1.01, n = 3 and d chosen so the
    # offered load is exactly 3: blocking = (27/6) / (1 + 3 + 9/2 + 9/2).
    station = StationParams(m=4, alpha=1.0, parking_capacity=40, lam=0.3, tau=1.01)
    n = 3
    d = 3.0 * n / (station.lam * station.tau * station.m * 60.0)
    a = station.lam * threshold_t_v(n, d, station)
    assert a == pytest.approx(3.0, rel=1e-12)
    assert analyze_admission(n, d, station).p_admit == pytest.approx(1.0 - 4.5 / 13.0, rel=1e-12)


def test_analysis_rejects_non_finite_demand(station_default):
    # The error names the caller's argument, not the offered load it implies.
    for bad in (math.nan, math.inf, 1e308):
        with pytest.raises(DomainError, match="^demand"):
            analyze_admission(3, bad, station_default)


def test_analysis_invariants(station_default):
    analysis = analyze_admission(5, 30.0, station_default)
    assert float(np.sum(analysis.state_probs)) == pytest.approx(1.0, abs=1e-12)
    assert analysis.p_admit == pytest.approx(1.0 - float(analysis.state_probs[-1]), abs=1e-15)
    assert analysis.t_v == pytest.approx(threshold_t_v(5, 30.0, station_default))
    assert analysis.offered_load == pytest.approx(station_default.lam * analysis.t_v)
    assert analysis.rho == pytest.approx(
        station_default.lam * analysis.p_admit * analysis.service_time / station_default.m,
        rel=1e-15,
    )


def test_moments_single_slot(station_default):
    # With one slot the conditional gap is uniform on [0, T_v].
    analysis = analyze_admission(1, 20.0, station_default)
    mean_x, second_x = admitted_interarrival_moments(analysis)
    assert mean_x == pytest.approx(analysis.t_v / 2.0, rel=1e-12)
    assert second_x == pytest.approx(analysis.t_v**2 / 3.0, rel=1e-12)


def test_moments_two_state_hand_value(station_default):
    # If the renormalized weights were (1/2, 1/2) the mean would be
    # T_v (1/2 * 1/2 + 1/2 * 1/3); check the formula with actual weights.
    analysis = analyze_admission(2, 25.0, station_default)
    mean_x, second_x = admitted_interarrival_moments(analysis)
    p = analysis.state_probs
    w1, w2 = p[1] / (1 - p[0]), p[2] / (1 - p[0])
    assert mean_x == pytest.approx(analysis.t_v * (w1 / 2 + w2 / 3), rel=1e-12)
    assert second_x >= mean_x**2


def test_moments_match_quadrature(station_default):
    # Closed forms equal numerical integration of the conditional density.
    for n, d in ((2, 10.0), (4, 30.0), (6, 55.0)):
        analysis = analyze_admission(n, d, station_default)
        busy = 1.0 - float(analysis.state_probs[0])
        mean_num = quad(lambda x: x * interarrival_pdf(x, analysis) / busy, 0, analysis.t_v)[0]
        second_num = quad(
            lambda x: x**2 * interarrival_pdf(x, analysis) / busy, 0, analysis.t_v
        )[0]
        mean_x, second_x = admitted_interarrival_moments(analysis)
        assert mean_x == pytest.approx(mean_num, abs=1e-8)
        assert second_x == pytest.approx(second_num, abs=1e-8)


def test_cdf_defective_mass(station_default):
    # The raw gap distribution carries total mass 1 - P_0 on [0, T_v] and
    # none outside it. The density is a polynomial of degree n - 1 there, so
    # Gauss-Kronrod quadrature integrates it to rounding error.
    for n, d in ((1, 15.0), (3, 40.0), (5, 60.0)):
        analysis = analyze_admission(n, d, station_default)
        mass = quad(lambda x: interarrival_pdf(x, analysis), 0, analysis.t_v)[0]
        assert mass == pytest.approx(1.0 - float(analysis.state_probs[0]), abs=1e-12)
        assert interarrival_pdf(-1e-9, analysis) == 0.0
        assert interarrival_pdf(analysis.t_v * (1 + 1e-9), analysis) == 0.0


def test_moments_error_without_departures(station_default):
    analysis = analyze_admission(3, 1e-18, station_default)
    with pytest.raises(DomainError):
        admitted_interarrival_moments(analysis)


def test_mean_wait_zero_load(station_default):
    from dataclasses import replace

    quiet = replace(station_default, lam=1e-12)
    analysis = analyze_admission(4, 20.0, quiet)
    assert mean_wait(analysis, quiet, "theorem1") == pytest.approx(0.0, abs=1e-3)


def test_mean_wait_increasing_convex_in_demand(station_default):
    # n = m keeps the regulated load below 1 for every demand.
    n = 4
    demands = np.linspace(2.0, 40.0, 100)
    waits = []
    for d in demands:
        analysis = analyze_admission(n, float(d), station_default)
        assert analysis.rho < 1.0
        waits.append(mean_wait(analysis, station_default, "theorem1"))
    waits = np.array(waits)
    first = np.diff(waits)
    second = np.diff(first)
    scale = np.max(np.abs(waits))
    assert np.all(first > 0)
    assert np.all(second > -1e-8 * scale)


def test_mean_wait_unstable_raises():
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.4, tau=1.01)
    analysis = analyze_admission(8, 50.0, station)
    assert analysis.rho >= 1.0
    with pytest.raises(DomainError, match="unstable"):
        mean_wait(analysis, station, "theorem1")


def test_erlang_c_hand_value():
    # m=2, a=1: C = (a^2/2! * 2/(2-a)) / (1 + a + a^2/2! * 2/(2-a)) = 1/3.
    assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert erlang_c(1, 0.5) == pytest.approx(0.5, rel=1e-12)  # M/M/1: P(wait) = rho
    with pytest.raises(DomainError):
        erlang_c(2, 2.0)


def test_allen_cunneen_zero_at_most_m_slots(econ_default, station_default, monkeypatch):
    # T_v = tau*m*s/n > s for n <= m, so no admitted EV ever waits: the
    # model says 0 without touching the moments, and the simulation agrees.
    from dataclasses import replace

    from evstation import JoapAdmission, queueing, replicate

    def no_moments(*args):
        raise AssertionError("moments must not be needed at n <= m")

    station = replace(station_default, lam=0.4)
    with monkeypatch.context() as patched:
        patched.setattr(queueing, "admitted_interarrival_moments", no_moments)
        for n in range(1, station.m + 1):
            for d in (0.5, 20.0, 60.0):
                analysis = analyze_admission(n, d, station)
                assert mean_wait(analysis, station, "allen_cunneen") == 0.0
    analysis = analyze_admission(station.m, 20.0, station)
    econ = replace(econ_default, wait_model="allen_cunneen")
    policy = JoapAdmission(station.m, analysis.t_v, 20.0)
    [[metrics]] = replicate([([policy], econ, station, 600.0)], 5, 3)
    assert metrics.admission_rate < 1.0  # the slots do bind
    assert metrics.mean_wait == 0.0


def test_allen_cunneen_hand_value(station_default):
    # Above m slots: C(m, m rho) * s/(m(1-rho)) * ca^2/2 with ca^2 the
    # squared coefficient of variation of the slot-release gap.
    n, d = 6, 1.0
    analysis = analyze_admission(n, d, station_default)
    m = station_default.m
    s = analysis.service_time
    rho = analysis.rho
    a = m * rho
    tail = a**m / math.factorial(m) / (1.0 - rho)
    wait_prob = tail / (sum(a**k / math.factorial(k) for k in range(m)) + tail)
    mean_x, second_x = admitted_interarrival_moments(analysis)
    ca2 = second_x / mean_x**2 - 1.0
    expected = wait_prob * s / (m * (1.0 - rho)) * ca2 / 2.0
    got = mean_wait(analysis, station_default, "allen_cunneen")
    assert got > 0.0
    assert got == pytest.approx(expected, rel=1e-10)


def test_mean_wait_guards(station_default):
    analysis = analyze_admission(4, 20.0, station_default)
    with pytest.raises(DomainError, match="wait model"):
        mean_wait(analysis, station_default, "kingman")
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.4, tau=1.01)
    unstable = analyze_admission(8, 50.0, station)
    with pytest.raises(DomainError, match="unstable"):
        mean_wait(unstable, station, "allen_cunneen")
