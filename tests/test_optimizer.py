import ast
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evstation import (
    DomainError,
    EconomicParams,
    StationParams,
    admitted_interarrival_moments,
    analyze_admission,
    brute_force_oracle,
    demand_region_bound,
    optimize_joap,
    optimize_joap_many,
    optimize_tau,
    per_ev_profit,
    price_for_demand,
)
from evstation.economics import WAIT_MODELS
import evstation.optimizer as opt
from evstation.optimizer import (
    _DEMAND_TOL,
    _GRID_POINTS,
    DEFAULT_TAU_GRID,
    N_CAP,
    UNSTABLE,
    JoapPolicy,
    objective,
)
from evstation.queueing import inner_demand_opt, mean_wait, profit_s


def random_params(rng):
    """One random stable-economics parameter set for cross-checking."""
    beta = rng.uniform(0.02, 0.1)
    phi = rng.uniform(30.0, 100.0)
    u_phi = rng.uniform(50.0, 150.0)
    econ = EconomicParams(
        beta=beta,
        phi=phi,
        u_phi=u_phi,
        p_e=rng.uniform(0.01, 0.12),
        c=rng.uniform(0.1, 1.0),
    )
    station = StationParams(
        m=int(rng.integers(2, 7)),
        alpha=rng.uniform(3.0, 22.0),
        parking_capacity=60,
        lam=rng.uniform(0.05, 0.5),
        tau=rng.uniform(1.01, 1.5),
    )
    return econ, station


def test_profit_zero_demand(econ_default, station_default):
    assert profit_s(3, 0.0, econ_default, station_default) == 0.0
    with pytest.raises(DomainError):
        profit_s(0, 1.0, econ_default, station_default)
    with pytest.raises(DomainError):
        profit_s(3, econ_default.phi + 1.0, econ_default, station_default)


def test_profit_unstable_sentinel():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.4, tau=1.01)
    assert profit_s(8, 50.0, econ, station) == UNSTABLE


def theorem1_wait(analysis, station):
    """The published index rho s/(2(1-rho)) [s^2 + 2 s mu_Y + sigma_Y^2], built from parts."""
    mean_x, second_x = admitted_interarrival_moments(analysis)
    mu_y, var_y = station.m * mean_x, station.m * (second_x - mean_x**2)
    s = analysis.service_time
    rho = station.lam * analysis.p_admit * s / station.m
    return rho * s / (2.0 * (1.0 - rho)) * (s**2 + 2.0 * s * mu_y + var_y)


def test_profit_compositional_recomputation(econ_default, station_default):
    # The objective must equal P * (r - p_e) d - c * omega built from parts.
    n, d = 4, 35.0
    analysis = analyze_admission(n, d, station_default)
    omega = theorem1_wait(analysis, station_default)
    expected = (
        analysis.p_admit * (price_for_demand(d, econ_default) - econ_default.p_e) * d
        - econ_default.c * omega
    )
    assert profit_s(n, d, econ_default, station_default) == pytest.approx(expected, abs=1e-9)


def test_objective_matches_profit_s(econ_default, station_default, table1):
    # The vectorised objective against the scalar reference, count by count,
    # on demands that include zero and unstable points.
    scenarios, _ = table1
    counts = np.arange(1, N_CAP + 1)
    cases = [(econ_default, station_default), (scenarios[1].econ, scenarios[1].station)]
    for base, station in cases:
        demands = np.linspace(0.0, base.phi, 26)
        for model in ("theorem1", "allen_cunneen"):
            econ = replace(base, wait_model=model)
            got = objective(counts, demands, econ, station)
            want = np.array(
                [[profit_s(int(n), float(d), econ, station) for d in demands] for n in counts]
            )
            unstable = want == UNSTABLE
            assert unstable.any() and not unstable.all()
            np.testing.assert_array_equal(got == UNSTABLE, unstable)
            np.testing.assert_allclose(got[~unstable], want[~unstable], rtol=1e-12, atol=0.0)
    # One demand per count, as the demand search evaluates it.
    per_count = np.linspace(0.5, 10.0, N_CAP)
    got = objective(counts, per_count[:, None], econ_default, station_default)
    assert got.shape == (N_CAP, 1)
    want = [
        profit_s(int(n), float(d), econ_default, station_default) for n, d in zip(counts, per_count)
    ]
    np.testing.assert_allclose(got[:, 0], want, rtol=1e-12, atol=0.0)
    with pytest.raises(DomainError):
        objective(counts, [econ_default.phi + 1.0], econ_default, station_default)


def test_objective_rejects_nan(econ_default, station_default):
    # NaN fails every comparison, so the domain check is written to catch it,
    # as analyze_admission does for the scalar path. The same check refuses
    # counts that are not a non-empty 1-D array and demands that are neither
    # 1-D nor one row per count, which used to fail inside numpy or return an
    # array of the wrong rank.
    for ns, ds in (
        ([4], [math.nan]),
        ([math.nan], [4.0]),
        ([4, 5], [1.0, math.nan]),
        ([], [1.0]),
        (2, [1.0]),
        ([[1, 2]], [1.0]),
        ([1, 2, 3], np.ones((2, 5))),
        ([1, 2], np.ones((2, 2, 2))),
    ):
        with pytest.raises(DomainError):
            objective(ns, ds, econ_default, station_default)
    with pytest.raises(DomainError):
        analyze_admission(4, math.nan, station_default)


@st.composite
def economics(draw):
    """Random stable economics under either wait model."""
    return EconomicParams(
        beta=draw(st.floats(0.02, 0.1)),
        phi=draw(st.floats(30.0, 100.0)),
        u_phi=draw(st.floats(50.0, 150.0)),
        p_e=draw(st.floats(0.01, 0.12)),
        c=draw(st.floats(0.1, 1.0)),
        wait_model=draw(st.sampled_from(WAIT_MODELS)),
    )


@st.composite
def stations(draw):
    """A random station of 1 to 8 ports."""
    return StationParams(
        m=draw(st.integers(1, 8)),
        alpha=draw(st.floats(3.0, 22.0)),
        parking_capacity=60,
        lam=draw(st.floats(0.05, 0.5)),
        tau=draw(st.floats(1.01, 1.5)),
    )


@st.composite
def criterion3_stations(draw):
    """A station of criterion 3's distribution."""
    return StationParams(
        m=draw(st.integers(2, 6)),
        alpha=draw(st.floats(3.0, 22.0)),
        parking_capacity=60,
        lam=draw(st.floats(0.05, 0.5)),
        tau=draw(st.floats(1.01, 1.5)),
    )


def reference_objective(ns, ds, econ, station):
    """objective as it was when it looped over the occupancy index i.

    Each step masks the counts below i and adds one term to the running
    sums. It returns NaN where 1 - P_0 rounds to 0; the tests below hold the
    current objective to it bit for bit wherever it is finite.
    """
    n, d = np.broadcast_arrays(np.asarray(ns, dtype=float)[:, None], np.asarray(ds, dtype=float))
    m = station.m
    d_pos = np.where(d > 0, d, 1.0)
    s = d_pos / station.alpha_per_min
    t_v = station.tau * m * s / n
    a = station.lam * t_v
    log_a = np.log(a)
    top = np.minimum(n, np.floor(a))
    log_q = -(top * log_a - np.vectorize(math.lgamma)(top + 1.0))
    q0 = total = np.exp(log_q)
    q_n = s1 = s2 = np.zeros_like(q0)
    for i in range(1, int(n.max()) + 1):
        log_q = np.where(n >= i, log_q + (log_a - math.log(i)), -np.inf)
        term = np.exp(log_q)
        total = total + term
        s1 = s1 + term / (i + 1)
        s2 = s2 + term * (2.0 / ((i + 1) * (i + 2)))
        q_n = np.where(n == i, term, q_n)
    p_admit = 1.0 - q_n / total
    busy = 1.0 - q0 / total
    mean_x = t_v * (s1 / total) / busy
    second_x = t_v**2 * (s2 / total) / busy
    mu_y, var_y = m * mean_x, m * (second_x - mean_x**2)
    rho = station.lam * p_admit * s / m
    if econ.wait_model == "allen_cunneen":
        b = np.ones_like(rho)
        for k in range(1, m + 1):
            b = m * rho * b / (k + m * rho * b)
        erlang_c = b / (1.0 - rho * (1.0 - b))
        ca2 = m * var_y / mu_y**2
        wait = np.where(n <= m, 0.0, erlang_c * s / (m * (1.0 - rho)) * ca2 / 2.0)
    else:
        wait = rho * s / (2.0 * (1.0 - rho)) * (s**2 + 2.0 * s * mu_y + var_y)
    revenue = d_pos * np.exp(-econ.beta * d_pos) / econ.xi - d_pos * econ.p_e
    value = np.where(rho >= 1.0, UNSTABLE, p_admit * revenue - econ.c * wait)
    return np.where(d > 0, value, 0.0)


def assert_matches_reference(ns, ds, econ, station):
    """objective equals reference_objective bit for bit wherever the reference is finite."""
    got = objective(ns, ds, econ, station)
    with np.errstate(all="ignore"):
        want = reference_objective(ns, ds, econ, station)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got == UNSTABLE, want == UNSTABLE)
    finite = np.isfinite(want)
    assert np.array_equal(got[finite], want[finite])
    assert np.isfinite(got[~(want == UNSTABLE)]).all()


def test_objective_matches_reference_bitwise(econ_default, station_default, table1):
    scenarios, _ = table1
    counts = np.arange(1, N_CAP + 1)
    cases = [(econ_default, station_default), (scenarios[1].econ, scenarios[1].station)]
    for base, station in cases:
        for model in WAIT_MODELS:
            econ = replace(base, wait_model=model)
            # The test grid, the optimizer's grid, and one demand per count.
            for demands in (
                np.linspace(0.0, econ.phi, 26),
                np.linspace(0.0, demand_region_bound(econ), _GRID_POINTS),
                np.linspace(0.5, 10.0, N_CAP)[:, None],
            ):
                assert_matches_reference(counts, demands, econ, station)
            for d in np.linspace(0.5, 10.0, 8):  # a lone (count, demand) pair
                assert_matches_reference(np.array([N_CAP]), np.array([d]), econ, station)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    economics(),
    stations(),
    st.lists(st.integers(1, N_CAP), min_size=1, max_size=N_CAP),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_objective_matches_reference_property(econ, station, counts, fractions):
    # Any counts in any order, against demands anywhere in [0, phi].
    assert_matches_reference(np.array(counts), econ.phi * np.array(fractions), econ, station)


def test_tiny_demand_has_no_wait(econ_default):
    # At d = 1e-14 kWh, 1 - P_0 rounds to 0: the charging queue is empty to
    # float precision, so both paths charge no wait and earn P times the margin.
    station = StationParams(m=1, alpha=22.0, parking_capacity=60, lam=0.05, tau=1.01)
    d = 1e-14
    for model in WAIT_MODELS:
        econ = replace(econ_default, wait_model=model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analysis = analyze_admission(64, d, station)
            assert analysis.state_probs[0] == 1.0
            assert mean_wait(analysis, station, model) == 0.0
            want = profit_s(64, d, econ, station)
            got = float(objective([64], [d], econ, station)[0, 0])
        assert want == analysis.p_admit * per_ev_profit(d, 0.0, econ)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_objective_scale_keeps_huge_terms_finite():
    # At this load the largest occupancy term a^top / top! is beyond a float,
    # so unscaled terms would overflow; the objective scales each cell by it.
    econ = EconomicParams(beta=0.01, phi=100.0, u_phi=100.0, p_e=0.01, c=0.001)
    station = StationParams(m=64, alpha=3.0, parking_capacity=64, lam=20_000.0, tau=1.01)
    counts = np.array([8, 16, 32, 48, 60, 63, 64])
    demands = np.linspace(1.0, 100.0, 12)
    n, d = np.meshgrid(counts, demands, indexing="ij")
    a = station.lam * station.tau * station.m * (d / station.alpha_per_min) / n
    top = np.minimum(n, np.floor(a))
    log_top = top * np.log(a) - np.vectorize(math.lgamma)(top + 1.0)
    assert log_top.max() > np.log(np.finfo(float).max)
    for model in WAIT_MODELS:
        econ = replace(econ, wait_model=model)
        got = objective(counts, demands, econ, station)
        want = [[profit_s(int(k), float(x), econ, station) for x in demands] for k in counts]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=0.0)


def test_objective_rows_are_independent(econ_default):
    # One call holding rows of 1 to 6 ports under both wait models, as the
    # demand search lists the rows of many points together, equals each
    # point's own call bit for bit, which for a theorem1 point skips the
    # Erlang C recursion. Counts fall on both sides of every m; at
    # d = 1e-14, 1 - P_0 rounds to 0 for the larger counts, and at 100 kWh the
    # charging queue is unstable for some.
    points = [
        (
            replace(econ_default, wait_model=model),
            StationParams(m=m, alpha=22.0, parking_capacity=60, lam=0.05, tau=1.01),
        )
        for m in range(1, 7)
        for model in WAIT_MODELS
    ]
    counts = np.array([1, 2, 3, 4, 5, 6, 7, 9, 64])
    demands = np.array([0.0, 1e-14, 10.0, 35.0, 100.0])
    got = opt._objective(np.tile(counts, len(points)), demands, opt._Rows.of(points, len(counts)))
    want = np.concatenate([objective(counts, demands, *point) for point in points])
    assert np.array_equal(got, want)
    assert (got == UNSTABLE).any() and (got[:, 2:] > 0.0).any()
    tiny = analyze_admission(64, 1e-14, points[0][1])
    assert tiny.state_probs[0] == 1.0


def certified_cells(ns, ds, station):
    """The cells whose load Jagerman's bound on Erlang B puts at 1 + _RHO_MARGIN or more.

    The bound rho >= lam (n / (n + a)) s / m, computed as objective computes it.
    """
    n, d = np.broadcast_arrays(np.asarray(ns, dtype=float)[:, None], np.asarray(ds, dtype=float))
    s = np.where(d > 0, d, 1.0) / station.alpha_per_min
    a = station.lam * (station.tau * station.m * s / n)
    return station.lam * (n / (n + a)) * s / station.m >= 1.0 + opt._RHO_MARGIN


def edge_demands(station, phi):
    """For each count, demands on both sides of the one where the bound reaches 1 + _RHO_MARGIN.

    rho_lb = lam s n^2 / (m (n^2 + lam tau m s)) rises with s, so it reaches
    R = 1 + _RHO_MARGIN at s = R m n^2 / (lam (n^2 - R tau m^2)) when
    n^2 > R tau m^2. A row holds that demand, the four floats on each side
    of it and the demands 1e-9 and 1e-6 away, shuffled; a count whose bound
    never reaches R before phi gets demands across the top of [0, phi].
    """
    big_r, m = 1.0 + opt._RHO_MARGIN, station.m
    rng = np.random.default_rng(0)
    rows = []
    for n in range(1, N_CAP + 1):
        spare = n * n - big_r * station.tau * m * m
        d = big_r * m * n * n / (station.lam * spare) * station.alpha_per_min if spare > 0 else phi
        if d >= phi * (1 - 1e-5):
            rows.append(np.linspace(0.5 * phi, phi, 13))
            continue
        near = [d]
        for _ in range(4):
            near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], np.inf)]
        rows.append(rng.permutation(near + [d * (1 + e) for e in (-1e-6, 1e-6, -1e-9, 1e-9)]))
    return np.array(rows)


def edge_points(table1):
    """table1 and fig4 at both penalty rates, and high-load stations of 1 to 8 ports."""
    from evstation.config import bundled_config_path, load_config, with_penalty

    fig4, _ = load_config(bundled_config_path("fig4"))
    points = [(with_penalty(s, c).econ, s.station) for s in (*table1[0], *fig4) for c in (0.4, 1.0)]
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    return points + [
        (
            replace(econ, wait_model=model),
            StationParams(m=m, alpha=3.0, parking_capacity=60, lam=0.5, tau=1.01),
        )
        for m in range(1, 9)
        for model in WAIT_MODELS
    ]


def test_certificate_edge_matches_reference(table1):
    # Cells just inside and just outside the certificate, in mixed order
    # along each row, equal the reference bit for bit, UNSTABLE set included.
    counts = np.arange(1, N_CAP + 1)
    inside = outside = 0
    for econ, station in edge_points(table1):
        demands = edge_demands(station, econ.phi)
        certified = certified_cells(counts, demands, station)
        inside, outside = inside + certified.sum(), outside + (~certified).sum()
        assert_matches_reference(counts, demands, econ, station)
        with np.errstate(all="ignore"):
            want = reference_objective(counts, demands, econ, station)
        assert (want[certified] == UNSTABLE).all()
    assert inside > 1000 and outside > 1000


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(economics(), criterion3_stations())
def test_certified_cells_are_unstable_property(econ, station):
    # On criterion 3's parameters, the optimizer's grid and one over [0, phi].
    counts = np.arange(1, N_CAP + 1)
    for d_hi in (demand_region_bound(econ), econ.phi):
        demands = np.linspace(0.0, d_hi, _GRID_POINTS)
        certified = certified_cells(counts, demands, station) & (demands > 0)
        with np.errstate(all="ignore"):
            want = reference_objective(counts, demands, econ, station)
        assert (want[certified] == UNSTABLE).all()
        assert (objective(counts, demands, econ, station)[certified] == UNSTABLE).all()


def test_objective_rows_ignore_their_block_width(table1):
    # Rows of a mostly certified point (table1's morning peak) and a barely
    # certified one, interleaved so that chunks hold uncertified cells of
    # both: a cell's chunk-mates, and the count its index runs up to, differ
    # from those of its own point's call, and each point's rows still equal
    # its own call bit for bit.
    scenarios, _ = table1
    peak = (scenarios[1].econ, scenarios[1].station)
    station = StationParams(m=8, alpha=22.0, parking_capacity=60, lam=0.03, tau=1.01)
    low = (scenarios[1].econ, station)
    counts = np.arange(1, N_CAP + 1)
    demands = np.linspace(0.0, scenarios[1].econ.phi, _GRID_POINTS)
    shares = [certified_cells(counts, demands, station).mean() for _, station in (peak, low)]
    assert shares[0] > 0.7 and 0.0 < shares[1] < 0.05
    got = opt._objective(np.repeat(counts, 2), demands, opt._Rows.of([peak, low] * N_CAP))
    for k, point in enumerate((peak, low)):
        assert np.array_equal(got[k::2], objective(counts, demands, *point))


def test_chunk_size_changes_no_value(monkeypatch, table1):
    # Chunks of one cell, where every cell takes _sum_in_order's single-run
    # path, and chunks of 15 cells, which split a count's row, give the
    # default chunks' values bit for bit: the table1 and fig4 grids under
    # both wait models, and the table1 batch at both penalty rates.
    from evstation.config import bundled_config_path, load_config, with_penalty

    fig4, _ = load_config(bundled_config_path("fig4"))
    counts = np.arange(1, N_CAP + 1)
    grids = [
        (replace(s.econ, wait_model=model), s.station)
        for s in (*table1[0], *fig4)
        for model in WAIT_MODELS
    ]
    batches = [[(with_penalty(s, c).econ, s.station) for s in table1[0]] for c in (0.4, 1.0)]

    def run():
        values = [
            objective(counts, np.linspace(0.0, demand_region_bound(econ), _GRID_POINTS), econ, station)
            for econ, station in grids
        ]
        return values, [optimize_joap_many(points) for points in batches]

    want_values, want_plans = run()
    for block in (1, 15 * (N_CAP + 1)):
        monkeypatch.setattr(opt, "_BLOCK", block)
        got_values, got_plans = run()
        assert all(np.array_equal(got, want) for got, want in zip(got_values, want_values))
        assert got_plans == want_plans


def test_table1_grids_raise_no_warning(table1):
    # Certified cells are skipped, not computed from uninitialised sums.
    from evstation.config import with_penalty

    scenarios, _ = table1
    counts = np.arange(1, N_CAP + 1)
    points = [(with_penalty(s, c).econ, s.station) for s in scenarios for c in (0.4, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for econ, station in points:
            for d_hi in (demand_region_bound(econ), econ.phi):
                objective(counts, np.linspace(0.0, d_hi, _GRID_POINTS), econ, station)
        optimize_joap_many(points)


@st.composite
def operating_points(draw):
    """A count, a demand in (0, phi], and random station and economics.

    d = 0, where both paths return 0 early, is covered by the grid of
    test_objective_matches_profit_s and by test_profit_zero_demand.
    """
    econ = draw(economics())
    station = draw(stations())
    n = draw(st.integers(1, N_CAP))
    d = draw(st.floats(0.0, econ.phi, exclude_min=True))
    return n, d, econ, station


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(operating_points())
def test_objective_matches_profit_s_property(point):
    # The two paths share no arithmetic. The margin and wait terms can cancel,
    # so the tolerance is set by their sizes, not by the difference. Below the
    # smallest normal double, floats are spaced 5e-324 apart whatever their
    # size, so a subnormal demand's profit can only agree to that spacing.
    n, d, econ, station = point
    got = float(objective(np.array([n]), np.array([d]), econ, station)[0, 0])
    want = profit_s(n, d, econ, station)
    assert (got == UNSTABLE) == (want == UNSTABLE)
    if want == UNSTABLE:
        assert got == want
        return
    analysis = analyze_admission(n, d, station)
    revenue = abs(analysis.p_admit * per_ev_profit(d, 0.0, econ))
    penalty = abs(econ.c * mean_wait(analysis, station, econ.wait_model))
    assert abs(got - want) <= 1e-12 * (revenue + penalty) + np.finfo(float).smallest_subnormal


def test_demand_region_bound(econ_default):
    bound = demand_region_bound(econ_default)
    assert 0 < bound < econ_default.phi
    # Marginal revenue is non-negative inside, negative just outside.
    def marginal(d):
        return math.exp(-econ_default.beta * d) * (1 - econ_default.beta * d) / econ_default.xi - econ_default.p_e
    assert marginal(bound - 1e-6) >= 0
    assert marginal(bound + 1e-3) < 0
    dear = replace(econ_default, p_e=econ_default.choke_price + 1.0)
    assert demand_region_bound(dear) == 0.0


def full_bisection(econ):
    """demand_region_bound as it was, with all 200 bisection steps."""

    def g(d):
        return math.exp(-econ.beta * d) * (1.0 - econ.beta * d) / econ.xi - econ.p_e

    if g(0.0) <= 0:
        return 0.0
    lo, hi = 0.0, econ.phi
    if g(hi) >= 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def priced_economics(draw):
    """Random economics whose electricity price is anywhere up to the choke price,
    at it or just below it, or at and above it."""
    econ = draw(economics())
    choke = econ.choke_price
    p_e = draw(
        st.one_of(
            st.floats(0.0, choke),
            st.sampled_from([choke, math.nextafter(choke, 0.0), choke * (1 - 1e-12), 0.0]),
            st.floats(choke, 2.0 * choke),
        )
    )
    return replace(econ, p_e=p_e)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(priced_economics())
def test_demand_region_bound_matches_full_bisection(econ):
    # The bisection stops once its ends are adjacent floats; the bound is
    # the one all 200 steps reach.
    assert demand_region_bound(econ) == full_bisection(econ)


def test_choke_price_gives_zero_demand(station_default):
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=10.0, c=0.4)
    assert econ.p_e >= econ.choke_price
    policy = optimize_joap(econ, station_default)
    assert policy.d_star == 0.0
    assert policy.predicted_profit == 0.0


def test_optimize_matches_oracle_small_sample():
    rng = np.random.default_rng(42)
    for _ in range(15):
        econ, station = random_params(rng)
        policy = optimize_joap(econ, station)
        oracle, _ = brute_force_oracle(econ, station)
        assert policy.predicted_profit == pytest.approx(oracle.predicted_profit, abs=1e-6)


def test_policy_fields_self_consistent(econ_default, station_default):
    policy = optimize_joap(econ_default, station_default)
    assert policy.n_star >= 1
    assert 0 <= policy.d_star <= econ_default.phi
    analysis = analyze_admission(policy.n_star, policy.d_star, station_default)
    assert policy.t_v == pytest.approx(analysis.t_v, abs=1e-9)
    assert policy.predicted_admit == pytest.approx(analysis.p_admit, abs=1e-9)
    assert policy.predicted_wait == pytest.approx(theorem1_wait(analysis, station_default), abs=1e-9)
    assert policy.r_star == pytest.approx(price_for_demand(policy.d_star, econ_default), abs=1e-12)
    assert policy.predicted_profit == pytest.approx(
        profit_s(policy.n_star, policy.d_star, econ_default, station_default), abs=1e-9
    )


def test_optimize_joap_memory_bounded(table1):
    # objective works on (i, cell) chunks of at most 2**16 elements, 512 KiB
    # per array, beside (count, demand) arrays and gathered cell columns of
    # about 80 KiB. One array over every cell's whole index range would take
    # 5 MiB, and the few such arrays alive at once would pass the bound.
    # The batch of every (scenario, tau) point holds one point's grid at a
    # time, and its Brent probes are (i, cell) chunks of the same bound.
    scenarios, _ = table1
    batch = [(s.econ, replace(s.station, tau=tau)) for s in scenarios for tau in DEFAULT_TAU_GRID]
    runs = [(s.name, lambda s=s: optimize_joap(s.econ, s.station)) for s in scenarios]
    for name, run in runs + [("tau grid", lambda: optimize_joap_many(batch))]:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"{name}: peak {peak / 2**20:.1f} MiB"


def test_inner_demand_opt_beats_grid(econ_default, station_default):
    n = 4
    d_star, val = inner_demand_opt(n, econ_default, station_default)
    grid = np.linspace(1e-6, demand_region_bound(econ_default), 2000)
    best_grid = max(profit_s(n, float(d), econ_default, station_default) for d in grid)
    assert val >= best_grid - 1e-6


def test_optimize_tau_prefers_higher_profit(econ_default, station_default):
    tau, policy = optimize_tau(econ_default, station_default, (1.01, 1.3))
    base = optimize_joap(econ_default, station_default)
    alt = optimize_joap(econ_default, replace(station_default, tau=1.3))
    assert policy.predicted_profit == pytest.approx(
        max(base.predicted_profit, alt.predicted_profit), abs=1e-12
    )
    assert tau in (1.01, 1.3)
    with pytest.raises(DomainError):
        optimize_tau(econ_default, station_default, (1.0,))


def test_optimize_tau_rejects_empty_grid(econ_default, station_default):
    # An empty grid has no best tau to return.
    with pytest.raises(DomainError, match="empty"):
        optimize_tau(econ_default, station_default, ())


def test_optimize_joap_many_matches_one_point_calls(table1):
    # The six table1 scenarios at both penalty rates in one batch, then the
    # 6 x 6 (scenario, tau) grid of the spacing study.
    from evstation.config import with_penalty

    scenarios, _ = table1
    points = [(with_penalty(s, c).econ, s.station) for c in (0.4, 1.0) for s in scenarios]
    assert optimize_joap_many(points) == [optimize_joap(*p) for p in points]
    points = [
        (s.econ, replace(s.station, tau=tau)) for s in scenarios for tau in DEFAULT_TAU_GRID
    ]
    assert optimize_joap_many(points) == [optimize_joap(*p) for p in points]
    assert optimize_joap_many([]) == []


@st.composite
def criterion3_points(draw):
    """Two to four points of criterion 3's distribution, of any port count
    and either wait model, and sometimes one that sells nothing."""
    points = draw(st.lists(st.tuples(economics(), stations()), min_size=2, max_size=4))
    if draw(st.booleans()):
        econ, station = points[0]
        broke = (replace(econ, p_e=econ.choke_price), station)
        points.insert(draw(st.integers(0, len(points))), broke)
    return points


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(criterion3_points())
def test_optimize_joap_many_matches_one_point_property(points):
    assert optimize_joap_many(points) == [optimize_joap(*p) for p in points]


def reference_optimize_tau(econ, station, tau_grid):
    """optimize_tau as it was: one optimize_joap per tau, ties keeping the earlier tau."""
    best_tau = None
    best_policy = None
    for tau in tau_grid:
        policy = optimize_joap(econ, replace(station, tau=tau))
        if best_policy is None or policy.predicted_profit > best_policy.predicted_profit:
            best_tau, best_policy = tau, policy
    return best_tau, best_policy


def test_optimize_tau_matches_per_tau_loop(econ_default, station_default, table1):
    scenarios, _ = table1
    points = [(econ_default, station_default)] + [(s.econ, s.station) for s in scenarios]
    for econ, station in points:
        for grid in (DEFAULT_TAU_GRID, DEFAULT_TAU_GRID[::-1], (1.3,)):
            assert optimize_tau(econ, station, grid) == reference_optimize_tau(econ, station, grid)
    # A station that sells nothing earns 0 at every tau: the first tau wins the tie.
    broke = replace(econ_default, p_e=econ_default.choke_price)
    grid = (1.5, 1.01, 1.2)
    assert optimize_tau(broke, station_default, grid) == reference_optimize_tau(
        broke, station_default, grid
    )
    assert optimize_tau(broke, station_default, grid)[0] == 1.5


def test_optimize_matches_oracle_allen_cunneen(table1):
    # Bundled daily scenarios at both penalty rates of the daily benchmark:
    # the optimizer must find the exhaustive search's operating point.
    from evstation.config import with_penalty

    scenarios, _ = table1
    assert all(s.econ.wait_model == "allen_cunneen" for s in scenarios)
    for c in (0.4, 1.0):
        for scenario in scenarios:
            econ, station = with_penalty(scenario, c).econ, scenario.station
            policy = optimize_joap(econ, station)
            oracle, _ = brute_force_oracle(econ, station)
            assert policy.predicted_profit == pytest.approx(oracle.predicted_profit, abs=1e-6)
            assert policy.n_star == oracle.n_star
            assert policy.d_star == pytest.approx(oracle.d_star, abs=1e-6)
            if policy.n_star <= station.m:
                assert policy.predicted_wait == 0.0


def _imported_modules(tree: ast.Module) -> set:
    """Every dotted module name, and every name imported from one, that tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return names


def test_reference_modules_never_import_the_optimizer():
    # The closed forms, the oracle and the Markov chain judge the production
    # search, so none of them may reach it, and the oracle lives beside them.
    package = Path(opt.__file__).parent
    for module in ("economics", "queueing", "ctmc"):
        tree = ast.parse((package / f"{module}.py").read_text())
        reached = [name for name in _imported_modules(tree) if "optimizer" in name.split(".")]
        assert not reached, f"{module} imports {reached}"
    tree = ast.parse((package / "optimizer.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"profit_s", "inner_demand_opt", "_golden_max", "brute_force_oracle"}


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_rows(f, lo, hi, tol):
    """Golden-section search on every row's bracket at once, the reference for Brent's."""
    c = hi - _INVPHI * (hi - lo)
    e = lo + _INVPHI * (hi - lo)
    fc, fe = f(c), f(e)
    while (live := hi - lo > tol).any():
        left = live & (fc >= fe)
        right = live & ~left
        hi, lo = np.where(left, e, hi), np.where(right, c, lo)
        e, fe = np.where(left, c, e), np.where(left, fc, fe)
        c, fc = np.where(right, e, c), np.where(right, fe, fc)
        c = np.where(left, hi - _INVPHI * (hi - lo), c)
        e = np.where(right, lo + _INVPHI * (hi - lo), e)
        probe = f(np.where(left, c, e))
        fc, fe = np.where(left, probe, fc), np.where(right, probe, fe)
    x = 0.5 * (lo + hi)
    return x, f(x)


def golden_optimize_joap(econ, station):
    """optimize_joap as it was: golden-section refinement of every count's grid bracket."""
    d_hi = demand_region_bound(econ)
    if d_hi <= 0:
        return opt._policy_from(1, 0.0, 0.0, econ, station)
    counts = np.arange(1, N_CAP + 1)
    grid = np.linspace(0.0, d_hi, _GRID_POINTS)
    vals = objective(counts, grid, econ, station)
    at = np.argmax(vals, axis=1)
    peak = vals[np.arange(N_CAP), at]
    lo, hi = grid[np.maximum(at - 1, 0)], grid[np.minimum(at + 1, _GRID_POINTS - 1)]
    d, val = golden_rows(
        lambda x: objective(counts, x[:, None], econ, station)[:, 0], lo, hi, _DEMAND_TOL
    )
    val = np.where((peak <= 0.0) | (val < 0.0), 0.0, val)
    best = int(np.argmax(val))
    if val[best] <= 0.0:
        return opt._policy_from(1, 0.0, 0.0, econ, station)
    return opt._policy_from(best + 1, float(d[best]), float(val[best]), econ, station)


def assert_matches_golden(policy, golden):
    """Brent's point against golden section's: the same count unless two counts tie
    to rounding, a profit no lower, and the same demand to 1e-6 kWh."""
    assert policy.predicted_profit >= golden.predicted_profit - 1e-12
    if policy.n_star != golden.n_star:
        assert policy.predicted_profit == pytest.approx(golden.predicted_profit, abs=1e-12)
    else:
        assert abs(policy.d_star - golden.d_star) <= 1e-6


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(economics(), criterion3_stations())
def test_brent_matches_golden_property(econ, station):
    # Both wait models: economics() draws either.
    assert_matches_golden(optimize_joap(econ, station), golden_optimize_joap(econ, station))


def test_brent_rows_edge_cases():
    # Five rows seeded as _seeds seeds them, with known maxima:
    # 0: an interior peak at 1.2345;
    # 1: f increasing, its grid maximum at the upper end (x == hi);
    # 2: a peak at 2.05 with an unstable (-inf) upper neighbour past 2.08;
    # 3: a degenerate bracket lo == x == hi, never evaluated;
    # 4: f increasing up to a cliff at 5.05, -inf past it.
    def value(row, u):
        return np.select(
            [row == 0, row == 1, (row == 2) & (u <= 2.08), row == 4],
            [-((u - 1.2345) ** 2), u, -((u - 2.05) ** 2), np.where(u <= 5.05, u, -np.inf)],
            -np.inf,
        )

    points = np.array(
        [[1.1, 0.9, 1.9, 3.0, 4.9], [1.2, 1.0, 2.0, 3.0, 5.0], [1.3, 1.0, 2.1, 3.0, 5.1]]
    )
    index = np.arange(5)
    values = value(index, points)
    assert values[2, 2] == values[2, 4] == -np.inf
    evaluated = []

    def f(keep, u):
        evaluated.append(keep.tolist())
        return value(keep, u)

    x, fx = opt._brent_rows(f, points, values, _DEMAND_TOL)
    assert np.array_equal(fx, value(index, x))
    assert abs(x[0] - 1.2345) <= _DEMAND_TOL
    assert x[1] == 1.0  # nothing in the bracket beats its upper end
    assert abs(x[2] - 2.05) <= _DEMAND_TOL
    assert x[3] == 3.0 and fx[3] == values[1, 3]
    assert 5.05 - _DEMAND_TOL <= x[4] <= 5.05
    # Only rows still searching are evaluated, and a row that stops stays stopped.
    assert all(3 not in keep for keep in evaluated)
    assert all(set(b) <= set(a) for a, b in zip(evaluated, evaluated[1:]))
    assert evaluated[-1] != evaluated[0]
    # No rows: nothing to search and nothing evaluated.
    evaluated.clear()
    x, fx = opt._brent_rows(f, np.empty((3, 0)), np.empty((3, 0)), _DEMAND_TOL)
    assert x.shape == fx.shape == (0,) and not evaluated


def count_objective_calls(monkeypatch):
    """Count _objective's calls, the grid's and the search's."""
    calls = []
    inner = opt._objective

    def counted(ns, ds, rows):
        calls.append(len(ns))
        return inner(ns, ds, rows)

    monkeypatch.setattr(opt, "_objective", counted)
    return calls


def test_search_edge_points(monkeypatch, econ_default, station_default):
    calls = count_objective_calls(monkeypatch)
    # No penalty and a light load: admission is all but certain, so most
    # counts' grid maximum is the region's upper end, the margin's maximum.
    free = replace(econ_default, c=0.0)
    light = replace(station_default, lam=0.01)
    # One port at a heavy load: the grid maximum of several counts sits next
    # to an unstable demand.
    econ = EconomicParams(
        beta=0.07413514814648528, phi=34.25618990706393, u_phi=105.55961169207234,
        p_e=0.03985967649831117, c=0.8796511733349222,
    )
    station = StationParams(
        m=1, alpha=15.904449127405934, parking_capacity=60, lam=1.3116283283748797,
        tau=1.1213860773288449,
    )
    for point in ((free, light), (econ, station)):
        calls.clear()
        # Each count's grid maximum and its neighbours, as the search seeds them.
        grid = np.linspace(0.0, demand_region_bound(point[0]), _GRID_POINTS)
        points, values = opt._seeds(grid, objective(np.arange(1, N_CAP + 1), grid, *point))
        top = (points[1] == points[2]) & (values[1] > 0.0)
        cliff = (values[0] == UNSTABLE) | (values[2] == UNSTABLE)
        assert (top if point[0] is free else cliff).any()
        policy = optimize_joap(*point)
        assert_matches_golden(policy, golden_optimize_joap(*point))
        if point[0] is free:
            assert policy.d_star == demand_region_bound(free)
    # A station whose every count's grid maximum is at demand 0 (the theorem-1
    # wait outweighs every margin) makes no search call, nor does one that
    # sells nothing (an empty demand region).
    broke = EconomicParams(
        beta=0.02133414706164568, phi=47.27234888118236, u_phi=136.12625322502754,
        p_e=0.028006357666027756, c=0.689622600189066,
    )
    slow = StationParams(
        m=2, alpha=4.246075796489425, parking_capacity=60, lam=0.3291055155013862,
        tau=1.342183908104519,
    )
    none = replace(econ_default, p_e=econ_default.choke_price)
    calls.clear()
    policies = optimize_joap_many([(broke, slow), (none, station_default)])
    assert calls == [N_CAP]  # the first point's grid, and no search
    # Both routes give the one zero-sales record, the oracle's too.
    for policy, (econ, station) in zip(policies, [(broke, slow), (none, station_default)]):
        assert policy == JoapPolicy(1, 0.0, econ.choke_price, 0.0, 0.0, 1.0, 0.0)
        assert policy == brute_force_oracle(econ, station)[0]


def test_table1_batch_objective_calls(monkeypatch, table1):
    # The six table1 points: six grid calls, then at most 24 search calls
    # (golden section made 39).
    scenarios, _ = table1
    calls = count_objective_calls(monkeypatch)
    optimize_joap_many([(s.econ, s.station) for s in scenarios])
    assert len(calls) <= 30
