import numpy as np
import pytest
from scipy.optimize import brentq

import evstation.simulator as sim
from evstation import (
    EconomicParams,
    GreedyAdmission,
    JoapAdmission,
    QbaAdmission,
    StationParams,
    erlang_blocking,
    gen_poisson_arrivals,
    price_for_demand,
    replicate,
    rng_for_stream,
    run_loss_admission,
    run_simulation,
    threshold_t_v,
    write_trace_csv,
)
from evstation.simulator import SubProcessAdmitter


def test_poisson_determinism():
    a = gen_poisson_arrivals(0.3, 240.0, rng_for_stream(11, 0))
    b = gen_poisson_arrivals(0.3, 240.0, rng_for_stream(11, 0))
    assert np.array_equal(a, b)
    c = gen_poisson_arrivals(0.3, 240.0, rng_for_stream(11, 1))
    assert not np.array_equal(a, c)


def test_poisson_mean_count():
    counts = [
        len(gen_poisson_arrivals(0.3, 240.0, rng_for_stream(3, rep))) for rep in range(400)
    ]
    mean = np.mean(counts)
    sigma_of_mean = np.sqrt(72.0 / 400)  # Poisson variance over replications
    assert abs(mean - 72.0) < 3 * sigma_of_mean


def test_poisson_empty_and_sorted():
    assert len(gen_poisson_arrivals(0.3, 0.0, rng_for_stream(1, 0))) == 0
    a = gen_poisson_arrivals(1.0, 500.0, rng_for_stream(1, 0))
    assert np.all(np.diff(a) > 0)
    assert a[-1] <= 500.0


def test_subprocess_admitter_example_pattern():
    # Two slots with 10-minute spacing: the fourth arrival finds both slots
    # recently used and is the only rejection.
    admitter = SubProcessAdmitter(2, 10.0)
    decisions = [admitter.admit(t) for t in (0.0, 2.0, 11.0, 11.5, 13.0)]
    assert [d is not None for d in decisions] == [True, True, True, False, True]


def test_subprocess_boundary_inclusive():
    admitter = SubProcessAdmitter(1, 10.0)
    assert admitter.admit(0.0) == 0
    assert admitter.admit(10.0) == 0  # exactly at the free time: admitted
    assert admitter.admit(19.999) is None


def test_subprocess_lowest_index():
    admitter = SubProcessAdmitter(3, 5.0)
    assert admitter.admit(0.0) == 0
    assert admitter.admit(0.1) == 1
    assert admitter.admit(0.2) == 2
    assert admitter.admit(5.1) == 0


def test_qba_threshold_strict():
    policy = QbaAdmission(threshold=3, demand=10.0)
    assert policy.decide(0.0, 2, [], 0.0) is not None
    assert policy.decide(0.0, 3, [], 0.0) is None
    empty = QbaAdmission(threshold=1, demand=10.0)
    assert empty.decide(0.0, 0, [], 0.0) is not None


def test_greedy_wait_tradeoff():
    # Margin engineered to $10; with a 30-minute wait and c = 0.4 the penalty
    # ($12) wins, with a 20-minute wait ($8) the margin wins.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.0, c=0.4)
    d = brentq(lambda x: price_for_demand(x, econ) * x - 10.0, 0.1, 50.0)
    policy = GreedyAdmission(d, econ)
    assert policy.decide(0.0, 1, [30.0], 5.0) is None
    assert policy.decide(0.0, 1, [20.0], 5.0) is not None
    # Negative margin rejects even an empty system.
    dear = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=10.0, c=0.4)
    broke = GreedyAdmission(d, dear)
    assert broke.decide(0.0, 0, [0.0], 5.0) is None


def _fixed_arrival_run(monkeypatch, times, policy, econ, station, horizon=1000.0):
    monkeypatch.setattr(
        sim, "gen_poisson_arrivals", lambda lam, h, rng: np.asarray(times, dtype=float)
    )
    return run_simulation(policy, econ, station, horizon, rng_for_stream(0, 0))


def test_fifo_single_server_waits(monkeypatch):
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=1, alpha=6.0, parking_capacity=10, lam=0.1, tau=1.01)
    d = 1.0  # service 10 min
    policy = QbaAdmission(threshold=10, demand=d)
    records, _ = _fixed_arrival_run(monkeypatch, [0.0, 1.0], policy, econ, station)
    assert [r.wait for r in records] == pytest.approx([0.0, 9.0])


def test_fifo_two_servers_waits(monkeypatch):
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=2, alpha=6.0, parking_capacity=10, lam=0.1, tau=1.01)
    policy = QbaAdmission(threshold=10, demand=1.0)
    records, _ = _fixed_arrival_run(monkeypatch, [0.0, 1e-9, 2e-9], policy, econ, station)
    assert [round(r.wait, 6) for r in records] == pytest.approx([0.0, 0.0, 10.0])


def test_departure_processed_before_arrival(monkeypatch):
    # An EV arriving exactly at a completion instant sees the server free.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=1, alpha=6.0, parking_capacity=1, lam=0.1, tau=1.01)
    policy = QbaAdmission(threshold=10, demand=1.0)
    records, _ = _fixed_arrival_run(monkeypatch, [0.0, 10.0], policy, econ, station)
    assert all(r.admitted for r in records)
    assert records[1].wait == pytest.approx(0.0)


def test_parking_capacity_converts_to_rejection(monkeypatch):
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=2, alpha=6.0, parking_capacity=2, lam=0.1, tau=1.01)
    policy = QbaAdmission(threshold=50, demand=1.0)  # never limits by itself
    times = [0.0, 0.1, 0.2, 0.3]
    records, _ = _fixed_arrival_run(monkeypatch, times, policy, econ, station)
    assert [r.admitted for r in records] == [True, True, False, False]


def test_joap_trace_spacing():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.4, tau=1.01)
    d = 20.0
    n = 4
    t_v = threshold_t_v(n, d, station)
    records, _ = run_simulation(
        JoapAdmission(n, t_v, d), econ, station, 2000.0, rng_for_stream(5, 0)
    )
    by_slot = {}
    for r in records:
        if r.admitted:
            by_slot.setdefault(r.sub_process, []).append(r.arrival_time)
    assert by_slot
    for times in by_slot.values():
        gaps = np.diff(times)
        assert np.all(gaps >= t_v - 1e-9)


def test_loss_mode_matches_blocking():
    n, t_v, lam = 3, 8.0, 0.4
    arrivals = gen_poisson_arrivals(lam, 250_000.0, rng_for_stream(9, 0))
    admitted = run_loss_admission(arrivals, n, t_v)
    simulated = admitted / len(arrivals)
    analytic = 1.0 - erlang_blocking(n, lam * t_v)
    assert abs(simulated - analytic) < 0.01


def test_replicate_deterministic_and_reps1():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    policy = QbaAdmission(threshold=40, demand=15.0)
    a = replicate(policy, econ, station, 240.0, 5, 123)
    b = replicate(policy, econ, station, 240.0, 5, 123)
    assert a == b
    _, single = run_simulation(policy, econ, station, 240.0, rng_for_stream(123, 0))
    one = replicate(policy, econ, station, 240.0, 1, 123)
    assert one.profit_per_hour == pytest.approx(single.profit_per_hour)
    assert one.admission_rate == pytest.approx(single.admission_rate)
    assert set(one.half_width_95.values()) == {None}  # undefined for one replication


def test_half_width_shrinks():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    policy = QbaAdmission(threshold=40, demand=15.0)
    small = replicate(policy, econ, station, 240.0, 50, 77)
    large = replicate(policy, econ, station, 240.0, 200, 77)
    ratio = large.half_width_95["profit_per_hour"] / small.half_width_95["profit_per_hour"]
    assert 0.5 * (1 / 2) < ratio < 1.2 * (1 / 2) + 0.3  # ~1/2 with sampling slack


def test_trace_csv_format(tmp_path):
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=2, alpha=11.5, parking_capacity=4, lam=0.5, tau=1.01)
    policy = QbaAdmission(threshold=2, demand=20.0)
    records, _ = run_simulation(policy, econ, station, 400.0, rng_for_stream(2, 0))
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "arrival_time,demand,admitted,sub_process,service_start,wait,profit"
    assert len(lines) == len(records) + 1
    rejected = [line for line, r in zip(lines[1:], records) if not r.admitted]
    assert rejected and all(",0," in line for line in rejected)


def test_drain_out_completes_all(monkeypatch):
    # Arrivals near the horizon still get served (waits counted, not censored).
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=1, alpha=6.0, parking_capacity=10, lam=0.1, tau=1.01)
    policy = QbaAdmission(threshold=10, demand=1.0)
    records, _ = _fixed_arrival_run(
        monkeypatch, [99.0, 99.5], policy, econ, station, horizon=100.0
    )
    assert all(r.admitted and r.service_start is not None for r in records)
    assert records[1].wait == pytest.approx(9.5)
