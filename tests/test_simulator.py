import heapq
import math
import tracemalloc
from bisect import bisect_right
from collections import deque, namedtuple
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import evstation.simulator as sim
from evstation import (
    AdmissionRule,
    DomainError,
    EconomicParams,
    StationParams,
    analyze_admission,
    erlang_blocking,
    gen_poisson_arrivals,
    per_ev_profit,
    price_for_demand,
    replicate,
    rng_for_stream,
    run_loss_admission,
)
from evstation.config import with_penalty
from evstation.experiments import POLICY_NAMES, _policies
from evstation.simulator import SimMetrics


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


def joap_decisions(n, t_v, times):
    """A JoAP window's decision on each arrival of a trace, at a lot that never fills."""
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=1, alpha=6.0, parking_capacity=10**6, lam=0.1, tau=1.01)
    return [r.admitted for r in run_one_row(AdmissionRule(10.0, n, t_v), econ, station, times)]


def test_subprocess_admitter_example_pattern():
    # Two admissions per 10 minutes: the fourth arrival finds two admissions
    # in its last 10 minutes (2.0 and 11.0) and is the only rejection.
    decisions = joap_decisions(2, 10.0, [0.0, 2.0, 11.0, 11.5, 13.0])
    assert decisions == [True, True, True, False, True]


def test_subprocess_boundary_inclusive():
    first, second, third = joap_decisions(1, 10.0, [0.0, 10.0, 19.999])
    assert first is True
    assert second is True  # exactly t_v after the last admission: admitted
    assert third is False


def test_joap_admission_spacing_domain():
    # t_v = 0 is the operating point of a station that sells nothing: all admitted.
    assert joap_decisions(1, 0.0, [0.0, 0.0, 1e-9, 3.0]) == [True] * 4
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="t_v"):
            AdmissionRule(10.0, 2, bad)
    with pytest.raises(DomainError, match="n must"):
        AdmissionRule(10.0, 0, 1.0)


def test_qba_threshold_strict():
    # QBA admits every EV the lot has room for, whatever its wait; the lot is
    # its threshold. Ten EVs at once on one port and a $0.40/min penalty: the
    # last waits 90 minutes, a penalty far above its margin, and is admitted.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    policy = AdmissionRule(demand=1.0)  # service 10 min
    roomy = StationParams(m=1, alpha=6.0, parking_capacity=10, lam=0.1, tau=1.01)
    records = run_one_row(policy, econ, roomy, [0.0] * 10)
    assert all(r.admitted for r in records) and records[-1].wait == pytest.approx(90.0)
    assert records[-1].profit < 0
    # With 3 spaces the fourth EV in the system is turned away, and admission
    # resumes once the first EV leaves at t = 10.
    station = StationParams(m=1, alpha=6.0, parking_capacity=3, lam=0.1, tau=1.01)
    times = [0.0, 0.1, 0.2, 0.3, 10.0]
    records = run_one_row(policy, econ, station, times)
    assert [r.admitted for r in records] == [True, True, True, False, True]


def test_greedy_wait_tradeoff():
    # Margin engineered to $10 and service to 50 minutes on one port. The EV
    # at 20 would wait 30 minutes, and with c = 0.4 the penalty ($12) wins;
    # the EV at 30 would wait 20 minutes ($8), and the margin wins.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.0, c=0.4)
    d = brentq(lambda x: price_for_demand(x, econ) * x - 10.0, 0.1, 50.0)
    station = StationParams(m=1, alpha=d * 60.0 / 50.0, parking_capacity=10, lam=0.1, tau=1.01)
    policy = AdmissionRule(d, greedy=True)
    first, waits_30, waits_20 = run_one_row(policy, econ, station, [0.0, 20.0, 30.0])
    assert first.admitted and first.profit == pytest.approx(10.0)
    assert waits_30.admitted is False
    assert waits_20.admitted is True and waits_20.wait == pytest.approx(20.0)
    # Negative margin rejects even an empty system.
    dear = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=10.0, c=0.4)
    [broke] = run_one_row(policy, dear, station, [0.0])
    assert broke.admitted is False


def test_greedy_window_counts_only_admissions():
    # A greedy record with a window of 2 admissions per 100 minutes, on the
    # $10 margin and 50-minute service above. The EV at 20 fails the wait
    # test and takes no window slot, so the EV at 30 is the window's second;
    # the EV at 95 would wait 5 minutes but finds the window full, which
    # reopens at 100.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.0, c=0.4)
    d = brentq(lambda x: price_for_demand(x, econ) * x - 10.0, 0.1, 50.0)
    station = StationParams(m=1, alpha=d * 60.0 / 50.0, parking_capacity=10, lam=0.1, tau=1.01)
    times = [0.0, 20.0, 30.0, 95.0, 100.0]
    records = run_one_row(AdmissionRule(d, 2, 100.0, greedy=True), econ, station, times)
    assert [r.admitted for r in records] == [True, False, True, False, True]
    assert [r.wait for r in records] == pytest.approx([0.0, 0.0, 20.0, 0.0, 0.0])
    # Each of its parts alone admits an EV the record turns away.
    greedy = run_one_row(AdmissionRule(d, greedy=True), econ, station, times)
    window = run_one_row(AdmissionRule(d, 2, 100.0), econ, station, times)
    assert [r.admitted for r in greedy] == [True, False, True, True, False]
    assert [r.admitted for r in window] == [True, True, False, False, True]


Ev = namedtuple("Ev", "arrival_time admitted service_start wait profit")


def run_one_row(policy, econ, station, arrivals):
    """One policy on one arrival trace through the simulator's event loop, as one Ev per arrival.

    A rejected EV has no service start and zero wait and profit.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    horizon = float(arrivals.max(initial=0.0))  # the arrivals fall on (0, horizon]
    cols = sim._columns([([policy], econ, station, horizon)])
    (count,), starts, arrived = sim._event_loop(arrivals[:, None], cols)
    margin, c = float(cols.margin[0, 0]), float(cols.c[0, 0])
    # Admissions are in arrival order, and of equal arrival times only a
    # first run can be admitted, so one pointer matches them to arrivals.
    admissions = zip(arrived[:count, 0].tolist(), starts[:count, 0].tolist())
    upcoming = next(admissions, None)
    records = []
    for t in arrivals.tolist():
        if upcoming is not None and upcoming[0] == t:
            start = upcoming[1]
            wait = start - t
            records.append(Ev(t, True, start, wait, margin - c * wait))
            upcoming = next(admissions, None)
        else:
            records.append(Ev(t, False, None, 0.0, 0.0))
    return records


def test_fifo_single_server_waits():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=1, alpha=6.0, parking_capacity=10, lam=0.1, tau=1.01)
    d = 1.0  # service 10 min
    policy = AdmissionRule(demand=d)
    records = run_one_row(policy, econ, station, [0.0, 1.0])
    assert [r.wait for r in records] == pytest.approx([0.0, 9.0])


def test_fifo_two_servers_waits():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=2, alpha=6.0, parking_capacity=10, lam=0.1, tau=1.01)
    policy = AdmissionRule(demand=1.0)
    records = run_one_row(policy, econ, station, [0.0, 1e-9, 2e-9])
    assert [round(r.wait, 6) for r in records] == pytest.approx([0.0, 0.0, 10.0])


def test_departure_processed_before_arrival():
    # An EV arriving exactly at a completion instant sees the server free.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=1, alpha=6.0, parking_capacity=1, lam=0.1, tau=1.01)
    policy = AdmissionRule(demand=1.0)
    records = run_one_row(policy, econ, station, [0.0, 10.0])
    assert all(r.admitted for r in records)
    assert records[1].wait == pytest.approx(0.0)


def test_parking_capacity_converts_to_rejection():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=2, alpha=6.0, parking_capacity=2, lam=0.1, tau=1.01)
    policy = AdmissionRule(demand=1.0)  # admits whatever the lot has room for
    times = [0.0, 0.1, 0.2, 0.3]
    records = run_one_row(policy, econ, station, times)
    assert [r.admitted for r in records] == [True, True, False, False]


def test_full_lot_leaves_joap_slot_free():
    # The lot holds 2 EVs and JoAP admits 3 per 50 minutes. The third arrival
    # finds the lot full and is turned away without counting in JoAP's window,
    # so the fourth, after the first EV has left, is the window's third
    # admission. Had the third arrival counted, the fourth would be rejected.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=1, alpha=6.0, parking_capacity=2, lam=0.1, tau=1.01)
    policy = AdmissionRule(1.0, 3, 50.0)  # service 10 min
    times = [0.0, 0.1, 0.2, 10.0]
    records = run_one_row(policy, econ, station, times)
    assert [r.admitted for r in records] == [True, True, False, True]
    assert [r.arrival_time for r in records if r.admitted] == [0.0, 0.1, 10.0]


def test_joap_trace_spacing():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.4, tau=1.01)
    d = 20.0
    n = 4
    t_v = analyze_admission(n, d, station).t_v
    arrivals = gen_poisson_arrivals(station.lam, 2000.0, rng_for_stream(5, 0))
    records = run_one_row(AdmissionRule(d, n, t_v), econ, station, arrivals)
    admitted = [r.arrival_time for r in records if r.admitted]
    assert n < len(admitted) < len(records)
    # At most n admissions in any t_v: each comes no sooner than t_v after
    # the one n admissions before it.
    assert all(a + t_v <= b for a, b in zip(admitted, admitted[n:]))


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
    policy = AdmissionRule(demand=15.0)
    [[a]] = replicate([([policy], econ, station, 240.0)], 5, 123)
    [[b]] = replicate([([policy], econ, station, 240.0)], 5, 123)
    assert a == b
    _, single = reference_run_simulation(policy, econ, station, 240.0, rng_for_stream(123, 0))
    [[one]] = replicate([([policy], econ, station, 240.0)], 1, 123)
    # A single replication reproduces the reference run exactly.
    assert one.profit_per_hour == single.profit_per_hour
    assert one.admission_rate == single.admission_rate
    assert one.mean_wait == single.mean_wait
    # And its profit is the sum of the loop's per-EV profits.
    arrivals = gen_poisson_arrivals(station.lam, 240.0, rng_for_stream(123, 0))
    records = run_one_row(policy, econ, station, arrivals)
    assert sum(r.profit for r in records if r.admitted) / (240.0 / 60.0) == one.profit_per_hour
    assert set(one.half_width_95.values()) == {None}  # undefined for one replication


def test_replicate_resets_a_policy_between_runs():
    # One JoAP record listed twice: it keeps no state between runs, so the
    # second run on the same trace sees none of the first's admissions.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    policy = AdmissionRule(15.0, 3, 12.0)
    [[first, second]] = replicate([([policy, policy], econ, station, 240.0)], 20, 5)
    assert first == second
    [[alone]] = replicate([([policy], econ, station, 240.0)], 20, 5)
    assert first == alone
    assert first.admission_rate < 1.0  # the window binds, so a stale one would show


def test_replicate_rejects_bad_reps_and_horizon():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    policy = AdmissionRule(demand=15.0)
    for reps in (0, -1):
        with pytest.raises(DomainError, match="reps"):
            replicate([([policy], econ, station, 240.0)], reps, 1)
        with pytest.raises(DomainError, match="reps"):
            replicate([], reps, 1)
    assert replicate([], 3, 1) == []  # no cases, nothing to run
    for horizon in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="horizon"):
            replicate([([policy], econ, station, horizon)], 3, 1)
    # A case with no policies has nothing to run; it used to fail inside the event loop.
    with pytest.raises(DomainError, match="policy"):
        replicate([([policy], econ, station, 240.0), ([], econ, station, 240.0)], 3, 1)


def test_half_width_shrinks():
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    policy = AdmissionRule(demand=15.0)
    [[small]] = replicate([([policy], econ, station, 240.0)], 50, 77)
    [[large]] = replicate([([policy], econ, station, 240.0)], 200, 77)
    ratio = large.half_width_95["profit_per_hour"] / small.half_width_95["profit_per_hour"]
    assert 0.5 * (1 / 2) < ratio < 1.2 * (1 / 2) + 0.3  # ~1/2 with sampling slack


def test_drain_out_completes_all():
    # Arrivals near the horizon still get served (waits counted, not censored).
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.0)
    station = StationParams(m=1, alpha=6.0, parking_capacity=10, lam=0.1, tau=1.01)
    policy = AdmissionRule(demand=1.0)
    records = run_one_row(policy, econ, station, [99.0, 99.5])
    assert all(r.admitted and r.service_start is not None for r in records)
    assert records[1].wait == pytest.approx(9.5)


# Reference copies of the simulator loops as they were before arrivals were
# generated by cumsum and the event loop ran on plain floats, with a heap of
# completions and a list of port free times, one EV at a time. The reference
# event loop checks the lot before it asks the policy, and gives the policy
# the wait at the earliest free port, as the simulator does. It asks a scalar
# copy of the record's rule, its window kept in a deque, so it shares no
# admission code with the simulator. The tests below hold the current code
# to them bit for bit.


def reference_gen_poisson_arrivals(lam, horizon, rng):
    if horizon == 0:
        return np.empty(0)
    times = []
    t = 0.0
    block = max(16, int(lam * horizon * 1.2) + 16)
    while t <= horizon:
        gaps = rng.exponential(1.0 / lam, size=block)
        for g in gaps:
            t += g
            if t > horizon:
                break
            times.append(t)
    return np.asarray(times)


def reference_run_loss_admission(arrivals, n, t_v):
    window = deque()
    admitted = 0
    for t in arrivals:
        while window and window[0] + t_v <= t:
            window.popleft()
        if len(window) < n:
            window.append(t)
            admitted += 1
    return admitted


def reference_rule(policy, econ):
    """A fresh scalar copy of the policy's rule: decide(t, wait) -> bool.

    The window holds the admissions of the last t_v minutes, and an arrival
    joins it only when it is admitted: when the window has room and, for a
    greedy record, its margin beats its wait's penalty.
    """
    window = deque()
    margin = per_ev_profit(policy.demand, 0.0, econ)

    def decide(t, wait):
        while window and window[0] + policy.t_v <= t:
            window.popleft()
        if len(window) >= policy.n or (policy.greedy and not margin - econ.c * wait > 0):
            return False
        window.append(t)
        return True

    return decide


def reference_run_simulation(policy, econ, station, horizon, rng):
    arrivals = reference_gen_poisson_arrivals(station.lam, horizon, rng)
    decide = reference_rule(policy, econ)
    d = policy.demand
    service = station.service_time(d)
    server_free = [0.0] * station.m
    completions = []
    records = []
    for t in arrivals:
        while completions and completions[0] <= t:
            heapq.heappop(completions)
        in_system = len(completions)
        # A full lot rejects before the policy is asked.
        admitted = in_system < station.parking_capacity and decide(
            t, max(0.0, min(server_free) - t)
        )
        if not admitted:
            records.append(Ev(t, False, None, 0.0, 0.0))
            continue
        j = min(range(station.m), key=lambda k: server_free[k])
        start = max(t, server_free[j])
        server_free[j] = start + service
        heapq.heappush(completions, start + service)
        wait = start - t
        records.append(Ev(t, True, start, wait, per_ev_profit(d, wait, econ)))
    total = len(records)
    admitted = [r for r in records if r.admitted]
    metrics = SimMetrics(
        admission_rate=len(admitted) / total if total else 1.0,
        mean_wait=float(np.mean([r.wait for r in admitted])) if admitted else 0.0,
        profit_per_hour=sum(r.profit for r in records) / (horizon / 60.0),
        replication_count=1,
    )
    return records, metrics


def reference_replicate(policy, econ, station, horizon, reps, seed):
    rates, waits, profits = [], [], []
    for rep in range(reps):
        _, metrics = reference_run_simulation(
            policy, econ, station, horizon, rng_for_stream(seed, rep)
        )
        rates.append(metrics.admission_rate)
        waits.append(metrics.mean_wait)
        profits.append(metrics.profit_per_hour)

    def half_width(xs):
        if len(xs) < 2:
            return None
        return 1.96 * float(np.std(xs, ddof=1)) / math.sqrt(len(xs))

    return SimMetrics(
        admission_rate=float(np.mean(rates)),
        mean_wait=float(np.mean(waits)),
        profit_per_hour=float(np.mean(profits)),
        replication_count=reps,
        half_width_95={
            "admission_rate": half_width(rates),
            "mean_wait": half_width(waits),
            "profit_per_hour": half_width(profits),
        },
    )


@pytest.mark.parametrize("reps", [1, 2, 3, 7, 200, 1000])
def test_summaries_match_one_row_reductions(reps):
    # Rows of a (3, policies, reps) array seen per policy, as replicate passes
    # them: each statistic equals the one-row numpy call, bit for bit.
    samples = np.random.default_rng(reps).lognormal(0.0, 2.0, (3, 4, reps)).transpose(1, 0, 2)
    for sample, metrics in zip(samples, sim._summaries(list(samples), reps)):
        rates, waits, profits = (list(row) for row in sample)
        want = {"admission_rate": rates, "mean_wait": waits, "profit_per_hour": profits}
        for name, xs in want.items():
            assert getattr(metrics, name) == float(np.mean(xs))
            spread = 1.96 * float(np.std(xs, ddof=1)) / math.sqrt(reps) if reps > 1 else None
            assert metrics.half_width_95[name] == spread
        assert metrics.replication_count == reps


class ShortGapRng:
    """A generator whose gaps are an eighth of the real draws, so the block
    sized for the expected count runs out and several blocks are drawn."""

    def __init__(self, seed):
        self.rng = rng_for_stream(seed, 0)
        self.sizes = []

    def exponential(self, scale, size):
        self.sizes.append(size)
        return self.rng.exponential(scale, size=size) / 8.0

    def standard_exponential(self, size, out):
        self.sizes.append(size)
        return np.divide(self.rng.standard_exponential(size, out=out), 8.0, out=out)


@pytest.mark.parametrize(
    "lam, horizon, seed",
    [(0.3, 240.0, 11), (0.1, 1.0, 2), (2.5, 1000.0, 5), (1e-4, 10.0, 3), (0.4, 0.0, 1)],
)
def test_arrivals_match_reference(lam, horizon, seed):
    rng, ref_rng = rng_for_stream(seed, 0), rng_for_stream(seed, 0)
    a = gen_poisson_arrivals(lam, horizon, rng)
    b = reference_gen_poisson_arrivals(lam, horizon, ref_rng)
    assert a.dtype == b.dtype and np.array_equal(a, b)
    # The same draws were made: both generators are left in the same state.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_arrivals_match_reference_across_blocks():
    for seed in (1, 2, 3):
        rng, ref_rng = ShortGapRng(seed), ShortGapRng(seed)
        a = gen_poisson_arrivals(0.5, 300.0, rng)
        b = reference_gen_poisson_arrivals(0.5, 300.0, ref_rng)
        assert len(rng.sizes) >= 5
        assert rng.sizes == ref_rng.sizes
        assert np.array_equal(a, b)


def test_arrivals_reject_non_finite():
    rng = rng_for_stream(0, 0)
    for lam, horizon in ((float("nan"), 10.0), (float("inf"), 10.0), (0.3, float("inf")),
                         (0.3, float("nan")), (0.0, 10.0), (0.3, -1.0)):
        with pytest.raises(DomainError):
            gen_poisson_arrivals(lam, horizon, rng)


def test_loss_mode_matches_admitter_and_reference():
    # The third arrival comes at exactly window[0] + t_v and is admitted.
    streams = [(np.array([0.5, 3.0, 10.5, 13.0, 20.5]), 1, 10.0)]
    for seed, (n, t_v, lam) in enumerate([(1, 5.0, 0.3), (3, 8.0, 0.4), (6, 2.5, 2.0)]):
        streams.append((gen_poisson_arrivals(lam, 5000.0, rng_for_stream(seed, 0)), n, t_v))
    for arrivals, n, t_v in streams:
        expected = sum(joap_decisions(n, t_v, arrivals))
        assert run_loss_admission(arrivals, n, t_v) == expected
        assert reference_run_loss_admission(arrivals, n, t_v) == expected
    assert run_loss_admission(streams[0][0], 1, 10.0) == 3


def tolist_run_loss_admission(arrivals, n, t_v):
    """The loss-mode count as a plain loop over tolist(), recomputing the edge per arrival."""
    admitted = [-math.inf] * n
    for t in arrivals.tolist():
        if admitted[-n] + t_v <= t:
            admitted.append(t)
    return len(admitted) - n


# Times on a coarse grid, so arrivals often fall exactly on a window edge,
# mixed with arbitrary doubles, non-finite ones included.
loss_times = st.one_of(
    st.integers(-4, 40).map(lambda k: k * 0.5),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    st.lists(loss_times, max_size=40),
    st.integers(1, 8),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]), st.floats(0.0, 1e300)),
    st.integers(1, 3),
    st.booleans(),
)
def test_loss_mode_matches_tolist_loop_property(times, n, t_v, step, ordered):
    # Unsorted arrivals and strided views count as the plain loop does, and
    # sorted ones as the sliding-window deque does.
    arrivals = np.array(sorted(times) if ordered else times, dtype=float)
    for view in (arrivals, arrivals[::step], arrivals[1::step], arrivals[::-1]):
        assert run_loss_admission(view, n, t_v) == tolist_run_loss_admission(view, n, t_v)
    finite = np.sort(arrivals[np.isfinite(arrivals)])
    for view in (finite, finite[::step]):
        expected = reference_run_loss_admission(view.tolist(), n, t_v)
        assert run_loss_admission(view, n, t_v) == expected


def test_loss_mode_edge_cases():
    arrivals = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    cases = [
        (1, 2.0, 4),  # admissions at 0, 2, 4, 6: each exactly on the edge
        (2, 2.0, 7),  # only the second arrival at 2.0 finds two admissions in (0, 2]
        (1, 0.0, 8),  # t_v = 0 admits every arrival, ties included
        (3, 0.0, 8),
        (8, 1e9, 8),  # n >= len: every arrival finds a free slot
        (20, 1e9, 8),
        (1, 6.0, 2),
    ]
    for n, t_v, expected in cases:
        assert run_loss_admission(arrivals, n, t_v) == expected
        assert tolist_run_loss_admission(arrivals, n, t_v) == expected
    assert run_loss_admission(arrivals[::2], 1, 2.0) == 3  # of 0, 2, 3, 5, 3 falls in 2's window
    for n, t_v in ((1, 0.0), (3, 5.0)):
        assert run_loss_admission(np.empty(0), n, t_v) == 0
        assert run_loss_admission(arrivals[8:], n, t_v) == 0


@pytest.mark.parametrize(
    "n, t_v",
    [(0, 1.0), (-1, 1.0), (1, float("nan")), (1, float("inf")), (1, -float("inf")), (2, -5.0)],
)
def test_loss_mode_rejects_invalid_window(n, t_v):
    # As AdmissionRule does, and before the loop, so an empty trace is rejected too.
    for arrivals in (np.empty(0), np.array([1.0, 2.0])):
        with pytest.raises(DomainError):
            run_loss_admission(arrivals, n, t_v)
    with pytest.raises(DomainError):
        AdmissionRule(1.0, n, t_v)


@pytest.mark.parametrize("c", [0.4, 1.0])
def test_replicate_matches_reference_on_table1(table1, c):
    # Each scenario also runs on a lot of m spaces, where a full lot turns
    # arrivals away under every policy.
    scenarios, run = table1
    for scenario in scenarios:
        scenario = with_penalty(scenario, c)
        small = replace(scenario.station, parking_capacity=scenario.station.m)
        stations = (scenario.station, small)
        built = _policies([replace(scenario, station=station) for station in stations])
        for station, policies in zip(stations, built):
            args = (scenario.econ, station, scenario.duration, 20, run.seed)
            [results] = replicate([(policies, *args[:3])], *args[3:])
            assert len(results) == 3
            for name, policy, metrics in zip(("joap", "qba", "greedy"), policies, results):
                assert metrics == reference_replicate(policy, *args), (scenario.name, name)


@st.composite
def replicated_runs(draw):
    """A small station, one to three policies and a short run of 1-6 replications.

    Short horizons at low rates leave some replications with no arrivals, so
    rows have unequal lengths; demands include 0, and JoAP's n may exceed the
    lot. A greedy record may also carry a window that binds.
    """
    m = draw(st.integers(1, 4))
    lot = draw(st.integers(m, 3 * m))
    station = StationParams(
        m=m, alpha=draw(st.floats(3.0, 22.0)), parking_capacity=lot,
        lam=draw(st.floats(0.01, 1.0)), tau=1.01,
    )
    p_e, c = draw(st.floats(0.01, 0.12)), draw(st.floats(0.0, 1.0))
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=p_e, c=c)
    demand = st.one_of(st.just(0.0), st.floats(1.0, 40.0))
    policy = st.one_of(
        st.builds(AdmissionRule, demand, st.integers(1, 3 * lot), st.floats(0.0, 120.0)),
        st.builds(AdmissionRule, demand),
        st.builds(AdmissionRule, demand, greedy=st.just(True)),
        st.builds(AdmissionRule, demand, st.integers(1, lot), st.floats(1.0, 120.0), st.just(True)),
    )
    policies = draw(st.lists(policy, min_size=1, max_size=3))
    horizon = draw(st.floats(0.5, 120.0))
    return policies, econ, station, horizon, draw(st.integers(1, 6)), draw(st.integers(0, 2**16))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(replicated_runs())
def test_replicate_matches_reference_property(run):
    policies, *args = run
    expected = [reference_replicate(p, *args) for p in policies]
    assert replicate([(policies, *args[:3])], *args[3:]) == [expected]
    # Every replication in a chunk of its own: chunk boundaries change nothing.
    with mock.patch.object(sim, "_BLOCK", 1):
        assert replicate([(policies, *args[:3])], *args[3:]) == [expected]


class ShortGapStream:
    """rng_for_stream's generator with every gap an eighth of its draw, so a
    trace reads several draw blocks of its stream."""

    def __init__(self, seed, stream_id):
        self.rng = rng_for_stream(seed, stream_id)
        self.blocks = 0

    def standard_exponential(self, size, out):
        self.blocks += 1
        return np.divide(self.rng.standard_exponential(size, out=out), 8.0, out=out)


def test_replicate_cases_match_each_case_alone():
    # Cases of different rates and horizons share each replication's stream;
    # the third case has the first's rate and horizon, so it reads the same
    # trace. Run alone, each case matches the reference, one policy at a time.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    small = replace(station, m=2, parking_capacity=3, lam=1.0)
    cases = [
        ([AdmissionRule(15.0, 3, 12.0), AdmissionRule(15.0)], econ, station, 240.0),
        ([AdmissionRule(15.0, greedy=True)], econ, replace(station, lam=0.1), 600.0),
        ([AdmissionRule(5.0)], econ, station, 240.0),
        ([AdmissionRule(8.0, 2, 5.0)], econ, small, 30.0),
    ]
    reps, seed = 7, 3
    alone = [replicate([case], reps, seed)[0] for case in cases]
    for (policies, *args), results in zip(cases, alone):
        assert results == [reference_replicate(p, *args, reps, seed) for p in policies]
    assert replicate(cases, reps, seed) == alone
    # Every replication in a chunk of its own.
    with mock.patch.object(sim, "_BLOCK", 1):
        assert replicate(cases, reps, seed) == alone
    # Streams that need several draw blocks, together and alone.
    streams = []

    def short_stream(seed, stream_id):
        streams.append(ShortGapStream(seed, stream_id))
        return streams[-1]

    with mock.patch.object(sim, "rng_for_stream", short_stream):
        short_alone = [replicate([case], reps, seed)[0] for case in cases]
        assert replicate(cases, reps, seed) == short_alone
    assert min(s.blocks for s in streams) >= 2
    assert short_alone != alone


def test_replicate_runs_cases_on_one_trace_as_one_loop():
    # The first three cases share one trace and run as the rows of one event
    # loop, each on its own station (m, lot) and windows; the fourth has a
    # trace and a loop of its own. At 2 arrivals a minute, every row's history
    # is bounded well below its trace's width:
    # - QBA at a 60-minute service fills its lot of 3 within 30 minutes, and
    #   no EV leaves before the horizon, so it admits exactly the lot;
    # - JoAP(2, 20) admits its window's bound, 2 * (30 // 20 + 1) = 4;
    # - JoAP(2, 25) over 60 minutes admits its bound of 6, which sizes its
    #   loop's history, and keeps rewriting the slot after them.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=2, alpha=6.0, parking_capacity=3, lam=2.0, tau=1.01)
    cases = [
        ([AdmissionRule(6.0), AdmissionRule(6.0, greedy=True)], econ, station, 30.0),
        (
            [AdmissionRule(1.0, 2, 20.0), AdmissionRule(1.0)],
            replace(econ, c=1.0), replace(station, m=3, parking_capacity=5), 30.0,
        ),
        (
            [AdmissionRule(0.5, 1, 4.0), AdmissionRule(2.0, 3, 0.0)],
            econ, replace(station, m=1, parking_capacity=8), 30.0,
        ),
        ([AdmissionRule(1.0, 2, 25.0)], econ, replace(station, m=4, parking_capacity=40), 60.0),
    ]
    reps, seed = 6, 3
    expected = [
        [reference_replicate(p, *args, reps, seed) for p in policies] for policies, *args in cases
    ]
    assert [replicate([case], reps, seed)[0] for case in cases] == expected
    assert replicate(cases, reps, seed) == expected
    with mock.patch.object(sim, "_BLOCK", 1):
        assert replicate(cases, reps, seed) == expected
        assert [replicate([case], reps, seed)[0] for case in cases] == expected
    streams = [rng_for_stream(seed, rep) for rep in range(reps)]
    shared, own = sim._poisson_traces(streams, [(2.0, 30.0), (2.0, 60.0)])
    cols = sim._columns(cases[:3])
    count, starts, _ = sim._event_loop(shared[0], cols)
    assert cols.most.ravel().tolist() == [5, 5, 4, 17, 8, 10]
    assert len(starts) == 18 < len(shared[0])
    count = count.reshape(6, reps)
    assert np.all(count[0] == 3) and np.all(count[2] == 4)
    cols = sim._columns(cases[3:])
    count, starts, _ = sim._event_loop(own[0], cols)
    assert np.all(count == 6) and cols.most.ravel().tolist() == [6]
    assert len(starts) == 7 < min(own[1])
    # A bound one short makes the loop write past its history, which fails.
    with pytest.raises(IndexError):
        sim._event_loop(own[0], cols._replace(most=cols.most - 1))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.lists(replicated_runs(), min_size=2, max_size=3))
def test_replicate_cases_on_one_trace_match_reference_property(runs):
    # Random cases moved onto the first run's rate and horizon, so they run as
    # the rows of one loop, each on its own station, economics and windows.
    lam, horizon, reps, seed = runs[0][2].lam, *runs[0][3:]
    cases = [
        (policies, econ, replace(station, lam=lam), horizon) for policies, econ, station, *_ in runs
    ]
    expected = [
        [reference_replicate(p, *args, reps, seed) for p in policies] for policies, *args in cases
    ]
    assert replicate(cases, reps, seed) == expected
    with mock.patch.object(sim, "_BLOCK", 1):
        assert replicate(cases, reps, seed) == expected


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(replicated_runs(), min_size=2, max_size=3))
def test_replicate_cases_match_reference_property(runs):
    # Several random cases in one call, on the first run's reps and seed.
    reps, seed = runs[0][4:]
    cases = [(policies, econ, station, horizon) for policies, econ, station, horizon, *_ in runs]
    expected = [
        [reference_replicate(p, *args, reps, seed) for p in policies] for policies, *args in cases
    ]
    assert replicate(cases, reps, seed) == expected
    with mock.patch.object(sim, "_BLOCK", 1):
        assert replicate(cases, reps, seed) == expected


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2),
    st.floats(0.05, 2.0),
    st.one_of(st.just(0.0), st.floats(1.0, 40.0)),
    st.integers(1, 60),
    st.integers(1, 4),
    st.integers(0, 2**16),
)
def test_qba_is_joap_with_no_window_property(m, extra, lam, demand, n, reps, seed):
    # QBA is JoAP's window with t_v = 0, whatever n: both admit whatever the
    # lot has room for. Lots of m to 3m spaces at up to 2 arrivals a minute
    # and services of up to 200 minutes turn many arrivals away.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=m, alpha=12.0, parking_capacity=m * (1 + extra), lam=lam, tau=1.01)
    policies = [AdmissionRule(demand), AdmissionRule(demand, n, 0.0)]
    [[qba, joap]] = replicate([(policies, econ, station, 120.0)], reps, seed)
    assert qba == joap
    [[alone]] = replicate([(policies[1:], econ, station, 120.0)], reps, seed)
    assert alone == qba


def test_qba_is_joap_with_no_window_at_a_full_lot():
    # The property above at a lot that binds: a third of the arrivals are turned away.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=2, alpha=12.0, parking_capacity=2, lam=1.0, tau=1.01)
    policies = [AdmissionRule(10.0), AdmissionRule(10.0, 7, 0.0)]
    [[qba, joap]] = replicate([(policies, econ, station, 120.0)], 3, 1)
    assert qba == joap and qba.admission_rate < 0.7


def test_greedy_decides_on_the_case_economics():
    # One greedy record runs under several economics, and decides on
    # the margin and penalty rate of each, those its profit is booked with.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=2, alpha=11.5, parking_capacity=10, lam=0.3, tau=1.01)
    greedy, qba = AdmissionRule(15.0, greedy=True), AdmissionRule(15.0)
    cases = [
        ([greedy, qba], econ, station, 240.0),
        ([greedy, qba], replace(econ, c=0.0), station, 240.0),  # no penalty: every EV pays
        ([greedy], replace(econ, p_e=10.0), station, 240.0),  # a loss on every EV
    ]
    [[charged, lot], [free, free_lot], [dear]] = replicate(cases, 5, 3)
    assert charged == reference_replicate(greedy, econ, station, 240.0, 5, 3)
    assert charged.admission_rate < lot.admission_rate  # the wait penalty turns EVs away
    assert charged.profit_per_hour > lot.profit_per_hour
    assert free == free_lot
    assert dear.admission_rate == 0.0 and dear.profit_per_hour == 0.0


def test_replicate_memory_stays_bounded():
    # Three policies over 20,000 min at 1/min and 20 replications: 60 rows of
    # about 20,000 arrivals each, whose arrays would take about 38 MB if the
    # loop held them all at once. Chunks of replications bound them.
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=1.0, tau=1.01)
    policies = [AdmissionRule(15.0, 6, 20.0), AdmissionRule(15.0), AdmissionRule(15.0, greedy=True)]
    tracemalloc.start()
    try:
        [results] = replicate([(policies, econ, station, 20_000.0)], 20, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 3 and all(r.replication_count == 20 for r in results)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("c", [0.4, 1.0])
def test_daily_replicate_memory_stays_small(table1, c):
    # table1's daily run: three policies on each of six scenarios, 200
    # replications, in one loop per (rate, horizon) trace. At c = 0.4 JoAP's
    # count sits on its cap, so its bound exceeds the trace width.
    scenarios, run = table1
    scenarios = [with_penalty(s, c) for s in scenarios]
    cases = [
        (policies, s.econ, s.station, s.duration)
        for s, policies in zip(scenarios, _policies(scenarios))
    ]
    tracemalloc.start()
    try:
        results = replicate(cases, 200, run.seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(r) for r in results] == [3] * 6
    assert peak < 3 * 2**20


def per_row_metrics(count, starts, arrived, lengths, cols, horizon):
    """_metrics one row at a time: its mean wait by np.mean's pairwise sum, and
    its profit total as a running sum from 0.0 in admission order."""
    reps = len(lengths)
    lengths = np.tile(lengths, len(cols.margin))
    rate = np.where(lengths > 0, count / np.maximum(lengths, 1), 1.0)
    waits = starts - arrived
    mean_wait = [
        float(np.add.reduce(w[:k])) / k if k else 0.0 for w, k in zip(waits.T, count.tolist())
    ]
    margin, c = np.repeat(cols.margin, reps), np.repeat(cols.c, reps)
    profits = margin - c * waits
    totals = []
    for p, k in zip(profits.T.tolist(), count.tolist()):
        total = 0.0
        for x in p[:k]:
            total += x
        totals.append(total)
    return np.array([rate, mean_wait, np.divide(totals, horizon / 60.0)])


def test_metrics_match_per_row_reduction():
    # Rows are reduced once per admission count. The counts cover no
    # admission, fewer than numpy's 8-wide unrolled block, and more than its
    # 128-element pairwise block, with several rows sharing each count.
    rng = np.random.default_rng(11)
    policies, reps = 3, 40
    rows = policies * reps
    ks = [0, 1, 3, 7, 8, 9, 127, 128, 129, 300]
    count = np.array(ks * (rows // len(ks)))
    rng.shuffle(count)
    width = 320
    arrived = np.cumsum(rng.exponential(2.0, (width, rows)), axis=0)
    starts = arrived + rng.exponential(3.0, (width, rows)) * (rng.random((width, rows)) < 0.6)
    lengths = rng.integers(0, width + 1, reps)
    cols = sim._Columns(**{
        **{name: np.zeros((policies, 1)) for name in sim._Columns._fields},
        "margin": rng.uniform(-5, 30, (policies, 1)),
        "c": np.array([[0.0], [0.4], [1.0]]),
    })
    want = per_row_metrics(count, starts, arrived, lengths, cols, 240.0)
    got = sim._metrics(count, starts.copy(), arrived.copy(), lengths, cols, 240.0)
    assert np.array_equal(got, want)
    assert np.all(got[1:, count == 0] == 0.0)


def test_trace_matches_reference(table1):
    scenarios, run = table1
    [policies] = _policies(scenarios[:1])
    for policy in policies:
        econ, station, horizon = scenarios[0].econ, scenarios[0].station, scenarios[0].duration
        arrivals = gen_poisson_arrivals(station.lam, horizon, rng_for_stream(run.seed, 0))
        records = run_one_row(policy, econ, station, arrivals)
        ref_records, ref_metrics = reference_run_simulation(
            policy, econ, station, horizon, rng_for_stream(run.seed, 0)
        )
        assert records == ref_records
        [[metrics]] = replicate([([policy], econ, station, horizon)], 1, run.seed)
        assert replace(metrics, half_width_95={}) == ref_metrics


@st.composite
def simulated_runs(draw):
    """A small random station, a policy and a seed for its arrivals.

    The policy is one of the three, or a greedy record with a window that binds.
    """
    m = draw(st.integers(1, 4))
    station = StationParams(
        m=m,
        alpha=draw(st.floats(3.0, 22.0)),
        parking_capacity=draw(st.integers(m, 3 * m)),
        lam=draw(st.floats(0.05, 1.0)),
        tau=1.01,
    )
    p_e, c = draw(st.floats(0.01, 0.12)), draw(st.floats(0.0, 1.0))
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=p_e, c=c)
    d = draw(st.floats(1.0, 40.0))
    name = draw(st.sampled_from((*POLICY_NAMES, "greedy window")))
    if name == "joap":
        policy = AdmissionRule(d, draw(st.integers(1, 6)), draw(st.floats(0.0, 120.0)))
    elif name == "qba":
        policy = AdmissionRule(d)
    elif name == "greedy":
        policy = AdmissionRule(d, greedy=True)
    else:
        policy = AdmissionRule(d, draw(st.integers(1, 6)), draw(st.floats(1.0, 120.0)), True)
    return name, policy, econ, station, draw(st.integers(0, 2**16))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(simulated_runs())
def test_simulator_invariants_property(point):
    name, policy, econ, station, seed = point
    arrivals = gen_poisson_arrivals(station.lam, 240.0, rng_for_stream(seed, 0))
    records = run_one_row(policy, econ, station, arrivals)
    admitted = [r for r in records if r.admitted]
    assert all(r.wait >= 0 for r in admitted)
    starts = [r.service_start for r in admitted]
    assert starts == sorted(starts)  # FIFO
    # Completion times in admission order; FIFO starts keep them sorted.
    service = station.service_time(policy.demand)
    done = [start + service for start in starts]
    k = 0  # EVs admitted before the current arrival
    for r in records:
        # An EV that completes at exactly the arrival instant has left.
        in_system = k - bisect_right(done, r.arrival_time, 0, k)
        if r.admitted:
            assert in_system < station.parking_capacity
            k += 1
        elif name == "qba":
            assert in_system == station.parking_capacity  # only a full lot turns an EV away
    if policy.greedy:
        assert all(r.profit > 0 for r in admitted)
    n, t_v = policy.n, policy.t_v
    times = [r.arrival_time for r in admitted]
    # Any n + 1 consecutive admissions span at least t_v.
    assert all(a + t_v <= b for a, b in zip(times, times[n:]))
    if name == "joap":
        # With a lot that never binds, JoAP is the loss-mode count.
        free = replace(station, parking_capacity=10**6)
        records = run_one_row(policy, econ, free, arrivals)
        assert sum(r.admitted for r in records) == run_loss_admission(arrivals, n, t_v)
