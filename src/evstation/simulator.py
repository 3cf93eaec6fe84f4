"""Discrete-event simulation of the charging station.

A single replication is strictly event-ordered: arrivals are generated up
front, admission decisions are made online by the chosen policy, and
admitted EVs are served FIFO on m ports with deterministic service. Queued
EVs drain to completion after the arrival horizon so their waits and
profits are not censored. Simultaneous departure/arrival ties are resolved
departures-first (a completion at exactly the arrival instant has left the
system).

Each arrival asks one question. A full lot turns the EV away; otherwise
the policy's decide(t, wait) -> bool sees the arrival time and the exact
FIFO wait the EV would have, and answers whether to admit it. JoAP admits
while fewer than n admissions fell in the last t_v, the same sliding
window `run_loss_admission` counts; QBA admits whatever the lot has room
for; greedy admits when the EV's margin beats its wait penalty.

Every EV needs the same service time and takes the earliest free port in
turn, so EVs complete in the order they were admitted, and the earliest
free port is the one the m-th most recent admission took. The loop keeps
one list of completion times in admission order and a count of the EVs
that have left.

One event loop, over a given list of arrival times, serves both entry
points. `run_simulation` draws one trace and also returns an `EvRecord` per
EV, for inspecting a single run. `replicate` takes a sequence of policies:
each replication draws one trace and runs every policy's loop on it, so the
policies of one call are compared on common random numbers by
construction. It keeps no per-EV records, only the waits and profits of
the admitted EVs, from which the same metrics follow.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .economics import DomainError, EconomicParams, StationParams, per_ev_profit


@dataclass
class EvRecord:
    """One simulated EV, admitted or not."""

    arrival_time: float
    demand: float
    admitted: bool
    service_start: float | None = None
    wait: float = 0.0
    profit: float = 0.0


@dataclass(frozen=True)
class SimMetrics:
    """Replication-aggregated simulation output with 95% confidence half-widths.

    A half-width is None when there is a single replication.
    """

    admission_rate: float
    mean_wait: float
    profit_per_hour: float
    replication_count: int
    half_width_95: dict = field(default_factory=dict)


def gen_poisson_arrivals(lam: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Strictly increasing Poisson arrival times on (0, horizon]."""
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"lam must be finite and positive, got {lam}")
    if not (math.isfinite(horizon) and horizon >= 0):
        raise DomainError(f"horizon must be finite and non-negative, got {horizon}")
    if horizon == 0:
        return np.empty(0)
    # Draw in blocks of the expected count plus slack until the horizon is
    # covered. The first gap carries the last time drawn and cumsum adds in
    # sequence, so each time is bitwise the running sum t += gap.
    blocks = []
    t = 0.0
    block = max(16, int(lam * horizon * 1.2) + 16)
    while t <= horizon:
        times = rng.exponential(1.0 / lam, size=block)
        times[0] += t
        np.cumsum(times, out=times)
        blocks.append(times[: np.searchsorted(times, horizon, side="right")])
        t = times[-1]
    return np.concatenate(blocks)


def run_loss_admission(arrivals: np.ndarray, n: int, t_v: float) -> int:
    """Fast count of admissions under the JoAP rule with no charging queue.

    An arrival is admitted iff fewer than n admissions occurred in the window
    (t - t_v, t], as in JoapAdmission. The loop is inlined rather than calling
    JoapAdmission.decide per arrival, which takes about twice as long.
    """
    window: deque = deque()
    admitted = 0
    for t in arrivals.tolist():
        while window and window[0] + t_v <= t:
            window.popleft()
        if len(window) < n:
            window.append(t)
            admitted += 1
    return admitted


class JoapAdmission:
    """Sliding-window admission at a fixed demand (the optimized operating point).

    The paper's n sub-processes each admit at most one EV per t_v, so an
    arrival at t is admitted iff fewer than n admissions fell in
    (t - t_v, t]: one that came exactly t_v earlier no longer counts. With
    t_v == 0, the operating point of a station that sells nothing, every
    arrival is admitted.
    """

    def __init__(self, n: int, t_v: float, demand: float):
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if not (math.isfinite(t_v) and t_v >= 0):
            raise DomainError(f"t_v must be finite and >= 0, got {t_v}")
        self.n = n
        self.t_v = t_v
        self.demand = demand
        self.window: deque = deque()  # admission times in (t - t_v, t]

    def reset(self):
        self.window.clear()

    def decide(self, t: float, wait: float) -> bool:
        window = self.window
        while window and window[0] + self.t_v <= t:
            window.popleft()
        if len(window) < self.n:
            window.append(t)
            return True
        return False


class QbaAdmission:
    """Admit every EV the lot has room for: the lot size is the threshold."""

    def __init__(self, demand: float):
        self.demand = demand

    def reset(self):
        pass

    def decide(self, t: float, wait: float) -> bool:
        return True


class GreedyAdmission:
    """Admit iff the EV's own margin beats its exactly-known FIFO wait penalty."""

    def __init__(self, demand: float, econ: EconomicParams):
        self.demand = demand
        self._margin = per_ev_profit(demand, 0.0, econ)
        self._c = econ.c

    def reset(self):
        pass

    def decide(self, t: float, wait: float) -> bool:
        return self._margin - self._c * wait > 0


def run_simulation(
    policy,
    econ: EconomicParams,
    station: StationParams,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[list, SimMetrics]:
    """One replication: Poisson arrivals, online admission, FIFO charging.

    Returns the per-EV records and single-run metrics. Deterministic given
    the generator state.
    """
    _check_horizon(horizon)
    arrivals = gen_poisson_arrivals(station.lam, horizon, rng).tolist()
    records: list = []
    rate, wait, profit = _replication(policy, econ, station, horizon, arrivals, records)
    return records, SimMetrics(rate, wait, profit, replication_count=1)


def _check_horizon(horizon: float) -> None:
    if horizon <= 0:
        raise DomainError(f"horizon must be positive, got {horizon}")


def _replication(policy, econ, station, horizon, arrivals: list, records: list | None = None):
    """The event loop of one replication over the given arrival times.

    Returns (admission rate, mean wait, profit per hour) and appends an
    EvRecord per EV to `records` if given.
    """
    policy.reset()
    d = policy.demand
    service = station.service_time(d)
    # margin - c * wait is per_ev_profit(d, wait, econ) bit for bit; with d == 0 both are 0.
    margin = per_ev_profit(d, 0.0, econ)
    c = 0.0 if d == 0 else econ.c
    decide = policy.decide
    m, lot = station.m, station.parking_capacity
    done: list = []  # completion times of the admitted EVs, in admission (and time) order
    departed = 0  # done[:departed] have left the system
    waits, profits = [], []  # of the admitted EVs, in arrival order
    for t in arrivals:
        k = len(done)
        while departed < k and done[departed] <= t:
            departed += 1
        first = done[k - m] if k >= m else 0.0  # when the earliest port frees up
        start = first if first > t else t
        wait = start - t
        if k - departed >= lot or not decide(t, wait):
            if records is not None:
                records.append(EvRecord(t, d, False))
            continue
        done.append(start + service)
        profit = margin - c * wait
        waits.append(wait)
        profits.append(profit)
        if records is not None:
            records.append(EvRecord(t, d, True, start, wait, profit))
    return (
        len(waits) / len(arrivals) if arrivals else 1.0,  # no arrivals: full admission
        # np.mean bit for bit (the same pairwise sum and division) at about half the cost
        float(np.add.reduce(np.array(waits))) / len(waits) if waits else 0.0,
        sum(profits) / (horizon / 60.0),
    )


def rng_for_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Reproducible, independent stream for one replication index."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream_id))))


def replicate(
    policies: Sequence,
    econ: EconomicParams,
    station: StationParams,
    horizon: float,
    reps: int,
    seed: int,
) -> list[SimMetrics]:
    """Independent replications of each policy, with 95% confidence half-widths per metric.

    Replication `rep` draws one arrival trace from stream (seed, rep) and
    runs every policy's event loop on it, so the policies are compared on
    common random numbers by construction. Returns one SimMetrics per
    policy, in the order given; a policy's result does not depend on the
    others it is listed with.
    """
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    _check_horizon(horizon)
    samples = [([], [], []) for _ in policies]  # rates, waits, profits per policy
    for rep in range(reps):
        arrivals = gen_poisson_arrivals(station.lam, horizon, rng_for_stream(seed, rep)).tolist()
        for policy, (rates, waits, profits) in zip(policies, samples):
            rate, wait, profit = _replication(policy, econ, station, horizon, arrivals)
            rates.append(rate)
            waits.append(wait)
            profits.append(profit)

    def half_width(xs):
        if len(xs) < 2:
            return None
        return 1.96 * float(np.std(xs, ddof=1)) / math.sqrt(len(xs))

    return [
        SimMetrics(
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
        for rates, waits, profits in samples
    ]
