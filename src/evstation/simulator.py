"""Discrete-event simulation of the charging station.

A replication is strictly event-ordered: arrivals are generated up front,
admission decisions are made online by the chosen policy, and admitted EVs
are served FIFO on m ports with deterministic service. Queued EVs drain to
completion after the arrival horizon so their waits and profits are not
censored. Simultaneous departure/arrival ties are resolved departures-first
(a completion at exactly the arrival instant has left the system).

Each arrival asks one question. A full lot turns the EV away; otherwise
the policy answers whether to admit it. Its decide(t, wait, admitted) gets
the arrival time, the exact FIFO wait the EV would have and admitted(i),
the arrival time of the policy's i-th most recent admission (-inf before
there were i), and answers for a vector of rows at once. JoAP admits where
its n-th most recent admission is at least t_v old, the same sliding
window `run_loss_admission` counts; QBA admits whatever the lot has room
for; greedy admits where the EV's margin beats its wait penalty. No policy
keeps state between calls.

Every EV needs the same service time and takes the earliest free port in
turn, so EVs complete in the order they were admitted: the earliest free
port is the one the m-th most recent admission took, and the lot has room
iff its lot-th most recent admission has left. A run's state is its count
of admissions and each admission's service start and arrival time.

`replicate` is the entry point. Its event loop steps the arrival index
across many rows at once, a row being one policy on one arrival trace,
with numpy arrays of shape (admission slot, row). It runs every policy on
each replication's trace, so the policies of one call are compared on
common random numbers by construction; it runs the replications in chunks
that bound the arrays' size, and since rows are independent, chunking
changes no result. A step costs about the same whatever the number of
rows, so the loop pays off with many rows per chunk: a few rows on long
traces run several times slower per arrival than a scalar loop over one
trace.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .economics import DomainError, EconomicParams, StationParams, per_ev_profit

_BLOCK = 2**18  # expected arrivals over all rows of one chunk of replications


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

    An arrival at t is admitted iff the n-th most recent admission came at
    or before t - t_v, as in JoapAdmission. The loop is inlined rather than
    calling the vectorised JoapAdmission.decide per arrival, which takes
    about twice as long.
    """
    admitted = [-math.inf] * n  # the first n arrivals find no n-th admission
    for t in arrivals.tolist():
        if admitted[-n] + t_v <= t:
            admitted.append(t)
    return len(admitted) - n


class JoapAdmission:
    """Sliding-window admission at a fixed demand (the optimized operating point).

    The paper's n sub-processes each admit at most one EV per t_v, so an
    arrival at t is admitted iff fewer than n admissions fell in
    (t - t_v, t], that is iff the n-th most recent admission came at or
    before t - t_v: one that came exactly t_v earlier no longer counts. With
    t_v == 0, the operating point of a station that sells nothing, every
    arrival is admitted. decide answers for a vector of rows at once, each
    from its own admissions.
    """

    def __init__(self, n: int, t_v: float, demand: float):
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if not (math.isfinite(t_v) and t_v >= 0):
            raise DomainError(f"t_v must be finite and >= 0, got {t_v}")
        self.n = n
        self.t_v = t_v
        self.demand = demand

    def decide(self, t, wait, admitted):
        return admitted(self.n) + self.t_v <= t


class QbaAdmission:
    """Admit every EV the lot has room for: the lot size is the threshold.

    decide answers True for every row at once.
    """

    def __init__(self, demand: float):
        self.demand = demand

    def decide(self, t, wait, admitted):
        return True


class GreedyAdmission:
    """Admit iff the EV's own margin beats its exactly-known FIFO wait penalty.

    decide answers for a vector of rows at once, each from its EV's wait.
    """

    def __init__(self, demand: float, econ: EconomicParams):
        self.demand = demand
        self._margin = per_ev_profit(demand, 0.0, econ)
        self._c = econ.c

    def decide(self, t, wait, admitted):
        return self._margin - self._c * wait > 0


def _per_policy(policies, econ, station):
    """Each policy's service time, margin and wait penalty rate, as arrays."""
    demands = [policy.demand for policy in policies]
    return (
        np.array([station.service_time(d) for d in demands]),
        # margin - c * wait is per_ev_profit(d, wait, econ) bit for bit; with d == 0 both are 0.
        np.array([per_ev_profit(d, 0.0, econ) for d in demands]),
        np.array([0.0 if d == 0 else econ.c for d in demands]),
    )


def _event_loop(policies, service, station, traces):
    """Run every policy on every trace, stepping the arrival index across all rows at once.

    Row p * len(traces) + i is policy p on trace i, at service time
    service[p]. Returns each row's admission count and the service starts
    and arrival times of its admissions, as (slot, row) arrays in admission
    order; a row's slots at and past its count hold no admission.
    """
    reps = len(traces)
    rows = len(policies) * reps
    width = max(map(len, traces))
    times = np.full((width, reps), np.nan)  # a finished trace reads NaN, which no lot admits
    for i, trace in enumerate(traces):
        times[: len(trace), i] = trace
    service = np.asarray(service)[:, None]
    # Flat index s * rows + r is slot s of row r, and slot 0 is -inf, "no
    # admission". A lookup before a row's first admission clips to index 0,
    # so a row with fewer than m, lot or n admissions reads -inf there: its
    # port, lot space or window is free.
    starts = np.zeros((width + 1) * rows)
    starts[:rows] = -np.inf
    arrived = starts.copy()
    at = np.arange(rows, 2 * rows).reshape(len(policies), reps)  # each row's next slot
    # Where the m-th and the lot-th most recent admission are, as flat offsets.
    back = np.reshape([station.m * rows, station.parking_capacity * rows], (2, 1, 1))
    wait, admit = np.empty(at.shape), np.empty(at.shape, dtype=bool)
    # Each policy answers for its own rows: views that the loop refills in place.
    by_policy = list(zip(policies, at, wait, admit))
    for t in times:
        # When each row's earliest port frees up, and when its lot has room.
        port, room = starts.take(at - back, mode="clip") + service
        start = np.maximum(port, t)
        np.less_equal(room, t, out=admit)
        np.subtract(start, t, out=wait)
        for policy, mine, its_wait, its_admit in by_policy:
            decision = policy.decide(
                t, its_wait, lambda i: arrived.take(mine - i * rows, mode="clip")
            )
            np.logical_and(its_admit, decision, out=its_admit)
        starts[at] = start
        arrived[at] = t
        np.add(at, rows, out=at, where=admit)
    slots = (width + 1, rows)
    return at.ravel() // rows - 1, starts.reshape(slots)[1:], arrived.reshape(slots)[1:]


def _metrics(count, starts, arrived, traces, per_policy, horizon):
    """Each row's admission rate, mean wait and profit per hour, as a (3, rows) array.

    Takes what _event_loop returned, and overwrites its starts and arrival times.
    """
    reps = len(traces)
    lengths = np.tile([len(trace) for trace in traces], len(per_policy[0]))
    rate = np.where(lengths > 0, count / np.maximum(lengths, 1), 1.0)  # no arrivals: full admission
    waits = np.subtract(starts, arrived, out=arrived)
    # np.add.reduce over a row's admitted waits is np.mean's pairwise sum.
    mean_wait = [
        float(np.add.reduce(w[:k])) / k if k else 0.0 for w, k in zip(waits.T, count.tolist())
    ]
    # Each row's profits summed by sum() in admission order. sum() has
    # compensated its rounding since Python 3.12, so a running total can differ.
    _, margin, c = (np.repeat(x, reps) for x in per_policy)
    profits = np.subtract(margin, np.multiply(c, waits, out=starts), out=starts)
    total = [sum(p[:k].tolist()) for p, k in zip(profits.T, count.tolist())]
    return np.array([rate, mean_wait, np.divide(total, horizon / 60.0)])


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

    Replication `rep` draws one arrival trace from stream (seed, rep), and
    every policy runs on it, so the policies are compared on common random
    numbers by construction. One event loop steps all (policy, replication)
    rows of a chunk of replications at once; a chunk holds about _BLOCK
    expected arrivals over all its rows, so memory stays bounded on long
    horizons. Returns one SimMetrics per policy, in the order given; a
    policy's result does not depend on the others it is listed with or on
    the chunking.
    """
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
    per_policy = _per_policy(policies, econ, station)
    per_chunk = max(1, _BLOCK // (max(1, len(policies)) * (int(station.lam * horizon) + 1)))
    chunks = []  # (rates, waits, profits) of each chunk, shaped (3, policies, its reps)
    for first in range(0, reps, per_chunk):
        traces = [
            gen_poisson_arrivals(station.lam, horizon, rng_for_stream(seed, rep))
            for rep in range(first, min(first + per_chunk, reps))
        ]
        metrics = _metrics(
            *_event_loop(policies, per_policy[0], station, traces), traces, per_policy, horizon
        )
        chunks.append(metrics.reshape(3, len(policies), len(traces)))
    samples = np.concatenate(chunks, axis=2)

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
        for rates, waits, profits in samples.transpose(1, 0, 2)
    ]
