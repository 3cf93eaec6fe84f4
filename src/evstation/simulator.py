"""Discrete-event simulation of the charging station.

A replication is strictly event-ordered: arrivals are generated up front,
admission decisions are made online by the chosen policy, and admitted EVs
are served FIFO on m ports with deterministic service. Queued EVs drain to
completion after the arrival horizon so their waits and profits are not
censored. Simultaneous departure/arrival ties are resolved departures-first
(a completion at exactly the arrival instant has left the system).

The three policies are one AdmissionRule record with different fields:
(demand, n, t_v, greedy). An EV arriving at t, whose FIFO wait would be
exactly `wait`, is admitted iff
- the lot has room;
- its policy's n-th most recent admission arrived at or before t - t_v,
  the sliding window `run_loss_admission` counts (-inf before there were n);
- cap - rate * wait > 0.
JoAP sets (n, t_v). QBA and greedy keep the defaults n = 1 and t_v = 0, a
window that never binds, and greedy sets greedy=True. A greedy row's
(rate, cap) is (c, margin), the very terms its profit is booked with; every
other row's is (0, +inf). Any window may carry the wait test, and no run
keeps state in a record.

Every EV needs the same service time and takes the earliest free port in
turn, so EVs complete in the order they were admitted: the earliest free
port is the one the m-th most recent admission took, and the lot has room
iff its lot-th most recent admission has left. A run's state is its count
of admissions and each admission's service start and arrival time.

`replicate` is the entry point. It takes cases, each a set of policies
on one station and horizon. Each replication builds its random stream
once and draws every case's arrival trace from it: the running sum of the
stream's exponential gaps scaled by 1/lam, cut at the case's horizon,
which is what gen_poisson_arrivals draws from that stream, bit for bit. A
chunk of replications draws its gaps as one (replication, gap) array, and
scales, sums and cuts them for each rate at once.

One event loop per (rate, horizon) trace applies the rule to many rows at
once, a row being one policy of one case on one replication's trace, with
numpy arrays of shape (admission slot, row). Each row carries its case's
service time, economics, m and lot as columns, so every policy of every
case on a trace runs on each replication's trace, and they are compared on
common random numbers by construction. The arrays hold no more slots than
a row can fill: a row admits at most lot + m * (horizon // service + 1)
EVs, and a JoAP row at most n * (horizon // t_v + 1), so the history is
bounded by the lot and the window, not by the trace's width. Replications
run in chunks that bound the draws and the histories, and since rows are
independent, chunking changes no result. A step costs about 17-20 us plus
30-37 ns per row (a shared 2-vCPU Xeon, numpy 2.4), so the loop pays off
with many rows per chunk: a few rows on long traces run several times
slower per arrival than a scalar loop over one trace.

Profit totals are running sums in admission order, from 0.0, in numpy, so
they are the same on every Python version; sum() has compensated its
rounding since Python 3.12.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .economics import DomainError, _check_count, _check_real, per_ev_profit

_BLOCK = 2**18  # floats in one chunk's drawn traces, and in each of its loops' histories


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


def _draw_size(rates: Sequence) -> int:
    """Gaps drawn per block: the largest expected count of rates plus slack."""
    return max(max(16, int(lam * horizon * 1.2) + 16) for lam, horizon in rates)


def _poisson_traces(streams: Sequence, rates: Sequence) -> list:
    """One arrival trace per stream for each (lam, horizon) in rates, all from each stream's draws.

    Returns, per rate, the (width, streams) arrival times, NaN past each
    trace's end, and each trace's length. Trace i is the in-order cumulative
    sum of stream i's exponential draws, scaled by 1/lam and cut at the
    horizon, so every rate reads a stream from its start. The streams draw
    blocks of _draw_size(rates) standard gaps, each into its row of one
    (streams, draws) array, until every horizon is covered; exponential(scale)
    is scale times standard_exponential() bit for bit. Each block is scaled per
    rate at once and summed along its rows; a block's first gap carries the
    last time drawn and cumsum adds in sequence, so each time is bitwise the
    running sum t += gap. A stream that covers every horizon draws no more,
    and its row of a later block reads +inf, past any horizon.
    """
    size = _draw_size(rates)
    horizons = np.array([[horizon] for _, horizon in rates])
    ends = np.zeros((len(rates), len(streams)))
    blocks: list = [[] for _ in rates]
    while live := np.flatnonzero((ends <= horizons).any(axis=0)).tolist():
        gaps = np.empty((len(streams), size))
        if len(live) < len(streams):
            gaps.fill(np.inf)
        for i in live:
            streams[i].standard_exponential(size, out=gaps[i])
        for k, (lam, _) in enumerate(rates):
            # The last rate to read a block scales it in place.
            times = np.multiply(gaps, 1.0 / lam, out=gaps if k == len(rates) - 1 else None)
            times[:, 0] += ends[k]
            np.cumsum(times, axis=1, out=times)
            blocks[k].append(times)
            ends[k] = times[:, -1]
    # Each rate's draws are freed once its traces are cut from them.
    return [_cut(blocks.pop(0), horizon) for _, horizon in rates]


def _cut(blocks: list, horizon: float) -> tuple:
    """One rate's traces from its blocks of running sums: (width, traces) times and lengths."""
    times = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    lengths = (times <= horizon).argmin(axis=1)  # the first time past it: every trace has one
    times = times[:, : lengths.max()]
    if lengths.min() < times.shape[1]:  # a finished trace reads NaN, which no lot admits
        times[np.arange(times.shape[1]) >= lengths[:, None]] = np.nan
    return np.ascontiguousarray(times.T), lengths


def gen_poisson_arrivals(lam: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Strictly increasing Poisson arrival times on (0, horizon]."""
    _check_real(lam, "lam")
    _check_real(horizon, "horizon", strict=False)
    if horizon == 0:
        return np.empty(0)
    [(times, _)] = _poisson_traces([rng], [(lam, horizon)])
    return times[:, 0]


def _check_window(n: int, t_v: float) -> None:
    """The domain of JoAP's window: a count n >= 1 of admissions per finite t_v >= 0."""
    _check_count(n, "n")
    _check_real(t_v, "t_v", strict=False)


def run_loss_admission(arrivals: np.ndarray, n: int, t_v: float) -> int:
    """Fast count of admissions under the JoAP rule with no charging queue.

    An arrival at t is admitted iff the n-th most recent admission came at
    or before t - t_v, as in AdmissionRule, which also sets the domain of n
    and t_v. The window edge admitted[-n] + t_v moves only when an arrival is
    admitted, so the loop holds it in a local and recomputes it only then:
    the same double the rule computes per arrival, whatever the order of the
    arrivals. A rejected arrival, most of them at a loaded station, costs
    one float comparison. The loop reads the arrivals off a memoryview, which yields
    the Python floats tolist() would without building the list first, from
    strided views too; so arrivals is a 1-D array in native byte order,
    float64 as gen_poisson_arrivals draws it.
    """
    _check_window(n, t_v)
    admitted = [-math.inf] * n  # the first n arrivals find no n-th admission
    edge = admitted[-n] + t_v
    for t in memoryview(arrivals):
        if edge <= t:
            admitted.append(t)
            edge = admitted[-n] + t_v
    return len(admitted) - n


@dataclass(frozen=True)
class AdmissionRule:
    """One admission policy at a fixed demand: a sliding window and an optional wait test.

    The paper's n sub-processes each admit at most one EV per t_v, so an
    arrival at t passes the window iff fewer than n admissions fell in
    (t - t_v, t], that is iff the n-th most recent admission came at or
    before t - t_v: one that came exactly t_v earlier no longer counts. With
    t_v == 0, the operating point of a station that sells nothing, every
    arrival passes. JoAP is the window at its optimized (n, t_v, demand).
    QBA is the default window, n = 1 and t_v = 0, which never binds: it
    admits every EV the lot has room for, so the lot size is its threshold.
    A greedy rule also admits only EVs whose margin beats the penalty of
    their exactly-known FIFO wait, the margin and penalty rate being the
    case's, those its profit is booked with.
    """

    demand: float
    n: int = 1
    t_v: float = 0.0
    greedy: bool = False

    def __post_init__(self):
        _check_window(self.n, self.t_v)


class _Columns(NamedTuple):
    """The policies of one event loop's rows, each field a (policies, 1) column.

    Per policy, on its case's station and economics: its service time; the
    margin and penalty rate c its profit is booked with; the (rate, cap) of
    its wait test; the station's port count m and lot size; its window
    (n, t_v); and `most`, the most EVs it can admit over the horizon.
    """

    service: np.ndarray
    margin: np.ndarray
    c: np.ndarray
    rate: np.ndarray
    cap: np.ndarray
    m: np.ndarray
    lot: np.ndarray
    n: np.ndarray
    t_v: np.ndarray
    most: np.ndarray


def _most_admitted(policy, station, service: float, horizon: float) -> float:
    """The most EVs the policy can admit on station from arrivals on (0, horizon].

    EVs leave in admission order, and admission k + lot waits for admission
    k to leave, so all but the last lot admissions have left by the horizon.
    A port's EVs leave at least service apart, the first no sooner than
    service after 0, so at most m * (horizon // service) have left: at most
    lot + m * (horizon // service + 1) are admitted, the extra port count a
    margin for rounding. Likewise admission k + n comes at least t_v after
    admission k, so at most n * (horizon // t_v + 1) fit in the horizon. A
    zero service time or window bounds nothing.
    """
    lot = station.parking_capacity + station.m * (horizon // service + 1) if service > 0 else math.inf
    window = policy.n * (horizon // policy.t_v + 1) if policy.t_v > 0 else math.inf
    return min(lot, window)


def _columns(cases: Sequence) -> _Columns:
    """Every policy of cases, in order, as the rows of one event loop."""
    rows = []
    for policies, econ, station, horizon in cases:
        for policy in policies:
            d = policy.demand
            service = station.service_time(d)
            # margin - c * wait is per_ev_profit(d, wait, econ) bit for bit; with d == 0 both are 0.
            margin, c = per_ev_profit(d, 0.0, econ), 0.0 if d == 0 else econ.c
            rate, cap = (c, margin) if policy.greedy else (0.0, math.inf)
            rows.append((
                service, margin, c, rate, cap, station.m, station.parking_capacity,
                policy.n, policy.t_v, _most_admitted(policy, station, service, horizon),
            ))
    return _Columns(*(np.array(column)[:, None] for column in zip(*rows)))


def _event_loop(times: np.ndarray, cols: _Columns):
    """Run every policy of cols on every trace, applying the admission rule to all rows at once.

    times holds the traces as (width, traces) arrival times, NaN past a
    trace's end; row p * traces + i is policy p on trace i. Returns each
    row's admission count and the service starts and arrival times of its
    admissions, as (slot, row) arrays in admission order; a row's slots at
    and past its count hold no admission.

    The history holds min(width, most + 1) slots, most being the largest of
    cols.most: no row admits more than most EVs, and a row that has admitted
    most keeps rewriting the slot after them while it turns arrivals away.
    Had a row admitted more, its next write would fall past the arrays and
    fail with an IndexError, so no admission is ever overwritten.
    """
    width, reps = times.shape
    policies = len(cols.most)
    rows = policies * reps
    slots = int(min(width, cols.most.max() + 1)) + 1
    # Flat index s * rows + r is slot s of row r, and slot 0 is -inf, "no
    # admission". A lookup before a row's first admission clips to index 0,
    # so a row with fewer than m, lot or n admissions reads -inf there: its
    # port, lot space or window is free.
    starts = np.zeros(slots * rows)
    starts[:rows] = -np.inf
    arrived = starts.copy()
    at = np.arange(rows, 2 * rows).reshape(policies, reps)  # each row's next slot
    # Where the m-th, the lot-th and the n-th most recent admission are, as flat offsets.
    back, lookback = np.array([cols.m * rows, cols.lot * rows]), cols.n * rows
    wait, admit = np.empty(at.shape), np.empty(at.shape, dtype=bool)
    for t in times:
        # When each row's earliest port frees up, its lot has room and its window opens.
        port, room = starts.take(at - back, mode="clip") + cols.service
        window = arrived.take(at - lookback, mode="clip") + cols.t_v
        start = np.maximum(port, t)
        np.subtract(start, t, out=wait)
        np.less_equal(np.maximum(room, window, out=room), t, out=admit)
        admit &= cols.cap - cols.rate * wait > 0
        starts[at] = start
        arrived[at] = t
        np.add(at, rows, out=at, where=admit)
    return at.ravel() // rows - 1, starts.reshape(slots, rows)[1:], arrived.reshape(slots, rows)[1:]


def _metrics(count, starts, arrived, lengths, cols: _Columns, horizon: float) -> np.ndarray:
    """Each row's admission rate, mean wait and profit per hour, as a (3, rows) array.

    Takes what _event_loop returned and the traces' lengths, and overwrites
    its starts and arrival times. The rows that admitted k EVs have their
    waits reduced together, once per distinct k. Profits are summed in one
    pass over the slots, each row's in admission order.
    """
    reps = len(lengths)
    lengths = np.tile(lengths, len(cols.most))
    rate = np.where(lengths > 0, count / np.maximum(lengths, 1), 1.0)  # no arrivals: full admission
    waits = np.subtract(starts, arrived, out=arrived)
    margin, c = np.repeat(cols.margin, reps), np.repeat(cols.c, reps)
    profits = np.subtract(margin, np.multiply(c, waits, out=starts), out=starts)
    mean_wait, total = np.zeros((2, len(count)))  # a row that admitted no EV: 0 and 0
    for k in np.unique(count[count > 0]).tolist():
        rows = np.flatnonzero(count == k)
        # Row-major (rows, k) copies. np.add.reduce along a contiguous row of k
        # waits is np.mean's pairwise sum, the very sum it makes over a column.
        mean_wait[rows] = np.add.reduce(waits.T[rows, :k], axis=1) / k
    # A running total from 0.0, in admission order, whatever the Python version.
    for k, row in enumerate(profits[: count.max()]):
        np.add(total, row, out=total, where=k < count)
    return np.array([rate, mean_wait, np.divide(total, horizon / 60.0)])


def rng_for_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Reproducible, independent stream for one replication index."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream_id))))


def replicate(cases: Sequence, reps: int, seed: int) -> list[list[SimMetrics]]:
    """Independent replications of every case's policies, with 95% confidence half-widths.

    A case is (policies, econ, station, horizon). Replication `rep` builds
    stream (seed, rep) once and draws every case's arrival trace from it, as
    gen_poisson_arrivals draws one rate's trace; cases with the same rate and
    horizon share one trace. One event loop per trace steps the rows of every
    policy of every case on it, each on its own station, over a chunk of
    replications at once, so the policies on a trace are compared on common
    random numbers by construction. A chunk's draws and traces hold about
    _BLOCK floats at most, and so do the histories of each of its loops,
    sized by the admissions their rows can make, so memory stays bounded on
    long horizons and over many cases. Returns, for each case in
    the order given, one SimMetrics per policy in the order given; a
    policy's result does not depend on the policies or cases it is listed
    with or on the chunking.
    """
    _check_count(reps, "reps")
    if not cases:
        return []
    for policies, _, _, horizon in cases:
        if not policies:
            raise DomainError("a case must hold at least one policy")
        _check_real(horizon, "horizon")
    keys = [(station.lam, horizon) for _, _, station, horizon in cases]
    rates = list(dict.fromkeys(keys))
    loops = [_columns([case for case, key in zip(cases, keys) if key == rate]) for rate in rates]
    size = _draw_size(rates)
    # Per replication: the draws and cut traces of every rate, and each
    # loop's two (slot, row) histories.
    held = [(len(rates) + 1) * size] + [
        2 * len(cols.most) * min(size, cols.most.max() + 1) for cols in loops
    ]
    per_chunk = max(1, _BLOCK // int(max(held)))
    # Per loop, each chunk's (rates, waits, profits), shaped (3, policies, its reps).
    chunks: list = [[] for _ in rates]
    for first in range(0, reps, per_chunk):
        streams = [rng_for_stream(seed, rep) for rep in range(first, min(first + per_chunk, reps))]
        for (times, lengths), cols, (_, horizon), out in zip(
            _poisson_traces(streams, rates), loops, rates, chunks
        ):
            metrics = _metrics(*_event_loop(times, cols), lengths, cols, horizon)
            out.append(metrics.reshape(3, len(cols.most), len(streams)))
    # Each loop's policies are its cases', in order.
    samples = {
        rate: iter(np.concatenate(out, axis=2).transpose(1, 0, 2)) for rate, out in zip(rates, chunks)
    }
    return [
        _summaries([next(samples[key]) for _ in policies], reps)
        for (policies, *_), key in zip(cases, keys)
    ]


def _summaries(samples: Sequence, reps: int) -> list[SimMetrics]:
    """One SimMetrics per policy from its (3, reps) samples of rates, waits and profits.

    Each statistic reduces the rows along their last axis, which adds a
    contiguous row as the one-row call does, so it is bit for bit the same.
    """
    names = ("admission_rate", "mean_wait", "profit_per_hour")
    summaries = []
    for sample in samples:
        half_widths = [None] * 3  # no spread from a single replication
        if reps > 1:
            half_widths = (1.96 * np.std(sample, axis=1, ddof=1) / math.sqrt(reps)).tolist()
        summaries.append(SimMetrics(
            *np.mean(sample, axis=1).tolist(), replication_count=reps,
            half_width_95=dict(zip(names, half_widths)),
        ))
    return summaries
