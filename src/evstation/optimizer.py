"""Profit maximization over the admission policy and the per-EV demand.

optimize_joap_many searches many operating points at once. Every (point,
slot count) pair, for counts 1..N_CAP, is one row of the vectorised
objective, which takes each row's station and economics as columns. Each
point's demand grid is one objective call; one golden-section search then
refines the best demand of every row of every point, and each point keeps
its first best count. A row's arithmetic never depends on the rows beside
it, so a point's result is bit for bit the same alone or in a batch;
optimize_joap is the one-point call, and optimize_tau searches its whole
grid in one batch. The objective holds the Erlang occupancy terms of every
row, demand and occupancy index i in one array with i leading, built a
block of rows at a time so that no block exceeds _BLOCK elements. The
scalar path (profit_s, inner_demand_opt, brute_force_oracle) computes the
same optimum count by count through the queueing module; it shares no
arithmetic with objective and is kept as the independent oracle.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import special

from .economics import DomainError, EconomicParams, StationParams, per_ev_profit, price_for_demand
from . import queueing as q

UNSTABLE = float("-inf")
N_CAP = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 160  # coarse demand grid that brackets each golden-section search
_DEMAND_TOL = 1e-8  # bracket width (kWh) at which the golden-section searches stop
_BLOCK = 2**16  # elements in one (i, count, demand) block of objective
# Row width (elements per i) from which adding a block's rows one by one
# beats cumsum along i, which runs at about 3 ns per element.
_WIDE = 512


@dataclass(frozen=True)
class JoapPolicy:
    """An optimized operating point for the station."""

    n_star: int
    d_star: float
    r_star: float
    t_v: float
    predicted_profit: float
    predicted_admit: float
    predicted_wait: float


def profit_s(n: int, d: float, econ: EconomicParams, station: StationParams) -> float:
    """Expected per-arrival profit at integer sub-process count n.

    The penalty is charged against the wait of econ.wait_model. Returns -inf
    when the implied charging-queue load is at or above 1.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if d < 0 or d > econ.phi:
        raise DomainError(f"demand {d} outside [0, {econ.phi}]")
    if d == 0:
        return 0.0
    analysis = q.analyze_admission(n, d, station)
    if analysis.rho >= 1.0:
        return UNSTABLE
    wait = q.mean_wait(analysis, station, econ.wait_model)
    return analysis.p_admit * per_ev_profit(d, 0.0, econ) - econ.c * wait


@functools.lru_cache(maxsize=4)
def _index_terms(n_max: int) -> tuple[np.ndarray, ...]:
    """i = 1..n_max with log i and the gap-moment weights i + 1 and 2/((i+1)(i+2)).

    The arrays are shared by every caller, so they are read-only.
    """
    i = np.arange(1, n_max + 1)
    log_i = np.array([math.log(k) for k in range(1, n_max + 1)])
    terms = (i, log_i, (i + 1.0)[:, None, None], (2.0 / ((i + 1) * (i + 2)))[:, None, None])
    for x in terms:
        x.setflags(write=False)
    return terms


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sum along the leading axis, adding in index order as a running sum does.

    numpy adds rows in order along an outer axis, but sums a single
    contiguous run pairwise; that case is accumulated instead.
    """
    return x.sum(axis=0) if x[0].size > 1 else np.cumsum(x, axis=0)[-1]


class _Rows(NamedTuple):
    """The station and economics of objective's rows, one (rows, 1) column per parameter.

    A single point's columns have one row, which broadcasts over every count.
    """

    lam: np.ndarray
    tau: np.ndarray
    alpha_per_min: np.ndarray
    m: np.ndarray
    phi: np.ndarray
    p_e: np.ndarray
    c: np.ndarray
    beta: np.ndarray
    xi: np.ndarray
    allen_cunneen: np.ndarray  # which rows charge the Allen-Cunneen wait

    @classmethod
    def of(cls, points, repeat: int = 1) -> _Rows:
        """Columns for (econ, station) points, each point's values repeated over `repeat` rows."""
        values = [
            (station.lam, station.tau, station.alpha_per_min, station.m, econ.phi, econ.p_e,
             econ.c, econ.beta, econ.xi, econ.wait_model == "allen_cunneen")
            for econ, station in points
        ]
        columns = np.repeat(np.array(values, dtype=float), repeat, axis=0).T[:, :, None]
        return cls(*columns[:-1], allen_cunneen=columns[-1] != 0.0)


def objective(ns, ds, econ: EconomicParams, station: StationParams) -> np.ndarray:
    """profit_s for every count in ns against demands ds, as one array.

    ns is a 1-D array of counts; ds is either one demand vector shared by
    every count or one row of demands per count. Returns an array with a
    row per count, -inf where the charging-queue load is at or above 1 and
    0 at zero demand. Where 1 - P_0 rounds to 0 the charging queue is empty
    to float precision, so the wait is 0 and the profit is P times the margin.
    """
    return _objective(ns, ds, _Rows.of([(econ, station)]))


def _objective(ns, ds, rows: _Rows) -> np.ndarray:
    """objective with the station and economics of every row given as columns.

    The Erlang occupancy terms a^i/i!, each scaled by the largest one (at
    i = min(n, floor(a))), are one cumulative sum of logs along the leading
    axis i of an (i, count, demand) array; the normalising sum and the two
    gap-moment sums add along i in order. The array is built for a block of
    counts at a time, with i running up to the block's largest count, so a
    block holds at most _BLOCK elements unless a single count's row is larger.
    Every row's arithmetic is the same whatever rows it is listed with: the
    terms past a row's count are exactly 0, and the Erlang C recursion stops
    at each row's own port count.
    """
    counts = np.asarray(ns, dtype=float)
    n, d = np.broadcast_arrays(counts[:, None], np.asarray(ds, dtype=float))
    if np.any(n < 1) or np.any(d < 0) or np.any(d > rows.phi):
        raise DomainError("counts must be >= 1 and demands within [0, phi]")
    m = rows.m
    d_pos = np.where(d > 0, d, 1.0)
    s = d_pos / rows.alpha_per_min
    t_v = rows.tau * m * s / n
    a = rows.lam * t_v
    # Below the smallest normal float (t_v can underflow to 0) every term past
    # i = 0 vanishes against 1 either way; the floor keeps log a finite.
    log_a = np.log(np.maximum(a, np.finfo(float).tiny))
    top = np.minimum(n, np.floor(a))
    log_q0 = -(top * log_a - special.gammaln(top + 1.0))  # i = 0, scaled by the largest term
    n_max = int(counts.max())
    i, log_i, w1, w2 = _index_terms(n_max)
    q0, q_n, total, s1, s2 = (np.empty(n.shape) for _ in range(5))
    block_rows = max(1, _BLOCK // ((n_max + 1) * max(1, n.shape[1])))
    for lo in range(0, len(counts), block_rows):
        blk = slice(lo, lo + block_rows)
        top_i = int(counts[blk].max())
        # log_a - inf = -inf: a count's terms past i = n are exactly 0.
        cut = np.where(i[:top_i, None] <= counts[blk], log_i[:top_i, None], np.inf)
        log_q = np.empty((top_i + 1,) + n[blk].shape)
        log_q[0] = log_q0[blk]
        np.subtract(log_a[blk], cut[:, :, None], out=log_q[1:])
        if log_q[0].size >= _WIDE:
            for k in range(1, top_i + 1):
                np.add(log_q[k - 1], log_q[k], out=log_q[k])
        else:
            np.cumsum(log_q, axis=0, out=log_q)
        term = np.exp(log_q, out=log_q)
        q0[blk] = term[0]
        q_n[blk] = term[counts[blk].astype(int), np.arange(term.shape[1])]
        total[blk] = _sum_in_order(term)
        s1[blk] = _sum_in_order(term[1:] / w1[:top_i])
        s2[blk] = _sum_in_order(term[1:] * w2[:top_i])
    p_admit = 1.0 - q_n / total
    busy = 1.0 - q0 / total
    rho = rows.lam * p_admit * s / m
    ac = rows.allen_cunneen
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_x = t_v * (s1 / total) / busy
        second_x = t_v**2 * (s2 / total) / busy
        mu_y, var_y = m * mean_x, m * (second_x - mean_x**2)
        if ac.any():
            b = np.ones_like(rho)  # queueing.erlang_c: Erlang B over m ports at load m*rho
            m_min, m_max = int(m.min()), int(m.max())
            for k in range(1, m_max + 1):
                step = m * rho * b / (k + m * rho * b)
                b = step if k <= m_min else np.where(k <= m, step, b)
            erlang_c = b / (1.0 - rho * (1.0 - b))
            ca2 = m * var_y / mu_y**2
            wait = np.where(n <= m, 0.0, erlang_c * s / (m * (1.0 - rho)) * ca2 / 2.0)
        if not ac.all():
            theorem1 = rho * s / (2.0 * (1.0 - rho)) * (s**2 + 2.0 * s * mu_y + var_y)
            wait = np.where(ac, wait, theorem1) if ac.any() else theorem1
        wait = np.where(busy > 0.0, wait, 0.0)  # 1 - P_0 rounds to 0: no EV waits
        revenue = d_pos * np.exp(-rows.beta * d_pos) / rows.xi - d_pos * rows.p_e
        value = np.where(rho >= 1.0, UNSTABLE, p_admit * revenue - rows.c * wait)
    return np.where(d > 0, value, 0.0)


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [a, b]."""
    c = b - _INVPHI * (b - a)
    e = a + _INVPHI * (b - a)
    fc, fe = f(c), f(e)
    while b - a > tol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = f(e)
    x = 0.5 * (a + b)
    return x, f(x)


def demand_region_bound(econ: EconomicParams) -> float:
    """Largest demand with non-negative marginal revenue.

    The region where e^{-beta d}(1 - beta d)/xi - p_e >= 0; empty (0.0) when
    electricity costs at least the choke price. The marginal revenue is the
    derivative of the per-EV margin d (r(d) - p_e); it falls on [0, 1/beta]
    and is negative beyond, so the bound is also the margin-maximizing
    demand, the one both benchmark policies charge.
    """

    def g(d: float) -> float:
        return math.exp(-econ.beta * d) * (1.0 - econ.beta * d) / econ.xi - econ.p_e

    if g(0.0) <= 0:
        return 0.0
    lo, hi = 0.0, econ.phi
    if g(hi) >= 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent floats: neither end can move again
        if g(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def inner_demand_opt(n: int, econ: EconomicParams, station: StationParams) -> tuple[float, float]:
    """Best demand for a fixed integer sub-process count.

    Searches the region with non-negative marginal revenue (outside it the
    objective only decreases) on a coarse grid, then refines the bracket
    around the grid maximum by golden-section search; returns (d, profit),
    or (0, 0) when the region is empty or nothing profitable exists.
    """
    d_hi = demand_region_bound(econ)
    if d_hi <= 0:
        return 0.0, 0.0

    def profit(d: float) -> float:
        return profit_s(n, d, econ, station)

    grid = np.linspace(0.0, d_hi, _GRID_POINTS)
    vals = [profit(d) for d in grid]
    k = int(np.argmax(vals))
    if vals[k] <= 0.0:
        return 0.0, 0.0
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    d_best, val = _golden_max(profit, lo, hi, _DEMAND_TOL)
    if val < 0.0:
        return 0.0, 0.0
    return float(d_best), float(val)


def _policy_from(n: int, d: float, profit: float, econ: EconomicParams, station: StationParams) -> JoapPolicy:
    if d <= 0:
        return JoapPolicy(
            n_star=max(n, 1), d_star=0.0, r_star=econ.choke_price, t_v=0.0,
            predicted_profit=0.0, predicted_admit=1.0, predicted_wait=0.0,
        )
    analysis = q.analyze_admission(n, d, station)
    wait = q.mean_wait(analysis, station, econ.wait_model)
    return JoapPolicy(
        n_star=n,
        d_star=d,
        r_star=price_for_demand(d, econ),
        t_v=analysis.t_v,
        predicted_profit=profit,
        predicted_admit=float(analysis.p_admit),
        predicted_wait=float(wait),
    )


def _golden_rows(f, lo: np.ndarray, hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """_golden_max on every row's bracket [lo, hi] at once.

    f maps one abscissa per row to one value per row. A row whose bracket
    is narrower than tol stops moving, as its scalar search would.
    """
    c = hi - _INVPHI * (hi - lo)
    e = lo + _INVPHI * (hi - lo)
    fc, fe = f(c), f(e)
    while (live := hi - lo > tol).any():
        left = live & (fc >= fe)  # the maximum lies in [lo, e]
        right = live & ~left  # the maximum lies in [c, hi]
        hi, lo = np.where(left, e, hi), np.where(right, c, lo)
        e, fe = np.where(left, c, e), np.where(left, fc, fe)
        c, fc = np.where(right, e, c), np.where(right, fe, fc)
        c = np.where(left, hi - _INVPHI * (hi - lo), c)
        e = np.where(right, lo + _INVPHI * (hi - lo), e)
        probe = f(np.where(left, c, e))
        fc, fe = np.where(left, probe, fc), np.where(right, probe, fe)
    x = 0.5 * (lo + hi)
    return x, f(x)


def optimize_joap(econ: EconomicParams, station: StationParams) -> JoapPolicy:
    """Best (n, d) over every count up to N_CAP, from the vectorised objective.

    Every count gets inner_demand_opt's search: the demand grid over the
    non-negative-marginal-revenue region, golden-section refinement of the
    bracket around the grid maximum to 1e-8, and demand 0 when nothing is
    profitable. Ties keep the smallest count (stronger regulation).
    """
    return optimize_joap_many([(econ, station)])[0]


def _bracket(econ: EconomicParams, station: StationParams, d_hi: float) -> tuple[np.ndarray, ...]:
    """Each count's grid maximum on [0, d_hi] and the grid points either side of it."""
    grid = np.linspace(0.0, d_hi, _GRID_POINTS)
    vals = objective(np.arange(1, N_CAP + 1), grid, econ, station)
    at = np.argmax(vals, axis=1)
    return (
        vals[np.arange(N_CAP), at],
        grid[np.maximum(at - 1, 0)],
        grid[np.minimum(at + 1, _GRID_POINTS - 1)],
    )


def optimize_joap_many(points) -> list[JoapPolicy]:
    """optimize_joap(econ, station) for every (econ, station) in points, in one search.

    Every (point, count) pair is one row of the objective. Each point's
    grid is evaluated in one call, and one golden-section search refines
    every row of every point at once. No row's arithmetic depends on the
    others, so each point's policy is bit for bit its one-point result;
    points may differ in any parameter, the wait model included.
    """
    points = list(points)
    policies = [None] * len(points)
    live = []  # the points with a non-empty demand region
    for k, (econ, station) in enumerate(points):
        d_hi = demand_region_bound(econ)
        if d_hi > 0:
            live.append((k, d_hi))
        else:
            policies[k] = _policy_from(1, 0.0, 0.0, econ, station)
    if live:
        # Each point's grid in its own call, so the (count, demand) arrays stay one point's size.
        peak, lo, hi = map(np.concatenate, zip(*(_bracket(*points[k], d_hi) for k, d_hi in live)))
        ns = np.tile(np.arange(1, N_CAP + 1), len(live))
        columns = _Rows.of([points[k] for k, _ in live], N_CAP)
        d, val = _golden_rows(
            lambda x: _objective(ns, x[:, None], columns)[:, 0], lo, hi, _DEMAND_TOL
        )
        val = np.where((peak <= 0.0) | (val < 0.0), 0.0, val).reshape(len(live), N_CAP)
        d = d.reshape(len(live), N_CAP)
        for (k, _), v, dk in zip(live, val, d):
            best = int(np.argmax(v))
            if v[best] <= 0.0:
                policies[k] = _policy_from(1, 0.0, 0.0, *points[k])
            else:
                policies[k] = _policy_from(best + 1, float(dk[best]), float(v[best]), *points[k])
    return policies


def brute_force_oracle(econ: EconomicParams, station: StationParams) -> tuple[JoapPolicy, list]:
    """Exhaustive demand optimization for every count up to N_CAP.

    Returns the best policy plus the per-n (d, profit) table so callers can
    inspect unimodality around the optimum.
    """
    table = []
    best = (1, 0.0, float("-inf"))
    for n in range(1, N_CAP + 1):
        d, val = inner_demand_opt(n, econ, station)
        table.append((n, d, val))
        if val > best[2]:
            best = (n, d, val)
    n, d, val = best
    if val <= 0.0:
        return _policy_from(1, 0.0, 0.0, econ, station), table
    return _policy_from(n, d, val, econ, station), table


DEFAULT_TAU_GRID = (1.01, 1.05, 1.1, 1.2, 1.5, 2.0)


def optimize_tau(
    econ: EconomicParams, station: StationParams, tau_grid=DEFAULT_TAU_GRID
) -> tuple[float, JoapPolicy]:
    """Best regulation slack over a grid; ties keep the earlier grid value.

    Every τ of the grid is searched at once, by optimize_joap_many.
    """
    taus = list(tau_grid)
    for tau in taus:
        if tau <= 1:
            raise DomainError(f"tau values must exceed 1, got {tau}")
    plans = optimize_joap_many([(econ, replace(station, tau=tau)) for tau in taus])
    best_tau = None
    best_policy = None
    for tau, policy in zip(taus, plans):
        if best_policy is None or policy.predicted_profit > best_policy.predicted_profit:
            best_tau, best_policy = tau, policy
    return best_tau, best_policy
