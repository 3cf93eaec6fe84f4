"""Profit maximization over the admission policy and the per-EV demand.

optimize_joap_many searches many operating points at once. Every (point,
slot count) pair, for counts 1..N_CAP, is one row of the vectorised
objective, which takes each row's station and economics as columns. Each
point's demand grid is one objective call; one Brent search (Brent 1973,
Algorithms for Minimization without Derivatives, ch. 5), seeded with each
row's grid maximum and its two neighbours, then refines the best demand of
every row whose grid maximum is positive, evaluating only the rows still
searching, and each point keeps its first best count. A row's arithmetic
never depends on the rows beside it, so a point's result is bit for bit
the same alone or in a batch; optimize_joap is the one-point call, and
optimize_tau searches its whole grid in one batch. A (count, demand) cell
whose load Jagerman's bound on Erlang B, B(n, a) <= a / (n + a), puts at
1 + 1e-3 or more is unstable, and the objective gives it no occupancy
terms or waits; that is 53-83% of the cells of table1's grids. The other
cells are gathered in row order, and their Erlang occupancy terms are
held in one array with the occupancy index i leading and a cell per
column, built a chunk of cells at a time so that no chunk exceeds _BLOCK
elements. Each call builds its index terms from its largest count: log i,
and log k! from math.lgamma (Lanczos 1964, SIAM J. Numer. Anal. B 1).
log k! only sets each cell's scale, the largest term, which cancels from
every ratio the objective reads, so an lgamma good to a few ulps is all
it needs, and importing evstation loads no public scipy submodule. The
independent oracle, queueing.brute_force_oracle, computes the same
optimum count by count with its own grid and golden-section search; it
shares no arithmetic with objective and imports nothing from this module,
which takes the policy record and its builder, N_CAP and UNSTABLE from it.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
# No evstation code uses scipy. The bare package loads no public submodule,
# and the benchmark harness reads its version from sys.modules["scipy"].
import scipy

from .economics import DomainError, EconomicParams, StationParams, demand_region_bound
from .queueing import N_CAP, UNSTABLE, JoapPolicy, _policy_from

# The share of the larger side a golden step of Brent's search takes.
_CGOLD = 1.0 - (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 160  # coarse demand grid that brackets and seeds each demand search
_DEMAND_TOL = 1e-8  # kWh: Brent's search stops once its best demand is this near both ends
_BLOCK = 2**16  # elements in one (i, cell) chunk of objective's occupancy terms
_RHO_MARGIN = 1e-3  # objective skips a cell once a lower bound on its load reaches 1 + this


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sum along the leading axis, adding in index order as a running sum does.

    numpy adds rows in order along an outer axis, but sums a single
    contiguous run pairwise; that case is accumulated instead.
    """
    return x.sum(axis=0) if x[0].size > 1 else np.cumsum(x, axis=0)[-1]


class _Rows(NamedTuple):
    """The station and economics of objective's rows, one (rows, 1) column per parameter.

    A single point's columns have one row, which broadcasts over every count.
    _objective gathers them into one value per uncertified cell for _value.
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

    ns is a non-empty 1-D array of counts; ds is either one 1-D demand
    vector shared by every count or a 2-D array with one row of demands per
    count, and any other shape is a DomainError. Returns an array with a
    row per count, -inf where the charging-queue load is at or above 1 and
    0 at zero demand. Where 1 - P_0 rounds to 0 the charging queue is empty
    to float precision, so the wait is 0 and the profit is P times the margin.
    """
    return _objective(ns, ds, _Rows.of([(econ, station)]))


def _objective(ns, ds, rows: _Rows) -> np.ndarray:
    """objective with the station and economics of every row given as columns.

    A cell is certified unstable when a lower bound on its load,
    rho_lb = lam (n / (n + a)) s / m, reaches 1 + delta, delta = _RHO_MARGIN.
    Erlang B's recursion B(k) = a B(k-1) / (k + a B(k-1)) rises with
    B(k-1) <= 1, so B(n, a) <= a / (n + a) (Jagerman 1974, Some properties
    of the Erlang loss function, BSTJ 53): the admission probability
    P = 1 - B(n, a) is at least n / (n + a), and the load rho = lam P s / m
    at least rho_lb. Every certified cell is UNSTABLE; only the uncertified
    cells get occupancy terms, a load, waits and revenue.

    The uncertified cells are gathered once, in row order, with their _Rows
    columns. Their Erlang occupancy terms a^i/i!, each scaled by the largest
    one (at i = min(n, floor(a))), are a running sum of logs along the
    leading axis i of an (i, cell) array, one row added onto the next, and
    the normalising sum and the two gap-moment sums add along i in order
    too. The array is built a chunk of consecutive cells at a time, with i
    running up to the chunk's largest count, so a chunk holds at most _BLOCK
    elements unless a single cell's terms are more. A cell's terms past its
    own count are exactly 0 and add nothing, and the Erlang C recursion
    stops at each row's own port count, so a cell's arithmetic is the same
    whatever cells share its chunk and whatever rows it is listed with.
    Every cell gets the Theorem 1 index and, in a call that leaves any
    Allen-Cunneen cell uncertified, Allen-Cunneen's minutes too, and is
    charged the one its wait model selects.

    The full computation returns UNSTABLE on a certified cell too, because
    its float rho is within far less than delta of the exact one. A term's
    log is a running sum of at most n + 1 logs, each partial sum at most
    L = 745 in size on every term that is not 0 (one below e^-745
    underflows), so its error is at most about n L eps. Every term, their
    total and B = q_n / total then carry a relative error of about
    2 n L eps, 2.1e-11 at n = 64, which bounds P's absolute error.
    lam s / m times that bounds rho's absolute error and, as
    P >= m / (lam s) on a certified cell, its relative error too. For
    criterion 3's parameters and the bundled configs (lam <= 0.5 per
    minute, s <= 2000 minutes, m >= 1) that factor is at most 1000, and
    rho's error at most 2.1e-8; rho_lb is off by a few ulps. So a certified
    cell's float rho is at least 1: skipping it changes no value and raises
    no warning.
    """
    counts, demands = np.asarray(ns, dtype=float), np.asarray(ds, dtype=float)
    one_row_each = demands.ndim == 2 and len(demands) == counts.size
    shaped = counts.ndim == 1 and counts.size > 0 and (demands.ndim == 1 or one_row_each)
    n, d = np.broadcast_arrays(counts[:, None], demands) if shaped else (counts, demands)
    whole = (counts >= 1) & (counts < np.inf) & (np.floor(counts) == counts)
    whole &= np.asarray(ns).dtype != bool  # a bool is not a count, though True reads as 1.0
    if not (shaped and whole.all() and np.all((d >= 0) & (d <= rows.phi))):  # NaN fails every comparison
        raise DomainError("counts must be whole numbers >= 1 in a non-empty 1-D array, and demands within"
                          " [0, phi], 1-D or one row per count")
    m = rows.m
    d_pos = np.where(d > 0, d, 1.0)
    s = d_pos / rows.alpha_per_min
    t_v = rows.tau * m * s / n
    a = rows.lam * t_v
    # rho >= rho_lb by Jagerman's bound on Erlang B (see above).
    keep = ~(rows.lam * (n / (n + a)) * s / m >= 1.0 + _RHO_MARGIN)
    n, d_pos, s, t_v, a = (x[keep] for x in (n, d_pos, s, t_v, a))
    kept_rows = _Rows(*(np.broadcast_to(c, keep.shape)[keep] for c in rows))
    # Below the smallest normal float (t_v can underflow to 0) every term past
    # i = 0 vanishes against 1 either way; the floor keeps log a finite.
    log_a = np.log(np.maximum(a, np.finfo(float).tiny))
    n_max = int(counts.max())
    i = np.arange(1, n_max + 1)
    log_i = np.log(i)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])  # log k!, k = 0..n_max
    w1, w2 = (i + 1.0)[:, None], (2.0 / ((i + 1) * (i + 2)))[:, None]  # the gap-moment weights
    top = np.minimum(n, np.floor(a))
    log_q0 = -(top * log_a - log_fact[top.astype(int)])  # i = 0, scaled by the largest term
    q0, q_n, total, s1, s2 = (np.empty(n.shape) for _ in range(5))
    step = max(1, _BLOCK // (n_max + 1))
    for lo in range(0, n.size, step):
        at = slice(lo, lo + step)
        top_i = int(n[at].max())
        # log_a - inf = -inf: a cell's terms past i = n are exactly 0.
        cut = np.where(i[:top_i, None] <= n[at], log_i[:top_i, None], np.inf)
        log_q = np.empty((top_i + 1, cut.shape[1]))
        log_q[0] = log_q0[at]
        np.subtract(log_a[at], cut, out=log_q[1:])
        for prev, row in zip(log_q, log_q[1:]):  # each row already holds the sum before it
            np.add(prev, row, out=row)
        term = np.exp(log_q, out=log_q)
        q0[at] = term[0]
        q_n[at] = term[n[at].astype(int), np.arange(term.shape[1])]
        total[at] = _sum_in_order(term)
        s1[at] = _sum_in_order(term[1:] / w1[:top_i])
        s2[at] = _sum_in_order(term[1:] * w2[:top_i])
    value = np.full(keep.shape, UNSTABLE)
    value[keep] = _value(n, d_pos, s, t_v, q0, q_n, total, s1, s2, kept_rows)
    return np.where(d > 0, value, 0.0)


def _value(n, d_pos, s, t_v, q0, q_n, total, s1, s2, rows: _Rows) -> np.ndarray:
    """_objective's value of every cell from its occupancy sums, cell by cell.

    Every argument holds one value per cell, or broadcasts to them. A cell
    of zero demand is valued at d_pos = 1; _objective sets it to 0.
    """
    m = rows.m
    p_admit = 1.0 - q_n / total
    busy = 1.0 - q0 / total
    rho = rows.lam * p_admit * s / m
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_x = t_v * (s1 / total) / busy
        second_x = t_v**2 * (s2 / total) / busy
        mu_y, var_y = m * mean_x, m * (second_x - mean_x**2)
        wait = rho * s / (2.0 * (1.0 - rho)) * (s**2 + 2.0 * s * mu_y + var_y)  # Theorem 1
        if rows.allen_cunneen.any():  # only Allen-Cunneen's wait needs Erlang C
            b = np.ones_like(rho)  # queueing.erlang_c: Erlang B, each row's m ports at load m*rho
            load = m * rho
            for k in range(1, int(m.max()) + 1):
                b = np.where(k <= m, load * b / (k + load * b), b)
            erlang_c = b / (1.0 - rho * (1.0 - b))
            ca2 = m * var_y / mu_y**2
            allen_cunneen = np.where(n <= m, 0.0, erlang_c * s / (m * (1.0 - rho)) * ca2 / 2.0)
            wait = np.where(rows.allen_cunneen, allen_cunneen, wait)
        wait = np.where(busy > 0.0, wait, 0.0)  # 1 - P_0 rounds to 0: no EV waits
        revenue = d_pos * np.exp(-rows.beta * d_pos) / rows.xi - d_pos * rows.p_e
        return np.where(rho >= 1.0, UNSTABLE, p_admit * revenue - rows.c * wait)


def _seeds(grid, vals) -> tuple[np.ndarray, np.ndarray]:
    """Each row's grid maximum and grid neighbours (itself at an end): _brent_rows' seeds."""
    top = np.argmax(vals, axis=1)
    near = np.stack([np.maximum(top - 1, 0), top, np.minimum(top + 1, len(grid) - 1)])
    return grid[near], np.take_along_axis(vals, near.T, axis=1).T


def _brent_rows(f, points, values, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Brent's bounded maximization on every row at once, seeded with three points a row.

    points and values are (3, rows): the ends lo <= hi of a row's bracket and
    its best point x between them, with their values; an end may coincide
    with x, and an end's value may be -inf. f(keep, u) returns the values at
    one abscissa u per row for the rows indexed by keep. The first step fits
    the parabola through the seeds; a parabolic step that falls outside the
    bracket, or is not less than half the step before last, gives way to a
    golden-section step into the larger side, and no step is shorter than
    tol / 2. Only rows still searching are evaluated. A row stops once x is
    within tol of both ends of its bracket, and returns x and its value, the
    best it has seen.
    """
    (a, x, b), (_, fx, _) = points, values
    # w holds the better end and v the other: Brent's second- and third-best points.
    lo_better = values[0] >= values[2]
    w, v = np.where(lo_better, points[[0, 2]], points[[2, 0]])
    fw, fv = np.where(lo_better, values[[0, 2]], values[[2, 0]])
    # The last two steps; a first step as long as the bracket lets the first parabolas in.
    d = e = b - a
    best_x, best_f = x.copy(), fx.copy()
    keep = np.arange(len(x))
    state = (keep, a, b, x, fx, w, fw, v, fv, d, e)
    tol1 = tol / 2.0
    while True:
        live = np.maximum(x - a, b - x) > tol
        if not live.all():
            best_x[keep[~live]], best_f[keep[~live]] = x[~live], fx[~live]
            keep, a, b, x, fx, w, fw, v, fv, d, e = (s[live] for s in state)
        if not keep.size:
            return best_x, best_f
        mid = 0.5 * (a + b)
        # The vertex of the parabola through x, w and v is x + p / q; an end
        # at -inf, or two seeds at one point, gives a NaN or 0 that every
        # test below rejects.
        with np.errstate(invalid="ignore", divide="ignore"):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = (np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
            parabolic &= (p > q * (a - x)) & (p < q * (b - x))
            vertex = p / q
        golden = np.where(x >= mid, a - x, b - x)
        e = np.where(parabolic, d, golden)
        d = np.where(parabolic, vertex, _CGOLD * golden)
        # A parabolic step stays tol away from the ends; every step is at least tol / 2.
        near_end = parabolic & ((x + d - a < tol) | (b - x - d < tol))
        d = np.where(near_end, np.copysign(tol1, mid - x), d)
        u = x + np.copysign(np.maximum(np.abs(d), tol1), d)
        fu = f(keep, u)
        better = fu >= fx
        # The worse of x and u becomes the bracket's end on its side of the
        # better one, and the second-best point, or the third-best, or neither.
        loser, f_loser = np.where(better, x, u), np.where(better, fx, fu)
        right = u >= x
        a = np.where(better == right, loser, a)
        b = np.where(better != right, loser, b)
        to_w = better | (fu >= fw) | (w == x)
        to_v = ~to_w & ((fu >= fv) | (v == x) | (v == w))
        v = np.where(to_w, w, np.where(to_v, loser, v))
        fv = np.where(to_w, fw, np.where(to_v, f_loser, fv))
        w, fw = np.where(to_w, loser, w), np.where(to_w, f_loser, fw)
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
        state = (keep, a, b, x, fx, w, fw, v, fv, d, e)


def optimize_joap(econ: EconomicParams, station: StationParams) -> JoapPolicy:
    """Best (n, d) over every count up to N_CAP, from the vectorised objective.

    Every count gets _objective's 160-point demand grid over the
    non-negative-marginal-revenue region, then Brent's refinement of the
    bracket around the grid maximum to 1e-8. A point that sells nothing
    gets count 1 at demand 0. Ties keep the smallest count (stronger
    regulation).
    """
    return optimize_joap_many([(econ, station)])[0]


def optimize_joap_many(points) -> list[JoapPolicy]:
    """optimize_joap(econ, station) for every (econ, station) in points, in one search.

    Every (point, count) pair is one row of the objective. Each point's
    grid is evaluated in one call, and one Brent search refines every row
    whose grid maximum is positive, of every point at once; a row whose
    maximum is not positive earns 0 and never wins. No row's arithmetic
    depends on the others, so each point's policy is bit for bit its
    one-point result; points may differ in any parameter, the wait model
    included.
    """
    points = list(points)
    if not points:
        return []
    ns = np.tile(np.arange(1, N_CAP + 1), len(points))
    columns = _Rows.of(points, N_CAP)
    # A row that sells nothing (its grid maximum is not positive, or its point's
    # demand region is empty and gets no grid) keeps zero seeds and is not searched.
    seeds, values = np.zeros((2, 3, len(points) * N_CAP))
    for k, (econ, _) in enumerate(points):
        d_hi = demand_region_bound(econ)
        if d_hi > 0:  # each point's grid in its own call, so its arrays stay one point's size
            at = slice(k * N_CAP, (k + 1) * N_CAP)
            grid = np.linspace(0.0, d_hi, _GRID_POINTS)
            vals = _objective(ns[at], grid, _Rows(*(c[at] for c in columns)))
            seeds[:, at], values[:, at] = _seeds(grid, vals)
    rows = np.flatnonzero(values[1] > 0.0)

    def value(keep, u):
        at = rows[keep]
        return _objective(ns[at], u[:, None], _Rows(*(c[at] for c in columns)))[:, 0]

    d, val = np.zeros((2, len(points) * N_CAP))
    d[rows], val[rows] = _brent_rows(value, seeds[:, rows], values[:, rows], _DEMAND_TOL)
    d, val = d.reshape(len(points), N_CAP), val.reshape(len(points), N_CAP)
    # A point whose every row earns 0 gets count 1 at demand 0: it sells nothing.
    best = np.argmax(val, axis=1)
    return [
        _policy_from(int(b) + 1, float(dk[b]), float(vk[b]), *point)
        for point, b, dk, vk in zip(points, best, d, val)
    ]


DEFAULT_TAU_GRID = (1.01, 1.05, 1.1, 1.2, 1.5, 2.0)


def optimize_tau(
    econ: EconomicParams, station: StationParams, tau_grid=DEFAULT_TAU_GRID
) -> tuple[float, JoapPolicy]:
    """Best regulation slack over a non-empty grid; ties keep the earlier grid value.

    Every τ of the grid is searched at once, by optimize_joap_many.
    """
    taus = list(tau_grid)
    if not taus:
        raise DomainError("tau grid is empty")
    plans = optimize_joap_many([(econ, replace(station, tau=tau)) for tau in taus])
    best = max(range(len(taus)), key=lambda k: (plans[k].predicted_profit, -k))
    return taus[best], plans[best]
