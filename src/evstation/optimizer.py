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
optimize_tau searches its whole grid in one batch. The objective holds
the Erlang occupancy terms of every row, demand and occupancy index i in
one array with i leading, built a block of rows at a time so that no
block exceeds _BLOCK elements. The index terms, log i and log k!, are
read-only arrays cached per largest count; log k! is computed as the Cephes
lgam routine computes log Gamma(k + 1), so it matches
scipy.special.gammaln bit for bit and importing evstation loads no public
scipy submodule. A cell whose load Jagerman's bound on Erlang B,
B(n, a) <= a / (n + a), puts at 1 + 1e-3 or more is unstable: the objective
gives it no waits, and no occupancy terms past its block's last
uncertified demand. That is 53-83% of the cells of table1's grids. The
independent oracle, queueing.brute_force_oracle, computes the same
optimum count by count with its own grid and golden-section search; it
shares no arithmetic with objective and imports nothing from this module,
which takes the policy record and its builder, N_CAP and UNSTABLE from it.
"""
from __future__ import annotations

import functools
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
_BLOCK = 2**16  # elements in one (i, count, demand) block of objective
_RHO_MARGIN = 1e-3  # objective skips a cell once a lower bound on its load reaches 1 + this
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
# Stirling series of log Gamma(x) in powers of 1/x^2, leading coefficient first.
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max, computed as the Cephes lgam routine computes log Gamma(k + 1).

    Below x = k + 1 = 13, k! is exact in a float and its log is taken;
    above, Stirling's series is added in Cephes' order (Moshier 1989,
    Methods and Programs for Mathematical Functions), so each entry is
    bit for bit scipy.special.gammaln(k + 1).
    """
    table = [math.log(math.factorial(k)) for k in range(min(n_max + 1, 12))]
    for k in range(12, n_max + 1):
        x = k + 1.0
        p = 1.0 / (x * x)
        series = 0.0
        for coef in _STIRLING:  # Horner's rule, as Cephes' polevl
            series = series * p + coef
        table.append((x - 0.5) * math.log(x) - x + _LS2PI + series / x)
    return np.array(table)


@functools.cache
def _index_terms(n_max: int) -> tuple[np.ndarray, ...]:
    """Read-only arrays over the occupancy index for counts up to n_max.

    i = 1..n_max with log i, log k! for k = 0..n_max, and the gap-moment
    weights i + 1 and 2/((i+1)(i+2)).
    """
    i = np.arange(1, n_max + 1)
    log_i = np.array([math.log(k) for k in range(1, n_max + 1)])
    terms = (i, log_i, _log_factorials(n_max),
             (i + 1.0)[:, None, None], (2.0 / ((i + 1) * (i + 2)))[:, None, None])
    for term in terms:
        term.flags.writeable = False
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
    i = min(n, floor(a))), are a running sum of logs along the leading axis i
    of an (i, count, demand) array: every block adds its rows in order of i,
    one row onto the next, and the normalising sum and the two gap-moment
    sums add along i in order too. The array is built for a block of counts
    at a time, with i running up to the block's largest count, so a block
    holds at most _BLOCK elements unless a single count's row is larger.
    Every row gets the Theorem 1 index and, in a call that leaves any
    Allen-Cunneen cell uncertified (below), Allen-Cunneen's minutes too,
    and charges the one its wait model selects. Every row's arithmetic is
    the same whatever rows it is listed with: the terms past a row's count
    are exactly 0, the Erlang C recursion stops at each row's own port
    count, and the cells a block-mate adds to a row are certified, so their
    values are discarded.

    A cell is certified unstable when a lower bound on its load,
    rho_lb = lam (n / (n + a)) s / m, reaches 1 + delta, delta = _RHO_MARGIN.
    Erlang B's recursion B(k) = a B(k-1) / (k + a B(k-1)) rises with
    B(k-1) <= 1, so B(n, a) <= a / (n + a) (Jagerman 1974, Some properties
    of the Erlang loss function, BSTJ 53): the admission probability
    P = 1 - B(n, a) is at least n / (n + a), and the load rho = lam P s / m
    at least rho_lb. A block builds its occupancy terms only for the demands
    up to the last one that any of its rows leaves uncertified, so the cells
    it skips are certified; only uncertified cells get a load, waits and
    revenue, and every certified cell is UNSTABLE.

    The full computation returns UNSTABLE there too, because its float rho
    is within far less than delta of the exact one. A term's log is a
    running sum of at most n + 1 logs, each partial sum at most L = 745 in
    size on every term that is not 0 (one below e^-745 underflows), so its
    error is at most about n L eps. Every term, their total and B =
    q_n / total then carry a relative error of about 2 n L eps, 2.1e-11 at
    n = 64, which bounds P's absolute error. lam s / m times that bounds
    rho's absolute error and, as P >= m / (lam s) on a certified cell, its
    relative error too. For criterion 3's parameters and the bundled
    configs (lam <= 0.5 per minute, s <= 2000 minutes, m >= 1) that factor
    is at most 1000, and rho's error at most 2.1e-8; rho_lb is off by a few
    ulps. So a certified cell's float rho is at least 1: skipping it changes
    no value and raises no warning.
    """
    counts = np.asarray(ns, dtype=float)
    n, d = np.broadcast_arrays(counts[:, None], np.asarray(ds, dtype=float))
    whole = (counts >= 1) & (counts < np.inf) & (np.floor(counts) == counts)
    whole &= np.asarray(ns).dtype != bool  # a bool is not a count, though True reads as 1.0
    if not (whole.all() and np.all((d >= 0) & (d <= rows.phi))):  # NaN fails every comparison
        raise DomainError("counts must be whole numbers >= 1 and demands within [0, phi]")
    m = rows.m
    d_pos = np.where(d > 0, d, 1.0)
    s = d_pos / rows.alpha_per_min
    t_v = rows.tau * m * s / n
    a = rows.lam * t_v
    # Below the smallest normal float (t_v can underflow to 0) every term past
    # i = 0 vanishes against 1 either way; the floor keeps log a finite.
    log_a = np.log(np.maximum(a, np.finfo(float).tiny))
    n_max = int(counts.max())
    i, log_i, log_fact, w1, w2 = _index_terms(n_max)
    top = np.minimum(n, np.floor(a))
    log_q0 = -(top * log_a - log_fact[top.astype(int)])  # i = 0, scaled by the largest term
    # rho >= rho_lb by Jagerman's bound on Erlang B (see above).
    certified = rows.lam * (n / (n + a)) * s / m >= 1.0 + _RHO_MARGIN
    q0, q_n, total, s1, s2 = (np.empty(n.shape) for _ in range(5))
    block_rows = max(1, _BLOCK // ((n_max + 1) * max(1, n.shape[1])))
    for lo in range(0, len(counts), block_rows):
        blk = slice(lo, lo + block_rows)
        # The block's demands up to the last one that any of its rows leaves uncertified.
        open_cols = np.flatnonzero(~certified[blk].all(axis=0))
        if not open_cols.size:
            continue
        span = (blk, slice(open_cols[-1] + 1))
        top_i = int(counts[blk].max())
        # log_a - inf = -inf: a count's terms past i = n are exactly 0.
        cut = np.where(i[:top_i, None] <= counts[blk], log_i[:top_i, None], np.inf)
        log_q = np.empty((top_i + 1,) + n[span].shape)
        log_q[0] = log_q0[span]
        np.subtract(log_a[span], cut[:, :, None], out=log_q[1:])
        for prev, row in zip(log_q, log_q[1:]):  # each row already holds the sum before it
            np.add(prev, row, out=row)
        term = np.exp(log_q, out=log_q)
        q0[span] = term[0]
        q_n[span] = term[counts[blk].astype(int), np.arange(term.shape[1])]
        total[span] = _sum_in_order(term)
        s1[span] = _sum_in_order(term[1:] / w1[:top_i])
        s2[span] = _sum_in_order(term[1:] * w2[:top_i])
    cells = (n, d_pos, s, t_v, q0, q_n, total, s1, s2)
    keep = ~certified  # the uncertified cells, gathered into one run
    value = np.full(n.shape, UNSTABLE)
    kept_rows = _Rows(*(np.broadcast_to(c, n.shape)[keep] for c in rows))
    value[keep] = _value(*(x[keep] for x in cells), kept_rows)
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
