"""Closed-form analytics of the admission/charging tandem queue.

The virtual admission queue is an M/D/n/n loss system whose occupancy
distribution is Erlang; the admitted stream feeds an m-port FIFO charging
queue with deterministic service. analyze_admission returns one record
of an operating point: the loss-system steady state, the admission
probability and the charging-queue load rho. mean_wait is the one entry
point to the mean-wait models selected by EconomicParams.wait_model; it
draws on the moments of the gap to the next slot release. These scalar
forms give every reported policy (JoapPolicy) its t_v, predicted_admit
and predicted_wait. profit_s, inner_demand_opt and brute_force_oracle
search them count by count, with their own demand grid, tolerance and
golden section: the independent oracle of the optimizer, which searches
the same model on numpy rows and which this module never imports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economics import WAIT_MODELS, DomainError, EconomicParams, StationParams, _check_count
from .economics import demand_region_bound, per_ev_profit, price_for_demand

UNSTABLE = float("-inf")  # the profit of a point whose charging queue is unstable
N_CAP = 64  # the largest sub-process count either search considers
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # the share of its bracket a golden-section probe keeps
_ORACLE_GRID = 160  # coarse demand grid that brackets each golden-section search of the oracle
_ORACLE_TOL = 1e-8  # kWh: the oracle's golden section stops once its bracket is this wide


def _check_loss_system(n: int, offered_load: float) -> None:
    """The domain of an n-server loss system: a count n >= 1 and a finite load a >= 0."""
    _check_count(n, "n")
    if not (math.isfinite(offered_load) and offered_load >= 0):
        raise DomainError(f"offered load must be finite and >= 0, got {offered_load}")


def erlang_steady_state(n: int, offered_load: float) -> np.ndarray:
    """Occupancy distribution P_0..P_n of an n-server loss system.

    Uses the term recursion q_i = q_{i-1} * a / i carried in log space,
    never raw factorials, so it is stable for large n and a.
    """
    _check_loss_system(n, offered_load)
    # log-space cumulative terms log(a^i / i!), shifted before exponentiation
    if offered_load == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    i = np.arange(1, n + 1)
    logq = np.concatenate(([0.0], np.cumsum(np.log(offered_load) - np.log(i))))
    logq -= logq.max()
    weights = np.exp(logq)
    return weights / weights.sum()


def erlang_blocking(n: int, offered_load: float) -> float:
    """Blocking probability of an n-server loss system via the B-recursion.

    B(k) = a B(k-1) / (k + a B(k-1)) with B(0) = 1.
    """
    _check_loss_system(n, offered_load)
    b = 1.0
    for k in range(1, n + 1):
        b = offered_load * b / (k + offered_load * b)
    return b


@dataclass(frozen=True)
class AdmissionAnalysis:
    """Analytic snapshot of the tandem queue at one operating point (n, d).

    Attributes:
        n: sub-process count.
        t_v: per-sub-process admission spacing T_v = tau * m * (d/alpha) / n (min).
        offered_load: a = lam * t_v.
        state_probs: occupancy probabilities P_0..P_n.
        p_admit: admission probability 1 - P_n.
        service_time: charging duration d / alpha (min).
        rho: admitted charging-queue load lam * P * s / m; the queue is
            stable only below 1.
    """

    n: int
    t_v: float
    offered_load: float
    state_probs: np.ndarray
    p_admit: float
    service_time: float
    rho: float


def analyze_admission(n: int, d: float, station: StationParams) -> AdmissionAnalysis:
    """Full loss-system analysis of the admission queue at (n, d)."""
    _check_count(n, "n")
    if not (math.isfinite(d) and d > 0):
        raise DomainError(f"demand must be finite and positive, got {d}")
    t_v = station.tau * station.m * station.service_time(d) / n
    a = station.lam * t_v
    if not math.isfinite(a):
        raise DomainError(f"demand {d} is too large: the offered load lam * t_v overflows")
    probs = erlang_steady_state(n, a)
    p_admit = 1.0 - probs[n]
    service = station.service_time(d)
    return AdmissionAnalysis(
        n=n,
        t_v=t_v,
        offered_load=a,
        state_probs=probs,
        p_admit=p_admit,
        service_time=service,
        rho=station.lam * p_admit * service / station.m,
    )


def admitted_interarrival_moments(analysis: AdmissionAnalysis) -> tuple[float, float]:
    """Mean and second moment (mean_x, second_x) of the gap to the next slot
    release, given a busy virtual queue.

    With i slots busy, each busy slot's residual spacing is uniform on
    [0, T_v], so the next release comes after the minimum of i uniforms: a
    gap with mean T_v/(i+1) and second moment 2 T_v^2 / ((i+1)(i+2)). States
    are weighted by P_i / (1 - P_0), conditioning on at least one busy slot.
    The sum of m consecutive independent gaps, the coordinated gap Y of the
    single-server reduction of the charging queue, has mean mu_Y = m mean_x and variance
    sigma_Y^2 = m (second_x - mean_x^2).

    These are not the moments of the admitted inter-arrival time, whose
    mean is 1/(lam P): at n=5, lam=0.1/min, d=0.5 kWh on the default
    station (m=4, alpha=11.5 kW, tau=1.01) mean_x is 1.02 min against
    1/(lam P) = 10.0 min. The Allen-Cunneen wait uses them only through
    the shape factor second_x/mean_x^2 - 1.
    """
    probs = analysis.state_probs
    busy_mass = 1.0 - probs[0]
    if busy_mass <= 0:
        raise DomainError("all occupancy mass at state 0: no departures to measure")
    t_v = analysis.t_v
    i = np.arange(1, analysis.n + 1, dtype=float)
    w = probs[1:] / busy_mass
    mean_x = float(np.sum(w * t_v / (i + 1)))
    second_x = float(np.sum(w * 2.0 * t_v**2 / ((i + 1) * (i + 2))))
    return mean_x, second_x


def erlang_c(m: int, offered_load: float) -> float:
    """Probability that an arrival waits in an m-server queue (Erlang C).

    C = B / (1 - rho (1 - B)) with B the Erlang-B blocking probability at
    the same offered load a and rho = a / m < 1.
    """
    rho = offered_load / m
    if rho >= 1.0:
        raise DomainError(f"unstable queue: rho = {rho:.4f} >= 1")
    b = erlang_blocking(m, offered_load)
    return b / (1.0 - rho * (1.0 - b))


def mean_wait(analysis: AdmissionAnalysis, station: StationParams, model: str) -> float:
    """Mean wait in the charging queue at an operating point under one of WAIT_MODELS.

    "theorem1": the published closed form rho*s/(2(1-rho)) * [s^2 + 2 s mu_Y
    + sigma_Y^2], with s the service time in minutes and mu_Y, sigma_Y^2 the
    coordinated gap moments (see admitted_interarrival_moments). The bracket
    carries squared-minute units, so the value is a wait index in min^3
    rather than a calibrated wait, and it is positive even at n <= m, where
    no EV ever waits. A $/min penalty is meant for the "allen_cunneen"
    model, whose value is in minutes.

    "allen_cunneen": the two-moment GI/D/m approximation (Allen-Cunneen, as
    surveyed in Whitt 1993), C(m, m rho) * s/(m(1-rho)) * ca^2/2, in minutes.
    It is exactly 0 when n <= m, and then the gap moments are not computed:
    each slot reopens only after T_v = tau*m*s/n >= tau*s > s, so at most m
    admitted EVs are ever in the system. Otherwise ca^2 = sigma_X^2 / mean_X^2
    = m sigma_Y^2 / mu_Y^2 is taken from the slot-release gap moments as a
    shape factor only.

    Both models give 0 when 1 - P_0 rounds to 0 (a demand so small that
    the admission queue is idle to float precision): no EV then waits, and
    the gap moments, conditioned on a busy slot, are undefined.

    Raises DomainError when the admitted load rho is at or above 1.
    """
    if model not in WAIT_MODELS:
        raise DomainError(f"wait model must be one of {list(WAIT_MODELS)}, got {model!r}")
    rho = analysis.rho
    if rho >= 1.0:
        raise DomainError(f"unstable charging queue: rho = {rho:.4f} >= 1")
    m = station.m
    if model == "allen_cunneen" and analysis.n <= m:
        return 0.0
    if 1.0 - analysis.state_probs[0] <= 0.0:  # the charging queue is empty to float precision
        return 0.0
    mean_x, second_x = admitted_interarrival_moments(analysis)
    mu_y, var_y = m * mean_x, m * (second_x - mean_x**2)
    s = analysis.service_time
    if model == "theorem1":
        return rho * s / (2.0 * (1.0 - rho)) * (s**2 + 2.0 * s * mu_y + var_y)
    ca2 = m * var_y / mu_y**2
    return erlang_c(m, m * rho) * s / (m * (1.0 - rho)) * ca2 / 2.0


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
    _check_count(n, "n")
    if d < 0 or d > econ.phi:
        raise DomainError(f"demand {d} outside [0, {econ.phi}]")
    if d == 0:
        return 0.0
    analysis = analyze_admission(n, d, station)
    if analysis.rho >= 1.0:
        return UNSTABLE
    wait = mean_wait(analysis, station, econ.wait_model)
    return analysis.p_admit * per_ev_profit(d, 0.0, econ) - econ.c * wait


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

    grid = np.linspace(0.0, d_hi, _ORACLE_GRID)
    vals = [profit(d) for d in grid]
    k = int(np.argmax(vals))
    if vals[k] <= 0.0:
        return 0.0, 0.0
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    d_best, val = _golden_max(profit, lo, hi, _ORACLE_TOL)
    if val < 0.0:
        return 0.0, 0.0
    return float(d_best), float(val)


def _policy_from(n: int, d: float, profit: float, econ: EconomicParams, station: StationParams) -> JoapPolicy:
    if d <= 0:
        return JoapPolicy(
            n_star=n, d_star=0.0, r_star=econ.choke_price, t_v=0.0,
            predicted_profit=0.0, predicted_admit=1.0, predicted_wait=0.0,
        )
    analysis = analyze_admission(n, d, station)
    wait = mean_wait(analysis, station, econ.wait_model)
    return JoapPolicy(
        n_star=n,
        d_star=d,
        r_star=price_for_demand(d, econ),
        t_v=analysis.t_v,
        predicted_profit=profit,
        predicted_admit=float(analysis.p_admit),
        predicted_wait=float(wait),
    )


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
