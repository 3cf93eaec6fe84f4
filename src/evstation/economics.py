"""Economic primitives: EV utility, demand response, pricing, and profit accounting.

All quantities use canonical units of minutes, kWh, and dollars. Charging
power is stored in kW and converted to kWh/min where a service duration is
needed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when an argument falls outside an operation's domain."""


# Mean-wait models of the charging queue (see queueing.mean_wait):
# "theorem1" is the closed-form index as published, in min^3;
# "allen_cunneen" is the two-moment GI/D/m approximation, in minutes.
WAIT_MODELS = ("theorem1", "allen_cunneen")


def _check_finite(params, fields: tuple) -> None:
    # NaN fails every comparison, so the range checks alone would let it through.
    for name in fields:
        if not math.isfinite(getattr(params, name)):
            raise DomainError(f"{name} must be finite, got {getattr(params, name)}")


def _check_count(value, name: str, least: int = 1) -> None:
    """The domain of every count: a whole number >= least, which a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class EconomicParams:
    """Station-wide economic description of the (homogeneous) EV population.

    Attributes:
        beta: demand elasticity (1/kWh).
        phi: battery capacity (kWh).
        u_phi: utility of a full charge ($).
        p_e: electricity purchase price ($/kWh).
        c: linear waiting-time penalty rate ($/min).
        wait_model: the mean-wait model the penalty is charged against,
            one of WAIT_MODELS. Only "allen_cunneen" yields minutes, the
            unit of c; "theorem1" is kept to reproduce the published index.
    """

    beta: float
    phi: float
    u_phi: float
    p_e: float
    c: float
    wait_model: str = "theorem1"

    def __post_init__(self):
        _check_finite(self, ("beta", "phi", "u_phi", "p_e", "c"))
        if self.beta <= 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.phi <= 0:
            raise DomainError(f"phi must be positive, got {self.phi}")
        if self.u_phi <= 0:
            raise DomainError(f"u_phi must be positive, got {self.u_phi}")
        if self.p_e < 0:
            raise DomainError(f"p_e must be non-negative, got {self.p_e}")
        if self.c < 0:
            raise DomainError(f"c must be non-negative, got {self.c}")
        if self.wait_model not in WAIT_MODELS:
            raise DomainError(
                f"wait_model must be one of {list(WAIT_MODELS)}, got {self.wait_model!r}"
            )

    @property
    def xi(self) -> float:
        """Demand-curve scale (kWh/$), always derived from the stored fields."""
        return (1.0 - math.exp(-self.beta * self.phi)) / (self.u_phi * self.beta)

    @property
    def choke_price(self) -> float:
        """Price at and above which the demand response drops to zero ($/kWh)."""
        return 1.0 / self.xi


@dataclass(frozen=True)
class StationParams:
    """Physical description of the charging station.

    Attributes:
        m: number of charging ports.
        alpha: per-port charging power (kW).
        parking_capacity: total parking spots (>= m).
        lam: EV arrival rate (1/min).
        tau: regulation slack factor (> 1).
    """

    m: int
    alpha: float
    parking_capacity: int
    lam: float
    tau: float

    def __post_init__(self):
        _check_count(self.m, "m")  # the simulator sizes its port list with m
        _check_count(self.parking_capacity, "parking_capacity")
        if self.parking_capacity < self.m:
            raise DomainError(f"parking_capacity ({self.parking_capacity}) must be >= m ({self.m})")
        _check_finite(self, ("alpha", "lam", "tau"))
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.lam <= 0:
            raise DomainError(f"lam must be positive, got {self.lam}")
        if self.tau <= 1:
            raise DomainError(f"tau must be > 1, got {self.tau}")

    @property
    def alpha_per_min(self) -> float:
        """Charging power in kWh/min."""
        return self.alpha / 60.0

    def service_time(self, d: float) -> float:
        """Minutes needed to deliver `d` kWh on one port."""
        return d / self.alpha_per_min


def utility(d: float, econ: EconomicParams) -> float:
    """Utility ($) an EV derives from receiving `d` kWh.

    Strictly increasing and strictly concave on (0, phi), with utility(0) = 0
    and utility(phi) = u_phi.
    """
    if not 0 <= d <= econ.phi:  # written so that NaN fails it too
        raise DomainError(f"demand {d} outside [0, {econ.phi}]")
    return econ.u_phi * (-math.expm1(-econ.beta * d)) / (-math.expm1(-econ.beta * econ.phi))


def demand_response(r: float, econ: EconomicParams) -> float:
    """Surplus-maximizing demand (kWh) at announced price `r` ($/kWh).

    Decreasing in r; clamped to [0, phi] (zero at or above the choke price,
    phi when the price is low enough that the battery cap binds).
    """
    if not r >= 0:  # written so that NaN fails it too
        raise DomainError(f"price must be non-negative, got {r}")
    if r == 0:
        return econ.phi
    d = -math.log(econ.xi * r) / econ.beta
    return 0.0 if d <= 0.0 else min(d, econ.phi)  # d is -0.0 at the choke price


def price_for_demand(d: float, econ: EconomicParams) -> float:
    """Price ($/kWh) that induces demand `d`; inverse of demand_response.

    Only defined for d in (0, phi], where the demand curve is invertible.
    """
    if not 0 < d <= econ.phi:  # written so that NaN fails it too
        raise DomainError(f"demand {d} outside (0, {econ.phi}]")
    return math.exp(-econ.beta * d) / econ.xi


def per_ev_profit(d: float, wait: float, econ: EconomicParams) -> float:
    """Realized profit ($) from one admitted EV; an EV charged nothing earns nothing."""
    if math.isnan(wait):
        raise DomainError("wait must be a number, got nan")
    if d == 0:
        return 0.0
    return (price_for_demand(d, econ) - econ.p_e) * d - econ.c * wait
