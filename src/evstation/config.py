"""JSON configuration ingestion for scenarios and run options.

The schema (version 1) has four blocks:

    {
      "schema_version": 1,
      "station":   {"m", "alpha_kw", "parking_capacity", "tau"},
      "economics": {"beta", "phi_kwh", "u_phi", "penalty_rate", "wait_model"},
      "run":       {"seed", "reps", "horizon_min"},        # optional
      "scenarios": [{"name", "lambda_per_min", "p_e_mwh", "duration_min"}, ...]
    }

Electricity prices are given in $/MWh (as tariffs usually are) and stored
in $/kWh. Unknown keys anywhere are rejected so typos cannot silently
change an experiment, and no two scenarios may share a name, since the
daily report keys its rows by name. station.m and station.parking_capacity
must be whole numbers >= 1. In the run block, seed must be a whole number
>= 0, reps a whole number >= 1 and horizon_min finite and positive. No
field takes a JSON boolean for a number.

economics.wait_model selects the mean wait that penalty_rate ($/min) is
charged against: "allen_cunneen", the two-moment GI/D/m approximation in
minutes (see queueing.mean_wait), or "theorem1", the published closed-form
index in min^3. It is optional and defaults to "theorem1", so configs
written without it reproduce their earlier outputs; the bundled table1 and
fig4 configs select "allen_cunneen". Any other value is a ConfigError.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .economics import DomainError, EconomicParams, StationParams

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration files."""


@dataclass(frozen=True)
class Scenario:
    """One demand/tariff block: arrival rate, electricity price, duration."""

    name: str
    duration: float
    econ: EconomicParams
    station: StationParams


@dataclass(frozen=True)
class RunOptions:
    seed: int = 20240521
    reps: int = 200
    horizon: float | None = None  # defaults to each scenario's duration


_BLOCK_KEYS = {
    "top": {"schema_version", "station", "economics", "run", "scenarios"},
    "station": {"m", "alpha_kw", "parking_capacity", "tau"},
    "economics": {"beta", "phi_kwh", "u_phi", "penalty_rate", "wait_model"},
    "run": {"seed", "reps", "horizon_min"},
    "scenario": {"name", "lambda_per_min", "p_e_mwh", "duration_min"},
}


def _check_keys(obj: dict, block: str, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {obj!r}")
    unknown = set(obj) - _BLOCK_KEYS[block]
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def load_config(path) -> tuple[list[Scenario], RunOptions]:
    """Parse and validate a configuration file into scenarios plus options."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw, str(path))


def parse_config(raw: dict, context: str = "<config>") -> tuple[list[Scenario], RunOptions]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: top level must be an object")
    _check_keys(raw, "top", context)
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{context}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    problems: list[str] = []
    for block in ("station", "economics", "scenarios"):
        if block not in raw:
            problems.append(f"missing block '{block}'")
    if problems:
        raise ConfigError(f"{context}: " + "; ".join(problems))

    st = raw["station"]
    _check_keys(st, "station", f"{context}:station")
    ec = raw["economics"]
    _check_keys(ec, "economics", f"{context}:economics")
    run_raw = raw.get("run", {})
    _check_keys(run_raw, "run", f"{context}:run")

    scenarios_raw = raw["scenarios"]
    if not isinstance(scenarios_raw, list) or not scenarios_raw:
        raise ConfigError(f"{context}: scenarios must be a non-empty array")
    m = _whole(st.get("m"), "m", 1, problems, "station")
    capacity = _whole(st.get("parking_capacity"), "parking_capacity", 1, problems, "station")
    if problems:
        raise ConfigError(f"{context}: " + "; ".join(problems))
    # Each block is read once; each scenario then sets its price and rate.
    with _blame(f"{context}: economics"):
        econ_block = EconomicParams(
            beta=_real(ec, "beta"),
            phi=_real(ec, "phi_kwh"),
            u_phi=_real(ec, "u_phi"),
            p_e=0.0,
            c=_real(ec, "penalty_rate", 0.0),
            wait_model=ec.get("wait_model", "theorem1"),
        )
    with _blame(f"{context}: station"):
        station_block = StationParams(
            m=m,
            alpha=_real(st, "alpha_kw"),
            parking_capacity=capacity,
            lam=1.0,
            tau=_real(st, "tau"),
        )

    scenarios: list[Scenario] = []
    for i, sc in enumerate(scenarios_raw):
        ctx = f"{context}:scenarios[{i}]"
        _check_keys(sc, "scenario", ctx)
        with _blame(ctx):
            econ = replace(econ_block, p_e=_real(sc, "p_e_mwh") / 1000.0)  # $/MWh -> $/kWh
            station = replace(station_block, lam=_real(sc, "lambda_per_min"))
        duration = sc.get("duration_min", 240.0)
        duration = _positive(duration, f"scenarios[{i}]: duration_min", problems)
        scenarios.append(
            Scenario(
                name=str(sc.get("name", f"scenario-{i}")),
                duration=duration,
                econ=econ,
                station=station,
            )
        )
    first_of: dict = {}
    for i, scenario in enumerate(scenarios):  # reports key their rows by name
        first = first_of.setdefault(scenario.name, i)
        if first != i:
            problems.append(
                f"scenarios[{i}]: name {scenario.name!r} repeats scenarios[{first}]'s"
            )
    seed = _whole(run_raw.get("seed", RunOptions.seed), "seed", 0, problems)
    reps = _whole(run_raw.get("reps", RunOptions.reps), "reps", 1, problems)
    horizon = run_raw.get("horizon_min")
    if horizon is not None:
        horizon = _positive(horizon, "run: horizon_min", problems)
    if problems:
        raise ConfigError(f"{context}: " + "; ".join(problems))
    return scenarios, RunOptions(seed=seed, reps=reps, horizon=horizon)


@contextmanager
def _blame(context: str):
    """Report a missing field or an invalid value in the block as a ConfigError naming context."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{context}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, DomainError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _is_number(value) -> bool:
    """Whether value is a JSON number: a JSON boolean or string is not, though Python reads either as one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value, name: str, problems: list) -> float | None:
    """`value` as a float if it is a finite, positive number; otherwise a problem is noted."""
    try:
        number = float(value) if _is_number(value) else math.nan
    except OverflowError:  # an int too large for a float
        number = math.nan
    if math.isfinite(number) and number > 0:
        return number
    problems.append(f"{name} must be finite and positive, got {value!r}")
    return None


def _real(block: dict, key: str, default=None) -> float:
    """block[key] (`default` if given and the key is absent) as a float, if it is a number."""
    value = block[key] if default is None else block.get(key, default)
    if not _is_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _whole(value, name: str, least: int, problems: list, block: str = "run") -> int | None:
    """`value` as an int if it is a whole number >= least; otherwise a problem is noted."""
    whole = None
    if _is_number(value) and (isinstance(value, int) or value.is_integer()):
        whole = int(value)  # exact for an int, where a float would round
    if whole is None or whole < least:
        problems.append(f"{block}: {name} must be a whole number >= {least}, got {value!r}")
        return None
    return whole


def with_penalty(scenario: Scenario, c: float) -> Scenario:
    """Scenario copy with a different waiting-time penalty rate."""
    return replace(scenario, econ=replace(scenario.econ, c=c))


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (table1, fig4)."""
    ref = resources.files("evstation.data").joinpath(f"{name}.json")
    return Path(str(ref))
