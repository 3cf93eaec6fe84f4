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
change an experiment. The daily report keys its rows by scenario name, so
a name must be a non-empty string (scenario i defaults to "scenario-i")
and no two scenarios may share one. station.m and station.parking_capacity
must be whole numbers >= 1. In the run block, seed must be a whole number
>= 0, reps a whole number >= 1 and horizon_min finite and positive. No
field, schema_version included, takes a JSON boolean for a number.
horizon_min, if given, is every scenario's simulation horizon; the daily
profit still weights each scenario by its duration_min.

The first problem found raises a ConfigError naming its block and field,
and later problems go unreported. A block's keys are checked before its
values, and the values are read in the order station, economics,
scenarios, run. Only the missing blocks and the repeated scenario names
are each reported whole, every offender in one message.

economics.wait_model selects the mean wait that penalty_rate ($/min) is
charged against: "allen_cunneen", the two-moment GI/D/m approximation in
minutes (see queueing.mean_wait), or "theorem1", the published closed-form
index in min^3. It is optional and defaults to "theorem1", so configs
written without it reproduce their earlier outputs; the bundled table1 and
fig4 configs select "allen_cunneen". Any other value is a ConfigError.
"""
from __future__ import annotations

import json
import sys
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
    except ValueError as exc:  # an int literal past Python's int-string digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw, str(path))


def parse_config(raw: dict, context: str = "<config>") -> tuple[list[Scenario], RunOptions]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: top level must be an object")
    _check_keys(raw, "top", context)
    version = raw.get("schema_version")
    if not _is_number(version) or version != SCHEMA_VERSION:
        raise ConfigError(f"{context}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    missing = [f"missing block '{b}'" for b in ("station", "economics", "scenarios") if b not in raw]
    if missing:
        raise ConfigError(f"{context}: " + "; ".join(missing))

    st, ec, run_raw = raw["station"], raw["economics"], raw.get("run", {})
    for block, obj in (("station", st), ("economics", ec), ("run", run_raw)):
        _check_keys(obj, block, f"{context}:{block}")

    scenarios_raw = raw["scenarios"]
    if not isinstance(scenarios_raw, list) or not scenarios_raw:
        raise ConfigError(f"{context}: scenarios must be a non-empty array")
    # Each block is read once; each scenario then sets its price and rate.
    with _blame(f"{context}: station"):
        station_block = StationParams(
            m=_number(st["m"], "m", least=1),
            alpha=_number(st["alpha_kw"], "alpha_kw"),
            parking_capacity=_number(st["parking_capacity"], "parking_capacity", least=1),
            lam=1.0,
            tau=_number(st["tau"], "tau"),
        )
    with _blame(f"{context}: economics"):
        econ_block = EconomicParams(
            beta=_number(ec["beta"], "beta"),
            phi=_number(ec["phi_kwh"], "phi_kwh"),
            u_phi=_number(ec["u_phi"], "u_phi"),
            p_e=0.0,
            c=_number(ec.get("penalty_rate", 0.0), "penalty_rate"),
            wait_model=ec.get("wait_model", "theorem1"),
        )

    scenarios: list[Scenario] = []
    for i, sc in enumerate(scenarios_raw):
        _check_keys(sc, "scenario", f"{context}:scenarios[{i}]")
        with _blame(f"{context}: scenarios[{i}]"):
            p_e = _number(sc["p_e_mwh"], "p_e_mwh") / 1000.0  # $/MWh -> $/kWh
            econ = replace(econ_block, p_e=p_e)
            station = replace(station_block, lam=_number(sc["lambda_per_min"], "lambda_per_min"))
            duration = _number(sc.get("duration_min", 240.0), "duration_min", positive=True)
            name = sc.get("name", f"scenario-{i}")
            if not (isinstance(name, str) and name):  # reports key their rows by name
                raise ValueError(f"name must be a non-empty string, got {name!r}")
        scenarios.append(Scenario(name=name, duration=duration, econ=econ, station=station))
    first_of: dict = {}
    repeats = [
        f"scenarios[{i}]: name {s.name!r} repeats scenarios[{first}]'s"
        for i, s in enumerate(scenarios)
        if (first := first_of.setdefault(s.name, i)) != i
    ]
    if repeats:
        raise ConfigError(f"{context}: " + "; ".join(repeats))
    with _blame(f"{context}: run"):
        horizon = run_raw.get("horizon_min")
        return scenarios, RunOptions(
            seed=_number(run_raw.get("seed", RunOptions.seed), "seed", least=0),
            reps=_number(run_raw.get("reps", RunOptions.reps), "reps", least=1),
            horizon=None if horizon is None else _number(horizon, "horizon_min", positive=True),
        )


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


def _number(value, name: str, least: int | None = None, positive: bool = False):
    """`value` as an int if `least` is given, else as a float, if it keeps its rule.

    The rule is a whole number >= least if `least` is given, a finite number
    > 0 if `positive`, and any number otherwise; a value that breaks it is a
    ValueError naming `name`. The float rules refuse an int a float cannot
    hold, giving its size, as the repr of so long an int may itself fail.
    """
    if least is None and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must fit in a float, got an integer of {value.bit_length()} bits")
    if least is not None:
        rule = f"a whole number >= {least}"
        ok = _is_number(value) and value % 1 == 0 and value >= least  # NaN and inf % 1 are NaN
    elif positive:
        rule = "finite and positive"
        ok = _is_number(value) and 0 < value <= sys.float_info.max
    else:
        rule = "a number"
        ok = _is_number(value)
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value) if least is not None else float(value)  # an int stays exact


def with_penalty(scenario: Scenario, c: float) -> Scenario:
    """Scenario copy with a different waiting-time penalty rate."""
    return replace(scenario, econ=replace(scenario.econ, c=c))


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (table1, fig4)."""
    ref = resources.files("evstation.data").joinpath(f"{name}.json")
    return Path(str(ref))
