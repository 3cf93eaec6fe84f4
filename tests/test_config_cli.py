import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import evstation
import evstation.cli as cli
from evstation.cli import cli_dispatch
from evstation.config import (
    ConfigError,
    RunOptions,
    bundled_config_path,
    load_config,
    parse_config,
    with_penalty,
)
from evstation.experiments import POLICY_NAMES, run_daily_experiment


def valid_raw():
    return {
        "schema_version": 1,
        "station": {"m": 4, "alpha_kw": 11.5, "parking_capacity": 40, "tau": 1.01},
        "economics": {"beta": 0.05, "phi_kwh": 100.0, "u_phi": 100.0, "penalty_rate": 0.4},
        "run": {"seed": 7, "reps": 10},
        "scenarios": [
            {"name": "a", "lambda_per_min": 0.3, "p_e_mwh": 60.0, "duration_min": 240.0}
        ],
    }


def valid_raw_with(path, value):
    """valid_raw() with `value` put at `path`, a sequence of keys and indices."""
    raw = valid_raw()
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw


def test_bundled_table1_scenarios(table1):
    scenarios, run = table1
    assert len(scenarios) == 6
    pairs = [(s.station.lam, round(s.econ.p_e * 1000)) for s in scenarios]
    assert pairs == [(0.3, 60), (0.4, 90), (0.4, 80), (0.4, 100), (0.3, 80), (0.1, 60)]
    assert all(s.duration == 240.0 for s in scenarios)
    assert all(s.econ.wait_model == "allen_cunneen" for s in scenarios)
    assert run.reps == 200


def test_unit_conversion():
    scenarios, _ = parse_config(valid_raw())
    assert scenarios[0].econ.p_e == pytest.approx(0.06)


def test_unknown_key_rejected():
    raw = valid_raw()
    raw["station"]["colour"] = "red"
    with pytest.raises(ConfigError, match="colour"):
        parse_config(raw)
    raw = valid_raw()
    raw["typo_block"] = {}
    with pytest.raises(ConfigError, match="typo_block"):
        parse_config(raw)


def test_empty_scenarios_rejected():
    raw = valid_raw()
    raw["scenarios"] = []
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(raw)


def test_duplicate_scenario_names_rejected():
    # The daily report keys its rows by scenario name, so a repeated name
    # would drop the earlier scenario's rows from policies_by_scenario.
    raw = json.loads(bundled_config_path("table1").read_text())
    raw["scenarios"][1]["name"] = raw["scenarios"][0]["name"]
    with pytest.raises(ConfigError, match=r"scenarios\[1\].*scenarios\[0\]"):
        parse_config(raw)
    raw = valid_raw()
    raw["scenarios"] = [dict(raw["scenarios"][0], name=name) for name in ("a", "b", "a", "b")]
    with pytest.raises(ConfigError, match=r"scenarios\[2\].*scenarios\[0\].*scenarios\[3\]"):
        parse_config(raw)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Where a value can go in valid_raw(): a whole block, a scenario, or one field.
CONFIG_SLOTS = (
    [("schema_version",), ("station",), ("economics",), ("run",), ("scenarios",), ("scenarios", 0)]
    + [("station", key) for key in ("m", "alpha_kw", "parking_capacity", "tau")]
    + [("economics", key) for key in ("beta", "phi_kwh", "u_phi", "penalty_rate", "wait_model")]
    + [("run", key) for key in ("seed", "reps", "horizon_min")]
    + [("scenarios", 0, key) for key in ("name", "lambda_per_min", "p_e_mwh", "duration_min")]
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(CONFIG_SLOTS), JSON_VALUES)
def test_parse_config_raises_only_config_error(path, value):
    # Any JSON value anywhere in a valid config either parses or is a
    # ConfigError, which the CLI reports as invalid input (exit 1).
    try:
        parse_config(valid_raw_with(path, value))
    except ConfigError:
        pass


def test_schema_version_checked():
    # True == 1 in Python, but a JSON boolean is no number; 1.0 is the whole number 1.
    for bad in (2, True, "1", None):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(valid_raw_with(("schema_version",), bad))
    assert parse_config(valid_raw_with(("schema_version",), 1.0)) == parse_config(valid_raw())


def test_invalid_values_reported():
    raw = valid_raw()
    raw["scenarios"][0]["lambda_per_min"] = -0.1
    with pytest.raises(ConfigError, match="scenarios\\[0\\]"):
        parse_config(raw)
    for block, key, bad in (
        ("scenario", "lambda_per_min", float("nan")),
        ("scenario", "duration_min", float("inf")),
        ("station", "tau", float("nan")),
        ("economics", "beta", float("inf")),
    ):
        raw = valid_raw()
        target = raw["scenarios"][0] if block == "scenario" else raw[block]
        target[key] = bad
        with pytest.raises(ConfigError, match="finite"):
            parse_config(raw)
    for key, bad in (
        ("horizon_min", float("inf")),
        ("horizon_min", float("nan")),
        ("horizon_min", -5),
        ("reps", 0),
        ("reps", 2.7),
        ("reps", float("nan")),
        ("seed", float("inf")),
        ("seed", -1),
    ):
        raw = valid_raw()
        raw["run"][key] = bad
        with pytest.raises(ConfigError, match=f"run: {key}"):
            parse_config(raw)
    # A block of the wrong JSON type, or a number field holding something
    # else (a JSON boolean included), is a ConfigError that names where it is.
    for path, bad, named in (
        (("station",), 5, ":station must be an object"),
        (("station",), ["m"], ":station must be an object"),
        (("economics",), None, ":economics must be an object"),
        (("run",), None, ":run must be an object"),
        (("scenarios",), [5], ":scenarios\\[0\\] must be an object"),
        (("scenarios", 0, "duration_min"), "abc", "scenarios\\[0\\]: duration_min"),
        (("scenarios", 0, "duration_min"), None, "scenarios\\[0\\]: duration_min"),
        (("scenarios", 0, "duration_min"), True, "scenarios\\[0\\]: duration_min"),
        (("scenarios", 0, "lambda_per_min"), True, "scenarios\\[0\\]: lambda_per_min"),
        (("economics", "beta"), True, "economics: beta"),
        (("station", "alpha_kw"), False, "station: alpha_kw"),
        # A station or economics field is its block's, not the first scenario's.
        (("station", "tau"), 0.5, "<config>: station: tau must be > 1"),
        (("run", "horizon_min"), True, "run: horizon_min"),
        # A quoted number is a string, not a number.
        (("economics", "beta"), "0.05", "economics: beta"),
        (("scenarios", 0, "lambda_per_min"), " 0.3 ", "scenarios\\[0\\]: lambda_per_min"),
        (("scenarios", 0, "duration_min"), "240", "scenarios\\[0\\]: duration_min"),
        (("station", "m"), "4", "station: m"),
        (("run", "reps"), "5", "run: reps"),
        (("run", "horizon_min"), "60", "run: horizon_min"),
        # Rows are keyed by name, which str() used to make of any JSON value.
        (("scenarios", 0, "name"), None, "scenarios\\[0\\]: name"),
        (("scenarios", 0, "name"), 5, "scenarios\\[0\\]: name"),
        (("scenarios", 0, "name"), {"a": 1}, "scenarios\\[0\\]: name"),
        (("scenarios", 0, "name"), ["a"], "scenarios\\[0\\]: name"),
        (("scenarios", 0, "name"), True, "scenarios\\[0\\]: name"),
        (("scenarios", 0, "name"), "", "scenarios\\[0\\]: name"),
    ):
        with pytest.raises(ConfigError, match=named):
            parse_config(valid_raw_with(path, bad))
    raw = valid_raw()
    raw["scenarios"].append(dict(raw["scenarios"][0]))
    for scenario in raw["scenarios"]:
        del scenario["name"]
    assert [s.name for s in parse_config(raw)[0]] == ["scenario-0", "scenario-1"]
    for key in ("alpha_kw", "m", "parking_capacity"):
        raw = valid_raw()
        del raw["station"][key]
        with pytest.raises(ConfigError, match=f"<config>: station: missing field '{key}'"):
            parse_config(raw)
    raw = valid_raw()
    raw["run"].update(seed=3.0, reps=2.0, horizon_min=60)
    assert parse_config(raw)[1] == RunOptions(seed=3, reps=2, horizon=60.0)
    # Port and lot counts are whole numbers too: neither is truncated.
    for key, bad in (
        ("m", 4.7),
        ("m", True),
        ("m", 0),
        ("m", "four"),
        ("parking_capacity", 40.9),
        ("parking_capacity", False),
        ("parking_capacity", float("nan")),
    ):
        raw = valid_raw()
        raw["station"][key] = bad
        with pytest.raises(ConfigError, match=f"station: {key} must be a whole number"):
            parse_config(raw)
    raw = valid_raw()
    raw["station"].update(m=4.0, parking_capacity=40.0)
    station = parse_config(raw)[0][0].station
    assert (station.m, station.parking_capacity) == (4, 40)
    assert type(station.m) is int and type(station.parking_capacity) is int


def test_first_problem_reported_alone(capsys):
    # Several bad fields report the first one, in reading order: the run
    # block is read after the scenarios, and --seed before --reps.
    raw = valid_raw()
    raw["scenarios"][0]["duration_min"] = -1
    raw["run"]["seed"] = -1
    with pytest.raises(ConfigError) as caught:
        parse_config(raw)
    assert str(caught.value) == "<config>: scenarios[0]: duration_min must be finite and positive, got -1"
    assert cli_dispatch(["simulate", "--config", "table1", "--seed", "-1", "--reps", "0"]) == 1
    assert capsys.readouterr().err == "error: --seed: seed must be a whole number >= 0, got -1\n"


def test_cli_non_finite_config_value(tmp_path, capsys):
    raw = valid_raw()
    raw["scenarios"][0]["lambda_per_min"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(raw))
    assert "NaN" in path.read_text()
    assert cli_dispatch(["optimize", "--config", str(path)]) == 1
    assert "lam must be finite" in capsys.readouterr().err


def test_cli_huge_integer_in_config(tmp_path, capsys):
    # float() cannot hold 10**400, and json.loads refuses a literal past
    # Python's int-string digit limit: each is an input error (exit 1), and
    # neither message prints the integer, whose repr meets the same limit.
    raw = valid_raw_with(("station", "alpha_kw"), 10**400)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(raw))
    assert cli_dispatch(["optimize", "--config", str(wide)]) == 1
    err = capsys.readouterr().err
    assert f"{wide}: station: alpha_kw" in err and "0" * 400 not in err
    long = tmp_path / "long.json"
    long.write_text(json.dumps(raw).replace(str(10**400), "9" * 5000))
    assert cli_dispatch(["optimize", "--config", str(long)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {long}: ") and "9" * 400 not in err


def test_cli_bad_penalty_names_its_flag(capsys):
    assert cli_dispatch(["optimize", "--config", "table1", "--penalty", "-1"]) == 1
    assert capsys.readouterr().err == "error: --penalty: c must be >= 0, got -1.0\n"


def test_cli_invalid_run_block(tmp_path, capsys):
    for key, bad in (("reps", float("nan")), ("seed", float("inf")), ("horizon_min", -5)):
        raw = valid_raw()
        raw["run"][key] = bad
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(raw))
        assert cli_dispatch(["simulate", "--config", str(path), "--policy", "qba"]) == 1
        assert f"run: {key}" in capsys.readouterr().err


def test_cli_seed_and_reps_follow_run_block_rules(monkeypatch, capsys):
    # The flags obey the run block's rules and fail as a ConfigError (exit 1)
    # before any policy is built or optimised.
    built = []
    monkeypatch.setattr(cli, "run_daily_experiment", lambda *args: built.append(args))
    for flag, bad in (("--seed", "-1"), ("--reps", "0")):
        assert cli_dispatch(["simulate", "--config", "table1", flag, bad]) == 1
        assert f"{flag}: {flag[2:]} must be a whole number" in capsys.readouterr().err
    assert built == []


def test_cli_non_whole_station_count(tmp_path, capsys):
    for key, bad in (("m", 4.7), ("parking_capacity", 40.9), ("m", True)):
        raw = valid_raw()
        raw["station"][key] = bad
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(raw))
        assert cli_dispatch(["optimize", "--config", str(path)]) == 1
        assert f"station: {key}" in capsys.readouterr().err


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)


def test_wait_model_parsed():
    scenarios, _ = parse_config(valid_raw())
    assert scenarios[0].econ.wait_model == "theorem1"  # key absent
    raw = valid_raw()
    raw["economics"]["wait_model"] = "allen_cunneen"
    scenarios, _ = parse_config(raw)
    assert scenarios[0].econ.wait_model == "allen_cunneen"
    raw["economics"]["wait_model"] = "kingman"
    with pytest.raises(ConfigError, match="wait_model"):
        parse_config(raw)


def test_cli_unknown_wait_model(tmp_path, capsys):
    raw = valid_raw()
    raw["economics"]["wait_model"] = "minutes"
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps(raw))
    assert cli_dispatch(["optimize", "--config", str(path)]) == 1
    assert "wait_model" in capsys.readouterr().err


def test_with_penalty(table1):
    scenarios, _ = table1
    changed = with_penalty(scenarios[0], 1.0)
    assert changed.econ.c == 1.0
    assert scenarios[0].econ.c == 0.4  # original untouched


def test_fig4_bundled():
    scenarios, _ = load_config(bundled_config_path("fig4"))
    assert scenarios[0].station.alpha == 3.3
    assert scenarios[0].econ.phi == 35.0


def test_cli_optimize_json(capsys):
    code = cli_dispatch(
        ["optimize", "--config", "table1", "--scenario", "0", "--penalty", "0.4"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {
        "n_star",
        "d_star",
        "r_star",
        "t_v",
        "predicted_profit",
        "predicted_admit",
        "predicted_wait",
    }


def test_cli_analyze(capsys):
    code = cli_dispatch(["analyze", "--config", "table1", "--n", "4", "--demand", "35"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 4
    assert 0 < out["p_admit"] <= 1


def test_cli_analyze_rejects_non_finite_demand(capsys):
    for demand in ("nan", "inf", "1e308"):
        assert cli_dispatch(["analyze", "--n", "3", "--demand", demand]) == 1
        assert capsys.readouterr().err.startswith("error: demand")


def test_cli_simulate(capsys):
    code = cli_dispatch(
        ["simulate", "--config", "table1", "--policy", "qba", "--reps", "3", "--seed", "1"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["policy"] == "qba"
    assert out["metrics"]["replication_count"] == 3
    # Each policy's output is its row of the whole day's run, scenario by scenario.
    scenarios, run = load_config(bundled_config_path("table1"))
    report = run_daily_experiment(scenarios, replace(run, seed=1, reps=3))
    for name in POLICY_NAMES:
        flags = ["--policy", name, "--scenario", "2", "--reps", "3", "--seed", "1"]
        assert cli_dispatch(["simulate", "--config", "table1", *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        [row] = [r for r in report.rows if (r.scenario, r.policy) == (scenarios[2].name, name)]
        assert (out["n"], out["demand_kwh"]) == (row.n, row.demand)
        assert out["metrics"] == json.loads(json.dumps(asdict(row.metrics)))


def test_cli_simulate_one_rep_strict_json(capsys):
    code = cli_dispatch(
        ["simulate", "--config", "table1", "--policy", "qba", "--reps", "1", "--seed", "1"]
    )
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert set(out["metrics"]["half_width_95"].values()) == {None}


def test_cli_oracle(capsys):
    code = cli_dispatch(["oracle", "ctmc", "--n", "2", "--lam", "1.0", "--t-v", "1.0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["blocking_ctmc"] - out["blocking_erlang"]) < 1e-8


def test_cli_missing_config(capsys):
    # Only a bare name reads as a bundled config: a missing path whose stem
    # names one (table1) is still a missing file.
    for path in ("/no/such/file.json", "/no/such/table1.json"):
        code = cli_dispatch(["optimize", "--config", path])
        assert code == 1
        assert path in capsys.readouterr().err


def test_cli_config_is_a_directory(tmp_path, capsys):
    # An unreadable config is an input error (exit 1) that names the path.
    assert cli_dispatch(["analyze", "--config", str(tmp_path), "--n", "4", "--demand", "35"]) == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_cli_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(valid_raw()).replace('"a"', '"caf\xe9"').encode("latin-1"))
    assert cli_dispatch(["analyze", "--config", str(path), "--n", "4", "--demand", "35"]) == 1
    assert str(path) in capsys.readouterr().err


def test_cli_unknown_subcommand(capsys):
    assert cli_dispatch(["frobnicate"]) == 1


def test_cli_runs_as_module():
    # python -m evstation.cli from a source checkout, with the package on PYTHONPATH.
    src = str(Path(evstation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "evstation.cli", *args], capture_output=True, text=True, env=env
        )

    ok = run("optimize", "--config", "table1")
    assert ok.returncode == 0, ok.stderr
    assert "n_star" in json.loads(ok.stdout)
    assert run("optimize", "--config", "table1", "--no-such-flag").returncode == 1


def test_import_loads_no_scipy_submodule():
    # evstation keeps only the bare scipy package, which loads no public submodule.
    src = str(Path(evstation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; import scipy; bare = set(sys.modules); import evstation, evstation.cli; "
        "print(sorted(m for m in set(sys.modules) - bare if m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_scenario_out_of_range(capsys):
    assert cli_dispatch(["optimize", "--config", "table1", "--scenario", "99"]) == 1


def test_cli_experiment_daily_writes_outputs(tmp_path, capsys):
    code = cli_dispatch(
        [
            "experiment",
            "daily",
            "--config",
            "table1",
            "--reps",
            "3",
            "--seed",
            "7",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    for name in ("daily_scenarios.csv", "daily_aggregate.csv", "daily_summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "daily_summary.json").read_text())
    assert set(summary["daily_profit"]) == {"joap", "qba", "greedy"}


def test_cli_experiment_out_not_a_directory(tmp_path, capsys):
    # An --out that names a file, or a path under one, is an input error
    # naming --out, not a runtime error (exit 2).
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert cli_dispatch(["experiment", "admission", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and "Errno" in err
    assert taken.read_text() == ""


@pytest.mark.parametrize(
    "which, flag, value",
    [
        ("admission", "--reps", "3"),
        ("admission", "--penalty", "0.4"),
        ("wait", "--penalty", "0.4"),
        ("analyze", "--seed", "3"),
        ("analyze", "--reps", "3"),
        ("analyze", "--penalty", "0.4"),
        ("optimize", "--seed", "3"),
        ("optimize", "--reps", "3"),
    ],
)
def test_cli_experiment_rejects_unread_flags(which, flag, value, tmp_path, capsys):
    # A flag a command does not read would change no output; it is refused, by name.
    out = tmp_path / "out"
    argv = {"analyze": ["analyze", "--n", "4", "--demand", "35"], "optimize": ["optimize"]}.get(
        which, ["experiment", which, "--out", str(out)]
    )
    assert cli_dispatch([*argv, flag, value]) == 1
    printed = capsys.readouterr()
    assert flag in printed.err
    assert printed.out == "" and not out.exists()


@pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--reps", "3"), ("--config", "fig4")])
def test_cli_experiment_flag_before_runner(flag, value, tmp_path, capsys):
    # A runner's flags follow its name; one given before it is refused by name,
    # with the order it takes.
    out = tmp_path / "out"
    assert cli_dispatch(["experiment", flag, value, "daily", "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert f"{flag} must follow the runner's name" in printed.err
    assert f"experiment daily {flag} {value}" in printed.err
    assert "invalid choice" not in printed.err
    assert printed.out == "" and not out.exists()


def test_cli_experiment_wait_reads_reps(monkeypatch, tmp_path, capsys):
    # --reps sets the wait runner's replications; without it the runner keeps
    # its own default, not the config's reps, which are the daily run's.
    seen = []

    def runner(*args, **kwargs):
        seen.append(kwargs.get("reps"))
        return []

    monkeypatch.setattr(cli, "run_wait_validation", runner)
    for extra in (["--reps", "3"], []):
        assert cli_dispatch(["experiment", "wait", *extra, "--out", str(tmp_path)]) == 0
    assert seen == [3, None]
