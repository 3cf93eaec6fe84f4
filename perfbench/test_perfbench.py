"""Tests of the benchmark itself: tracer arithmetic, rebinding, output checks.

    python3 -m pytest perfbench -q
"""
import json
import math
import sys
import types
from dataclasses import replace
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fakepkg():
    """fakepkg.low defines leaf(); fakepkg.high imports it by name and calls it."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    low.clock = clock
    exec(
        "def leaf(dt, fail=False):\n"
        "    clock.advance(dt)\n"
        "    if fail:\n"
        "        raise ValueError('boom')\n"
        "    return dt\n",
        low.__dict__,
    )
    high.clock = clock
    high.leaf = low.leaf  # as `from .low import leaf` would bind it
    exec(
        "def outer(fail=False):\n"
        "    clock.advance(1.0)\n"
        "    leaf(2.0)\n"
        "    clock.advance(3.0)\n"
        "    leaf(0.5, fail)\n"
        "    return 'done'\n",
        high.__dict__,
    )
    pkg.outer = high.outer
    pkg.leaf = low.leaf
    mods = {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high}
    sys.modules.update(mods)
    yield SimpleNamespace(clock=clock, pkg=pkg, low=low, high=high)
    for name in mods:
        sys.modules.pop(name, None)


def test_self_time_of_nested_calls(fakepkg):
    tracer = Tracer("fakepkg", ("low", "high"), clock=fakepkg.clock)
    with tracer:
        assert fakepkg.pkg.outer() == "done"
        fakepkg.clock.advance(10.0)  # between calls: no span covers it
        assert fakepkg.pkg.leaf(4.0) == 4.0

    functions = tracer.by_function()
    assert functions["high.outer"] == (1, pytest.approx(4.0))  # 6.5 total - 2.5 in leaf
    assert functions["low.leaf"] == (3, pytest.approx(6.5))  # 2 + 0.5 under outer, 4 at top
    assert tracer.by_layer() == {"low": pytest.approx(6.5), "high": pytest.approx(4.0)}
    # leaf is kept apart per calling context
    assert tracer.root.children["low.leaf"].calls == 1
    assert tracer.root.children["high.outer"].children["low.leaf"].calls == 2
    # Layer self times add up to the time inside top-level spans.
    assert tracer.root.child == pytest.approx(10.5)
    assert sum(tracer.by_layer().values()) == pytest.approx(tracer.root.child)


def test_errors_counted_where_they_leave_a_layer(fakepkg):
    tracer = Tracer("fakepkg", ("low", "high"), clock=fakepkg.clock)
    with tracer, pytest.raises(ValueError):
        fakepkg.pkg.outer(fail=True)
    assert tracer.errors == {"low": 1, "high": 1}
    assert tracer.by_function()["high.outer"] == (1, pytest.approx(4.0))
    assert len(tracer._stack) == 1


def test_observer_sees_results(fakepkg):
    seen = []
    tracer = Tracer("fakepkg", ("low",), {"low.leaf": lambda counts, r: seen.append(r)},
                    clock=fakepkg.clock)
    with tracer:
        fakepkg.pkg.outer()
    assert seen == [2.0, 0.5]
    assert "high.outer" not in tracer.by_function()


def _bindings(package):
    return {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
        for attr, obj in vars(module).items()
    }


def test_wrappers_rebind_every_import_and_restore_it():
    ev = run.import_evstation()
    before = _bindings("evstation")
    tracer = Tracer("evstation", run.LAYERS, run.OBSERVERS)
    tracer.install()
    try:
        during = _bindings("evstation")
        wrapped = {key for key in before if during[key] is not before[key]}
        # the defining module, the package and every `from .x import f` site
        for key in [("evstation.optimizer", "optimize_joap"), ("evstation", "optimize_joap"),
                    ("evstation.experiments", "optimize_joap"),
                    ("evstation.simulator", "per_ev_profit"),
                    ("evstation.config", "load_config")]:
            assert key in wrapped
        assert ("evstation.ctmc", "steady_state") not in wrapped  # ctmc is not measured
        assert ("evstation.optimizer", "_golden_max") not in wrapped  # private
        assert ("evstation.optimizer", "brentq") not in wrapped  # defined elsewhere
        ev.queueing.analyze_admission(3, 10.0, ev.StationParams(4, 11.5, 40, 0.3, 1.01))
        assert tracer.by_function()["queueing.analyze_admission"][0] == 1
        assert tracer.by_function()["queueing.erlang_steady_state"][0] == 1
    finally:
        tracer.uninstall()
    after = _bindings("evstation")
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_policy_check_flags_wrong_results():
    ev = run.import_evstation()
    good = ev.JoapPolicy(n_star=4, d_star=10.0, r_star=0.5, t_v=3.0, predicted_profit=2.0,
                         predicted_admit=0.9, predicted_wait=1.0)
    assert run.check_policy(good, good) == []
    off = replace(good, predicted_profit=2.0 + 1e-4)
    assert run.check_policy(off, good)
    nan = replace(good, predicted_wait=math.nan)
    assert run.check_policy(nan)


def test_admission_check_flags_wrong_results():
    good = [[3, 0.1, 35.0, 0.9, 0.905, 0.005]]
    assert run.check_admission_rows(good) == []
    assert run.check_admission_rows([[3, 0.1, 35.0, 0.9, 0.92, 0.02]])
    assert run.check_admission_rows([[3, 0.1, 35.0, math.nan, 0.9, math.nan]])


def _fake_daily(profit=10.0, n=4):
    metrics = SimpleNamespace(admission_rate=0.9, mean_wait=1.0, profit_per_hour=profit)
    row = SimpleNamespace(demand=5.0, price=0.4, metrics=metrics)
    return SimpleNamespace(
        daily_profit={"joap": profit}, admission_rate={"joap": 0.9}, mean_wait={"joap": 1.0},
        ratios={}, rows=[row], policies_by_scenario={("s", "joap"): {"n": n, "demand": 5.0}},
    )


def test_daily_check_flags_wrong_results():
    digest = {name: "aa" for name in run.DAILY_FILES}
    oracles = {"s": SimpleNamespace(n_star=4, d_star=5.0)}
    assert run.check_daily_report(_fake_daily(), digest, digest, oracles) == []
    assert run.check_daily_report(_fake_daily(), {**digest, "daily_summary.json": "bb"},
                                  digest, oracles)
    assert run.check_daily_report(_fake_daily(profit=math.inf), digest, digest, oracles)
    assert run.check_daily_report(_fake_daily(n=5), digest, digest, oracles)


def test_measure_records_raising_calls():
    class Flaky(run.Workload):
        min_calls = 5

        def call(self, i):
            if i == 2:
                raise RuntimeError("flaky")
            return i * 10

    calls = run.measure(Flaky(None, 0), seconds=0.0)
    assert [c.index for c in calls] == [0, 1, 2, 3, 4]
    assert [c.out for c in calls] == [0, 10, None, 30, 40]
    assert [c.index for c in calls if c.error] == [2]
    assert "RuntimeError: flaky" in calls[2].error


def test_latency_of_a_repeated_input_is_its_fastest_call():
    class Twice(run.Repeated):
        def call(self, key):
            return key

    w = Twice(None, 0)
    assert [w.key(i) for i in range(5)] == [0, 1, 0, 1, 0]
    calls = [run.Call(i, w.key(i), w.inputs(i), s) for i, s in enumerate([3.0, 5.0, 2.0, 4.0, 6.0])]
    assert sorted(run.best_seconds(calls)) == [2.0, 4.0]
    # every call of a plain workload is its own input
    assert sorted(run.best_seconds([run.Call(i, i, None, s) for i, s in enumerate([3.0, 1.0])])) \
        == [1.0, 3.0]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
