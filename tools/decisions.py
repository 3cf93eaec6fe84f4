"""Print the optimizer's operating point (n*, d*, profit) at a fixed set of points.

Usage, from the root of a checkout:

    python3 tools/decisions.py [--src DIR]

Imports evstation from DIR (default: the `src/` of the checkout holding
this script) and searches every point in one `optimize_joap_many` batch:
the bundled table1 and fig4 scenarios at penalty rates c = 0.4 and 1.0,
then criterion 3's 200 random parameter sets (seed 20240521, drawn as
`tests/test_acceptance.py` draws them), each under both wait models.
Each output line is `<label>  n=<n*> d=<d*> profit=<predicted profit>`,
with d* and the profit written as repr, in a fixed order, so two
checkouts compare with one `diff`:

    python3 tools/decisions.py --src ../old/src > old.txt
    python3 tools/decisions.py > new.txt
    diff old.txt new.txt

Nothing is simulated; the output is the same on every run.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

CONFIGS = ("table1", "fig4")
PENALTIES = (0.4, 1.0)
SEED = 20240521  # criterion 3's seed
SETS = 200  # criterion 3's number of random parameter sets


def random_sets(count: int = SETS) -> list:
    """Criterion 3's first `count` (econ, station) draws, under the default wait model."""
    from evstation import EconomicParams, StationParams

    rng = np.random.default_rng(SEED)
    sets = []
    for _ in range(count):
        econ = EconomicParams(
            beta=rng.uniform(0.02, 0.1),
            phi=rng.uniform(30.0, 100.0),
            u_phi=rng.uniform(50.0, 150.0),
            p_e=rng.uniform(0.01, 0.12),
            c=rng.uniform(0.1, 1.0),
        )
        station = StationParams(
            m=int(rng.integers(2, 7)),
            alpha=rng.uniform(3.0, 22.0),
            parking_capacity=60,
            lam=rng.uniform(0.05, 0.5),
            tau=rng.uniform(1.01, 1.5),
        )
        sets.append((econ, station))
    return sets


def points() -> list:
    """(label, (econ, station)) for every operating point, in output order."""
    from evstation.config import bundled_config_path, load_config
    from evstation.economics import WAIT_MODELS

    labelled = []
    for config in CONFIGS:
        scenarios, _ = load_config(bundled_config_path(config))
        for c in PENALTIES:
            for s in scenarios:
                for model in WAIT_MODELS:
                    econ = replace(s.econ, c=c, wait_model=model)
                    labelled.append((f"{config}/{s.name}/c={c}/{model}", (econ, s.station)))
    for k, (econ, station) in enumerate(random_sets()):
        for model in WAIT_MODELS:
            labelled.append((f"criterion3/{k:03d}/{model}", (replace(econ, wait_model=model), station)))
    return labelled


def lines(labelled: list) -> list:
    """One `<label>  n=<n*> d=<d*> profit=<profit>` line per point, from one batch."""
    from evstation import optimize_joap_many

    plans = optimize_joap_many([point for _, point in labelled])
    return [
        f"{label}  n={plan.n_star} d={plan.d_star!r} profit={plan.predicted_profit!r}"
        for (label, _), plan in zip(labelled, plans)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src, help="directory holding evstation")
    src = parser.parse_args().src.resolve()
    if not (src / "evstation").is_dir():
        sys.exit(f"no evstation package under {src}")
    sys.path.insert(0, str(src))
    print(*lines(points()), sep="\n")


if __name__ == "__main__":
    main()
