import tracemalloc
import warnings

import numpy as np
import pytest

from evstation import (
    DomainError,
    blocking_probability,
    build_generator,
    erlang_blocking,
    erlang_steady_state,
    occupancy_marginal,
    steady_state,
)
from evstation.cli import cli_dispatch
from evstation.optimizer import N_CAP


def test_state_space_size():
    for n in (1, 2, 3, 5):
        chain = build_generator(n, 0.5, 2.0)
        assert len(chain.states) == (n + 1) * (n + 2) // 2


def test_row_sums_zero():
    for n in (1, 2, 4):
        chain = build_generator(n, 1.3, 0.7)
        sums = np.sum(chain.generator, axis=1)
        assert np.max(np.abs(sums)) < 1e-12


def test_n1_structure():
    chain = build_generator(1, 0.5, 2.0)  # kappa = 2 / t_v = 1
    assert set(chain.states) == {(0, 0), (0, 1), (1, 1)}
    kappa = 2.0 / 2.0
    # First-stage completion (1,1) -> (0,1) at rate s1 (1 - r1) kappa = 2 kappa.
    first, second = chain.states.index((1, 1)), chain.states.index((0, 1))
    assert chain.generator[first, second] == pytest.approx(2.0 * kappa)


def test_n2_hand_constructed_generator():
    lam, t_v = 1.0, 1.0
    kappa = 2.0 / t_v  # 2.0; branch weights r1 = -1, r2 = 5/4
    chain = build_generator(2, lam, t_v)
    expected = {
        ((0, 0), (1, 1)): 1.0,
        ((0, 0), (0, 0)): -1.0,
        ((0, 1), (1, 1)): -0.5,
        ((0, 1), (0, 0)): 2.5,
        ((0, 1), (1, 2)): 1.0,
        ((0, 1), (0, 1)): -3.0,
        ((0, 2), (1, 2)): -1.0,
        ((0, 2), (0, 1)): 5.0,
        ((0, 2), (0, 2)): -4.0,
        ((1, 1), (0, 1)): 4.0,
        ((1, 1), (0, 0)): -2.0,
        ((1, 1), (2, 2)): 1.0,
        ((1, 1), (1, 1)): -3.0,
        ((1, 2), (0, 2)): 4.0,
        ((1, 2), (0, 1)): -2.0,
        ((1, 2), (2, 2)): -0.5,
        ((1, 2), (1, 1)): 2.5,
        ((1, 2), (1, 2)): -4.0,
        ((2, 2), (1, 2)): 8.0,
        ((2, 2), (1, 1)): -4.0,
        ((2, 2), (2, 2)): -4.0,
    }
    got = np.zeros_like(chain.generator)
    for (src, dst), rate in expected.items():
        got[chain.states.index(src), chain.states.index(dst)] = rate
    assert np.allclose(chain.generator, got, atol=1e-12)
    assert kappa == 2.0


def test_steady_state_normalized():
    chain = build_generator(3, 0.8, 1.5)
    pi = steady_state(chain)
    assert float(np.sum(pi)) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(pi @ chain.generator)) < 1e-10


def test_low_traffic_mass_at_empty():
    chain = build_generator(1, 1e-8, 1.0)
    pi = steady_state(chain)
    assert pi[chain.states.index((0, 0))] == pytest.approx(1.0, abs=1e-6)


def test_two_state_blocking():
    # n = 1 with offered load 1 blocks half the arrivals.
    chain = build_generator(1, 1.0, 1.0)
    assert blocking_probability(chain) == pytest.approx(0.5, abs=1e-10)


def test_marginals_match_closed_form():
    # The chain's occupancy marginal reproduces the loss-system distribution.
    for n in range(1, 6):
        for a in (0.5, 1.0, 2.0):
            lam = 1.0
            t_v = a / lam
            chain = build_generator(n, lam, t_v)
            marginal = occupancy_marginal(chain)
            expected = erlang_steady_state(n, a)
            assert np.max(np.abs(marginal - expected)) < 1e-8
            assert blocking_probability(chain) == pytest.approx(
                erlang_blocking(n, a), abs=1e-8
            )


def test_build_generator_domain():
    with pytest.raises(DomainError):
        build_generator(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        build_generator(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        build_generator(2, 1.0, 0.0)


def test_build_generator_caps_n():
    # The dense matrix has (n+1)(n+2)/2 rows; past N_CAP it is refused before allocating.
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="n must be in"):
            build_generator(N_CAP + 1, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    args = ["oracle", "ctmc", "--n", str(N_CAP + 1), "--lam", "1.0", "--t-v", "1.0"]
    assert cli_dispatch(args) == 1
    assert len(build_generator(N_CAP, 1.0, 1.0).states) == (N_CAP + 1) * (N_CAP + 2) // 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_build_generator_rejects_non_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        with pytest.raises(DomainError, match="lam"):
            build_generator(2, bad, 1.0)
        with pytest.raises(DomainError, match="t_v"):
            build_generator(2, 1.0, bad)


def test_steady_state_refuses_nan_solution(capsys):
    # At t_v = 1e-320 the stage rate 2/t_v overflows to inf and the solve
    # returns NaN everywhere; the residual check refuses it (exit 1), where
    # the CLI would otherwise fail to print it as JSON (exit 2).
    chain = build_generator(3, 0.5, 1e-320)
    with pytest.raises(DomainError, match="residual"):
        steady_state(chain)
    assert cli_dispatch(["oracle", "ctmc", "--n", "3", "--lam", "0.5", "--t-v", "1e-320"]) == 1
    assert capsys.readouterr().err.startswith("error: null-vector residual")
