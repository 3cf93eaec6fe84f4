"""Two-phase-chain verification of the loss-system occupancy distribution.

Each deterministic virtual server is replaced by a two-stage device with
stage rate kappa = 2/T_v and branching weights r1 = -1, r2 = 5/4. The
weights make some off-diagonal entries negative, so the matrix is a
moment-matching device rather than a probabilistic generator; only its
null-vector and the resulting occupancy marginals are meaningful. The
marginal over the total-busy coordinate reproduces the Erlang occupancy
distribution, which is what this module is used to check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economics import DomainError, _check_count
from .queueing import N_CAP

R1 = -1.0
R2 = 1.25


@dataclass(frozen=True)
class TwoPhaseChain:
    """State space and rate matrix of the two-phase server chain.

    States are pairs (s1, s2) with 0 <= s1 <= s2 <= n: s1 servers in the
    first stage, s2 - s1 in the second, s2 busy in total.
    """

    n: int
    states: tuple
    generator: np.ndarray


def build_generator(n: int, lam: float, t_v: float) -> TwoPhaseChain:
    """Assemble the (n+1)(n+2)/2-state rate matrix for n virtual servers.

    The matrix is dense, so n is capped at the searches' count cap N_CAP
    (2,145 states, about 37 MB); a larger n is rejected before allocating.
    """
    _check_count(n, "n")
    if n > N_CAP:
        raise DomainError(f"n must be in [1, {N_CAP}], got {n}")
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"lam must be finite and positive, got {lam}")
    if not (math.isfinite(t_v) and t_v > 0):
        raise DomainError(f"t_v must be finite and positive, got {t_v}")
    kappa = 2.0 / t_v
    states = tuple((s1, s2) for s2 in range(n + 1) for s1 in range(s2 + 1))
    idx = {st: k for k, st in enumerate(states)}
    size = len(states)
    gen = np.zeros((size, size))
    for (s1, s2), row in idx.items():
        if s1 >= 1:
            gen[row, idx[(s1 - 1, s2)]] += s1 * (1.0 - R1) * kappa
            gen[row, idx[(s1 - 1, s2 - 1)]] += s1 * R1 * kappa
        if s2 > s1:
            gen[row, idx[(s1 + 1, s2)]] += (s2 - s1) * (1.0 - R2) * kappa
            gen[row, idx[(s1, s2 - 1)]] += (s2 - s1) * R2 * kappa
        if s2 < n:
            gen[row, idx[(s1 + 1, s2 + 1)]] += lam
            gen[row, row] += -s2 * kappa - lam
        else:
            gen[row, row] += -s2 * kappa
    return TwoPhaseChain(n=n, states=states, generator=gen)


def steady_state(chain: TwoPhaseChain) -> np.ndarray:
    """Null vector x of the rate matrix (x G = 0) normalized to sum 1."""
    size = len(chain.states)
    a = chain.generator.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise DomainError("rate matrix is singular; chain appears reducible") from exc
    residual = np.max(np.abs(x @ chain.generator))
    if not residual <= 1e-10:  # written so that NaN fails it too
        raise DomainError(f"null-vector residual too large: {residual:.3e}")
    return x


def occupancy_marginal(chain: TwoPhaseChain) -> np.ndarray:
    """Steady-state marginal distribution of the total-busy coordinate s2.

    Its last entry, the mass on full occupancy (s2 = n), is the blocking
    probability.
    """
    # bincount adds each state's mass in state order, as a running sum would.
    busy = np.array(chain.states)[:, 1]
    return np.bincount(busy, weights=steady_state(chain), minlength=chain.n + 1)
