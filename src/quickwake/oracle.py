"""Brute-force finite-horizon ground truth on tiny discrete instances.

The production solver discretizes the belief space; this module does
not.  On a binary observation alphabet with a short horizon, the full
observation-history tree is small enough to enumerate, so the optimal
nonstationary policy's expected cost can be computed by backward
induction over raw histories with no interpolation anywhere.  Agreement
between the two is the package's strongest correctness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dp import LikelihoodAtoms
from .model import ChangePrior, Costs, _is_integer

MAX_HORIZON = 4
MAX_SENSORS = 2
PMF_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DiscreteInstance:
    """Binary-observation change-detection instance small enough to enumerate.

    ``g0`` and ``g1`` are the pre- and post-change pmfs over the alphabet
    {0, 1}, given as (P[X=0], P[X=1]) in any sequence and kept as tuples
    of floats.
    """

    horizon: int
    n: int
    g0: tuple
    g1: tuple
    rho: float
    p: float
    lambda_s: float
    lambda_f: float

    def __post_init__(self) -> None:
        if not (_is_integer(self.horizon) and 0 <= self.horizon <= MAX_HORIZON):
            raise ValueError(
                f"enumeration bound exceeded: horizon must be 0..{MAX_HORIZON}, "
                f"got {self.horizon!r}"
            )
        if not (_is_integer(self.n) and 1 <= self.n <= MAX_SENSORS):
            raise ValueError(
                f"enumeration bound exceeded: n must be 1..{MAX_SENSORS}, got {self.n!r}"
            )
        for name in ("g0", "g1"):
            pmf = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, pmf)
            if len(pmf) != 2 or not all(0.0 <= v <= 1.0 for v in pmf):  # NaN fails too
                raise ValueError(f"{name} must be two masses in [0, 1]")
            if abs(sum(pmf) - 1.0) > PMF_TOLERANCE:
                raise ValueError(f"{name} must sum to 1, got {sum(pmf)!r}")
        if self.g0 == self.g1:
            raise ValueError("g0 and g1 are identical; the change would be invisible")
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "n", int(self.n))
        # The prior and the costs take a Problem's checks.
        ChangePrior(self.rho, self.p)
        Costs(self.lambda_s, self.lambda_f)


def brute_force_value(instance: DiscreteInstance, pi0: float) -> float:
    """Optimal expected cost with ``horizon`` slots left, starting at ``pi0``.

    Backward induction over the raw outcome tree: at every reachable
    history the policy chooses stop or (continue, m), and each of the
    2^m outcome tuples branches the tree.  Beliefs are carried as plain
    floats along each branch; nothing is discretized.  At the horizon
    stopping is forced.
    """
    if not 0.0 <= pi0 <= 1.0:
        raise ValueError(f"pi0 must lie in [0, 1], got {pi0!r}")
    g0, g1 = instance.g0, instance.g1
    p = instance.p
    lam_s, lam_f = instance.lambda_s, instance.lambda_f

    def value(pi: float, slots_left: int) -> float:
        stop = lam_f * (1.0 - pi)
        if slots_left == 0:
            return stop
        predicted = pi + (1.0 - pi) * p
        best_continue = math.inf
        for m in range(instance.n + 1):
            if m == 0:
                cont = value(predicted, slots_left - 1)
            else:
                cont = 0.0
                for outcome in product((0, 1), repeat=m):
                    like0 = math.prod(g0[o] for o in outcome)
                    like1 = math.prod(g1[o] for o in outcome)
                    mass = predicted * like1 + (1.0 - predicted) * like0
                    if mass == 0.0:
                        continue
                    posterior = predicted * like1 / mass
                    cont += mass * value(posterior, slots_left - 1)
            total = lam_s * m + cont
            if total < best_continue:
                best_continue = total
        return min(stop, pi + best_continue)

    return value(float(pi0), instance.horizon)


def likelihood_atoms(instance: DiscreteInstance) -> LikelihoodAtoms:
    """Exact per-count log-likelihood-ratio laws for the binary alphabet.

    The m-sensor joint ratio depends only on how many sensors report 1,
    so each regime's law has m + 1 atoms with binomial weights.  Feeding
    these to the grid solver makes its expectation step exact, isolating
    belief discretization as the only difference from the oracle.
    """
    g0, g1 = instance.g0, instance.g1
    if min(*g0, *g1) <= 0.0:
        raise ValueError("atoms need strictly positive pmfs; a zero mass sends the ratio to infinity")
    llr_per = (math.log(g1[0] / g0[0]), math.log(g1[1] / g0[1]))
    llr0, w0, llr1, w1 = [np.empty(0)], [np.empty(0)], [np.empty(0)], [np.empty(0)]
    for m in range(1, instance.n + 1):
        counts = np.arange(m + 1)
        comb = np.array([math.comb(m, int(c)) for c in counts], dtype=float)
        llrs = counts * llr_per[1] + (m - counts) * llr_per[0]
        llr0.append(llrs)
        w0.append(comb * g0[1] ** counts * g0[0] ** (m - counts))
        llr1.append(llrs)
        w1.append(comb * g1[1] ** counts * g1[0] ** (m - counts))
    return LikelihoodAtoms(
        n=instance.n, llr0=tuple(llr0), w0=tuple(w0), llr1=tuple(llr1), w1=tuple(w1)
    )
