"""Posterior recursion for the change-point belief.

The scheduler's state is the scalar belief ``pi = P(change by now | data)``.
One slot ahead the change may fire with hazard ``p``, so the predicted
belief is ``pi + (1 - pi) * p``.  Conditioning on the slot's observations
multiplies in the likelihood ratio of every awake sensor; in logit form

    logit(pi') = logit(pi_predicted) + sum_i llr(x_i)

which is how the update is computed here, since products of far-tail
densities underflow long before their log-odds do.  A belief of exactly
one is absorbing.  Once the scheduler has declared the change, the process
is stopped and carries the distinguished marker ``TERMINAL`` instead of a
number; belief operations reject it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SensorModel

# Clamp bound applied to beliefs before log-odds arithmetic only. Stored
# beliefs are never clamped.
EPS = 1e-15


class _Terminal:
    """Marker for a stopped process; not a belief value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TERMINAL"


TERMINAL = _Terminal()


def _check_belief(pi) -> float:
    if pi is TERMINAL or isinstance(pi, _Terminal):
        raise ValueError("predict on stopped process")
    pi = float(pi)
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {pi!r}")
    return pi


def logit(pi: float) -> float:
    """Log-odds of ``pi``, clamped to +/- logit(1 - EPS) at the endpoints."""
    pi = min(max(pi, EPS), 1.0 - EPS)
    return math.log(pi) - math.log1p(-pi)


def sigmoid(x: float) -> float:
    """Inverse logit, exact at the float endpoints for large ``|x|``."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def posterior_update(pi, p: float, observations, model: SensorModel) -> float:
    """One full slot of the belief recursion.

    Predicts one step ahead, then conditions on the awake sensors' samples.
    An empty observation vector (all sensors asleep) reduces to prediction.

    Args:
        pi: Belief at the current slot, or TERMINAL (rejected).
        p: Per-slot change hazard.
        observations: Samples from the awake sensors this slot; may be empty.
        model: Observation densities supplying the log likelihood ratio.

    Returns:
        Updated belief in [0, 1].  A belief of 1 stays at 1 no matter what
        is observed.

    Raises:
        ValueError: On a terminal input or a non-finite observation.
    """
    pi = _check_belief(pi)
    x = np.atleast_1d(np.asarray(observations, dtype=float))
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    predicted = pi + (1.0 - pi) * p
    if x.size == 0:
        return predicted
    if predicted >= 1.0:
        return 1.0
    if predicted <= 0.0:
        return 0.0
    total_llr = float(np.sum(model.log_likelihood_ratio(x)))
    return sigmoid(logit(predicted) + total_llr)


def sufficient_statistic_update(
    pi, p: float, m: int, s: float, model: SensorModel
) -> float:
    """Belief update from the sum of ``m`` equal-variance Gaussian samples.

    With sigma0 == sigma1 == sigma the joint likelihood ratio of the slot
    depends on the samples only through their sum ``s``:

        llr = ((mu1 - mu0) * s - m * (mu1**2 - mu0**2) / 2) / sigma**2

    Args:
        pi: Belief at the current slot, or TERMINAL (rejected).
        p: Per-slot change hazard.
        m: Number of awake sensors, >= 1.
        s: Sum of their observations.
        model: Gaussian densities; must have equal variances.

    Raises:
        ValueError: If the variances differ ("no scalar sufficient
            statistic"), on m < 1, or on non-finite ``s``.
    """
    pi = _check_belief(pi)
    if not model.equal_variance:
        raise ValueError("no scalar sufficient statistic: sigma0 != sigma1")
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    predicted = pi + (1.0 - pi) * p
    if predicted >= 1.0:
        return 1.0
    if predicted <= 0.0:
        return 0.0
    var = model.sigma0 * model.sigma0
    total_llr = (
        (model.mu1 - model.mu0) * s - m * (model.mu1**2 - model.mu0**2) / 2.0
    ) / var
    return sigmoid(logit(predicted) + total_llr)
