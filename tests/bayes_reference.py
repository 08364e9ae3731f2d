"""Scalar direct-Bayes reference for the simulator's posterior recursion.

The package updates beliefs in one place, the batched
``quickwake.sim._belief_step``.  The functions here do the same slot one
belief and one reading vector at a time, in plain Python floats, so the
tests can compare the two:

    predicted = pi + (1 - pi) * p
    logit(pi') = logit(predicted) + sum_i llr(x_i)

A predicted belief of exactly 1 (or 0) stays there whatever is observed.
"""

import math

import numpy as np

from quickwake.dp import EPS


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


def posterior_update(pi: float, p: float, observations, model) -> float:
    """One slot: predict, then condition on the awake sensors' readings.

    An empty observation vector (all sensors asleep) is prediction alone.
    """
    x = np.atleast_1d(np.asarray(observations, dtype=float))
    predicted = pi + (1.0 - pi) * p
    if x.size == 0:
        return predicted
    if predicted >= 1.0:
        return 1.0
    if predicted <= 0.0:
        return 0.0
    total_llr = float(np.sum(model.log_likelihood_ratio(x)))
    return sigmoid(logit(predicted) + total_llr)


def sufficient_statistic_update(pi: float, p: float, m: int, s: float, model) -> float:
    """The same slot from the sum ``s`` of ``m >= 1`` equal-variance
    Gaussian readings, whose joint log likelihood ratio is

        ((mu1 - mu0) * s - m * (mu1**2 - mu0**2) / 2) / sigma**2
    """
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
