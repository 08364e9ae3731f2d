import math

import numpy as np
import pytest

from quickwake import (
    TERMINAL,
    SensorModel,
    logit,
    posterior_update,
    sigmoid,
    sufficient_statistic_update,
)
from quickwake.sim import _belief_step

MODEL = SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=1.0)


def test_logit_sigmoid_round_trip():
    for pi in (1e-12, 0.001, 0.3, 0.5, 0.8, 1 - 1e-12):
        assert sigmoid(logit(pi)) == pytest.approx(pi, rel=1e-12)
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0


@pytest.mark.parametrize("p", [0.02, 0.0])
def test_simulator_belief_step_matches_scalar_updates(p):
    """The simulator's batched slot update against the scalar recursions.

    Rows cover m = 0 (prediction only), pi = 1 (absorbing), pi = 0 (which
    stays at 0 when p = 0), readings whose log-likelihood ratios are
    +-1e3, and beliefs within EPS of 0 and 1, where both sides clamp the
    log-odds the same way.  MODEL's per-reading ratio is x - 1/2.
    """
    rng = np.random.default_rng(3)
    n = 4
    edge = [0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.3, np.nextafter(1.0, 0.0), 1e-20]
    pi = np.concatenate([edge, rng.uniform(0.0, 1.0, 31)])
    m = np.concatenate([[0, 2, 0, 3, 1, 1, 4, 1, 1], rng.integers(0, n + 1, 31)])
    x = rng.normal(0.5, 1.5, size=(pi.size, n))
    x[1] = x[4] = 1000.5
    x[3] = x[5] = -999.5
    x[6] = 250.5
    x[7, 0], x[8, 0] = -34.5, 35.5
    skewed = SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=1.5)
    for model in (MODEL, skewed):
        got = _belief_step(model, pi, p, m, x)
        want = [posterior_update(pi[i], p, x[i, : m[i]], model) for i in range(pi.size)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    s = x.sum(axis=1, where=np.arange(n) < m[:, None])
    got = _belief_step(MODEL, pi, p, m, s)
    want = [
        sufficient_statistic_update(pi[i], p, int(m[i]), s[i], MODEL) if m[i]
        else posterior_update(pi[i], p, [], MODEL)
        for i in range(pi.size)
    ]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert got[4] == 1.0 and got[5] == 0.0 and got[6] == 1.0
    assert got[3] == 1.0  # absorbing despite readings
    if p == 0.0:
        assert got[1] == 0.0
    # m = 0 is prediction alone, bit for bit: pi + (1 - pi) p.
    np.testing.assert_array_equal(got[m == 0], (pi + (1.0 - pi) * p)[m == 0])
    assert got[0] == p and got[2] == 1.0


def test_posterior_update_matches_direct_bayes():
    """Logit-space recursion against the textbook ratio-of-densities form."""
    rng = np.random.default_rng(42)
    p = 0.05
    for _ in range(200):
        pi = float(rng.uniform(0.001, 0.999))
        xs = rng.normal(0.3, 1.0, size=int(rng.integers(1, 6)))
        pred = pi + (1 - pi) * p
        num = pred * np.prod(MODEL.pdf("post", xs))
        den = num + (1 - pred) * np.prod(MODEL.pdf("pre", xs))
        direct = num / den
        assert posterior_update(pi, p, xs, MODEL) == pytest.approx(direct, abs=1e-12)


def test_posterior_update_empty_observations_is_prediction():
    assert posterior_update(0.2, 0.1, [], MODEL) == pytest.approx(0.2 + 0.8 * 0.1)


def test_posterior_absorbing_at_one():
    # Even wildly pre-change-looking data cannot leave the absorbing state.
    assert posterior_update(1.0, 0.0, [-50.0, -50.0], MODEL) == 1.0


def test_posterior_rejects_bad_inputs():
    with pytest.raises(ValueError, match="stopped process"):
        posterior_update(TERMINAL, 0.1, [0.0], MODEL)
    with pytest.raises(ValueError, match="finite"):
        posterior_update(0.5, 0.1, [math.inf], MODEL)
    with pytest.raises(ValueError):
        posterior_update(1.5, 0.1, [0.0], MODEL)


def test_sufficient_statistic_equals_full_update():
    """Summing equal-variance samples must lose nothing."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        pi = float(rng.uniform(0.01, 0.99))
        m = int(rng.integers(1, 8))
        xs = rng.normal(0.5, 1.0, size=m)
        full = posterior_update(pi, 0.02, xs, MODEL)
        summed = sufficient_statistic_update(pi, 0.02, m, float(xs.sum()), MODEL)
        assert summed == pytest.approx(full, abs=1e-12)


def test_sufficient_statistic_requires_equal_variance():
    skewed = SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=2.0)
    with pytest.raises(ValueError, match="sufficient statistic"):
        sufficient_statistic_update(0.5, 0.01, 2, 1.0, skewed)
    with pytest.raises(ValueError):
        sufficient_statistic_update(0.5, 0.01, 0, 1.0, MODEL)


def test_extreme_observations_do_not_overflow():
    # Far-tail sample: densities underflow but log-odds arithmetic holds.
    out = posterior_update(0.5, 0.01, [1e6], MODEL)
    assert out == 1.0
    out = posterior_update(0.5, 0.01, [-1e6], MODEL)
    assert out == 0.0


def test_martingale_property_monte_carlo():
    """E[next belief] equals the predicted belief under the mixture law."""
    rng = np.random.default_rng(123)
    pi, p, m = 0.3, 0.02, 3
    pred = pi + (1 - pi) * p
    draws = 200_000
    post = rng.normal(1.0, 1.0, size=(draws, m))
    pre = rng.normal(0.0, 1.0, size=(draws, m))
    changed = rng.random(draws) < pred
    xs = np.where(changed[:, None], post, pre)
    llr = MODEL.log_likelihood_ratio(xs).sum(axis=1)
    beliefs = 1.0 / (1.0 + np.exp(-(logit(pred) + llr)))
    se = beliefs.std(ddof=1) / math.sqrt(draws)
    assert abs(float(beliefs.mean()) - pred) < 4 * se + 1e-4
