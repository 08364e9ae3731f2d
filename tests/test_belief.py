"""The simulator's posterior recursion, ``sim._belief_step``, against the
scalar direct-Bayes reference in ``bayes_reference`` and the textbook
ratio-of-densities form."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from quickwake import SensorModel
from quickwake.dp import _logit_array
from quickwake.sim import _belief_step

from bayes_reference import logit, posterior_update, sigmoid, sufficient_statistic_update

MODEL = SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=1.0)


def step(pi, p, xs, model=MODEL):
    """``_belief_step`` on one belief and its awake sensors' readings."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return float(_belief_step(model, np.array([pi]), p, np.array([xs.size]), xs[None, :])[0])


def test_logit_sigmoid_round_trip():
    for pi in (1e-12, 0.001, 0.3, 0.5, 0.8, 1 - 1e-12):
        assert sigmoid(logit(pi)) == pytest.approx(pi, rel=1e-12)
        assert _logit_array(np.array(pi)) == pytest.approx(logit(pi), rel=1e-14)
        assert expit(_logit_array(np.array(pi))) == pytest.approx(pi, rel=1e-12)
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    # Both clamp the log-odds at the endpoints the same way.
    np.testing.assert_array_equal(_logit_array(np.array([0.0, 1.0])), [logit(0.0), logit(1.0)])


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
    """Logit-space recursions, the simulator's and the reference's, against
    the textbook ratio-of-densities form."""
    rng = np.random.default_rng(42)
    p = 0.05
    for _ in range(200):
        pi = float(rng.uniform(0.001, 0.999))
        xs = rng.normal(0.3, 1.0, size=int(rng.integers(1, 6)))
        pred = pi + (1 - pi) * p
        num = pred * np.prod(stats.norm.pdf(xs, MODEL.mu1, MODEL.sigma1))
        den = num + (1 - pred) * np.prod(stats.norm.pdf(xs, MODEL.mu0, MODEL.sigma0))
        direct = num / den
        assert step(pi, p, xs) == pytest.approx(direct, abs=1e-12)
        assert posterior_update(pi, p, xs, MODEL) == pytest.approx(direct, abs=1e-12)


def test_posterior_update_empty_observations_is_prediction():
    got = _belief_step(MODEL, np.array([0.2]), 0.1, np.array([0]), np.zeros((1, 3)))
    assert got[0] == 0.2 + 0.8 * 0.1
    assert posterior_update(0.2, 0.1, [], MODEL) == pytest.approx(0.2 + 0.8 * 0.1)


def test_posterior_absorbing_at_one():
    # Even wildly pre-change-looking data cannot leave the absorbing state.
    assert step(1.0, 0.0, [-50.0, -50.0]) == 1.0
    assert posterior_update(1.0, 0.0, [-50.0, -50.0], MODEL) == 1.0


def test_sufficient_statistic_equals_full_update():
    """Summing equal-variance samples must lose nothing."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        pi = float(rng.uniform(0.01, 0.99))
        m = int(rng.integers(1, 8))
        xs = rng.normal(0.5, 1.0, size=m)
        full = step(pi, 0.02, xs)
        summed = _belief_step(MODEL, np.array([pi]), 0.02, np.array([m]), np.array([xs.sum()]))
        assert summed[0] == pytest.approx(full, abs=1e-12)
        ref = sufficient_statistic_update(pi, 0.02, m, float(xs.sum()), MODEL)
        assert ref == pytest.approx(posterior_update(pi, 0.02, xs, MODEL), abs=1e-12)


def test_extreme_observations_do_not_overflow():
    # Far-tail sample: densities underflow but log-odds arithmetic holds.
    for x, want in ((1e6, 1.0), (-1e6, 0.0)):
        assert step(0.5, 0.01, [x]) == want
        assert posterior_update(0.5, 0.01, [x], MODEL) == want


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
    beliefs = _belief_step(MODEL, np.full(draws, pi), p, np.full(draws, m), xs)
    se = beliefs.std(ddof=1) / math.sqrt(draws)
    assert abs(float(beliefs.mean()) - pred) < 4 * se + 1e-4
