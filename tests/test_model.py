import math

import numpy as np
import pytest
from scipy import stats

from quickwake import ChangePrior, Costs, Problem, SensorModel

from bayes_reference import prior_mass


def test_log_pdf_matches_scipy():
    model = SensorModel(mu0=0.3, sigma0=1.2, mu1=-0.7, sigma1=0.5)
    x = np.linspace(-6.0, 6.0, 41)
    np.testing.assert_allclose(
        model.log_pdf("pre", x), stats.norm.logpdf(x, 0.3, 1.2), atol=1e-12
    )
    np.testing.assert_allclose(
        model.log_pdf("post", x), stats.norm.logpdf(x, -0.7, 0.5), atol=1e-12
    )


def test_log_likelihood_ratio_is_log_density_ratio():
    model = SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=1.0)
    x = np.array([-2.0, 0.0, 0.5, 3.0])
    expected = stats.norm.logpdf(x, 1.0, 1.0) - stats.norm.logpdf(x, 0.0, 1.0)
    np.testing.assert_allclose(model.log_likelihood_ratio(x), expected, atol=1e-12)
    # Equal variance: LLR is linear in x with slope (mu1 - mu0) / sigma^2.
    llr = model.log_likelihood_ratio(x)
    np.testing.assert_allclose(np.diff(llr) / np.diff(x), 1.0, atol=1e-12)


def test_log_pdf_far_tail_stays_finite():
    model = SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=1.0)
    assert np.isfinite(model.log_pdf("pre", 1e9))


def test_sample_regime_and_shape():
    model = SensorModel(mu0=0.0, sigma0=1.0, mu1=5.0, sigma1=0.1)
    rng = np.random.default_rng(0)
    xs = model.sample("post", 1000, rng)
    assert xs.shape == (1000,)
    assert abs(float(xs.mean()) - 5.0) < 0.05


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu0=0.0, sigma0=0.0, mu1=1.0, sigma1=1.0),
        dict(mu0=0.0, sigma0=-1.0, mu1=1.0, sigma1=1.0),
        dict(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=math.inf),
        dict(mu0=math.nan, sigma0=1.0, mu1=1.0, sigma1=1.0),
        dict(mu0=1.0, sigma0=2.0, mu1=1.0, sigma1=2.0),
    ],
)
def test_sensor_model_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        SensorModel(**kwargs)


def test_regime_name_checked():
    model = SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=1.0)
    with pytest.raises(ValueError, match="regime"):
        model.log_pdf("after", 0.0)


def test_equal_variance_flag():
    assert SensorModel(0.0, 1.0, 1.0, 1.0).equal_variance
    assert not SensorModel(0.0, 1.0, 1.0, 2.0).equal_variance


def test_prior_mass_sums_to_one():
    prior = ChangePrior(rho=0.2, p=0.05)
    total = sum(prior_mass(prior, k) for k in range(4000))
    assert abs(total - 1.0) < 1e-12
    assert prior_mass(prior, 0) == 0.2
    assert prior_mass(prior, 1) == pytest.approx(0.8 * 0.05)
    assert prior_mass(prior, 3) == pytest.approx(0.8 * 0.95**2 * 0.05)


@pytest.mark.parametrize("rho,p", [(-0.1, 0.5), (1.1, 0.5), (0.0, 0.0), (0.0, 1.5)])
def test_change_prior_bounds(rho, p):
    with pytest.raises(ValueError):
        ChangePrior(rho=rho, p=p)


def test_costs_bounds():
    Costs(lambda_s=0.0, lambda_f=1.0)  # free sensing is allowed
    with pytest.raises(ValueError):
        Costs(lambda_s=-0.5, lambda_f=1.0)
    with pytest.raises(ValueError):
        Costs(lambda_s=0.5, lambda_f=0.0)


def test_problem_key_is_stable_and_sensitive(problem):
    assert problem.key() == Problem(
        model=SensorModel(0.0, 1.0, 1.0, 1.0),
        prior=ChangePrior(0.0, 0.01),
        costs=Costs(0.5, 100.0),
        n=10,
    ).key()
    other = Problem(
        model=SensorModel(0.0, 1.0, 1.0, 1.0),
        prior=ChangePrior(0.0, 0.02),
        costs=Costs(0.5, 100.0),
        n=10,
    )
    assert other.key() != problem.key()
    assert len(problem.key()) == 16


def test_problem_requires_integer_n(problem):
    parts = dict(model=problem.model, prior=problem.prior, costs=problem.costs)
    for bad in (0, 2.5, 1.5, True):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            Problem(**parts, n=bad)
    # Any integer type is a count; it is stored as a plain int, so the
    # key matches the same instance's.
    wide = Problem(**parts, n=np.int64(10))
    assert type(wide.n) is int
    assert wide.key() == Problem(**parts, n=10).key()
