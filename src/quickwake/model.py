"""Problem data for quickest change detection with sleep-wake scheduling.

A fusion centre watches ``n`` identical sensors for a disruption that
arrives at a random slot ``T``: with probability ``rho`` the disruption is
already present at slot zero, otherwise it arrives at slot ``k >= 1`` with
the geometric law ``(1 - rho) * (1 - p)**(k-1) * p``.  Before the change a
sensor observation is drawn from the pre-change density, afterwards from
the post-change density.  Keeping a sensor awake for one slot costs
``lambda_s`` and declaring the change before it happens costs ``lambda_f``;
undetected change slots cost one unit each.

All likelihood arithmetic downstream happens in log space.  The Monte
Carlo build and the simulator read a model only through ``sample(regime,
size, rng)`` and ``log_likelihood_ratio(x)``, so any object with those
two methods can stand in for :class:`SensorModel` for non-Gaussian data.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

_REGIMES = ("pre", "post")


def _check_regime(regime: str) -> None:
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}, got {regime!r}")


def _is_integer(value) -> bool:
    """Any integer type (numpy's too) but bool, a flag rather than a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SensorModel:
    """Gaussian pre/post observation densities shared by every sensor.

    Attributes:
        mu0: Pre-change mean.
        sigma0: Pre-change standard deviation, strictly positive.
        mu1: Post-change mean.
        sigma1: Post-change standard deviation, strictly positive.
    """

    mu0: float
    sigma0: float
    mu1: float
    sigma1: float

    def __post_init__(self) -> None:
        for name in ("sigma0", "sigma1"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("mu0", "mu1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.mu0 == self.mu1 and self.sigma0 == self.sigma1:
            raise ValueError(
                "pre and post densities are identical; the change would be invisible"
            )

    @property
    def equal_variance(self) -> bool:
        return self.sigma0 == self.sigma1

    def _params(self, regime: str) -> tuple[float, float]:
        _check_regime(regime)
        if regime == "pre":
            return self.mu0, self.sigma0
        return self.mu1, self.sigma1

    def log_pdf(self, regime: str, x):
        """Log density of one observation under the given regime.

        Stays finite for any finite ``x``; far tails underflow only after
        exponentiation, never into NaN.
        """
        mu, sigma = self._params(regime)
        z = (np.asarray(x, dtype=float) - mu) / sigma
        return -0.5 * z * z - math.log(sigma) - 0.5 * _LOG_2PI

    def log_likelihood_ratio(self, x):
        """log f_post(x) - log f_pre(x), vectorized over ``x``."""
        return self.log_pdf("post", x) - self.log_pdf("pre", x)

    def sample(self, regime: str, size: int, rng: np.random.Generator):
        mu, sigma = self._params(regime)
        return mu + sigma * rng.standard_normal(size)


@dataclass(frozen=True)
class ChangePrior:
    """Change-time law: mass ``rho`` at zero, geometric(p) on {1, 2, ...}."""

    rho: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p!r}")


@dataclass(frozen=True)
class Costs:
    """Per-sensor-slot observation cost and false-alarm penalty."""

    lambda_s: float
    lambda_f: float

    def __post_init__(self) -> None:
        if not (self.lambda_s >= 0.0 and math.isfinite(self.lambda_s)):
            raise ValueError(f"lambda_s must be finite and >= 0, got {self.lambda_s!r}")
        if not (self.lambda_f > 0.0 and math.isfinite(self.lambda_f)):
            raise ValueError(f"lambda_f must be finite and > 0, got {self.lambda_f!r}")


@dataclass(frozen=True)
class Problem:
    """A complete instance: densities, change prior, costs, sensor count."""

    model: SensorModel
    prior: ChangePrior
    costs: Costs
    n: int

    def __post_init__(self) -> None:
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        # A plain int, so that key() serialises it.
        object.__setattr__(self, "n", int(self.n))

    def fields(self) -> dict:
        """The nine scalars that define the instance, named as in a run config."""
        return {
            "n": self.n,
            "rho": self.prior.rho,
            "p": self.prior.p,
            "lambda_s": self.costs.lambda_s,
            "lambda_f": self.costs.lambda_f,
            "mu0": self.model.mu0,
            "sigma0": self.model.sigma0,
            "mu1": self.model.mu1,
            "sigma1": self.model.sigma1,
        }

    def key(self) -> str:
        """Stable digest of the instance, used to pair artifacts on disk."""
        blob = json.dumps(self.fields(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

