"""Probabilistic link-stability models (paper Sec. VII.A).

The probability-model-based category builds a statistical model of the
wireless link between two vehicles and uses it as the routing metric.  The
paper lists the standard modelling assumptions: speed and acceleration are
normally distributed; the distance between consecutive vehicles is gamma,
normally or log-normally distributed; the received signal strength is
normally or log-normally distributed.  This module implements those models:

* headway (inter-vehicle distance) distributions and the connectivity
  probability they induce (used by CAR-style road-segment connectivity),
* the distribution of the residual link lifetime when the relative speed is
  normally distributed (used by GVGrid/Yan-style expected link duration),
* a :class:`LinkStabilityModel` facade that the routing protocols consume.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.geometry import Vec2


_SQRT2 = math.sqrt(2.0)


def _normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _normal_pdf(x: float) -> float:
    """Standard normal PDF."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# --------------------------------------------------------------------------
# Headway (inter-vehicle spacing) models
# --------------------------------------------------------------------------
class HeadwayModel(ABC):
    """Distribution of the spacing between consecutive vehicles on a road."""

    @abstractmethod
    def mean(self) -> float:
        """Mean spacing in metres."""

    @abstractmethod
    def cdf(self, distance: float) -> float:
        """Probability that the spacing is at most ``distance`` metres."""

    def connectivity_probability(self, communication_range: float) -> float:
        """Probability that two consecutive vehicles are within radio range."""
        return self.cdf(communication_range)

    def segment_connectivity(
        self, segment_length: float, communication_range: float
    ) -> float:
        """Probability that a whole road segment is multi-hop connected.

        A segment is connected when every one of its expected
        ``segment_length / mean_headway`` consecutive gaps is below the
        communication range (independence approximation, as in CAR).
        """
        if segment_length <= 0:
            return 1.0
        gaps = max(1, int(round(segment_length / max(self.mean(), 1.0))))
        per_gap = self.connectivity_probability(communication_range)
        return per_gap**gaps


@dataclass(frozen=True)
class NormalHeadwayModel(HeadwayModel):
    """Normally distributed spacing (dense, regulated traffic)."""

    mean_m: float
    std_m: float

    def mean(self) -> float:
        """Mean spacing."""
        return self.mean_m

    def cdf(self, distance: float) -> float:
        """Normal CDF evaluated at ``distance`` (degenerate when std is 0)."""
        if self.std_m <= 0:
            return 1.0 if distance >= self.mean_m else 0.0
        return _normal_cdf((distance - self.mean_m) / self.std_m)


@dataclass(frozen=True)
class LogNormalHeadwayModel(HeadwayModel):
    """Log-normally distributed spacing (mixed traffic with occasional large gaps)."""

    mu: float
    sigma: float

    @staticmethod
    def from_mean_cv(mean_m: float, coefficient_of_variation: float) -> "LogNormalHeadwayModel":
        """Build from a mean and a coefficient of variation (std / mean)."""
        if mean_m <= 0 or coefficient_of_variation <= 0:
            raise ValueError("mean and coefficient of variation must be positive")
        sigma_sq = math.log(1.0 + coefficient_of_variation**2)
        mu = math.log(mean_m) - sigma_sq / 2.0
        return LogNormalHeadwayModel(mu=mu, sigma=math.sqrt(sigma_sq))

    def mean(self) -> float:
        """Mean spacing of the log-normal distribution."""
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def cdf(self, distance: float) -> float:
        """Log-normal CDF."""
        if distance <= 0:
            return 0.0
        if self.sigma <= 0:
            return 1.0 if distance >= math.exp(self.mu) else 0.0
        return _normal_cdf((math.log(distance) - self.mu) / self.sigma)


@dataclass(frozen=True)
class GammaHeadwayModel(HeadwayModel):
    """Gamma-distributed spacing (the classical traffic-flow assumption)."""

    shape: float
    scale: float

    @staticmethod
    def from_mean_shape(mean_m: float, shape: float) -> "GammaHeadwayModel":
        """Build from a mean spacing and a shape parameter."""
        if mean_m <= 0 or shape <= 0:
            raise ValueError("mean and shape must be positive")
        return GammaHeadwayModel(shape=shape, scale=mean_m / shape)

    def mean(self) -> float:
        """Mean spacing ``shape * scale``."""
        return self.shape * self.scale

    def cdf(self, distance: float) -> float:
        """Regularised lower incomplete gamma function via a series expansion."""
        if distance <= 0:
            return 0.0
        x = distance / self.scale
        return _regularized_lower_gamma(self.shape, x)


def _regularized_lower_gamma(s: float, x: float) -> float:
    """Regularised lower incomplete gamma P(s, x) (series / continued fraction)."""
    if x < 0 or s <= 0:
        return 0.0
    if x == 0:
        return 0.0
    if x < s + 1.0:
        # Series representation.
        term = 1.0 / s
        total = term
        n = s
        for _ in range(500):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-12:
                break
        return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    # Continued fraction for Q(s, x), then P = 1 - Q.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    q = math.exp(-x + s * math.log(x) - math.lgamma(s)) * h
    return 1.0 - q


# --------------------------------------------------------------------------
# Link-lifetime distribution under normally distributed relative speed
# --------------------------------------------------------------------------
def link_alive_probability(
    initial_separation: float,
    elapsed_time: float,
    relative_speed_mean: float = 0.0,
    relative_speed_std: float = 2.0,
    communication_range: float = 250.0,
) -> float:
    """Probability that a link is still alive ``elapsed_time`` seconds later.

    Assumes the (signed, along-road) relative speed ``V`` is constant over
    the interval and normally distributed across vehicle pairs.  The link is
    alive when ``|d0 + V t| < r``, so

        P[alive] = Phi((r - d0 - mu t) / (sigma t)) - Phi((-r - d0 - mu t) / (sigma t))

    With ``t = 0`` the link is alive iff it is currently within range.
    """
    r = communication_range
    d0 = initial_separation
    if elapsed_time <= 0:
        return 1.0 if abs(d0) <= r else 0.0
    if relative_speed_std <= 0:
        final = d0 + relative_speed_mean * elapsed_time
        return 1.0 if abs(final) <= r else 0.0
    spread = relative_speed_std * elapsed_time
    drift = relative_speed_mean * elapsed_time
    if spread <= 0.0:
        # A denormally small elapsed_time can underflow the product to
        # exactly zero even though both factors are positive; the correct
        # limit is the deterministic (zero-variance) case.
        final = d0 + drift
        return 1.0 if abs(final) <= r else 0.0
    upper = (r - d0 - drift) / spread
    lower = (-r - d0 - drift) / spread
    return max(0.0, _normal_cdf(upper) - _normal_cdf(lower))


def expected_link_duration(
    initial_separation: float,
    relative_speed_mean: float = 0.0,
    relative_speed_std: float = 2.0,
    communication_range: float = 250.0,
    horizon: float = 600.0,
    step: float = 1.0,
) -> float:
    """Expected residual lifetime of a link.

    Computed as the integral of the survival function
    ``E[T] = integral_0^inf P[T > t] dt`` truncated at ``horizon``
    (numerically, by the trapezoidal rule on a ``step`` grid).  This is the
    "expected link duration" metric of the Yan ticket-based protocol.
    """
    if abs(initial_separation) > communication_range:
        return 0.0
    # The integrand is link_alive_probability(initial_separation, t, ...);
    # its general case is inlined below with the per-call invariants
    # hoisted, in the same operations and order (a TBP node evaluates up to
    # horizon/step of them per neighbour).  The degenerate cases (t <= 0,
    # std <= 0, an underflowing spread) call the function itself.
    r = communication_range
    d0 = initial_separation
    mean = relative_speed_mean
    std = relative_speed_std
    upper_offset = r - d0
    lower_offset = -r - d0
    erfc = math.erfc
    total = 0.0
    previous = 1.0
    t = step
    while t <= horizon:
        spread = std * t
        if t <= 0 or std <= 0 or spread <= 0.0:
            current = link_alive_probability(d0, t, mean, std, r)
        else:
            drift = mean * t
            alive = 0.5 * erfc(-((upper_offset - drift) / spread) / _SQRT2) - 0.5 * erfc(
                -((lower_offset - drift) / spread) / _SQRT2
            )
            current = alive if alive > 0.0 else 0.0
        total += 0.5 * (previous + current) * step
        previous = current
        if current < 1e-4:
            break
        t += step
    return total


@dataclass
class LinkStabilityModel:
    """Facade bundling the probabilistic link model used by routing protocols.

    Attributes:
        communication_range: Radio range ``r`` in metres.
        relative_speed_std: Standard deviation of the along-road relative
            speed between neighbouring vehicles (m/s).
        headway: Optional headway model used for segment-connectivity queries.
    """

    communication_range: float = 250.0
    relative_speed_std: float = 2.0
    headway: Optional[HeadwayModel] = None

    def availability(
        self, position_a: Vec2, velocity_a: Vec2, position_b: Vec2, velocity_b: Vec2, t: float
    ) -> float:
        """Probability that the a-b link is still alive ``t`` seconds from now."""
        separation_vec = position_a - position_b
        axis = separation_vec.normalized()
        if axis.norm_sq() == 0.0:
            axis = Vec2(1.0, 0.0)
        separation = separation_vec.norm()
        relative_speed_along = (velocity_a - velocity_b).dot(axis)
        return link_alive_probability(
            separation,
            t,
            relative_speed_mean=relative_speed_along,
            relative_speed_std=self.relative_speed_std,
            communication_range=self.communication_range,
        )

    def expected_duration(
        self, position_a: Vec2, velocity_a: Vec2, position_b: Vec2, velocity_b: Vec2
    ) -> float:
        """Expected residual lifetime (the "stability" of TBP-SS)."""
        separation_vec = position_a - position_b
        axis = separation_vec.normalized()
        if axis.norm_sq() == 0.0:
            axis = Vec2(1.0, 0.0)
        separation = separation_vec.norm()
        relative_speed_along = (velocity_a - velocity_b).dot(axis)
        return expected_link_duration(
            separation,
            relative_speed_mean=relative_speed_along,
            relative_speed_std=self.relative_speed_std,
            communication_range=self.communication_range,
        )

    def segment_connectivity(self, segment_length: float) -> float:
        """Connectivity probability of a road segment (requires a headway model)."""
        if self.headway is None:
            raise ValueError("segment connectivity requires a headway model")
        return self.headway.segment_connectivity(segment_length, self.communication_range)
