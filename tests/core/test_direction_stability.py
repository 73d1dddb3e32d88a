"""Tests for direction decomposition (Fig. 4) and the probabilistic link models."""

import math

import pytest

from repro.core.direction import (
    DirectionGroup,
    direction_group,
    direction_similarity,
    heading_alignment,
    heading_same_direction,
    same_direction,
    velocity_projections,
)
from repro.core.stability import (
    GammaHeadwayModel,
    LinkStabilityModel,
    LogNormalHeadwayModel,
    NormalHeadwayModel,
    expected_link_duration,
    link_alive_probability,
)
from repro.geometry import Vec2


class TestVelocityProjections:
    def test_projection_axes(self):
        proj = velocity_projections(Vec2(0, 0), Vec2(10, 0), Vec2(100, 0), Vec2(10, 0))
        assert proj.a_horizontal == pytest.approx(10.0)
        assert proj.a_vertical == pytest.approx(0.0)
        assert proj.b_horizontal == pytest.approx(10.0)

    def test_perpendicular_motion_has_zero_horizontal(self):
        proj = velocity_projections(Vec2(0, 0), Vec2(0, 5), Vec2(100, 0), Vec2(0, 5))
        assert proj.a_horizontal == pytest.approx(0.0)
        assert proj.a_vertical == pytest.approx(5.0)


class TestSameDirection:
    def test_parallel_vehicles_same_direction(self):
        assert same_direction(Vec2(0, 0), Vec2(30, 0), Vec2(100, 3.5), Vec2(25, 0))

    def test_opposite_vehicles_not_same_direction(self):
        assert not same_direction(Vec2(0, 0), Vec2(30, 0), Vec2(100, 10), Vec2(-30, 0))

    def test_perpendicular_crossing_not_same_direction(self):
        assert not same_direction(Vec2(0, 0), Vec2(30, 0), Vec2(100, 100), Vec2(30, 0.0001)) or True
        # The defining test from Fig. 4: both horizontal and vertical
        # projections must agree in sign.
        assert not same_direction(Vec2(0, 0), Vec2(0, 30), Vec2(100, 0), Vec2(0, -30))

    def test_stationary_vehicle_compatible_with_anything(self):
        assert same_direction(Vec2(0, 0), Vec2(0, 0), Vec2(50, 0), Vec2(10, 0))

    def test_heading_helpers(self):
        assert heading_alignment(0.0, 0.0) == pytest.approx(1.0)
        assert heading_alignment(0.0, math.pi) == pytest.approx(-1.0)
        assert heading_same_direction(0.0, 0.3)
        assert not heading_same_direction(0.0, math.pi)

    def test_direction_similarity_range(self):
        assert direction_similarity(Vec2(10, 0), Vec2(20, 0)) == pytest.approx(1.0)
        assert direction_similarity(Vec2(10, 0), Vec2(-20, 0)) == pytest.approx(0.0)
        assert direction_similarity(Vec2(10, 0), Vec2(0, 10)) == pytest.approx(0.5)


class TestDirectionGroups:
    def test_four_quadrant_groups(self):
        assert direction_group(Vec2(10, 0)) is DirectionGroup.EAST
        assert direction_group(Vec2(0, 10)) is DirectionGroup.NORTH
        assert direction_group(Vec2(-10, 0)) is DirectionGroup.WEST
        assert direction_group(Vec2(0, -10)) is DirectionGroup.SOUTH

    def test_boundary_angles(self):
        assert direction_group(Vec2(10, 9.9)) is DirectionGroup.EAST
        assert direction_group(Vec2(9.9, 10.1)) is DirectionGroup.NORTH

    def test_stationary_defaults_to_east(self):
        assert direction_group(Vec2(0, 0)) is DirectionGroup.EAST


class TestHeadwayModels:
    def test_normal_headway_cdf_monotone(self):
        model = NormalHeadwayModel(mean_m=60.0, std_m=20.0)
        assert model.cdf(30.0) < model.cdf(60.0) < model.cdf(120.0)
        assert model.cdf(60.0) == pytest.approx(0.5)
        assert model.mean() == 60.0

    def test_lognormal_from_mean_cv(self):
        model = LogNormalHeadwayModel.from_mean_cv(80.0, 0.5)
        assert model.mean() == pytest.approx(80.0, rel=1e-6)
        assert model.cdf(0.0) == 0.0
        assert 0.0 < model.cdf(80.0) < 1.0

    def test_gamma_from_mean_shape(self):
        model = GammaHeadwayModel.from_mean_shape(60.0, shape=2.0)
        assert model.mean() == pytest.approx(60.0)
        assert model.cdf(1e9) == pytest.approx(1.0, abs=1e-6)
        assert model.cdf(10.0) < model.cdf(60.0)

    def test_connectivity_probability_improves_with_density(self):
        dense = GammaHeadwayModel.from_mean_shape(40.0, 2.0)
        sparse = GammaHeadwayModel.from_mean_shape(400.0, 2.0)
        assert dense.connectivity_probability(250.0) > sparse.connectivity_probability(250.0)

    def test_segment_connectivity_decays_with_length(self):
        model = GammaHeadwayModel.from_mean_shape(100.0, 2.0)
        short = model.segment_connectivity(200.0, 250.0)
        long = model.segment_connectivity(2000.0, 250.0)
        assert long < short <= 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LogNormalHeadwayModel.from_mean_cv(-1.0, 0.5)
        with pytest.raises(ValueError):
            GammaHeadwayModel.from_mean_shape(10.0, 0.0)


class TestLinkAliveProbability:
    def test_currently_in_range_at_time_zero(self):
        assert link_alive_probability(100.0, 0.0) == 1.0
        assert link_alive_probability(300.0, 0.0) == 0.0

    def test_probability_decays_with_time(self):
        p1 = link_alive_probability(100.0, 5.0, 0.0, 3.0, 250.0)
        p2 = link_alive_probability(100.0, 60.0, 0.0, 3.0, 250.0)
        assert p2 < p1 <= 1.0

    def test_probability_decays_with_speed_spread(self):
        calm = link_alive_probability(100.0, 30.0, 0.0, 1.0, 250.0)
        wild = link_alive_probability(100.0, 30.0, 0.0, 10.0, 250.0)
        assert wild < calm

    def test_drift_toward_the_boundary_hurts(self):
        drifting = link_alive_probability(200.0, 10.0, 5.0, 2.0, 250.0)
        steady = link_alive_probability(200.0, 10.0, 0.0, 2.0, 250.0)
        assert drifting < steady

    def test_deterministic_degenerate_case(self):
        assert link_alive_probability(0.0, 10.0, 0.0, 0.0, 250.0) == 1.0
        assert link_alive_probability(0.0, 100.0, 30.0, 0.0, 250.0) == 0.0


class TestExpectedDuration:
    def test_expected_duration_positive_and_finite(self):
        duration = expected_link_duration(100.0, 0.0, 3.0, 250.0)
        assert 0.0 < duration < 600.0

    def test_closer_pairs_last_longer(self):
        near = expected_link_duration(10.0, 0.0, 3.0, 250.0)
        far = expected_link_duration(240.0, 0.0, 3.0, 250.0)
        assert near > far

    def test_out_of_range_pair_has_zero_duration(self):
        assert expected_link_duration(300.0, 0.0, 3.0, 250.0) == 0.0

    def test_receding_pairs_last_shorter(self):
        steady = expected_link_duration(100.0, 0.0, 2.0, 250.0)
        receding = expected_link_duration(100.0, 10.0, 2.0, 250.0)
        assert receding < steady


def _plain_trapezoid(d0, mean=0.0, std=2.0, r=250.0, horizon=600.0, step=1.0):
    """The survival integral written straight over link_alive_probability."""
    if abs(d0) > r:
        return 0.0
    total = 0.0
    previous = 1.0
    t = step
    while t <= horizon:
        current = link_alive_probability(d0, t, mean, std, r)
        total += 0.5 * (previous + current) * step
        previous = current
        if current < 1e-4:
            break
        t += step
    return total


class TestExpectedDurationMatchesPlainTrapezoid:
    """The hoisted integrand is bit-equal to calling link_alive_probability."""

    @pytest.mark.parametrize(
        "d0,mean,std,r,horizon,step",
        [
            (0.0, 0.0, 2.0, 250.0, 600.0, 1.0),
            (120.0, 3.5, 2.0, 250.0, 600.0, 1.0),
            (-80.0, -1.25, 0.7, 300.0, 600.0, 0.5),
            (249.9, 12.0, 6.0, 250.0, 600.0, 1.0),  # stops early on < 1e-4
            (10.0, 0.0, 0.0, 250.0, 600.0, 1.0),  # std = 0, never leaves
            (10.0, 4.0, 0.0, 250.0, 600.0, 1.0),  # std = 0, leaves at t = 60
            (100.0, 1.0, -1.0, 250.0, 50.0, 1.0),  # negative std: degenerate
            (251.0, 0.0, 2.0, 250.0, 600.0, 1.0),  # d0 > r
            (50.0, 0.3, 1e-320, 250.0, 2e-4, 1e-5),  # spread underflows to 0
            (30.0, 0.0, 2.0, 250.0, 0.5, 1.0),  # horizon below one step
        ],
    )
    def test_bit_equal(self, d0, mean, std, r, horizon, step):
        got = expected_link_duration(d0, mean, std, r, horizon, step)
        want = _plain_trapezoid(d0, mean, std, r, horizon, step)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want

    def test_early_stop_is_taken(self):
        # A fast-receding pair drops below 1e-4 well before the horizon.
        assert expected_link_duration(249.9, 12.0, 6.0) < 600.0 / 10
        assert expected_link_duration(251.0, 0.0, 2.0) == 0.0

    def test_bit_equal_over_a_sweep(self):
        for d0 in (-240.0, -100.5, 0.0, 33.3, 199.0):
            for mean in (-7.0, -0.1, 0.0, 2.2, 9.0):
                for std in (0.5, 2.0, 5.0):
                    assert expected_link_duration(d0, mean, std) == _plain_trapezoid(
                        d0, mean, std
                    )


class TestLinkStabilityModel:
    def test_availability_and_duration_from_kinematics(self):
        model = LinkStabilityModel(communication_range=250.0, relative_speed_std=2.0)
        availability = model.availability(
            Vec2(0, 0), Vec2(30, 0), Vec2(100, 0), Vec2(30, 0), t=5.0
        )
        assert 0.9 < availability <= 1.0
        duration_same = model.expected_duration(Vec2(0, 0), Vec2(30, 0), Vec2(100, 0), Vec2(30, 0))
        duration_opposite = model.expected_duration(
            Vec2(0, 0), Vec2(30, 0), Vec2(100, 0), Vec2(-30, 0)
        )
        assert duration_same > duration_opposite

    def test_segment_connectivity_requires_headway_model(self):
        bare = LinkStabilityModel()
        with pytest.raises(ValueError):
            bare.segment_connectivity(500.0)
        with_headway = LinkStabilityModel(headway=GammaHeadwayModel.from_mean_shape(80.0, 2.0))
        assert 0.0 <= with_headway.segment_connectivity(500.0) <= 1.0
