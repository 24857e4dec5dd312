import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsuth.errors import DegenerateChartError, DomainError, ParameterError
from bcsuth.params import (CouplingParams, DualPoint, OscillatorPoint,
                           SutherlandPoint, angles_from_z, canonical_angle,
                           chart_membership, couplings_from_rsvd,
                           couplings_from_sutherland, domain_membership,
                           lambda_of_z, require_inside, require_inside_rows,
                           strongly_regular, z_from_angles)


def test_couplings_forward():
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
    assert p.gamma == 1.0
    assert p.gamma1 == 0.0
    assert p.gamma2 == 2.0
    assert p.N == 2


def test_couplings_inverse_branch():
    p = couplings_from_sutherland(1.0, 0.0, 2.0, 1)
    assert p.mu == pytest.approx(1.0, abs=1e-15)
    assert p.nu == pytest.approx(2.0, abs=1e-15)
    assert p.kappa == pytest.approx(0.0, abs=1e-15)


def test_couplings_constraint_violation_reports_inequality():
    with pytest.raises(ParameterError, match=r"nu > \|kappa\|"):
        couplings_from_rsvd(1.0, 1.0, 2.0, 1)
    with pytest.raises(ParameterError, match="mu > 0"):
        couplings_from_rsvd(-1.0, 2.0, 0.0, 1)
    with pytest.raises(ParameterError, match="gamma2 > 0"):
        couplings_from_sutherland(1.0, 1.0, 0.0, 1)


def test_couplings_round_trip(rng):
    for _ in range(50):
        mu = rng.uniform(0.2, 3.0)
        nu = rng.uniform(0.1, 3.0)
        kappa = rng.uniform(-0.99, 0.99) * nu
        p = couplings_from_rsvd(mu, nu, kappa, 2)
        q = couplings_from_sutherland(p.gamma, p.gamma1, p.gamma2, 2)
        assert q.mu == pytest.approx(mu, rel=1e-12)
        assert q.nu == pytest.approx(nu, rel=1e-12)
        assert q.kappa == pytest.approx(kappa, rel=1e-11, abs=1e-12)


def test_domain_membership_examples():
    p1 = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
    assert domain_membership(DualPoint(lam=[2.0], theta=[0.0]), p1,
                             margin=1e-12) == "boundary"
    assert domain_membership(SutherlandPoint(q=[np.pi / 4], p=[0.0]), p1) == "inside"
    p2 = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    assert domain_membership(DualPoint(lam=[4.5, 2.1], theta=[0, 0]), p2,
                             margin=0.0) == "inside"
    assert domain_membership(DualPoint(lam=[4.5, 1.9], theta=[0, 0]), p2,
                             margin=0.0) == "outside"


def _membership_numpy(x, chart, params, margin):
    """The slack classification as numpy array code: the float helper's reference."""
    if chart == "qp":
        slacks = np.concatenate(([np.pi / 2 - x[0]], x[:-1] - x[1:], [x[-1]]))
    else:
        wall = max(abs(params.nu), abs(params.kappa))
        slacks = np.concatenate((x[:-1] - x[1:] - 2 * params.mu, [x[-1] - wall]))
    if np.all(slacks > margin):
        return "inside"
    if np.any(slacks < -margin):
        return "outside"
    return "boundary"


@st.composite
def _chart_points(draw):
    """(chart, positions, params, margin) with slacks often within +-margin of 0."""
    n = draw(st.integers(1, 4))
    margin = draw(st.sampled_from([0.0, 1e-9, 1e-6, 0.05]))
    near = st.builds(lambda k, e: k * margin * (1 + e),
                     st.sampled_from([-1.0, 0.0, 1.0]),
                     st.sampled_from([-1e-3, -1e-12, 0.0, 1e-12, 1e-3]))
    slacks = draw(st.lists(st.one_of(near, st.floats(-0.3, 0.3)),
                           min_size=n + 1, max_size=n + 1))
    params = couplings_from_rsvd(draw(st.floats(0.1, 2.0)), 2.0,
                                 draw(st.floats(-1.9, 1.9)), n)
    chart = draw(st.sampled_from(["qp", "lambda_theta"]))
    x = np.empty(n)
    if chart == "qp" and draw(st.booleans()):
        x[0] = np.pi / 2 - slacks[n]  # build down from the pi/2 wall
        for a in range(1, n):
            x[a] = x[a - 1] - slacks[a - 1]
    elif chart == "qp":
        x[-1] = slacks[n]  # build up from the q = 0 wall
        for a in range(n - 2, -1, -1):
            x[a] = x[a + 1] + slacks[a]
    else:
        x[-1] = 2.0 + slacks[n]
        for a in range(n - 2, -1, -1):
            x[a] = x[a + 1] + 2 * params.mu + slacks[a]
    return chart, x, params, margin


@given(_chart_points())
@settings(max_examples=400, deadline=None)
def test_chart_membership_classifies_as_domain_membership(case):
    chart, x, params, margin = case
    status = chart_membership(x.tolist(), chart, params, margin)
    assert status == _membership_numpy(x, chart, params, margin)
    point = (SutherlandPoint(q=x, p=np.zeros_like(x)) if chart == "qp"
             else DualPoint(lam=x, theta=np.zeros_like(x)))
    assert domain_membership(point, params, margin) == status
    if chart == "lambda_theta":
        # the stacked chamber check agrees with require_inside row by row,
        # behind a row with slack 1 everywhere
        ahead = params.nu + 1.0 + (2 * params.mu + 1.0) * np.arange(x.size)[::-1]
        try:
            require_inside(x.tolist(), chart, params)
        except DomainError as exc:
            for rows in (x, np.stack([ahead, x])):
                with pytest.raises(DomainError, match=re.escape(str(exc))) as got:
                    require_inside_rows(rows, params)
                assert type(got.value) is type(exc)
        else:
            require_inside_rows(np.stack([ahead, x]), params)


@pytest.mark.parametrize("chart, pos", [
    ("qp", [math.nan]), ("qp", [math.inf]), ("qp", [1.2, -math.inf]),
    ("qp", [math.nan, 0.3]), ("lambda_theta", [math.nan]),
    ("lambda_theta", [math.inf]), ("lambda_theta", [math.inf, 2.5]),
    ("lambda_theta", [5.0, math.nan]), ("lambda_theta", [math.inf, math.inf])])
def test_non_finite_positions_are_outside_their_chart(chart, pos):
    # a NaN slack read as boundary and an infinite one as inside
    params = couplings_from_rsvd(1.0, 2.0, 0.5, len(pos))
    assert chart_membership(pos, chart, params) == "outside"
    assert chart_membership(pos, chart, params, 0.0) == "outside"
    with pytest.raises(DomainError, match="point is outside") as exc:
        require_inside(pos, chart, params)
    assert type(exc.value) is DomainError


def test_strongly_regular_examples():
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
    assert strongly_regular([np.sqrt(5.0)], p)
    assert not strongly_regular([2.0], p)
    p2 = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    assert not strongly_regular([4.0, 2.000001], p2, margin=1e-3)


def test_lambda_of_z_at_origin():
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    assert lambda_of_z(np.zeros(2, complex), p) == pytest.approx([4.0, 2.0])


def test_z_from_angles_direct():
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    dual = DualPoint(lam=[5.0, 2.5], theta=[0.0, 0.0])
    z = z_from_angles(dual, p).z
    assert z == pytest.approx(np.array([np.sqrt(0.5), np.sqrt(0.5)]))


def test_angles_from_z_simple():
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
    dual = angles_from_z(OscillatorPoint(z=[1.0 + 0.0j]), p)
    assert dual.lam == pytest.approx([3.0])
    assert dual.theta == pytest.approx([0.0])


def test_angles_from_z_degenerate():
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    with pytest.raises(DegenerateChartError, match="degenerate chart"):
        angles_from_z(OscillatorPoint(z=[1.0 + 0j, 0.0j]), p)


def test_chart_round_trip_random(rng):
    p = couplings_from_rsvd(0.7, 1.9, 0.4, 3)
    for _ in range(100):
        gaps = rng.uniform(0.1, 3.0, size=3)
        lam = np.empty(3)
        lam[2] = p.nu + gaps[2]
        lam[1] = lam[2] + 2 * p.mu + gaps[1]
        lam[0] = lam[1] + 2 * p.mu + gaps[0]
        theta = rng.uniform(0, 2 * np.pi, size=3)
        dual = DualPoint(lam=lam, theta=theta)
        z = z_from_angles(dual, p)
        assert lambda_of_z(z.z, p) == pytest.approx(lam, abs=1e-12)
        back = angles_from_z(z, p)
        assert back.lam == pytest.approx(lam, abs=1e-12)
        dth = np.abs(canonical_angle(back.theta - theta))
        assert np.minimum(dth, 2 * np.pi - dth).max() < 1e-12


def test_lambda_image_is_chamber_closure(rng):
    p = couplings_from_rsvd(0.7, 1.9, 0.4, 3)
    for _ in range(200):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z[rng.integers(0, 3)] *= rng.integers(0, 2)  # sprinkle zeros
        lam = lambda_of_z(z, p)
        assert np.all(lam[:-1] - lam[1:] >= 2 * p.mu - 1e-12)
        assert lam[-1] >= p.nu - 1e-12
        # strictly interior iff every component of z is away from zero
        # (compare slacks with a roundoff band)
        slacks = np.r_[lam[:-1] - lam[1:] - 2 * p.mu, lam[-1] - p.nu]
        interior = np.all(np.abs(z) > 1e-6)
        assert interior == bool(np.all(slacks > 1e-13))


def test_point_serialization_round_trip():
    pt = SutherlandPoint(q=[0.5, 0.3], p=[1.0, -2.0])
    pt2 = SutherlandPoint.from_dict(pt.to_dict())
    assert np.allclose(pt2.q, pt.q) and np.allclose(pt2.p, pt.p)
    dp = DualPoint(lam=[4.0, 2.1], theta=[0.1, 6.0])
    dp2 = DualPoint.from_dict(dp.to_dict())
    assert np.allclose(dp2.lam, dp.lam) and np.allclose(dp2.theta, dp.theta)
    op = OscillatorPoint(z=[1 + 2j, -0.5j])
    assert np.allclose(OscillatorPoint.from_dict(op.to_dict()).z, op.z)


def test_non_finite_momenta_and_angles_are_refused():
    # each refusal names the component; a non-finite position is left to
    # the chamber check, which counts it as outside
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=re.escape(f"got p2 = {v!r}")):
            SutherlandPoint(q=[0.7, 0.3], p=[0.1, v])
        with pytest.raises(DomainError, match=re.escape(f"got theta1 = {v!r}")):
            DualPoint(lam=[5.0, 2.5], theta=[v, 0.2])
    # finite entries whose sum overflows are finite
    assert SutherlandPoint(q=[0.7, 0.3], p=[1e308, 1e308]).p[1] == 1e308
    assert math.isnan(SutherlandPoint(q=[math.nan], p=[0.0]).q[0])
    assert math.isnan(DualPoint(lam=[math.nan], theta=[0.0]).lam[0])
