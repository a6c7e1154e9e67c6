"""Step bounds, axis chains, certificates, and decay-parameter transport."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.zigzag import (BoundCertificate, ChamberPoint, StarParams,
                           ZigZagStep, axis_chain_bound, horizontal_bound,
                           product_params, rescale_params, rescale_reindex,
                           revalidate_certificate, vertical_bound,
                           zigzag_certificate)


def _axis(r):
    return ChamberPoint(r, 0.0, -r)


def _random_point(rng, rmin=1.0, rmax=20.0):
    r = rng.uniform(rmin, rmax)
    lo, hi = max(-1.0, -r / 2), min(1.0, r / 2)
    a2 = 0.0 if rng.random() < 0.4 else rng.uniform(lo, hi)
    if a2 >= 0:
        return ChamberPoint(r - a2, a2, -r)
    return ChamberPoint(r, a2, -r - a2)


# ---------------------------------------------------------------------------
# points and single moves


def test_chamber_point_geometry():
    p = ChamberPoint(5.0, 1.0, -6.0)
    assert p.length == 6.0
    assert not p.on_axis
    assert p.axis_point().as_tuple() == (6.0, 0.0, -6.0)
    q = ChamberPoint(3.0, -1.0, -2.0)
    assert q.length == 3.0
    assert _axis(2.0).on_axis


def test_chamber_point_validation():
    with pytest.raises(ValueError):
        ChamberPoint(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        ChamberPoint(2.0, 0.0, -1.0)


def test_horizontal_bound_value():
    a = ChamberPoint(3.0, 1.0, -4.0)
    b = ChamberPoint(4.0, 0.0, -4.0)
    assert horizontal_bound(a, b, 0.1, 1.0) == pytest.approx(
        14.0 * math.exp(-1.2), rel=1e-15)
    # scale enters squared
    assert horizontal_bound(a, b, 0.1, 3.0) == pytest.approx(
        9 * 14.0 * math.exp(-1.2), rel=1e-15)
    # the formula ignores the middle coordinates, so a == a' is legal
    assert horizontal_bound(a, a, 0.1, 1.0) == horizontal_bound(a, b, 0.1, 1.0)


def test_horizontal_bound_rejections():
    a = ChamberPoint(3.0, 1.0, -4.0)
    b = ChamberPoint(4.0, 0.0, -4.0)
    with pytest.raises(ValueError, match="s < 1/4"):
        horizontal_bound(a, b, 0.25, 1.0)
    with pytest.raises(ValueError, match="equal a3"):
        horizontal_bound(a, ChamberPoint(5.0, 0.0, -5.0), 0.1, 1.0)
    with pytest.raises(ValueError, match="a2 >= -1"):
        horizontal_bound(ChamberPoint(6.0, -2.0, -4.0), b, 0.1, 1.0)
    with pytest.raises(ValueError, match="L"):
        horizontal_bound(a, b, 0.1, 0.0)


def test_vertical_bound_value_and_rejections():
    a = ChamberPoint(4.0, 0.0, -4.0)
    b = ChamberPoint(4.0, -1.0, -3.0)
    assert vertical_bound(a, b, 0.1, 1.0) == pytest.approx(
        14.0 * math.exp(-1.2), rel=1e-15)
    assert vertical_bound(a, a, 0.1, 1.0) == vertical_bound(a, b, 0.1, 1.0)
    with pytest.raises(ValueError, match="equal a1"):
        vertical_bound(a, ChamberPoint(5.0, -1.0, -4.0), 0.1, 1.0)
    with pytest.raises(ValueError, match="a2 <= 1"):
        vertical_bound(ChamberPoint(4.0, 2.0, -6.0), a, 0.1, 1.0)


def test_step_region_invariants_enforced():
    a = ChamberPoint(3.0, 1.0, -4.0)
    with pytest.raises(ValueError, match="keep a3"):
        ZigZagStep("horizontal", a, ChamberPoint(5.0, 0.0, -5.0), 1.0, "x")
    with pytest.raises(ValueError, match="kind"):
        ZigZagStep("diagonal", a, a, 1.0, "x")
    with pytest.raises(ValueError, match="nonnegative"):
        ZigZagStep("horizontal", a, a, -1.0, "x")


# ---------------------------------------------------------------------------
# axis chains


def test_chain_degenerate_is_one_vacuous_move():
    for r, s, L in [(3.0, 0.1, 1.0), (1.0, 0.05, 10.0)]:
        t = 0.5 - 2 * s
        assert axis_chain_bound(r, r, s, L) == pytest.approx(
            28.0 * L * L * math.exp(-t * r), rel=1e-15)


def test_chain_explicit_partial_sum():
    # unit moves 4->5->6 cost 14(e^{-t u} + e^{-t v}) each
    got = axis_chain_bound(4.0, 6.0, 0.1, 1.0)
    want = 14.0 * (math.exp(-1.2) + 2 * math.exp(-1.5) + math.exp(-1.8))
    assert got == pytest.approx(want, rel=1e-15)
    assert got <= 42.0 / 0.6 * math.exp(-1.2)


def test_chain_rejections_and_boundary():
    with pytest.raises(ValueError, match="radius 1"):
        axis_chain_bound(0.5, 2.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="r1 <= r2"):
        axis_chain_bound(3.0, 2.0, 0.1, 1.0)
    # finite right up to the rate boundary
    assert math.isfinite(axis_chain_bound(1.0, 9.0, 0.2499999, 1.0))


@pytest.mark.parametrize("s", [0.05, 0.1, 0.2])
def test_chain_envelope_short_gaps(s):
    # partial sums stay below the telescoped 42/(1-4s) envelope for gaps <= 3
    t = 0.5 - 2 * s
    for r1 in (1.0, 2.5, 7.0, 16.0):
        for gap in (0.0, 0.4, 1.0, 1.7, 2.0, 3.0):
            val = axis_chain_bound(r1, r1 + gap, s, 1.0)
            assert val <= 42.0 / (1 - 4 * s) * math.exp(-t * r1) * (1 + 1e-12)


def test_chain_anchors_fraction_at_far_end():
    # nodes sit on the unit grid through the anchor (smaller radius), with the
    # fractional move at the far end: 1, 2, ..., 7, 7.3
    s, t = 0.05, 0.4
    nodes = [1, 2, 3, 4, 5, 6, 7, 7.3]
    want = 14.0 * math.fsum(
        (2.0 if 0 < i < len(nodes) - 1 else 1.0) * math.exp(-t * r)
        for i, r in enumerate(nodes))
    assert axis_chain_bound(1.0, 7.3, s, 1.0) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_equal_points_is_empty():
    a = ChamberPoint(3.0, 1.0, -4.0)
    cert = zigzag_certificate(a, a, 0.1, 1.0)
    assert cert.steps == ()
    assert cert.total == 0.0
    assert cert.target > 0
    assert cert.passed
    assert revalidate_certificate(cert)


def test_certificate_axis_pair_matches_chain():
    cert = zigzag_certificate(_axis(2.0), _axis(4.0), 0.1, 1.0)
    assert cert.total == axis_chain_bound(2.0, 4.0, 0.1, 1.0)
    assert cert.target == pytest.approx(70.0 / 0.6 * math.exp(-0.6), rel=1e-15)
    assert cert.passed


def test_certificate_routes_off_axis_endpoint_first():
    cert = zigzag_certificate(ChamberPoint(5.0, 1.0, -6.0), _axis(2.0), 0.1, 1.0)
    first = cert.steps[0]
    assert first.kind == "horizontal"           # a2 >= 0 region
    assert first.start.as_tuple() == (5.0, 1.0, -6.0)
    assert first.end.as_tuple() == (6.0, 0.0, -6.0)
    last = cert.steps[-1]
    assert last.end.as_tuple() == (2.0, 0.0, -2.0)
    assert revalidate_certificate(cert)

    cert = zigzag_certificate(ChamberPoint(6.0, -1.0, -5.0), _axis(2.0), 0.1, 1.0)
    assert cert.steps[0].kind == "vertical"     # a2 < 0 region
    assert cert.steps[0].end.as_tuple() == (6.0, 0.0, -6.0)


def test_certificate_direction_symmetric_total():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = _random_point(rng), _random_point(rng)
        fwd = zigzag_certificate(a, b, 0.1, 1.0)
        back = zigzag_certificate(b, a, 0.1, 1.0)
        assert fwd.total == pytest.approx(back.total, rel=1e-12)
        assert fwd.target == back.target


def test_certificate_seventy_envelope_grid():
    rng = np.random.default_rng(4)
    for s in (0.05, 0.1, 0.2):
        for L in (1.0, 10.0):
            for _ in range(60):
                cert = zigzag_certificate(_random_point(rng),
                                          _random_point(rng), s, L)
                assert revalidate_certificate(cert)
                assert cert.passed


def test_certificate_wide_middle_coordinate_routes():
    # points outside the |a2| <= 1 band still reach the axis in one move
    cert = zigzag_certificate(ChamberPoint(10.0, 8.0, -18.0),
                              ChamberPoint(18.0, -8.0, -10.0), 0.05, 1.0)
    assert revalidate_certificate(cert)
    assert cert.passed


def test_certificate_rejects_small_radius_and_bad_rate():
    with pytest.raises(ValueError, match="radius"):
        zigzag_certificate(_axis(0.5), _axis(2.0), 0.1, 1.0)
    with pytest.raises(ValueError, match="s < 1/4"):
        zigzag_certificate(_axis(2.0), _axis(3.0), 0.3, 1.0)


def test_certificate_json_document():
    cert = zigzag_certificate(ChamberPoint(5.0, 1.0, -6.0), _axis(2.0), 0.1, 1.0)
    doc = cert.to_json()
    assert set(doc) == {"params", "steps", "total", "target", "pass", "notes"}
    assert doc["params"] == {"s": 0.1, "L": 1.0, "t": pytest.approx(0.3)}
    assert doc["pass"] is True
    assert doc["total"] == cert.total
    for step in doc["steps"]:
        assert set(step) == {"kind", "from", "to", "bound", "justification"}
    assert "100/(1-4s)" in doc["notes"]
    json.loads(json.dumps(doc))               # round-trips as plain JSON


def test_revalidation_catches_tampering():
    cert = zigzag_certificate(_axis(2.0), _axis(5.0), 0.1, 1.0)
    bad = BoundCertificate(cert.steps, cert.total, cert.target,
                           cert.s, cert.L, 0.25)
    with pytest.raises(ValueError, match="1/2 - 2s"):
        revalidate_certificate(bad)
    doctored = list(cert.steps)
    doctored[0] = ZigZagStep(doctored[0].kind, doctored[0].start,
                             doctored[0].end, doctored[0].bound * 0.5, "x")
    with pytest.raises(ValueError, match="total"):
        BoundCertificate(tuple(doctored), cert.total, cert.target,
                         cert.s, cert.L, cert.t)


@given(st.floats(1.0, 20.0), st.floats(1.0, 20.0),
       st.sampled_from([0.05, 0.1, 0.2]))
@settings(max_examples=60, deadline=None)
def test_axis_certificates_always_pass(r1, r2, s):
    cert = zigzag_certificate(_axis(r1), _axis(r2), s, 1.0)
    assert revalidate_certificate(cert)
    assert cert.passed


# ---------------------------------------------------------------------------
# parameter transport


def test_star_params_validation():
    with pytest.raises(ValueError):
        StarParams(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        StarParams(0.1, 0.1, -1.0)


def test_rescale_identity_and_example():
    p = StarParams(0.1, 0.3, 100.0)
    q = rescale_params(p, 1.0, 0.0)
    assert (q.s, q.t) == (p.s, p.t)
    assert q.C == pytest.approx(p.C * math.exp(0.3), rel=1e-15)

    q = rescale_params(p, 2.0, 1.0)
    assert q.s == pytest.approx(0.05)
    assert q.t == pytest.approx(0.15)
    assert q.C == pytest.approx(100.0 * math.exp(0.55), rel=1e-14)


def test_rescale_rejections_and_reindex():
    p = StarParams(0.1, 0.3, 1.0)
    with pytest.raises(ValueError):
        rescale_params(p, 0.0, 0.0)
    with pytest.raises(ValueError):
        rescale_params(p, 1.0, -1.0)
    assert rescale_reindex(7, 2, 1) == 3
    assert rescale_reindex(0, 2, 1) == -1


@given(st.floats(0.01, 0.4), st.floats(0.01, 0.9), st.floats(0.1, 50.0),
       st.floats(1.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=80)
def test_rescale_never_shrinks_constant(s, t, c, a, b):
    p = StarParams(s, t, c)
    assert rescale_params(p, a, b).C >= p.C


def test_product_symmetric_example():
    p = StarParams(0.1, 0.3, 1.0)
    out = product_params(p, p)
    assert out.s == pytest.approx(0.1)
    assert out.t == out.s
    assert out.C == pytest.approx(
        (2 * math.exp(0.2) + 2) / (1 - math.exp(-0.1)), rel=1e-14)


def test_product_min_semantics():
    slow = StarParams(0.2, 0.03, 1.0)
    fast = StarParams(0.2, 0.9, 1.0)
    assert product_params(slow, fast).s == pytest.approx(0.01)
    assert product_params(fast, slow).s == pytest.approx(0.01)
