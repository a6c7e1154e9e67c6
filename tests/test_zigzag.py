"""Step bounds, axis chains, certificates, and decay-parameter transport."""
import collections
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.cartan import CartanTriple
from gaplab.cli import _chamber_points
from gaplab.zigzag import (_EQ_TOL, StarParams, ZigZagStep, axis_chain_bound,
                           product_params, rescale_params,
                           revalidate_certificate, step_bound,
                           zigzag_certificate)


def _axis(r):
    return (r, 0.0, -r)


def _triple(r, a2):
    """The chamber point of axis radius r with middle coordinate a2, which
    is clipped to [-r/2, r/2] to keep the triple ordered."""
    a2 = max(-r / 2, min(r / 2, a2))
    if a2 >= 0:
        return (r - a2, a2, -r)
    return (r, a2, -r - a2)


def _random_point(rng, rmin=1.0, rmax=20.0):
    r = rng.uniform(rmin, rmax)
    lo, hi = max(-1.0, -r / 2), min(1.0, r / 2)
    a2 = 0.0 if rng.random() < 0.4 else rng.uniform(lo, hi)
    return _triple(r, a2)


# one certificate as plain values, as the tuple-builder oracle makes it
_Cert = collections.namedtuple("_Cert", "steps total target")


def _unpack(block, i):
    p, q = block.offsets[i], block.offsets[i + 1]
    return _Cert(tuple(block.steps[j] for j in range(p, q)),
                 float(block.totals[i]), float(block.targets[i]))


def _forge(block, steps):
    """The block of one with `steps`, its total their fsum, and the target
    and parameters of `block`'s first certificate."""
    kind, start, end, bound = map(np.array, zip(*steps))
    return dataclasses.replace(
        block, kind=kind, start=start, end=end, bound=bound,
        offsets=np.array([0, len(bound)]), totals=np.array([math.fsum(bound)]),
        targets=block.targets[:1].copy())


# ---------------------------------------------------------------------------
# the tuple builder the block builder replaced, kept as its oracle: walk
# points as float triples, one move and one scalar bound at a time


def _oracle_bound(kind, start, end, s, L):
    t = 0.5 - 2.0 * s
    if kind == "horizontal":
        frozen, exponent = 2, t * start[2]
        assert min(start[1], end[1]) >= -1 - _EQ_TOL
    else:
        assert kind == "vertical"
        frozen, exponent = 0, -t * start[0]
        assert max(start[1], end[1]) <= 1 + _EQ_TOL
    assert abs(start[frozen] - end[frozen]) <= _EQ_TOL
    return 14.0 * L * L * math.exp(exponent)


def _oracle_unit_moves(nodes):
    for u, v in zip(nodes, nodes[1:]):
        cu, cv = (u, 0.0, -u), (v, 0.0, -v)
        if v >= u:
            mid = (v, u - v, -u)
            yield "horizontal", cu, mid
            yield "vertical", mid, cv
        else:
            mid = (u, v - u, -v)
            yield "vertical", cu, mid
            yield "horizontal", mid, cv


def _oracle_ladder(r_from, r_to):
    # the far radius is a node of its own exactly when it lies more than
    # _EQ_TOL beyond the last unit node: the walk's own rule
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    ladder = [lo + k for k in range(int(math.floor(hi - lo)) + 1)]
    if hi - ladder[-1] > _EQ_TOL:
        ladder.append(hi)
    else:
        ladder[-1] = hi
    if r_from > r_to:
        ladder.reverse()
    return ladder


def _oracle_certificate(a, a_prime, s, L):
    """The certificate the tuple builder made, as a `_Cert`."""
    a, a_prime = CartanTriple(*a), CartanTriple(*a_prime)
    r, r_prime = a.length, a_prime.length
    a, a_prime = a.as_tuple(), a_prime.as_tuple()
    t = 0.5 - 2.0 * s
    target = (70.0 / (1.0 - 4.0 * s)) * L * L * max(
        math.exp(-t * r), math.exp(-t * r_prime))
    if all(abs(x - y) <= _EQ_TOL for x, y in zip(a, a_prime)):
        return _Cert((), 0.0, target)
    assert r >= 1 and r_prime >= 1
    moves = []
    if abs(a[1]) > _EQ_TOL:
        moves.append(("horizontal" if a[1] >= 0 else "vertical",
                      a, (r, 0.0, -r)))
    if abs(r - r_prime) > _EQ_TOL:
        moves.extend(_oracle_unit_moves(_oracle_ladder(r, r_prime)))
    if abs(a_prime[1]) > _EQ_TOL:
        moves.append(("horizontal" if a_prime[1] >= 0 else "vertical",
                      (r_prime, 0.0, -r_prime), a_prime))
    steps = tuple(ZigZagStep(kind, p, q, _oracle_bound(kind, p, q, s, L))
                  for kind, p, q in moves)
    return _Cert(steps, math.fsum(st.bound for st in steps), target)


def _assert_block_matches_oracle(points, s, L):
    """One block over the (a, a') pairs in `points`: every certificate ==
    the oracle's (each step's kind, start, end and bound, the total and the
    target), and the block revalidates."""
    block = zigzag_certificate(np.array([a for a, _ in points]),
                               np.array([b for _, b in points]), s, L)
    want = [_oracle_certificate(a, b, s, L) for a, b in points]
    assert (block.s, block.L, block.t) == (s, L, 0.5 - 2.0 * s)
    assert [_unpack(block, i) for i in range(len(points))] == want
    assert len(block.steps) == sum(len(cert.steps) for cert in want)
    assert list(block.steps) == [st for cert in want for st in cert.steps]
    assert revalidate_certificate(block)
    return block


def test_builder_matches_oracle_on_light_sweeps_pairs():
    # the 1200 pairs `zigzag-cert --pairs=200 --L=1,10 --s=0.05,0.1,0.2
    # --rmax=20 --seed=20301` draws, in its order and in its blocks
    idx = 0
    for s in (0.05, 0.1, 0.2):
        for L in (1.0, 10.0):
            rng = np.random.default_rng([20301, idx])
            points = [(tuple(a), tuple(b)) for a, b in
                      _chamber_points(rng, 400, 20.0).reshape(-1, 2, 3).tolist()]
            _assert_block_matches_oracle(points, s, L)
            # a single pair is the only certificate of a block of one
            a, b = points[0]
            one = zigzag_certificate(a, b, s, L)
            assert len(one.totals) == 1
            assert _unpack(one, 0) == _oracle_certificate(a, b, s, L)
            idx += 200
    assert idx == 1200


# on-axis within _EQ_TOL, a2 = 0 ties of either sign, just off the axis,
# the region edges, and wide points beyond them
_A2 = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 2e-12, -2e-12,
                                 1.0, -1.0]),
                st.floats(-12.0, 12.0))


@st.composite
def _pairs(draw):
    r = draw(st.floats(1.0, 20.0))
    a = _triple(r, draw(_A2))
    how = draw(st.sampled_from(["equal", "same-radius", "ladder", "free"]))
    if how == "equal":
        return a, a
    if how == "same-radius":
        r_prime = r + draw(st.floats(-_EQ_TOL, _EQ_TOL))
    elif how == "ladder":
        # integer gaps with a fractional end: none, below, at a few ulps
        # beyond and above the tolerance, or a proper fraction
        r_prime = r + draw(st.integers(-19, 19)) + draw(
            st.sampled_from([0.0, 1e-13, -1e-13, 1.0001e-12, -1.0001e-12,
                             2e-12, -2e-12, 0.5]))
    else:
        r_prime = draw(st.floats(1.0, 20.0))
    return a, _triple(max(r_prime, 1.0), draw(_A2))


@given(st.lists(_pairs(), min_size=1, max_size=3),
       st.sampled_from([0.05, 0.1, 0.2]), st.sampled_from([1.0, 10.0]))
@settings(max_examples=300, deadline=None)
def test_builder_matches_oracle_on_edge_pairs(points, s, L):
    _assert_block_matches_oracle(points, s, L)


def test_radii_just_beyond_tolerance_give_a_connected_walk():
    cert = zigzag_certificate((0.999999999998, 2e-12, -1.0),
                              (0.9999999999990001, 2e-12, -1.000000000001),
                              0.05, 1.0)
    assert revalidate_certificate(cert)


# ---------------------------------------------------------------------------
# points and single moves


def test_chamber_point_geometry():
    # the axis radius is max(a1, -a3); an a2 >= 0 point routes horizontally
    # to its axis point, an a2 < 0 one vertically, an on-axis one not at all
    cert = zigzag_certificate((5.0, 1.0, -6.0), (3.0, -1.0, -2.0), 0.1, 1.0)
    assert cert.steps[0][:3] == ("horizontal", (5.0, 1.0, -6.0),
                                 (6.0, 0.0, -6.0))
    assert cert.steps[-1][:3] == ("vertical", (3.0, 0.0, -3.0),
                                  (3.0, -1.0, -2.0))
    walk = zigzag_certificate(_axis(2.0), _axis(3.0), 0.1, 1.0).steps
    assert [st.kind for st in walk] == ["horizontal", "vertical"]
    assert (walk[0].start, walk[-1].end) == (_axis(2.0), _axis(3.0))


def test_chamber_point_validation():
    # unordered, and not summing to zero
    for bad in [(0.0, 1.0, -1.0), (2.0, 0.0, -1.0)]:
        with pytest.raises(ValueError):
            zigzag_certificate(bad, _axis(2.0), 0.1, 1.0)
        with pytest.raises(ValueError):
            zigzag_certificate(_axis(2.0), bad, 0.1, 1.0)
    # a CartanTriple endpoint is read as its triple
    got, want = (_unpack(zigzag_certificate(a, _axis(2.0), 0.1, 1.0), 0)
                 for a in (CartanTriple(5.0, 1.0, -6.0), (5.0, 1.0, -6.0)))
    assert got == want


def test_horizontal_bound_value():
    a = (3.0, 1.0, -4.0)
    b = (4.0, 0.0, -4.0)
    assert step_bound("horizontal", a, b, 0.1, 1.0) == pytest.approx(
        14.0 * math.exp(-1.2), rel=1e-15)
    # scale enters squared
    assert step_bound("horizontal", a, b, 0.1, 3.0) == pytest.approx(
        9 * 14.0 * math.exp(-1.2), rel=1e-15)
    # the formula ignores the middle coordinates, so a == a' is legal
    assert (step_bound("horizontal", a, a, 0.1, 1.0)
            == step_bound("horizontal", a, b, 0.1, 1.0))
    # a3 is read at the start, even where the end differs within 1e-12
    assert (step_bound("horizontal", a, (4.0 + 5e-13, 0.0, -4.0 - 5e-13),
                       0.1, 1.0)
            == 14.0 * math.exp(0.3 * -4.0))


def test_horizontal_bound_rejections():
    a = (3.0, 1.0, -4.0)
    b = (4.0, 0.0, -4.0)
    with pytest.raises(ValueError, match="s < 1/4"):
        step_bound("horizontal", a, b, 0.25, 1.0)
    with pytest.raises(ValueError, match="equal a3"):
        step_bound("horizontal", a, (5.0, 0.0, -5.0), 0.1, 1.0)
    with pytest.raises(ValueError, match="a2 >= -1"):
        step_bound("horizontal", (6.0, -2.0, -4.0), b, 0.1, 1.0)
    with pytest.raises(ValueError, match="L"):
        step_bound("horizontal", a, b, 0.1, 0.0)
    # revalidation refuses the same moves, naming the step
    cert = zigzag_certificate(_axis(2.0), _axis(4.0), 0.1, 1.0)
    moved = ZigZagStep("horizontal", a, (5.0, 0.0, -5.0), 1.0)
    with pytest.raises(ValueError, match="step 0: .*equal a3"):
        revalidate_certificate(_forge(cert, [moved]))
    wide = ZigZagStep("horizontal", (6.0, -2.0, -4.0), b, 1.0)
    with pytest.raises(ValueError, match="step 0: .*a2 >= -1"):
        revalidate_certificate(_forge(cert, [wide]))


def test_vertical_bound_value_and_rejections():
    a = (4.0, 0.0, -4.0)
    b = (4.0, -1.0, -3.0)
    assert step_bound("vertical", a, b, 0.1, 1.0) == pytest.approx(
        14.0 * math.exp(-1.2), rel=1e-15)
    assert (step_bound("vertical", a, a, 0.1, 1.0)
            == step_bound("vertical", a, b, 0.1, 1.0))
    assert (step_bound("vertical", a, (4.0 + 5e-13, -1.0, -3.0 - 5e-13),
                       0.1, 1.0)
            == 14.0 * math.exp(-0.3 * 4.0))
    with pytest.raises(ValueError, match="equal a1"):
        step_bound("vertical", a, (5.0, -1.0, -4.0), 0.1, 1.0)
    with pytest.raises(ValueError, match="a2 <= 1"):
        step_bound("vertical", (4.0, 2.0, -6.0), a, 0.1, 1.0)
    cert = zigzag_certificate(_axis(2.0), _axis(4.0), 0.1, 1.0)
    bad = ZigZagStep("vertical", (4.0, 2.0, -6.0), a, 1.0)
    with pytest.raises(ValueError, match="step 1: .*a2 <= 1"):
        revalidate_certificate(_forge(cert, [cert.steps[0], bad]))


def test_step_region_invariants_enforced():
    a = (3.0, 1.0, -4.0)
    with pytest.raises(ValueError, match="kind"):
        step_bound("diagonal", a, a, 0.1, 1.0)
    cert = zigzag_certificate(_axis(2.0), _axis(4.0), 0.1, 1.0)
    for bad, match in [
            (ZigZagStep("horizontal", a, (5.0, 0.0, -5.0), 1.0), "equal a3"),
            (ZigZagStep("diagonal", a, a, 1.0), "kind"),
            (cert.steps[0]._replace(bound=-cert.steps[0].bound),
             "recorded bound")]:
        with pytest.raises(ValueError, match=f"step 0: .*({match})"):
            revalidate_certificate(_forge(cert, [bad]))


# ---------------------------------------------------------------------------
# axis chains


def test_chain_degenerate_is_one_vacuous_move():
    for r, s, L in [(3.0, 0.1, 1.0), (1.0, 0.05, 10.0)]:
        t = 0.5 - 2 * s
        assert axis_chain_bound(r, r, s, L) == pytest.approx(
            28.0 * L * L * math.exp(-t * r), rel=1e-15)


def test_chain_follows_the_walk_tolerance_rule():
    # radii within _EQ_TOL are one radius, for the chain as for the walk:
    # r + 1e-13 pays the vacuous move, as r itself does, not nothing
    for r, s, L in [(3.0, 0.1, 1.0), (1.0, 0.05, 10.0)]:
        same = axis_chain_bound(r, r, s, L)
        for gap in (1e-13, 5e-13):
            assert axis_chain_bound(r, r + gap, s, L) == same
    # radii a few ulps more than _EQ_TOL apart walk one connected unit move
    r2 = 1.000000000001
    assert r2 - 1.0 > _EQ_TOL
    cert = zigzag_certificate(_axis(1.0), _axis(r2), 0.05, 1.0)
    assert [st.kind for st in cert.steps] == ["horizontal", "vertical"]
    assert revalidate_certificate(cert)
    assert axis_chain_bound(1.0, r2, 0.05, 1.0) == cert.totals[0]


def test_chain_explicit_partial_sum():
    # unit moves 4->5->6 cost 14(e^{-t u} + e^{-t v}) each
    got = axis_chain_bound(4.0, 6.0, 0.1, 1.0)
    want = 14.0 * (math.exp(-1.2) + 2 * math.exp(-1.5) + math.exp(-1.8))
    assert got == pytest.approx(want, rel=1e-15)
    assert got <= 42.0 / 0.6 * math.exp(-1.2)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.2])
def test_chain_matches_geometric_closed_form(s):
    # k unit moves from r cost 14 L^2 e^{-t r} (1 + q)(1 - q^k)/(1 - q),
    # q = e^{-t}: a closed form that shares no code with the walk
    L = 3.0
    t = 0.5 - 2 * s
    q = math.exp(-t)
    for r in (1.0, 2.5, 7.0):
        for k in (1, 2, 5, 19):
            want = (14.0 * L * L * math.exp(-t * r) * (1 + q) * (1 - q ** k)
                    / (1 - q))
            got = axis_chain_bound(r, r + k, s, L)
            assert got == pytest.approx(want, rel=1e-13, abs=0)
            cert = zigzag_certificate(_axis(r), _axis(r + k), s, L)
            assert cert.totals[0] == pytest.approx(want, rel=1e-13, abs=0)


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
    a = (3.0, 1.0, -4.0)
    cert = zigzag_certificate(a, a, 0.1, 1.0)
    assert len(cert.steps) == 0
    assert cert.totals.tolist() == [0.0]
    assert cert.targets[0] > 0
    assert cert.passed.tolist() == [True]
    assert revalidate_certificate(cert)


def test_certificate_axis_pair_matches_chain():
    cert = zigzag_certificate(_axis(2.0), _axis(4.0), 0.1, 1.0)
    assert cert.totals[0] == axis_chain_bound(2.0, 4.0, 0.1, 1.0)
    assert cert.targets[0] == pytest.approx(70.0 / 0.6 * math.exp(-0.6),
                                            rel=1e-15)
    assert cert.passed[0]


def test_certificate_routes_off_axis_endpoint_first():
    cert = zigzag_certificate((5.0, 1.0, -6.0), _axis(2.0), 0.1, 1.0)
    first = cert.steps[0]
    assert first.kind == "horizontal"           # a2 >= 0 region
    assert first.start == (5.0, 1.0, -6.0)
    assert first.end == (6.0, 0.0, -6.0)
    assert cert.steps[-1].end == (2.0, 0.0, -2.0)
    assert revalidate_certificate(cert)

    cert = zigzag_certificate((6.0, -1.0, -5.0), _axis(2.0), 0.1, 1.0)
    assert cert.steps[0].kind == "vertical"     # a2 < 0 region
    assert cert.steps[0].end == (6.0, 0.0, -6.0)


def test_certificate_direction_symmetric_total():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = _random_point(rng), _random_point(rng)
        fwd = zigzag_certificate(a, b, 0.1, 1.0)
        back = zigzag_certificate(b, a, 0.1, 1.0)
        assert fwd.totals[0] == pytest.approx(back.totals[0], rel=1e-12)
        assert fwd.targets[0] == back.targets[0]


def test_certificate_seventy_envelope_grid():
    rng = np.random.default_rng(4)
    for s in (0.05, 0.1, 0.2):
        for L in (1.0, 10.0):
            for _ in range(60):
                cert = zigzag_certificate(_random_point(rng),
                                          _random_point(rng), s, L)
                assert revalidate_certificate(cert)
                assert cert.passed[0]


def test_certificate_wide_middle_coordinate_routes():
    # points outside the |a2| <= 1 band still reach the axis in one move
    cert = zigzag_certificate((10.0, 8.0, -18.0), (18.0, -8.0, -10.0),
                              0.05, 1.0)
    assert revalidate_certificate(cert)
    assert cert.passed[0]


def test_certificate_rejects_small_radius_and_bad_rate():
    with pytest.raises(ValueError, match="radius"):
        zigzag_certificate(_axis(0.5), _axis(2.0), 0.1, 1.0)
    with pytest.raises(ValueError, match="s < 1/4"):
        zigzag_certificate(_axis(2.0), _axis(3.0), 0.3, 1.0)


def test_certificate_json_document():
    cert = zigzag_certificate((5.0, 1.0, -6.0), _axis(2.0), 0.1, 1.0)
    doc = cert.to_json(0)
    assert set(doc) == {"params", "steps", "total", "target", "pass", "notes"}
    assert doc["params"] == {"s": 0.1, "L": 1.0, "t": pytest.approx(0.3)}
    assert doc["pass"] is True
    assert doc["total"] == cert.totals[0]
    assert doc["steps"][0] == {"kind": "horizontal", "from": [5.0, 1.0, -6.0],
                               "to": [6.0, 0.0, -6.0],
                               "bound": cert.steps[0].bound}
    for step in doc["steps"]:
        assert set(step) == {"kind", "from", "to", "bound"}
    assert "100/(1-4s)" in doc["notes"]
    json.loads(json.dumps(doc))               # round-trips as plain JSON


def test_revalidation_catches_tampering():
    cert = zigzag_certificate(_axis(2.0), _axis(5.0), 0.1, 1.0)
    steps = list(cert.steps)
    assert revalidate_certificate(_forge(cert, steps))
    # a tampered bound, with the total made to agree
    doctored = steps[:2] + [steps[2]._replace(bound=steps[2].bound * 0.5)]
    with pytest.raises(ValueError, match="step 2: recorded bound"):
        revalidate_certificate(_forge(cert, doctored))
    # a region-rule break: a vertical move may not start above a2 = 1
    wide = ZigZagStep("vertical", (5.0, 2.0, -7.0), (5.0, 0.0, -5.0), 1.0)
    with pytest.raises(ValueError, match="step 1: .*a2 <= 1"):
        revalidate_certificate(_forge(cert, steps[:1] + [wide]))
    # a recorded point off the chamber (unordered, or not summing to zero),
    # at a start or at the final end
    for off in [(3.0, 4.0, -7.0), (3.0, -1.0, -1.0)]:
        moved = steps[1]._replace(start=off)
        with pytest.raises(ValueError, match="step 1: .*(ordered|sum to 0)"):
            revalidate_certificate(_forge(cert, [steps[0], moved]))
    assert steps[5].kind == "vertical" and steps[5].end == _axis(5.0)
    for off in [(5.0, -3.0, -2.0), (5.0, 0.5, -5.0)]:
        moved = steps[5]._replace(end=off)
        with pytest.raises(ValueError, match="step 5: .*(ordered|sum to 0)"):
            revalidate_certificate(_forge(cert, steps[:5] + [moved]))
    # a broken connection: step 1 is skipped, or starts 5e-11 off in a2
    # alone (inside the chamber check's 1e-10, outside the 1e-12 join)
    a1, a2, a3 = steps[1].start
    nudged = steps[1]._replace(start=(a1, a2 + 5e-11, a3))
    for broken in [steps[:1] + steps[2:], [steps[0], nudged]]:
        with pytest.raises(ValueError,
                           match="step 1 does not start where step 0 ended"):
            revalidate_certificate(_forge(cert, broken))
    # a wrong total
    bad_total = _forge(cert, steps)
    bad_total.totals *= 1 + 1e-15
    with pytest.raises(ValueError, match="certificate 0: total"):
        revalidate_certificate(bad_total)
    # the doctored steps under the true total: the bad bound comes first
    with pytest.raises(ValueError, match="step 2: recorded bound"):
        revalidate_certificate(dataclasses.replace(_forge(cert, doctored),
                                                   totals=cert.totals))
    # a wrong t
    with pytest.raises(ValueError, match="1/2 - 2s"):
        revalidate_certificate(dataclasses.replace(cert, t=0.25))


# a block whose certificates do not join one another: 6 steps, none, 8
# and 5
_BLOCK_PAIRS = [(_axis(2.0), _axis(5.0)),
                ((3.0, 1.0, -4.0), (3.0, 1.0, -4.0)),
                ((5.0, 1.0, -6.0), (3.0, -1.0, -2.0)),
                (_axis(4.0), (6.0, -1.0, -5.0))]


def _block():
    return zigzag_certificate(np.array([a for a, _ in _BLOCK_PAIRS]),
                              np.array([b for _, b in _BLOCK_PAIRS]),
                              0.1, 1.0)


def _tamper(block, j, **fields):
    """`block` with flat step j's fields replaced, on copies of its arrays."""
    arrays = {name: getattr(block, name).copy() for name in fields}
    for name, value in fields.items():
        arrays[name][j] = value
    return dataclasses.replace(block, **arrays)


def test_block_revalidation_checks_within_certificates_only():
    block = _block()
    assert np.diff(block.offsets).tolist() == [6, 0, 8, 5]
    assert len(block.steps) == 19
    assert revalidate_certificate(block)
    # consecutive certificates do not join, and that is no fault
    assert not np.allclose(block.start[6], block.end[5])
    assert not np.allclose(block.start[14], block.end[13])


def test_block_revalidation_names_the_bad_certificate_and_step():
    block = _block()
    at = block.offsets.tolist()      # certificate i starts at flat step at[i]
    cases = [
        # a bound, one ulp either way or halved, the totals untouched
        (_tamper(block, at[2] + 3, bound=np.nextafter(block.bound[at[2] + 3],
                                                      np.inf)),
         "certificate 2, step 3: recorded bound"),
        (_tamper(block, at[0] + 1, bound=np.nextafter(block.bound[at[0] + 1],
                                                      0.0)),
         "certificate 0, step 1: recorded bound"),
        (_tamper(block, at[3] + 4, bound=block.bound[at[3] + 4] * 0.5),
         "certificate 3, step 4: recorded bound"),
        # an unknown kind
        (_tamper(block, at[0] + 1, kind="diagonal"),
         "certificate 0, step 1: unknown step kind 'diagonal'"),
        # vertical moves that start above a2 = 1, far or just beyond 1e-12
        (_tamper(block, at[2] + 1, kind="vertical", start=(5.0, 2.0, -7.0),
                 end=(5.0, 0.0, -5.0)),
         "certificate 2, step 1: vertical move requires a2 <= 1"),
        (_tamper(block, at[3] + 4, end=(6.0, 1.0 + 1e-11, -7.0 - 1e-11)),
         "certificate 3, step 4: vertical move requires a2 <= 1"),
        # a horizontal move that ends just below a2 = -1
        (_tamper(block, at[0], end=(3.0 + 1e-11, -1.0 - 1e-11, -2.0)),
         "certificate 0, step 0: horizontal move requires a2 >= -1"),
        # a frozen coordinate that moves, far or by 5e-11
        (_tamper(block, at[0] + 2, end=(7.0, -1.0, -6.0)),
         "certificate 0, step 2: horizontal move requires equal a3"),
        (_tamper(block, at[0] + 2, end=(4.0 + 5e-11, -1.0, -3.0 - 5e-11)),
         "certificate 0, step 2: horizontal move requires equal a3"),
        # recorded points off the chamber: at a certificate's first start,
        # at a later start and at the last end
        (_tamper(block, at[2], start=(3.0, 4.0, -7.0)),
         r"certificate 2, step 0: triple \(3.0, 4.0, -7.0\) not ordered"),
        (_tamper(block, at[3] + 1, start=(3.0, 4.0, -7.0)),
         r"certificate 3, step 1: triple \(3.0, 4.0, -7.0\) not ordered"),
        (_tamper(block, at[4] - 1, end=(6.0, -0.5, -6.0)),
         "certificate 3, step 4: exponents must sum to 0"),
        # a start 5e-11 off in a2 alone: inside the chamber check's 1e-10,
        # outside the 1e-12 join
        (_tamper(block, at[2] + 2, start=block.start[at[2] + 2]
                 + (0.0, 5e-11, 0.0)),
         "certificate 2, step 2 does not start where step 1 ended"),
    ]
    # a boundary moved by one step, totals made to agree: certificate 2
    # ends with certificate 3's first step, or certificate 3 starts with
    # certificate 2's last one
    for shift, name in [(1, "certificate 2, step 8 does not start where "
                            "step 7 ended"),
                        (-1, "certificate 3, step 1 does not start where "
                             "step 0 ended")]:
        cuts = at.copy()
        cuts[3] += shift
        totals = np.array([math.fsum(block.bound[p:q])
                           for p, q in zip(cuts, cuts[1:])])
        cases.append((dataclasses.replace(block, offsets=np.array(cuts),
                                          totals=totals), name))
    for c, toward in [(3, np.inf), (0, 0.0)]:
        totals = block.totals.copy()
        totals[c] = np.nextafter(totals[c], toward)
        cases.append((dataclasses.replace(block, totals=totals),
                      f"certificate {c}: total does not match"))
    cases.append((dataclasses.replace(block, t=0.25), "1/2 - 2s"))
    for bad, match in cases:
        with pytest.raises(ValueError, match=match):
            revalidate_certificate(bad)
    assert revalidate_certificate(block)   # the tampering used copies


def test_block_revalidation_reports_the_first_bad_certificate():
    block = _block()
    at = block.offsets.tolist()
    bad_step = _tamper(block, at[2] + 3, bound=1.0)
    totals = bad_step.totals.copy()
    totals[1] = 1.0                  # the empty certificate claims a total
    with pytest.raises(ValueError, match="certificate 1: total"):
        revalidate_certificate(dataclasses.replace(bad_step, totals=totals))
    # within one certificate a bad step comes before its total
    totals = bad_step.totals.copy()
    totals[2] += 1.0
    with pytest.raises(ValueError, match="certificate 2, step 3"):
        revalidate_certificate(dataclasses.replace(bad_step, totals=totals))
    # the earlier of two bad steps wins, whatever checks find them
    worse = _tamper(bad_step, at[2] + 1, start=(5.0, 2.0, -7.0))
    with pytest.raises(ValueError, match="certificate 2, step 1"):
        revalidate_certificate(worse)
    worse = _tamper(worse, at[2] + 5, start=(4.0, 5.0, -9.0))
    with pytest.raises(ValueError, match="certificate 2, step 1: vertical"):
        revalidate_certificate(worse)
    cut = _tamper(bad_step, at[2] + 2, start=block.start[at[2] + 2]
                  + (0.0, 5e-11, 0.0))
    with pytest.raises(ValueError, match="certificate 2, step 2 does not"):
        revalidate_certificate(cut)
    # and at one step the checks go in order: chamber, move rules, bound,
    # connection
    both = _tamper(bad_step, at[2] + 3, start=(4.0, 5.0, -9.0))
    with pytest.raises(ValueError, match="certificate 2, step 3: triple"):
        revalidate_certificate(both)
    both = _tamper(bad_step, at[2] + 3, start=(5.0, -1.0 + 1e-11, -4.0))
    with pytest.raises(ValueError, match="certificate 2, step 3: recorded"):
        revalidate_certificate(both)


@given(st.floats(1.0, 20.0), st.floats(1.0, 20.0),
       st.sampled_from([0.05, 0.1, 0.2]))
@settings(max_examples=60, deadline=None)
def test_axis_certificates_always_pass(r1, r2, s):
    cert = zigzag_certificate(_axis(r1), _axis(r2), s, 1.0)
    assert revalidate_certificate(cert)
    assert cert.passed[0]


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
    # step n of the rescaled sequence reads step m = floor((n - b)/a) of the
    # old one, where the new profile bounds the old: C e^{-tm} <= C' e^{-t'n}
    for (a, b), n in itertools.product([(2, 1), (1, 0), (3.5, 2.25)], range(40)):
        q, m = rescale_params(p, a, b), math.floor((n - b) / a)
        assert p.C * math.exp(-p.t * m) <= q.C * math.exp(-q.t * n) * (1 + 1e-12)


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
