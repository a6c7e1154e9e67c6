"""Certified decay bookkeeping for zig-zag paths in a rank-two chamber.

Points live in the closed cone a1 >= a2 >= a3 with a1 + a2 + a3 = 0.  Two
kinds of elementary moves carry explicit exponential bounds:

* horizontal -- the lowest coordinate a3 is frozen; the bound decays in |a3|;
* vertical   -- the top coordinate a1 is frozen; the bound decays in a1.

A general pair of points is compared by routing each to the central axis
(a2 = 0) with one move and then walking the axis in unit moves, each a
horizontal/vertical pair through an intermediate point.  The resulting
`BoundCertificate` records every step with enough data to be re-validated
from scratch.  The bounds are formula values, not distances: a degenerate
move from a point to itself still pays the full formula amount.

`StarParams` packages a decay profile (s, t, C); `rescale_params` and
`product_params` transport such profiles under length rescaling and direct
products.
"""
import math
from dataclasses import dataclass

from .cartan import CartanTriple

_EQ_TOL = 1e-12

__all__ = [
    "ChamberPoint",
    "ZigZagStep",
    "BoundCertificate",
    "StarParams",
    "horizontal_bound",
    "vertical_bound",
    "axis_chain_bound",
    "zigzag_certificate",
    "revalidate_certificate",
    "rescale_params",
    "rescale_reindex",
    "product_params",
]


@dataclass
class ChamberPoint(CartanTriple):
    """A chamber point; adds axis bookkeeping to the ordered zero-sum triple.

    Its axis radius, the r of the nearest axis point c_r = (r, 0, -r), is
    the inherited ``length``.
    """

    @property
    def on_axis(self) -> bool:
        return abs(self.a2) <= _EQ_TOL

    def axis_point(self) -> "ChamberPoint":
        r = self.length
        return ChamberPoint(r, 0.0, -r)

    def close_to(self, other, tol: float = _EQ_TOL) -> bool:
        return all(abs(x - y) <= tol
                   for x, y in zip(self.as_tuple(), other.as_tuple()))


@dataclass
class ZigZagStep:
    kind: str              # "horizontal" | "vertical"
    start: ChamberPoint
    end: ChamberPoint
    bound: float
    justification: str

    def __post_init__(self):
        if self.kind not in ("horizontal", "vertical"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.bound < 0:
            raise ValueError("step bound must be nonnegative")
        if self.kind == "horizontal":
            if abs(self.start.a3 - self.end.a3) > _EQ_TOL:
                raise ValueError("horizontal step must keep a3 fixed")
            if min(self.start.a2, self.end.a2) < -1 - _EQ_TOL:
                raise ValueError("horizontal step needs a2 >= -1 at both ends")
        else:
            if abs(self.start.a1 - self.end.a1) > _EQ_TOL:
                raise ValueError("vertical step must keep a1 fixed")
            if max(self.start.a2, self.end.a2) > 1 + _EQ_TOL:
                raise ValueError("vertical step needs a2 <= 1 at both ends")


@dataclass
class StarParams:
    """A geometric decay profile: norms shrink like C * e^{-t n} with rate s."""
    s: float
    t: float
    C: float

    def __post_init__(self):
        if not (self.s > 0 and self.t > 0 and self.C > 0):
            raise ValueError("StarParams requires s, t, C all positive")


def _check_rate(s):
    if not s < 0.25:
        raise ValueError(
            f"rate parameter s={s} violates s < 1/4; decay exponent t = 1/2 - 2s"
            " must stay positive")


def _check_scale(L):
    if not L > 0:
        raise ValueError("scale constant L must be positive")


def horizontal_bound(a, a_prime, s, L) -> float:
    """Decay bound 14 L^2 e^{(1/2-2s) a3} for a move with a3 frozen.

    Valid in the region a2, a2' >= -1 (the shared a3 is negative in all
    intended uses, so the bound decays in |a3|).  The formula ignores how far
    the middle coordinates move, and in particular a == a' is allowed.
    """
    _check_rate(s)
    _check_scale(L)
    if abs(a.a3 - a_prime.a3) > _EQ_TOL:
        raise ValueError(
            f"horizontal move requires equal a3, got {a.a3} vs {a_prime.a3}")
    if min(a.a2, a_prime.a2) < -1 - _EQ_TOL:
        raise ValueError(
            f"horizontal move requires a2 >= -1 at both endpoints, got "
            f"{a.a2} and {a_prime.a2}")
    t = 0.5 - 2.0 * s
    return 14.0 * L * L * math.exp(t * a.a3)


def vertical_bound(a, a_prime, s, L) -> float:
    """Decay bound 14 L^2 e^{-(1/2-2s) a1} for a move with a1 frozen.

    Valid in the region a2, a2' <= 1.  Mirror image of `horizontal_bound`
    under the order-reversing chamber symmetry.
    """
    _check_rate(s)
    _check_scale(L)
    if abs(a.a1 - a_prime.a1) > _EQ_TOL:
        raise ValueError(
            f"vertical move requires equal a1, got {a.a1} vs {a_prime.a1}")
    if max(a.a2, a_prime.a2) > 1 + _EQ_TOL:
        raise ValueError(
            f"vertical move requires a2 <= 1 at both endpoints, got "
            f"{a.a2} and {a_prime.a2}")
    t = 0.5 - 2.0 * s
    return 14.0 * L * L * math.exp(-t * a.a1)


def _axis(r) -> ChamberPoint:
    return ChamberPoint(float(r), 0.0, -float(r))


def _unit_move(u, v, s, L):
    """Two legs joining axis points c_u -> c_v, |u - v| <= 1, u, v >= 1.

    Ascending moves pass through (v, u-v, -u): a horizontal leg (a3 = -u
    frozen) followed by a vertical leg (a1 = v frozen).  Descending moves
    mirror this.  A degenerate move (u == v) keeps both legs at c_u, so it
    pays 28 L^2 e^{-t u}.
    """
    cu, cv = _axis(u), _axis(v)
    if v >= u:
        mid = _axis(u) if v == u else ChamberPoint(v, u - v, -u)
        return [
            ZigZagStep("horizontal", cu, mid,
                       horizontal_bound(cu, mid, s, L), "horizontal-estimate"),
            ZigZagStep("vertical", mid, cv,
                       vertical_bound(mid, cv, s, L), "vertical-estimate"),
        ]
    mid = ChamberPoint(u, v - u, -v)
    return [
        ZigZagStep("vertical", cu, mid,
                   vertical_bound(cu, mid, s, L), "vertical-estimate"),
        ZigZagStep("horizontal", mid, cv,
                   horizontal_bound(mid, cv, s, L), "horizontal-estimate"),
    ]


def _node_ladder(r_from, r_to):
    """Axis nodes visited between two radii, in path order.

    The unit grid anchors at the smaller radius, so any fractional move
    happens at the far (large-radius) end where the bounds are smallest;
    anchoring at the start instead would put the short move next to the
    dominant e^{-t min(r, r')} term and break the geometric envelope.
    """
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    ladder = [lo + k for k in range(int(math.floor(hi - lo)) + 1)]
    if ladder[-1] < hi - _EQ_TOL:
        ladder.append(hi)
    else:
        ladder[-1] = hi
    if r_from > r_to:
        ladder.reverse()
    return ladder


def _axis_steps(r_from, r_to, s, L):
    ladder = _node_ladder(r_from, r_to)
    steps = []
    for u, v in zip(ladder, ladder[1:]):
        steps.extend(_unit_move(u, v, s, L))
    return steps


def axis_chain_bound(r1, r2, s, L) -> float:
    """Summed bound for the unit-move chain joining c_{r1} to c_{r2}.

    Honest partial sum over the actual legs: each unit move from u to v
    costs 14 L^2 (e^{-t u} + e^{-t v}).  The degenerate case r1 == r2 is a
    single vacuous move costing 28 L^2 e^{-t r1}.
    """
    _check_rate(s)
    _check_scale(L)
    if r1 < 1:
        raise ValueError(f"axis chain starts at radius 1, got r1={r1}")
    if r2 < r1:
        raise ValueError("need r1 <= r2")
    if r2 == r1:
        return math.fsum(st.bound for st in _unit_move(r1, r1, s, L))
    return math.fsum(st.bound for st in _axis_steps(r1, r2, s, L))


@dataclass
class BoundCertificate:
    steps: tuple
    total: float
    target: float
    s: float
    L: float
    t: float

    def __post_init__(self):
        if self.total != math.fsum(st.bound for st in self.steps):
            raise ValueError("certificate total must equal the sum of step bounds")

    @property
    def params(self):
        return (self.s, self.L, self.t)

    @property
    def passed(self) -> bool:
        return self.total <= self.target

    def to_json(self) -> dict:
        # the coarser companion envelope scales the same max(...) term by
        # 100/(1-4s) instead of 70/(1-4s)
        loose = self.target * (100.0 / 70.0)
        return {
            "params": {"s": self.s, "L": self.L, "t": self.t},
            "steps": [
                {
                    "kind": st.kind,
                    "from": list(st.start.as_tuple()),
                    "to": list(st.end.as_tuple()),
                    "bound": st.bound,
                    "justification": st.justification,
                }
                for st in self.steps
            ],
            "total": self.total,
            "target": self.target,
            "pass": self.passed,
            "notes": (
                "target uses the sharp constant 70/(1-4s); the coarser "
                f"100/(1-4s) envelope evaluates to {loose:.17g}"
            ),
        }


def _route_step(point, s, L, outbound):
    """One move taking `point` to its axis point (or back, when not outbound).

    Points with a2 >= 0 sit in the horizontal region (their a3 already has
    the axis value); points with a2 < 0 route vertically.  Ties at a2 = 0
    resolve toward horizontal, though on-axis points never reach here.
    """
    landing = point.axis_point()
    start, end = (point, landing) if outbound else (landing, point)
    if point.a2 >= 0:
        return ZigZagStep("horizontal", start, end,
                          horizontal_bound(start, end, s, L),
                          "horizontal-estimate")
    return ZigZagStep("vertical", start, end,
                      vertical_bound(start, end, s, L), "vertical-estimate")


def zigzag_certificate(a, a_prime, s, L) -> BoundCertificate:
    """Build the step-by-step bound certificate joining two chamber points.

    Route each off-axis endpoint to the axis with one move, then walk the
    axis in unit moves.  The target is (70/(1-4s)) L^2 max(e^{-t r}, e^{-t r'})
    with r, r' the axis radii of the endpoints and t = 1/2 - 2s.  Equal
    endpoints need no steps at all, so their total is zero.
    """
    _check_rate(s)
    _check_scale(L)
    if not isinstance(a, ChamberPoint):
        a = ChamberPoint(*a.as_tuple()) if hasattr(a, "as_tuple") else ChamberPoint(*a)
    if not isinstance(a_prime, ChamberPoint):
        a_prime = (ChamberPoint(*a_prime.as_tuple())
                   if hasattr(a_prime, "as_tuple") else ChamberPoint(*a_prime))
    t = 0.5 - 2.0 * s
    target = (70.0 / (1.0 - 4.0 * s)) * L * L * max(
        math.exp(-t * a.length), math.exp(-t * a_prime.length))
    if a.close_to(a_prime):
        return BoundCertificate((), 0.0, target, s, L, t)
    if a.length < 1 or a_prime.length < 1:
        raise ValueError("both endpoints need axis radius >= 1 "
                         "(the axis chain starts at radius 1)")
    steps = []
    if not a.on_axis:
        steps.append(_route_step(a, s, L, outbound=True))
    if abs(a.length - a_prime.length) > _EQ_TOL:
        steps.extend(_axis_steps(a.length, a_prime.length, s, L))
    if not a_prime.on_axis:
        steps.append(_route_step(a_prime, s, L, outbound=False))
    total = math.fsum(st.bound for st in steps)
    return BoundCertificate(tuple(steps), total, target, s, L, t)


def revalidate_certificate(cert: BoundCertificate) -> bool:
    """Recompute every step bound and region flag from scratch.

    Raises ValueError on the first discrepancy; returns True otherwise.
    The step constructors already enforce region flags, so this re-derives
    each bound with the public formula functions and checks exact equality,
    path connectivity, and the total.
    """
    prev = None
    for i, st in enumerate(cert.steps):
        fn = horizontal_bound if st.kind == "horizontal" else vertical_bound
        fresh = fn(st.start, st.end, cert.s, cert.L)
        if fresh != st.bound:
            raise ValueError(f"step {i}: recorded bound {st.bound} != {fresh}")
        if prev is not None and not st.start.close_to(prev):
            raise ValueError(f"step {i} does not start where step {i-1} ended")
        prev = st.end
    if cert.total != math.fsum(st.bound for st in cert.steps):
        raise ValueError("total does not match the sum of step bounds")
    if abs(cert.t - (0.5 - 2.0 * cert.s)) > _EQ_TOL:
        raise ValueError("recorded t is not 1/2 - 2s")
    return True


def rescale_reindex(n: int, a, b) -> int:
    """Index bookkeeping for rescaled lengths: step n maps to floor((n-b)/a)."""
    return math.floor((n - b) / a)


def rescale_params(params: StarParams, a, b) -> StarParams:
    """Transport a decay profile along a length rescaling l' <= a*l + b.

    New profile (s/a, t/a, C * e^{(2sb + ta + tb)/a}); the associated measure
    sequence is reindexed by `rescale_reindex`.  The constant never shrinks.
    """
    if a <= 0:
        raise ValueError("rescaling factor a must be positive")
    if b < 0:
        raise ValueError("rescaling offset b must be nonnegative")
    grow = math.exp((2.0 * params.s * b + params.t * a + params.t * b) / a)
    return StarParams(params.s / a, params.t / a, params.C * grow)


def product_params(p1: StarParams, p2: StarParams) -> StarParams:
    """Combine decay profiles of two factors of a direct product.

    The combined rate is s = min(t1/3, t2/3, s1, s2) and the profile holds
    with t = s and C = (2 C1 e^{2s} + 2 C2) / (1 - e^{-s}).
    """
    s = min(p1.t / 3.0, p2.t / 3.0, p1.s, p2.s)
    c = (2.0 * p1.C * math.exp(2.0 * s) + 2.0 * p2.C) / (1.0 - math.exp(-s))
    return StarParams(s, s, c)
