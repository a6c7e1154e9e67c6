"""Certified decay bookkeeping for zig-zag paths in a rank-two chamber.

Points are plain float triples (a1, a2, a3) in the closed cone
a1 >= a2 >= a3 with a1 + a2 + a3 = 0.  The axis radius of a point is
r = max(a1, -a3), and c_r = (r, 0, -r) is the axis point of that radius.
A walk is a tuple of `ZigZagStep`s (kind, start, end, bound), and
`step_bound` is the one place that knows the two kinds of move:

    kind        frozen   region (both ends)   bound, t = 1/2 - 2s
    horizontal  a3       a2 >= -1             14 L^2 e^{t a3}
    vertical    a1       a2 <= 1              14 L^2 e^{-t a1}

The frozen coordinate must agree at both ends (to 1e-12) and the bound
reads it at the start.  The bounds are formula values, not distances: a
degenerate move from a point to itself still pays the full amount.

`zigzag_certificate` routes each off-axis endpoint to its axis point with
one move (horizontal when a2 >= 0, vertical otherwise) and walks the axis
in unit moves c_u -> c_v.  Going up, a unit move is a horizontal leg to
(v, u-v, -u) and a vertical leg on to c_v; going down it is a vertical leg
to (u, v-u, -v) and a horizontal one.  `revalidate_certificate` re-derives
a `BoundCertificate` from its steps alone.

`StarParams` packages a decay profile (s, t, C); `rescale_params` and
`product_params` transport such profiles under length rescaling and direct
products.
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

from .cartan import CartanTriple, _check_exponents

_EQ_TOL = 1e-12

__all__ = [
    "ZigZagStep",
    "BoundCertificate",
    "StarParams",
    "step_bound",
    "axis_chain_bound",
    "zigzag_certificate",
    "revalidate_certificate",
    "rescale_params",
    "rescale_reindex",
    "product_params",
]


class ZigZagStep(NamedTuple):
    """One recorded move; `revalidate_certificate` checks it."""
    kind: str              # "horizontal" | "vertical"
    start: tuple
    end: tuple
    bound: float


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


def step_bound(kind, start, end, s, L) -> float:
    """Decay bound of one move from `start` to `end`, as in the module table.

    Raises ValueError for an unknown kind, a move whose frozen coordinate
    changes, or an end outside the kind's region.  The formula ignores how
    far the other coordinates move, so start == end is allowed.
    """
    _check_rate(s)
    _check_scale(L)
    t = 0.5 - 2.0 * s
    if kind == "horizontal":
        frozen, region, exponent = 2, "a2 >= -1", t * start[2]
        outside = min(start[1], end[1]) < -1 - _EQ_TOL
    elif kind == "vertical":
        frozen, region, exponent = 0, "a2 <= 1", -t * start[0]
        outside = max(start[1], end[1]) > 1 + _EQ_TOL
    else:
        raise ValueError(f"unknown step kind {kind!r}")
    if abs(start[frozen] - end[frozen]) > _EQ_TOL:
        raise ValueError(
            f"{kind} move requires equal a{frozen + 1}, got {start[frozen]} "
            f"vs {end[frozen]}")
    if outside:
        raise ValueError(
            f"{kind} move requires {region} at both endpoints, got "
            f"{start[1]} and {end[1]}")
    return 14.0 * L * L * math.exp(exponent)


def _close(p, q) -> bool:
    return (abs(p[0] - q[0]) <= _EQ_TOL and abs(p[1] - q[1]) <= _EQ_TOL
            and abs(p[2] - q[2]) <= _EQ_TOL)


def _unit_moves(nodes):
    """(kind, start, end) of both legs of each unit move c_u -> c_v between
    consecutive axis radii in `nodes`.  A degenerate move (u == v) keeps
    both legs at c_u, so it pays 28 L^2 e^{-t u}."""
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
    nodes = (r1, r1) if r2 == r1 else _node_ladder(r1, r2)
    return math.fsum(step_bound(kind, p, q, s, L)
                     for kind, p, q in _unit_moves(nodes))


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
                {"kind": st.kind, "from": list(st.start), "to": list(st.end),
                 "bound": st.bound}
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


def _endpoint(point):
    """A chamber point (`CartanTriple` or triple) as a float triple and its
    axis radius; a triple outside the chamber is refused."""
    if not isinstance(point, CartanTriple):
        point = CartanTriple(*point)
    return tuple(map(float, point.as_tuple())), float(point.length)


def zigzag_certificate(a, a_prime, s, L) -> BoundCertificate:
    """Build the step-by-step bound certificate joining two chamber points.

    Route each off-axis endpoint to the axis with one move, then walk the
    axis in unit moves.  The target is (70/(1-4s)) L^2 max(e^{-t r}, e^{-t r'})
    with r, r' the axis radii of the endpoints and t = 1/2 - 2s.  Equal
    endpoints need no steps at all, so their total is zero.
    """
    _check_rate(s)
    _check_scale(L)
    (a, r), (a_prime, r_prime) = _endpoint(a), _endpoint(a_prime)
    t = 0.5 - 2.0 * s
    target = (70.0 / (1.0 - 4.0 * s)) * L * L * max(
        math.exp(-t * r), math.exp(-t * r_prime))
    if _close(a, a_prime):
        return BoundCertificate((), 0.0, target, s, L, t)
    if r < 1 or r_prime < 1:
        raise ValueError("both endpoints need axis radius >= 1 "
                         "(the axis chain starts at radius 1)")
    # an a2 >= 0 point already has the axis value of a3, an a2 < 0 one of a1
    moves = []
    if abs(a[1]) > _EQ_TOL:
        moves.append(("horizontal" if a[1] >= 0 else "vertical",
                      a, (r, 0.0, -r)))
    if abs(r - r_prime) > _EQ_TOL:
        moves.extend(_unit_moves(_node_ladder(r, r_prime)))
    if abs(a_prime[1]) > _EQ_TOL:
        moves.append(("horizontal" if a_prime[1] >= 0 else "vertical",
                      (r_prime, 0.0, -r_prime), a_prime))
    steps = tuple(ZigZagStep(kind, p, q, step_bound(kind, p, q, s, L))
                  for kind, p, q in moves)
    return BoundCertificate(steps, math.fsum(st.bound for st in steps),
                            target, s, L, t)


def revalidate_certificate(cert: BoundCertificate) -> bool:
    """Re-derive a certificate from its recorded steps alone.

    Every recorded point must lie in the chamber, every step must keep its
    kind's frozen coordinate and region and carry exactly the bound
    `step_bound` gives, and each step must start where the one before it
    ended (to 1e-12).  The total must be the fsum of the step bounds and t
    must be 1/2 - 2s.  Raises ValueError naming the first bad step (or the
    total, or t); returns True otherwise.
    """
    prev = None
    for i, (kind, start, end, bound) in enumerate(cert.steps):
        try:
            _check_exponents(*start, ordered=True)
            _check_exponents(*end, ordered=True)
            fresh = step_bound(kind, start, end, cert.s, cert.L)
        except ValueError as exc:
            raise ValueError(f"step {i}: {exc}") from exc
        if fresh != bound:
            raise ValueError(f"step {i}: recorded bound {bound} != {fresh}")
        if prev is not None and not _close(start, prev):
            raise ValueError(f"step {i} does not start where step {i - 1} ended")
        prev = end
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
