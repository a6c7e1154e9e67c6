"""Certified decay bookkeeping for zig-zag paths in a rank-two chamber.

Points are float triples (a1, a2, a3) in the closed cone a1 >= a2 >= a3
with a1 + a2 + a3 = 0.  The axis radius of a point is r = max(a1, -a3),
and c_r = (r, 0, -r) is the axis point of that radius.  `step_bound` is
the one place that knows the two kinds of move:

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
to (u, v-u, -v) and a horizontal one.  The unit grid anchors at the
smaller radius, so any fractional move happens at the far (large-radius)
end, where the bounds are smallest; anchoring at the start instead would
put the short move next to the dominant e^{-t min(r, r')} term and break
the geometric envelope.

One tolerance rule decides everywhere whether two radii differ: by more
than 1e-12.  The walk runs when the endpoint radii differ, and the ladder
gives the far radius a node of its own when it differs from the last
unit node, and moves that node onto it otherwise.

Certificates are built and revalidated a block at a time, and a block is
the only certificate type.  Two (N, 3) endpoint arrays sharing (s, L)
give a `CertificateBlock`: every step of every certificate in flat arrays
(kind, start, end, bound) cut by per-certificate offsets, each ladder made
by index arithmetic.  One pair of points gives the block of one, through
the same code.  `revalidate_certificate` re-derives a block from its steps
alone, each check an array mask over all of them.

`StarParams` packages a decay profile (s, t, C); `rescale_params` and
`product_params` transport such profiles under length rescaling and direct
products.
"""
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartan import CartanTriple, _check_exponents, _exponent_faults

_EQ_TOL = 1e-12
_KINDS = np.array(["horizontal", "vertical"])
_AXIS = np.array([1.0, 0.0, -1.0])

__all__ = [
    "ZigZagStep",
    "CertificateBlock",
    "StarParams",
    "step_bound",
    "zigzag_certificate",
    "revalidate_certificate",
    "rescale_params",
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


def _exp(x):
    """e^x entry by entry through `math.exp`, so that every entry is the
    float a scalar computation gives (np.exp may differ in the last bit)."""
    return np.fromiter(map(math.exp, x.tolist()), dtype=float, count=len(x))


def _first(checks):
    """(index, message) of the lowest index that any (mask, describe) in
    `checks` flags, described by the first check that flags it; None when
    nothing is flagged."""
    found = None
    for mask, describe in checks:
        if np.any(mask) and (found is None or np.argmax(mask) < found[0]):
            found = (int(np.argmax(mask)), describe)
    return None if found is None else (found[0], found[1](found[0]))


def _move_checks(kind, start, end):
    """The move rules of the module table as (mask, describe) pairs over M
    moves, in the order one move is checked: kind, frozen coordinate,
    region."""
    horizontal = kind == "horizontal"
    unknown = ~horizontal & (kind != "vertical")
    # an unknown kind is reported first, so its other masks never matter
    frozen = np.where(horizontal, 2, 0)
    thawed = np.abs(np.where(horizontal, start[:, 2] - end[:, 2],
                             start[:, 0] - end[:, 0])) > _EQ_TOL
    outside = np.where(horizontal,
                       np.minimum(start[:, 1], end[:, 1]) < -1 - _EQ_TOL,
                       np.maximum(start[:, 1], end[:, 1]) > 1 + _EQ_TOL)

    def region(j):
        return "a2 >= -1" if horizontal[j] else "a2 <= 1"

    return [
        (unknown, lambda j: f"unknown step kind {str(kind[j])!r}"),
        (thawed, lambda j: (
            f"{kind[j]} move requires equal a{frozen[j] + 1}, got "
            f"{start[j, frozen[j]]} vs {end[j, frozen[j]]}")),
        (outside, lambda j: (
            f"{kind[j]} move requires {region(j)} at both endpoints, got "
            f"{start[j, 1]} and {end[j, 1]}")),
    ]


def step_bound(kind, start, end, s, L):
    """Decay bound of a move from `start` to `end`, as in the module table.

    A kind name and two triples give a float; an (M,) array of kind names
    and two (M, 3) arrays give the (M,) bounds of M moves, each the float
    its single move gives.  Raises ValueError for an unknown kind, a move
    whose frozen coordinate changes, or an end outside the kind's region,
    naming the first bad move of an array.  The formula ignores how far the
    other coordinates move, so start == end is allowed.
    """
    _check_rate(s)
    _check_scale(L)
    single = isinstance(kind, str)
    kind = np.atleast_1d(kind)
    start = np.asarray(start, dtype=float).reshape(-1, 3)
    end = np.asarray(end, dtype=float).reshape(-1, 3)
    fault = _first(_move_checks(kind, start, end))
    if fault is not None:
        raise ValueError(fault[1] if single else f"step {fault[0]}: {fault[1]}")
    t = 0.5 - 2.0 * s
    bound = 14.0 * L * L * _exp(
        np.where(kind == "horizontal", t * start[:, 2], -t * start[:, 0]))
    return float(bound[0]) if single else bound


@dataclass(eq=False)
class CertificateBlock:
    """The certificates of N endpoint pairs sharing (s, L), in flat arrays.

    Certificate i owns entries offsets[i]:offsets[i + 1] of the step arrays
    `kind` (M,), `start` and `end` (M, 3) and `bound` (M,); `totals` and
    `targets` are (N,).  `steps` is a read-only view of all M steps as
    `ZigZagStep`s, and `to_json(i)` is the document of certificate i.
    """
    kind: np.ndarray
    start: np.ndarray
    end: np.ndarray
    bound: np.ndarray
    offsets: np.ndarray
    totals: np.ndarray
    targets: np.ndarray
    s: float
    L: float
    t: float

    @property
    def steps(self):
        return _BlockSteps(self)

    @property
    def passed(self) -> np.ndarray:
        return self.totals <= self.targets

    def to_json(self, i) -> dict:
        """Certificate i: its parameters, steps, total, target and verdict."""
        p, q = self.offsets[i], self.offsets[i + 1]
        target = float(self.targets[i])
        # the coarser companion envelope scales the same max(...) term by
        # 100/(1-4s) instead of 70/(1-4s)
        return {
            "params": {"s": self.s, "L": self.L, "t": self.t},
            "steps": [{"kind": st.kind, "from": list(st.start),
                       "to": list(st.end), "bound": st.bound}
                      for st in (self.steps[j] for j in range(p, q))],
            "total": float(self.totals[i]), "target": target,
            "pass": bool(self.passed[i]),
            "notes": ("target uses the sharp constant 70/(1-4s); the coarser "
                      "100/(1-4s) envelope evaluates to "
                      f"{target * (100.0 / 70.0):.17g}"),
        }


class _BlockSteps(Sequence):
    """The steps of a `CertificateBlock`, one `ZigZagStep` per index."""

    def __init__(self, block):
        self._block = block

    def __len__(self):
        return len(self._block.bound)

    def __getitem__(self, j):
        b = self._block
        return ZigZagStep(str(b.kind[j]), tuple(b.start[j].tolist()),
                          tuple(b.end[j].tolist()), float(b.bound[j]))


def _fsums(bound, offsets):
    """The fsum of each certificate's slice of `bound`."""
    bounds, cuts = bound.tolist(), offsets.tolist()
    return np.array([math.fsum(bounds[p:q]) for p, q in zip(cuts, cuts[1:])],
                    dtype=float)


def _axis_points(r):
    """(r, 0, -r) for each radius in r."""
    return r[:, None] * _AXIS


def _build_block(a, a_prime, s, L) -> CertificateBlock:
    """The certificates joining a[i] to a_prime[i], two (N, 3) arrays."""
    _check_rate(s)
    _check_scale(L)
    if a.ndim != 2 or a.shape[1] != 3 or a_prime.shape != a.shape:
        raise ValueError("need two chamber points or two (N, 3) arrays of them")
    both = np.concatenate([a, a_prime])
    _check_exponents(both[:, 0], both[:, 1], both[:, 2], ordered=True)
    t = 0.5 - 2.0 * s
    radii = np.maximum(both[:, 0], -both[:, 2])
    r, r_prime = radii[:len(a)], radii[len(a):]
    decay = _exp(-t * radii)
    targets = (70.0 / (1.0 - 4.0 * s)) * L * L * np.maximum(
        decay[:len(a)], decay[len(a):])
    moving = ~(np.abs(a - a_prime) <= _EQ_TOL).all(axis=1)
    short = np.flatnonzero(moving & ((r < 1) | (r_prime < 1)))
    if short.size:
        raise ValueError(f"pair {short[0]}: both endpoints need axis radius "
                         ">= 1 (the axis chain starts at radius 1)")
    # an a2 >= 0 point already has the axis value of a3, an a2 < 0 one of a1
    leave = moving & (np.abs(a[:, 1]) > _EQ_TOL)
    arrive = moving & (np.abs(a_prime[:, 1]) > _EQ_TOL)
    # the ascending ladder is lo, lo + 1, ..., lo + k = last, then hi; the
    # last unit node moves onto hi unless hi - last > 1e-12
    walk = moving & (np.abs(r - r_prime) > _EQ_TOL)
    lo, hi = np.minimum(r, r_prime), np.maximum(r, r_prime)
    whole = np.floor(hi - lo)
    nodes = np.where(walk, whole + 1 + (hi - (lo + whole) > _EQ_TOL),
                     0).astype(np.int64)
    units = np.maximum(nodes - 1, 0)
    offsets = np.zeros(len(a) + 1, dtype=np.int64)
    np.cumsum(leave + 2 * units + arrive, out=offsets[1:])

    # unit move k of a pair joins its path nodes k and k + 1, read off the
    # ascending ladder backwards when the walk goes down
    pair = np.repeat(np.arange(len(a)), units)
    k = np.arange(len(pair)) - np.repeat(np.cumsum(units) - units, units)
    top = nodes[pair] - 1
    down = (r > r_prime)[pair]
    j_u = np.where(down, top - k, k)
    j_v = np.where(down, j_u - 1, j_u + 1)
    u = np.where(j_u == top, hi[pair], lo[pair] + j_u)
    v = np.where(j_v == top, hi[pair], lo[pair] + j_v)
    # going up (v >= u) a unit move passes (v, u-v, -u) with kinds h, v;
    # going down it passes (u, v-u, -v) with kinds v, h
    up = v >= u
    walk_points = np.stack([
        _axis_points(u),
        np.column_stack([np.maximum(u, v), -np.abs(u - v), -np.minimum(u, v)]),
        _axis_points(v)], axis=1)
    legs = (offsets[pair] + leave[pair] + 2 * k)[:, None] + (0, 1)

    count = int(offsets[-1])
    start = np.empty((count, 3))
    end = np.empty((count, 3))
    vertical = np.empty(count, dtype=bool)
    start[legs], end[legs] = walk_points[:, :2], walk_points[:, 1:]
    vertical[legs] = np.column_stack([~up, up])
    # the routes: off the axis from a, onto it at a'
    out, back = np.flatnonzero(leave), np.flatnonzero(arrive)
    routes = np.concatenate([offsets[out], offsets[back + 1] - 1])
    start[routes] = np.concatenate([a[out], _axis_points(r_prime[back])])
    end[routes] = np.concatenate([_axis_points(r[out]), a_prime[back]])
    vertical[routes] = np.concatenate([a[out, 1], a_prime[back, 1]]) < 0
    kind = _KINDS[vertical.view(np.int8)]

    bound = step_bound(kind, start, end, s, L)
    return CertificateBlock(kind, start, end, bound, offsets,
                            _fsums(bound, offsets), targets, s, L, t)


def _points(p):
    """A `CartanTriple`, a triple or an (N, 3) stack as a 2-D float array:
    a single point is a stack of one."""
    if isinstance(p, CartanTriple):
        p = p.as_tuple()
    return np.atleast_2d(np.asarray(p, dtype=float))


def zigzag_certificate(a, a_prime, s, L) -> CertificateBlock:
    """Build the step-by-step bound certificates joining chamber points.

    Two (N, 3) arrays give the `CertificateBlock` of the N pairs
    (a[i], a_prime[i]); two points (`CartanTriple`s or triples) give the
    block of one, through the same code.  Each certificate routes the
    off-axis endpoints to the axis with one move each and walks the axis in
    unit moves.  The target is (70/(1-4s)) L^2 max(e^{-t r}, e^{-t r'})
    with r, r' the axis radii of the endpoints and t = 1/2 - 2s.  Equal
    endpoints (to 1e-12) need no steps at all, so their total is zero.
    """
    return _build_block(_points(a), _points(a_prime), s, L)


def _locate(offsets, j):
    """(certificate, step within it) of flat step j."""
    c = int(np.searchsorted(offsets, j, side="right")) - 1
    return c, j - int(offsets[c])


def revalidate_certificate(block: CertificateBlock) -> bool:
    """Re-derive a `CertificateBlock` from its recorded steps alone.

    Every recorded point must lie in the chamber, every step must keep its
    kind's frozen coordinate and region and carry exactly the bound
    `step_bound` gives, and each step but a certificate's first must start
    where the one before it ended (to 1e-12).  Each total must be the fsum
    of its certificate's step bounds, and t must be 1/2 - 2s.  Every check
    runs as one mask over all steps.  Raises ValueError naming the first
    bad certificate and its first bad step (or its total), or t; returns
    True otherwise.
    """
    kind, start, end, bound = block.kind, block.start, block.end, block.bound
    offsets, count = block.offsets, len(block.bound)
    checks = []
    for points in (start, end):
        unordered, unbalanced = _exponent_faults(
            points[:, 0], points[:, 1], points[:, 2], ordered=True)
        checks += [
            (unordered,
             lambda j, p=points: f"triple {tuple(p[j].tolist())} not ordered"),
            (unbalanced, lambda j: "exponents must sum to 0")]
    checks += _move_checks(kind, start, end)
    # the moves before the first fault keep the rules, so step_bound prices
    # them without raising
    clean = count if (fault := _first(checks)) is None else fault[0]
    fresh = step_bound(kind[:clean], start[:clean], end[:clean],
                       block.s, block.L)
    mispriced = np.zeros(count, dtype=bool)
    mispriced[:clean] = fresh != bound[:clean]
    checks.append((mispriced,
                   lambda j: f"recorded bound {bound[j]} != {fresh[j]}"))
    fault = _first(checks)
    broken = np.zeros(count + 1, dtype=bool)
    broken[1:count] = ~(np.abs(start[1:] - end[:-1]) <= _EQ_TOL).all(axis=1)
    broken[offsets] = False        # a certificate's first step joins nothing
    gap = np.flatnonzero(broken)

    bad = None                     # (certificate, message)
    if gap.size and (fault is None or gap[0] < fault[0]):
        c, i = _locate(offsets, int(gap[0]))
        bad = (c, f"certificate {c}, step {i} does not start where step "
                  f"{i - 1} ended")
    elif fault is not None:
        c, i = _locate(offsets, fault[0])
        bad = (c, f"certificate {c}, step {i}: {fault[1]}")
    untrue = np.flatnonzero(block.totals != _fsums(bound, offsets))
    if untrue.size and (bad is None or untrue[0] < bad[0]):
        bad = (untrue[0], f"certificate {untrue[0]}: total does not match "
                          "the sum of step bounds")
    if bad is not None:
        raise ValueError(bad[1])
    if abs(block.t - (0.5 - 2.0 * block.s)) > _EQ_TOL:
        raise ValueError("recorded t is not 1/2 - 2s")
    return True


def rescale_params(params: StarParams, a, b) -> StarParams:
    """Transport a decay profile along a length rescaling l' <= a*l + b.

    New profile (s/a, t/a, C * e^{(2sb + ta + tb)/a}); the associated measure
    sequence is reindexed, step n going to floor((n - b)/a).  The constant
    never shrinks.
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
