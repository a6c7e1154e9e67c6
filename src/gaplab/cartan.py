"""SL3 over the reals and over Q_p: lengths, KAK data, distortion solves.

Real elements carry float matrices with det pinned to 1; p-adic elements
carry exact Fraction matrices with det exactly 1, and all p-adic invariants
(norms, Smith exponents) are integer-exact.  Lengths use the spectral norm
in the real case and the maximum entry p-norm in the p-adic case, so that
the respective maximal compact subgroups have length zero.

The real KAK and the distortion solve also take stacks: `kak_real` factors
an (N, 3, 3) array with one stacked SVD, and `solve_sphere_distortion`
bisects a whole r-grid at once.  A single element is a stack of one through
the same code, and every element of a stack gets the single element's checks
(`_check_sl3`, `_check_exponents`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

_ENDPOINT_TOL = 1e-10       # |log norm - r| snapping delta to 0 or 1

# ---------------------------------------------------------------------------
# real side


def _check_sl3(m: np.ndarray) -> None:
    """Refuse a (3, 3) matrix or a stack (..., 3, 3) unless every matrix in
    it is finite with |det - 1| <= 1e-12 max(1, max |entry|^3)."""
    if m.shape[-2:] != (3, 3) or not np.all(np.isfinite(m)):
        raise ValueError("need a finite 3x3 real matrix")
    det = np.asarray(np.linalg.det(m))
    bad = np.abs(det - 1.0) > 1e-12 * np.maximum(
        1.0, np.abs(m).max(axis=(-2, -1)) ** 3)
    if np.any(bad):
        raise ValueError(f"determinant {det[bad][0]} != 1")


def _exponent_faults(a1, a2, a3, ordered: bool):
    """(unordered, unbalanced): where a1 >= a2 >= a3 fails (never, unless
    `ordered`) and where a1 + a2 + a3 = 0 fails, both to within 1e-10.
    Scalars give bools, arrays of one shape give masks of that shape."""
    unordered = (a1 < a2 - 1e-10) | (a2 < a3 - 1e-10) if ordered else False
    return unordered, abs(a1 + a2 + a3) > 1e-10


def _check_exponents(a1, a2, a3, ordered: bool) -> None:
    """Refuse exponents where `_exponent_faults` finds a fault: scalars for
    one triple, arrays of one shape for a stack of them.

    Scalars give scalar bools, tested as they are: chamber walks build
    triples by the thousand, and np.any on a scalar costs ~15 us.
    """
    unordered, unbalanced = _exponent_faults(a1, a2, a3, ordered)
    if unordered.any() if isinstance(unordered, np.ndarray) else unordered:
        rows = np.stack(np.broadcast_arrays(a1, a2, a3), axis=-1)
        raise ValueError(
            f"triple {tuple(rows[np.asarray(unordered)][0].tolist())} "
            f"not ordered")
    if unbalanced.any() if isinstance(unbalanced, np.ndarray) else unbalanced:
        raise ValueError("exponents must sum to 0")


@dataclass
class RealGroupElement:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("need a finite 3x3 real matrix")
        _check_sl3(m)
        self.matrix = m


def d_matrices(a) -> np.ndarray:
    """exp-diagonals D(a) over the last axis of zero-sum exponents a (..., 3).

    Each entry is one math.exp, so a row gives d_matrix's matrix bit for bit.
    """
    a = np.asarray(a, dtype=float)
    _check_exponents(a[..., 0], a[..., 1], a[..., 2], ordered=False)
    out = np.zeros(a.shape + (3,))
    i = np.arange(3)
    out[..., i, i] = np.reshape([math.exp(x) for x in a.ravel().tolist()],
                                a.shape)
    _check_sl3(out)
    return out


def d_matrix(a1: float, a2: float, a3: float) -> RealGroupElement:
    """exp-diagonal D(a1,a2,a3); requires zero sum."""
    return RealGroupElement(d_matrices([a1, a2, a3]))


def d_alpha(alpha: float) -> RealGroupElement:
    """The distinguished ray D(2a, -a, -a) of length 2a."""
    return d_matrix(2 * alpha, -alpha, -alpha)


def _k_delta_matrices(delta) -> np.ndarray:
    """Planar rotations with (1,1) entry delta, fixing the third axis: one
    (3, 3) matrix per entry of delta, stacked like delta."""
    d = np.asarray(delta, dtype=float)
    outside = ~((0.0 <= d) & (d <= 1.0))
    if np.any(outside):
        raise ValueError(f"delta = {d[outside][0]} outside [0, 1]")
    s = np.sqrt(1.0 - d * d)
    k = np.zeros(d.shape + (3, 3))
    k[..., 0, 0] = k[..., 1, 1] = d
    k[..., 0, 1] = -s
    k[..., 1, 0] = s
    k[..., 2, 2] = 1.0
    return k


@dataclass
class CartanTriple:
    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        _check_exponents(self.a1, self.a2, self.a3, ordered=True)

    def as_tuple(self):
        return (self.a1, self.a2, self.a3)


def kak_real(g):
    """g = k1 * expdiag(a) * k2 with k1, k2 in SO(3) and a ordered, zero-sum.

    A `RealGroupElement` gives (RealGroupElement, CartanTriple,
    RealGroupElement); an (N, 3, 3) stack gives arrays k1 (N, 3, 3),
    a (N, 3) and k2 (N, 3, 3) from one stacked SVD, with every element's
    input and output checked as the single case checks them.  SVD supplies
    orthogonal factors; a negative determinant is repaired by flipping the
    last column of k1 together with the last row of k2 (their rank-one
    product is unchanged and singular values stay positive).
    """
    if isinstance(g, RealGroupElement):
        k1, a, k2 = kak_real(g.matrix[None])
        return (RealGroupElement(k1[0]), CartanTriple(*a[0]),
                RealGroupElement(k2[0]))
    m = np.asarray(g, dtype=float)
    if m.ndim != 3:
        raise ValueError("need a RealGroupElement or an (N, 3, 3) stack")
    _check_sl3(m)
    u, sv, vt = np.linalg.svd(m)
    flip = np.linalg.det(u) < 0
    u[flip, :, 2] *= -1.0
    vt[flip, 2, :] *= -1.0
    a = np.log(sv)
    a = a - a.mean(axis=1, keepdims=True)    # exact zero-sum despite rounding
    _check_exponents(a[:, 0], a[:, 1], a[:, 2], ordered=True)
    _check_sl3(u)
    _check_sl3(vt)
    return u, a, vt


@dataclass
class SphereDistortion:
    alpha: float
    r: float
    delta: float
    u: RealGroupElement
    u_prime: RealGroupElement
    residual: float
    delta_bound: float          # e^{r - 4 alpha}


def _distorted(d: np.ndarray, delta) -> np.ndarray:
    """D k_delta D for the matrix d of D = D_alpha, one matrix per entry of
    delta; k_delta and the product are checked as RealGroupElements were."""
    k = _k_delta_matrices(delta)
    _check_sl3(k)
    g = d @ k @ d
    _check_sl3(g)
    return g


@lru_cache(maxsize=8)
def _d_alpha_matrix(alpha: float) -> np.ndarray:
    """The checked matrix of `d_alpha`, read-only, built once per alpha
    rather than once per bisection step."""
    d = d_alpha(alpha).matrix
    d.setflags(write=False)
    return d


def distorted_length(alpha: float, delta):
    """r_alpha(delta) = log || D_alpha k_delta D_alpha ||.

    A float for a scalar delta; an array, from one stacked SVD, for a 1-D
    array of deltas.  The log is math.log, entry by entry.
    """
    d = _d_alpha_matrix(alpha)
    top = np.linalg.svd(_distorted(d, delta), compute_uv=False)[..., 0]
    if np.ndim(top) == 0:
        return math.log(top)
    return np.array([math.log(v) for v in top.tolist()])


def solve_sphere_distortion(alpha: float, r):
    """Find delta with log||D_a k_delta D_a|| = r and the flanking rotations.

    r_alpha is continuous and increasing from alpha (delta = 0) to 4*alpha
    (delta = 1); bisection, with an r within `_ENDPOINT_TOL` of an end snapped
    to it.  The flanking factors come from the SVD of the upper 2x2 block,
    embedded so both land in SO(3) with the (*,*,0 / *,*,0 / 0,0,*) pattern.

    A scalar r gives one `SphereDistortion`, a sequence a list of them in
    order.  All r are bisected together, one stacked `distorted_length`
    call per step, for at most 200 steps; each r stops once its bracket is
    narrower than 1e-16 or a step leaves it unchanged, and is frozen from
    then on, so its delta is the one it gets alone.  D_alpha is built and
    checked once per alpha (`_d_alpha_matrix`), not once per step; every
    step's k_delta and product are still checked by `_check_sl3`.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    rs = np.atleast_1d(rs)
    if rs.ndim != 1:
        raise ValueError("r must be a scalar or a 1-D sequence")
    outside = ~((alpha <= rs) & (rs <= 4 * alpha))
    if np.any(outside):
        raise ValueError(f"r = {rs[outside][0]} outside [{alpha}, {4 * alpha}]")
    lo, hi = np.zeros_like(rs), np.ones_like(rs)
    live = np.arange(rs.size)
    for _ in range(200):
        if live.size == 0:
            break
        old_lo, old_hi = lo[live], hi[live]
        mid = 0.5 * (old_lo + old_hi)
        below = distorted_length(alpha, mid) < rs[live]
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        # a step that moved neither end (mid rounded onto one of them) is a
        # fixed point: every later step repeats it, so the r is done
        moved = (lo[live] != old_lo) | (hi[live] != old_hi)
        live = live[moved & ~(hi[live] - lo[live] < 1e-16)]
    delta = 0.5 * (lo + hi)
    # polish the endpoint cases where bisection cannot do better; delta = 0
    # wins where both ends are within _ENDPOINT_TOL
    at_end = np.abs(distorted_length(alpha, np.array([0.0, 1.0]))[:, None]
                    - rs) <= _ENDPOINT_TOL
    delta[at_end[1]] = 1.0
    delta[at_end[0]] = 0.0

    g = _distorted(_d_alpha_matrix(alpha), delta)
    u2, _, v2t = np.linalg.svd(g[:, :2, :2])
    flip = np.linalg.det(u2) < 0
    u2[flip, :, 1] *= -1.0
    v2t[flip, 1, :] *= -1.0
    u = np.tile(np.eye(3), (rs.size, 1, 1))
    u[:, :2, :2] = u2
    up = np.tile(np.eye(3), (rs.size, 1, 1))
    up[:, :2, :2] = v2t
    middle = d_matrices(np.stack(
        [rs, 2 * alpha - rs, np.full_like(rs, -2 * alpha)], axis=1))
    residual = np.abs(u @ middle @ up - g).max(axis=(1, 2))
    out = [SphereDistortion(alpha=alpha, r=x, delta=dl,
                            u=RealGroupElement(ui), u_prime=RealGroupElement(upi),
                            residual=res, delta_bound=math.exp(x - 4 * alpha))
           for x, dl, ui, upi, res in zip(rs.tolist(), delta.tolist(), u, up,
                                          residual.tolist())]
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# p-adic side


def _frac_matrix(entries) -> list:
    m = [[Fraction(entries[i][j]) for j in range(3)] for i in range(3)]
    return m


def _det3(m):
    """Exact determinant of a 3x3 list matrix of ints or Fractions."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adjugate3(m) -> list:
    """adj(m), with adj(m) m = det(m) I; the inverse when det m = 1."""
    c = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [s for s in range(3) if s != j]
            minor = (m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                     - m[rows[0]][cols[1]] * m[rows[1]][cols[0]])
            c[j][i] = (-1) ** (i + j) * minor
    return c


def _matmul3(a, b) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def frac_valuation(p: int, x: Fraction) -> int | None:
    """v_p of a rational; None encodes +infinity (x = 0)."""
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass
class PAdicGroupElement:
    p: int
    matrix: list = field(repr=False)

    def __post_init__(self):
        self.matrix = _frac_matrix(self.matrix)
        if _det3(self.matrix) != 1:
            raise ValueError("determinant must be exactly 1")

    def inv(self) -> "PAdicGroupElement":
        return PAdicGroupElement(self.p, _adjugate3(self.matrix))

    def __matmul__(self, other: "PAdicGroupElement") -> "PAdicGroupElement":
        if self.p != other.p:
            raise ValueError("prime mismatch")
        return PAdicGroupElement(self.p, _matmul3(self.matrix, other.matrix))

    def min_valuation(self) -> int:
        vals = [frac_valuation(self.p, self.matrix[i][j])
                for i in range(3) for j in range(3)]
        return min(v for v in vals if v is not None)


def d_matrix_padic(p: int, a1: int, a2: int, a3: int) -> PAdicGroupElement:
    """Diagonal with inverse-uniformizer exponents: entries p^{-a_i}."""
    if a1 + a2 + a3 != 0:
        raise ValueError("exponents must sum to 0")
    e = Fraction(1, p)
    return PAdicGroupElement(p, [[e ** a1, 0, 0],
                                 [0, e ** a2, 0],
                                 [0, 0, e ** a3]])


def d_alpha_padic(p: int, alpha: int) -> PAdicGroupElement:
    return d_matrix_padic(p, 2 * alpha, -alpha, -alpha)


def k_delta_padic(p: int, delta) -> PAdicGroupElement:
    """The integral rotation stamp with (1,1) entry delta."""
    delta = Fraction(delta)
    v = frac_valuation(p, delta)
    if v is not None and v < 0:
        raise ValueError("delta must be integral")
    return PAdicGroupElement(p, [[delta, -1, 0], [1, 0, 0], [0, 0, 1]])


def kak_padic(g: PAdicGroupElement) -> CartanTriple:
    """Cartan exponents from Smith-normal-form valuations.

    v1 = min valuation over entries, v2 = min over 2x2 minors, v3 = 0 (det);
    the invariant factors p^{f_i} have f = (v1, v2-v1, -v2) and the chamber
    triple is their negation in inverse-uniformizer convention.  With
    det g = 1 the 2x2 minors are, up to sign, the entries of adj(g) = g^{-1},
    so v2 is the min entry valuation of g^{-1}.
    """
    v1 = g.min_valuation()
    v2 = g.inv().min_valuation()
    return CartanTriple(float(-v1), float(v1 - v2), float(v2))


@dataclass
class PAdicDistortion:
    alpha: int
    r: int
    delta: Fraction
    triple: CartanTriple
    ok: bool


def padic_sphere_distortion(p: int, alpha: int, r: int) -> PAdicDistortion:
    """delta = p^(4 alpha - r) realises the Cartan triple (r, 2a-r, -2a)."""
    if not (isinstance(alpha, int) and isinstance(r, int)):
        raise ValueError("alpha, r must be integers")
    if alpha < 1 or not (alpha <= r <= 4 * alpha):
        raise ValueError(f"r = {r} outside [{alpha}, {4 * alpha}]")
    delta = Fraction(p ** (4 * alpha - r), 1)
    g = d_alpha_padic(p, alpha) @ k_delta_padic(p, delta) @ d_alpha_padic(p, alpha)
    triple = kak_padic(g)
    want = (float(r), float(2 * alpha - r), float(-2 * alpha))
    return PAdicDistortion(alpha=alpha, r=r, delta=delta, triple=triple,
                           ok=triple.as_tuple() == want)
