"""Lattice reduction, cocycle accounting, and measure transport for SL(2).

The desk model is the modular group sitting inside SL(2, R).  Everything is
phrased through the classical fundamental domain

    F = { z = x + iy : |x| <= 1/2, x^2 + y^2 >= 1 }

of the upper half-plane: a group element g splits as g = omega * gamma with
gamma an integer matrix and omega a domain representative (omega^{-1} . i
lands in F), the induced cocycle alpha(g, omega) is the integer part of
g*omega in that splitting, and finitely supported measures on the integer
group are pushed forward, tail-truncated, and Monte-Carlo integrated against
the normalized hyperbolic measure on the domain.

Reduction is continued-fraction reduction of the associated half-plane point.
A float pass proposes the integer matrix gamma, and a certificate decides
whether the proposal can be trusted: gamma is accepted only when the float
image gamma . z lies inside F by more than a rigorous forward-error bound on
that float image (see ``_certify``).  Away from the boundary of F the
interior point fixes gamma up to sign, so an accepted proposal is exact.
Points inside the error band, and proposals that fail for any other reason,
go through exact rational arithmetic (``fractions.Fraction`` on the binary
float values, which is lossless), which verifies or repairs the proposal.
The scalar functions and the array function ``cocycle_alphas`` share the
certificate and the fallback, so every returned gamma is exact even for
badly conditioned inputs; the rational path also serves as the test oracle.
Boundary convention: the right half of the boundary (Re z = 1/2, and the
right unit-arc) is folded onto the left, which makes the splitting a true
bijection modulo the +-identity center away from the orbits of the elliptic
points i and rho, whose stabilizers are larger; there gamma is the one the
rational path picks.  Integer matrices are canonicalized by the sign of
their first nonzero entry.
"""

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_HALF = Fraction(1, 2)
_MEMBER_TOL = 1e-10
_DET_TOL = 1e-12
_RECON_TOL = 1e-9
_INT64_GUARD = 2 ** 62

_UNIT = 2.0 ** -53        # unit roundoff of binary64
_TINY = 2.0 ** -1060      # absolute slack covering gradual underflow
_GAMMA_CAP = 2.0 ** 52    # ||gamma||_F^2 cap: entries below 2^26, det exact
_IDENTITY = (1.0, 0.0, 0.0, 1.0)

#: smallest domain sample count for which summary statistics are accepted
MIN_DOMAIN_SAMPLES = 16


# ---------------------------------------------------------------------------
# matrices and lengths
#
# Small matrices travel as row-major 4-tuples (a, b, c, d).  The helpers on
# them use plain arithmetic only, so they act alike on Python numbers and,
# elementwise, on numpy arrays.


def _as_matrix(g):
    m = np.asarray(g, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not all(map(math.isfinite, m.ravel().tolist())):
        raise ValueError("matrix entries must be finite")
    return m


def _matmul4(u, v):
    a, b, c, d = u
    e, f, g, h = v
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adjugate4(u):
    a, b, c, d = u
    return (d, -b, -c, a)


def _sumsq4(u):
    a, b, c, d = u
    return a * a + b * b + c * c + d * d


def _check_unimodular(g):
    """Validate det = 1 up to rounding at the matrix's own scale."""
    m = _as_matrix(g)
    entries = m.ravel().tolist()
    a, b, c, d = entries
    det = a * d - b * c
    if abs(det - 1.0) > 1e-12 * max(1.0, _sumsq4(entries)):
        raise ValueError(f"matrix must have determinant 1, got {det!r}")
    return m


def element_length(g):
    """log of the largest singular value.

    For determinant-one matrices the singular values are sigma and 1/sigma,
    so this equals max(log ||g||, log ||g^{-1}||) and is symmetric under
    inversion.  Computed from the Frobenius norm in closed form.  A stack of
    shape (..., 2, 2) gives an array of lengths.
    """
    m = np.asarray(g, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    f2 = np.maximum((m * m).sum(axis=(-2, -1)), 2.0)
    huge = f2 > 1e150
    moderate = np.where(huge, 2.0, f2)
    s2 = 0.5 * (moderate + np.sqrt((moderate - 2.0) * (moderate + 2.0)))
    lengths = 0.5 * np.log(np.where(huge, f2, s2))
    return float(lengths) if lengths.ndim == 0 else lengths


def _canonical_sign(entries):
    """Flip a +-pair of integer matrices to the one whose first nonzero entry
    (row-major) is positive."""
    a, b, c, d = (int(v) for v in entries)
    for v in (a, b, c, d):
        if v:
            if v < 0:
                return -a, -b, -c, -d
            return a, b, c, d
    raise ValueError("zero matrix has no canonical sign")


def _int_matrix(entries):
    """A 2x2 integer matrix: int64, or object dtype holding Python ints once
    an entry reaches 2^62."""
    a, b, c, d = entries
    dtype = object if max(abs(a), abs(b), abs(c), abs(d)) >= _INT64_GUARD else np.int64
    return np.array([[a, b], [c, d]], dtype=dtype)


# ---------------------------------------------------------------------------
# exact rational half-plane arithmetic


def _frac_matrix(m):
    m = _as_matrix(m)
    return [
        [Fraction(float(m[0, 0])), Fraction(float(m[0, 1]))],
        [Fraction(float(m[1, 0])), Fraction(float(m[1, 1]))],
    ]


def _frac_matmul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def _point_of_inverse(M):
    """The half-plane point M^{-1} . i, exact over the rationals.

    Uses the adjugate, which acts projectively like the inverse; requires
    det M > 0 so the point stays in the upper half-plane.
    """
    a, b = M[0]
    c, d = M[1]
    p, q, r, s = d, -b, -c, a
    den = s * s + r * r
    if den == 0:
        raise ValueError("singular matrix")
    x = (q * s + p * r) / den
    y = (p * s - q * r) / den
    if y <= 0:
        raise ValueError("matrix must have positive determinant")
    return x, y


def _mobius_int(gamma, x, y):
    """Apply an integer matrix (4-tuple, row-major) to x + iy, exactly."""
    p, q, r, s = gamma
    rx_s = r * x + s
    den = rx_s * rx_s + (r * y) * (r * y)
    x2 = ((p * x + q) * rx_s + p * r * y * y) / den
    y2 = (p * s - q * r) * y / den
    return x2, y2


def _in_domain_exact(x, y):
    """Canonical (half-open) membership: |x| <= 1/2 with the right edge
    excluded, |z| >= 1 with the right arc excluded."""
    if y <= 0:
        return False
    norm = x * x + y * y
    if norm > 1:
        return -_HALF <= x < _HALF
    return norm == 1 and -_HALF <= x <= 0


def _reduce_float(x, y, max_iter=120):
    """Float continued-fraction pass; returns a candidate integer matrix or
    None when the iteration fails to settle."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(max_iter):
        if not (math.isfinite(x) and math.isfinite(y)) or y <= 0.0:
            return None
        n = math.floor(x + 0.5)
        if n:
            x -= n
            a, b = a - n * c, b - n * d
        norm = x * x + y * y
        if norm < 1.0:
            x, y = -x / norm, y / norm
            a, b, c, d = -c, -d, a, b
        else:
            return a, b, c, d
    return None


def _reduce_exact(x, y, max_iter=10000):
    """Exact continued-fraction reduction of a rational point into F.

    Returns (gamma, x', y') with gamma . (x + iy) = x' + iy' canonical.  The
    recentering step uses n = floor(x + 1/2), which lands x in [-1/2, 1/2)
    and thereby folds the right edge onto the left; a final inversion folds
    the right unit-arc.
    """
    a, b, c, d = 1, 0, 0, 1
    norm = x * x + y * y
    for _ in range(max_iter):
        n = math.floor(x + _HALF)
        if n:
            x = x - n
            a, b = a - n * c, b - n * d
        norm = x * x + y * y
        if norm < 1:
            x, y = -x / norm, y / norm
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise RuntimeError("fundamental-domain reduction did not terminate")
    if norm == 1 and x > 0:
        x = -x
        a, b, c, d = -c, -d, a, b
    return (a, b, c, d), x, y


def _reduce_point(x, y):
    """Reduce the exact rational point x + iy into F.

    Fast path: propose gamma with float arithmetic, verify membership
    exactly; finish (or redo) exactly when the proposal misses.
    """
    cand = _reduce_float(float(x), float(y))
    if cand is not None:
        x2, y2 = _mobius_int(cand, x, y)
        if _in_domain_exact(x2, y2):
            return cand, x2, y2
        tail, x3, y3 = _reduce_exact(x2, y2)
        return _matmul4(tail, cand), x3, y3
    return _reduce_exact(x, y)


def _exact_gamma(g, w):
    """The integer part of g w on the rational path: gamma with gamma . z in
    F for the exact point z = (g w)^{-1} . i (g, w row-major float 4-tuples)."""
    M = _frac_matmul(_frac_matrix(np.reshape(g, (2, 2))),
                     _frac_matrix(np.reshape(w, (2, 2))))
    gamma, _, _ = _reduce_point(*_point_of_inverse(M))
    return gamma


def _dyadic(values):
    """Integers n_i and one k with values[i] == n_i / 2**k exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    k = max(den.bit_length() for _, den in ratios) - 1
    return [num << (k + 1 - den.bit_length()) for num, den in ratios], k


def _rounded_representative(g, w, gamma):
    """g w gamma^{-1}, each entry correctly rounded from its exact value.

    Every float is an integer over a power of two, so the product is an
    integer matrix over one power of two, and Python's int / int is
    correctly rounded (as is the float conversion of a Fraction).
    """
    gi, kg = _dyadic(g)
    wi, kw = _dyadic(w)
    den = 1 << (kg + kw)
    return tuple(v / den for v in _matmul4(_matmul4(gi, wi), _adjugate4(gamma)))


# ---------------------------------------------------------------------------
# the certified float path


def _certify(g, w, m, gamma):
    """True where gamma provably moves the point of g w into the interior of F.

    g, w are the float factors, m = fl(g w) their float product and gamma a
    float candidate (p, q, r, s); all are 4-tuples of floats or of arrays,
    and the test runs elementwise.  The exact image gamma . z of the exact
    point z = (g w)^{-1} . i is the point of the representative
    N = g w adj(gamma), and for N = [[a, b], [c, d]]

        |gamma . z|^2 - 1     = (b^2 + d^2 - a^2 - c^2) / (a^2 + c^2),
        1 - 2 |Re gamma . z|  = (a^2 + c^2 - 2 |ab + cd|) / (a^2 + c^2),

    so the point lies strictly inside F when the numerators ``arc`` and
    ``edge`` are positive.  The check evaluates them, and det N, on the
    float N^ = fl(m adj(gamma)) and accepts only margins above a forward
    error bound (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 3; u = 2^-53, gamma_k = k u / (1 - k u)):

    * gamma must be an integer matrix with det 1 and ||gamma||_F^2 <= 2^52;
      its float entries are then integers below 2^26, exact, and p s - q r
      is computed exactly.
    * Two-term inner products give |m - g w| <= gamma_2 |g||w| and
      |N^ - m adj(gamma)| <= gamma_2 |m||adj(gamma)| entrywise, so
      |N^ - N| <= gamma_2 (2 + gamma_2) |g||w||adj(gamma)|, and every entry
      of that is at most eps = 9 u ||g||_F ||w||_F ||gamma||_F
      (8 u (1 + O(u)) by Cauchy-Schwarz; the 9 absorbs the rounding of eps
      itself).
    * With S = ||N^||_F^2, moving N^ by eps per entry moves ``arc`` by at
      most 4 eps sqrt(S) + 4 eps^2, and ``edge`` and det by at most
      8 eps sqrt(S) + 6 eps^2; evaluating them on N^ in floats errs by at
      most 2 gamma_3 S.  The bound 7 u S + eps (9 sqrt(S) + 7 eps) covers
      both with room for its own rounding.
    * Gradual underflow adds at most a few multiples of 2^-1075 per
      operation, which the 2^-1060 terms cover.  Overflow gives inf or nan,
      and no comparison with either accepts.

    An accepted gamma equals the exact reduction's up to sign: an interior
    point of F has no other image in F.
    """
    p, q, r, s = gamma
    gamma2 = _sumsq4(gamma)
    eps = (9.0 * _UNIT * (_sumsq4(g) * _sumsq4(w)) ** 0.5 + _TINY) * gamma2 ** 0.5
    a, b, c, d = _matmul4(m, _adjugate4(gamma))
    col0 = a * a + c * c
    col1 = b * b + d * d
    fro = col0 + col1
    bound = 7.0 * _UNIT * fro + eps * (9.0 * fro ** 0.5 + 7.0 * eps) + _TINY
    arc = col1 - col0
    edge = col0 - 2.0 * abs(a * b + c * d)
    det = a * d - b * c
    return ((p * s - q * r == 1.0) & (gamma2 <= _GAMMA_CAP)
            & (arc > bound) & (edge > bound) & (det > bound))


def _split(g, w):
    """The integer part of g w, for row-major float 4-tuples g and w.

    Returns (gamma, rep, m): gamma sign-canonical Python ints with
    gamma . (g w)^{-1} . i in F, rep = g w gamma^{-1} correctly rounded, and
    m = fl(g w).  The float proposal is kept when ``_certify`` accepts it;
    otherwise the rational path decides.
    """
    m = _matmul4(g, w)
    a, b, c, d = m
    den = a * a + c * c
    cand = None
    if den > 0.0:
        cand = _reduce_float(-(a * b + c * d) / den, (a * d - b * c) / den)
    # entries past 2^26 never certify; checking here keeps float() exact
    if (cand is None or max(map(abs, cand)) >= 1 << 26
            or not _certify(g, w, m, tuple(map(float, cand)))):
        cand = _exact_gamma(g, w)
    gamma = _canonical_sign(cand)
    return gamma, _rounded_representative(g, w, gamma), m


def _reduce_float_batch(x, y, max_iter=120):
    """``_reduce_float`` over arrays: candidate integer matrices as four
    float arrays.  A row that fails to settle keeps what it reached, which
    the certificate then rejects."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    gamma = np.zeros((4, x.size))
    gamma[0] = gamma[3] = 1.0
    live = np.arange(x.size)
    for _ in range(max_iter):
        if not live.size:
            break
        xl, yl, gl = x[live], y[live], gamma[:, live]
        shift = np.floor(xl + 0.5)
        xl -= shift
        gl[0] -= shift * gl[2]
        gl[1] -= shift * gl[3]
        norm = xl * xl + yl * yl
        flip = norm < 1.0
        xl[flip] = -xl[flip] / norm[flip]
        yl[flip] /= norm[flip]
        gl[:, flip] = np.stack((-gl[2, flip], -gl[3, flip], gl[0, flip], gl[1, flip]))
        x[live], y[live], gamma[:, live] = xl, yl, gl
        live = live[flip]
    return tuple(gamma)


def _alphas(g, omegas):
    """``cocycle_alphas`` on a float 4-tuple g and validated (N, 2, 2)
    representatives."""
    count = len(omegas)
    w = tuple(np.ascontiguousarray(omegas.reshape(count, 4).T))
    m = _matmul4(g, w)
    a, b, c, d = m
    with np.errstate(all="ignore"):
        den = a * a + c * c
        cand = _reduce_float_batch(-(a * b + c * d) / den, (a * d - b * c) / den)
        ok = _certify(g, w, m, cand)
    p, q = cand[0][ok], cand[1][ok]
    sign = np.where(p != 0, np.sign(p), np.sign(q))
    alphas = np.zeros((count, 4), dtype=np.int64)
    alphas[ok] = (np.stack([v[ok] for v in cand]) * sign).T
    exact = {i: _canonical_sign(_exact_gamma(g, tuple(omegas[i].ravel().tolist())))
             for i in np.flatnonzero(~ok).tolist()}
    if any(abs(v) >= _INT64_GUARD for e in exact.values() for v in e):
        alphas = alphas.astype(object)
    for i, e in exact.items():
        alphas[i] = e
    return alphas.reshape(count, 2, 2), len(exact)


# ---------------------------------------------------------------------------
# domain representatives


def _any(mask):
    return mask if isinstance(mask, bool) else bool(mask.any())


def _first(values, mask):
    return float(np.asarray(values)[np.asarray(mask)][0])


def _domain_points(a, b, c, d):
    """The points x + iy = omega^{-1} . i of representatives
    omega = [[a, b], [c, d]], elementwise over floats or arrays.

    Raises ValueError unless every omega has determinant 1 (to _DET_TOL at
    its scale) and its point lies in F (to _MEMBER_TOL).
    """
    det = a * d - b * c
    off = abs(det - 1.0)
    bad = (off > _DET_TOL) & (off > _DET_TOL * (a * a + b * b + c * c + d * d))
    if _any(bad):
        raise ValueError(f"determinant must be 1, got {_first(det, bad)!r}")
    den = a * a + c * c
    if _any(den <= 0):
        raise ValueError("representative has a zero first column")
    x = -(a * b + c * d) / den
    y = det / den
    if _any(y <= 0):
        raise ValueError("associated point must lie in the upper half-plane")
    bad = (abs(x) > 0.5 + _MEMBER_TOL) | (x * x + y * y < 1.0 - _MEMBER_TOL)
    if _any(bad):
        point = complex(_first(x, bad), _first(y, bad))
        raise ValueError(f"associated point {point:.6g} lies outside the fundamental domain")
    return x, y


def _point_lengths(x, y):
    """Half the hyperbolic distance from i to x + iy, elementwise."""
    return 0.5 * np.arccosh((x * x + y * y + 1.0) / (2.0 * y))


class SiegelPoint:
    """A fundamental-domain representative.

    Wraps a 2x2 real matrix omega with det 1 whose associated half-plane
    point z = omega^{-1} . i lies in F.  The rotation factor of omega (its
    stabilizer part) is retained: omega^{-1} = p(z) k(theta) with p(z) the
    upper-triangular transvection moving i to z and k(theta) a rotation.
    """

    __slots__ = ("matrix", "_x", "_y")

    def __init__(self, matrix):
        m = _as_matrix(matrix)
        self._x, self._y = _domain_points(*m.ravel().tolist())
        self.matrix = m.copy()
        self.matrix.setflags(write=False)

    @classmethod
    def _checked(cls, matrix, x, y):
        """A point whose read-only matrix and coordinates were validated in
        bulk by ``_domain_points``."""
        point = object.__new__(cls)
        point.matrix, point._x, point._y = matrix, x, y
        return point

    @property
    def x(self):
        return self._x

    @property
    def y(self):
        return self._y

    @property
    def point(self):
        """The associated half-plane point as a complex number."""
        return complex(self._x, self._y)

    @property
    def length(self):
        """Half the hyperbolic distance from i to the associated point.

        Agrees with ``element_length(self.matrix)``: both equal log of the
        largest singular value of omega.
        """
        x, y = self._x, self._y
        return 0.5 * math.acosh((x * x + y * y + 1.0) / (2.0 * y))

    @property
    def rotation(self):
        """The stabilizer angle theta in [0, pi) with omega^{-1} = p(z) k(theta)."""
        m = self.matrix
        inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        sq = math.sqrt(self._y)
        p_inv = np.array([[1.0 / sq, -self._x / sq], [0.0, sq]])
        k = p_inv @ inv
        return math.atan2(k[1, 0], k[0, 0]) % math.pi

    def __repr__(self):
        return f"SiegelPoint(z={self.point:.6g}, rotation={self.rotation:.4f})"


def _representatives(domain_samples):
    """A domain sample as validated arrays (omegas, x, y): omegas of shape
    (N, 2, 2) and the coordinates of their points.  Takes an array of
    representative matrices, or a sequence of SiegelPoints (or matrices)."""
    if isinstance(domain_samples, np.ndarray):
        omegas = np.asarray(domain_samples, dtype=float)
        if omegas.ndim != 3 or omegas.shape[1:] != (2, 2):
            raise ValueError(f"expected an (N, 2, 2) array, got shape {omegas.shape}")
        if not np.all(np.isfinite(omegas)):
            raise ValueError("matrix entries must be finite")
        with np.errstate(divide="ignore", invalid="ignore"):
            x, y = _domain_points(*omegas.reshape(-1, 4).T)
        return omegas, x, y
    points = [p if isinstance(p, SiegelPoint) else SiegelPoint(p) for p in domain_samples]
    omegas = np.array([p.matrix for p in points], dtype=float).reshape(-1, 2, 2)
    return omegas, np.array([p.x for p in points]), np.array([p.y for p in points])


def reduce_to_domain(g):
    """Split g = omega * gamma with omega a domain representative.

    Returns (SiegelPoint, gamma) where gamma is an exact integer matrix of
    determinant one, sign-canonicalized (Python ints in an object array
    once an entry reaches 2^62).  The splitting is unique modulo the center
    thanks to the boundary folding convention, except on the orbits of the
    elliptic points i and rho.
    """
    m = _check_unimodular(g)
    gamma, (a, b, c, d), _ = _split(tuple(m.ravel().tolist()), _IDENTITY)
    return SiegelPoint([[a, b], [c, d]]), _int_matrix(gamma)


# ---------------------------------------------------------------------------
# the cocycle


@dataclass(frozen=True)
class CocycleResult:
    """Outcome of splitting g*omega: the new representative and the integer
    part, with the scale-normalized reconstruction residual of
    g*omega = (g.omega)*alpha."""

    g_dot_omega: SiegelPoint
    alpha: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        alpha = np.asarray(self.alpha)
        integral = alpha.dtype.kind in "iu" or (
            alpha.dtype == object and all(isinstance(v, int) for v in alpha.flat))
        if alpha.shape != (2, 2) or not integral:
            raise ValueError("alpha must be a 2x2 integer matrix")
        a, b, c, d = (int(v) for v in alpha.ravel())
        if a * d - b * c != 1:
            raise ValueError("alpha must have determinant 1")
        if not self.residual <= _RECON_TOL:
            raise ValueError(f"reconstruction residual {self.residual!r} exceeds {_RECON_TOL}")


def cocycle(g, omega):
    """The integer part alpha(g, omega) of g*omega, with the moved point.

    Satisfies the composition rule alpha(g1 g2, omega) =
    alpha(g1, g2.omega) * alpha(g2, omega) exactly (as sign-canonicalized
    integer matrices), and alpha(k, omega) = identity for rotations k.
    """
    m = _check_unimodular(g)
    if not isinstance(omega, SiegelPoint):
        omega = SiegelPoint(omega)
    gamma, rep, product = _split(tuple(m.ravel().tolist()),
                                 tuple(omega.matrix.ravel().tolist()))
    a, b, c, d = rep
    point = SiegelPoint([[a, b], [c, d]])
    recon = _matmul4(rep, gamma)
    residual = (max(abs(u - v) for u, v in zip(product, recon))
                / max(1.0, max(map(abs, product))))
    return CocycleResult(point, _int_matrix(gamma), residual)


def cocycle_alphas(g, omegas):
    """alpha(g, omega) for every representative omega of a domain sample.

    ``omegas`` is an (N, 2, 2) array of representatives (see
    ``domain_matrices``) or a sequence of SiegelPoints.  The reduction runs
    vectorised under the same certificate as ``cocycle``; rows inside the
    error band go through the rational path one by one.  Returns
    (alphas, exact_fallbacks): alphas of shape (N, 2, 2), equal row by row
    to ``cocycle(g, omega).alpha`` (int64, or object dtype of Python ints
    once an entry reaches 2^62), and the number of rows that fell back.
    """
    m = _check_unimodular(g)
    omegas, _, _ = _representatives(omegas)
    return _alphas(tuple(m.ravel().tolist()), omegas)


# ---------------------------------------------------------------------------
# sampling the domain


def sample_domain_arrays(count, seed):
    """Array-valued sampler for the normalized hyperbolic measure on F.

    Exact inversion sampling: the x-marginal of dx dy / y^2 restricted to F
    is proportional to 1/sqrt(1 - x^2) (so x = sin(phi) with phi uniform on
    (-pi/6, pi/6)), and conditionally y = sqrt(1 - x^2)/u with u uniform on
    (0, 1].  Rotation angles are uniform on [0, pi).  Returns
    (x, y, theta, lengths, weights) with equal weights summing to one.
    """
    count = int(count)
    if count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-math.pi / 6.0, math.pi / 6.0, size=count)
    x = np.sin(phi)
    u = 1.0 - rng.random(count)
    y = np.cos(phi) / u
    theta = rng.uniform(0.0, math.pi, size=count)
    weights = np.full(count, 1.0 / count)
    return x, y, theta, _point_lengths(x, y), weights


def domain_matrices(x, y, theta):
    """Representatives omega = k(theta)^{-1} p(z)^{-1} of sampled points
    z = x + iy and angles theta, as a read-only (N, 2, 2) array; p(z) is the
    transvection moving i to z and k(theta) the rotation by theta."""
    x, y, theta = (np.asarray(v, dtype=float) for v in (x, y, theta))
    sq = np.sqrt(y)
    inv_sq = 1.0 / sq
    shear = -x / sq
    ct, st = np.cos(theta), np.sin(theta)
    omegas = np.stack([ct * inv_sq, ct * shear + st * sq,
                       -st * inv_sq, -st * shear + ct * sq], axis=-1).reshape(-1, 2, 2)
    omegas.setflags(write=False)
    return omegas


def sample_domain(count, seed):
    """Draw SiegelPoints from the normalized Haar measure on the domain.

    Returns (points, weights); the weights are uniform (the sampler is exact,
    not importance-reweighted) and sum to one.  The points are views of one
    ``domain_matrices`` array, validated in a single vectorised pass.
    """
    x, y, theta, _, weights = sample_domain_arrays(count, seed)
    omegas, px, py = _representatives(domain_matrices(x, y, theta))
    points = [SiegelPoint._checked(w, xi, yi)
              for w, xi, yi in zip(omegas, px.tolist(), py.tolist())]
    return points, weights


def write_sample_log(path, seed, columns, weights, preamble=()):
    """Stream a domain sample to CSV with columns
    (seed, omega_x, omega_y, rotation, length, weight).

    ``columns`` holds the arrays (x, y, theta, lengths) of
    ``sample_domain_arrays``.
    """
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(str(line).rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(["seed", "omega_x", "omega_y", "rotation", "length", "weight"])
        rows = zip(*(np.asarray(v, dtype=float).tolist() for v in (*columns, weights)))
        for row in rows:
            writer.writerow([seed] + [f"{v:.17g}" for v in row])


# ---------------------------------------------------------------------------
# Monte-Carlo statistics


def weighted_mean_stderr(values, weights=None):
    """Weighted mean and its standard error (fixed-weight delta method)."""
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.size, 1.0 / max(values.size, 1))
    weights = np.asarray(weights, dtype=float)
    mean = float(weights @ values)
    stderr = float(np.sqrt(np.sum((weights * (values - mean)) ** 2)))
    return mean, stderr


def domain_exp_integral(lengths, s, weights=None):
    """Empirical integral of e^{s * length} over the domain, with stderr."""
    lengths = np.asarray(lengths, dtype=float)
    return weighted_mean_stderr(np.exp(s * lengths), weights)


@dataclass(frozen=True)
class CuspFit:
    """Exponential tail fit Pr[length > R] <= amplitude * e^{-rate * R}.

    The rate comes from the exceedance likelihood (excesses over a high
    threshold are asymptotically exponential, so 1/mean(excess) estimates
    the rate with standard error rate/sqrt(#excesses)); the amplitude is the
    smallest prefactor making the bound hold at every reported radius.
    """

    amplitude: float
    rate: float
    rate_stderr: float
    threshold: float
    exceedances: int
    radii: tuple
    tail_probs: tuple
    sample_count: int

    def to_json(self):
        return {
            "amplitude": self.amplitude,
            "rate": self.rate,
            "rateStderr": self.rate_stderr,
            "threshold": self.threshold,
            "exceedances": self.exceedances,
            "radii": list(self.radii),
            "tailProbs": list(self.tail_probs),
            "sampleCount": self.sample_count,
        }


def cusp_decay_fit(lengths, threshold_quantile=0.98, radii=None):
    """Fit the exponential cusp decay Pr[length > R] <= A e^{-cR}.

    The rate c is the exceedance estimate 1/mean(length - R0 | length > R0)
    with R0 the given quantile; the amplitude is then chosen as
    max_R Pr_hat[length > R] e^{cR} over the radius grid, so the bound holds
    at every reported radius by construction.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    if n < MIN_DOMAIN_SAMPLES:
        raise ValueError(f"need at least {MIN_DOMAIN_SAMPLES} samples, got {n}")
    threshold = float(np.quantile(lengths, threshold_quantile))
    excess = lengths[lengths > threshold] - threshold
    if excess.size < 20:
        raise ValueError(
            f"only {excess.size} exceedances above the threshold quantile; "
            "use more samples or a lower quantile"
        )
    rate = float(1.0 / excess.mean())
    stderr = rate / math.sqrt(excess.size)
    if radii is None:
        hi = float(np.quantile(lengths, 0.999))
        radii = np.linspace(0.5, max(1.0, hi), 10)
    radii = np.asarray(radii, dtype=float)
    probs = np.array([float(np.mean(lengths > r)) for r in radii])
    keep = probs > 0
    if not keep.any():
        raise ValueError("tail is empty on the requested radius grid")
    amplitude = float(np.max(probs[keep] * np.exp(rate * radii[keep])))
    return CuspFit(
        amplitude=amplitude,
        rate=rate,
        rate_stderr=stderr,
        threshold=threshold,
        exceedances=int(excess.size),
        radii=tuple(radii.tolist()),
        tail_probs=tuple(probs.tolist()),
        sample_count=int(n),
    )


@dataclass(frozen=True)
class DomainStats:
    """Summary of a cocycle growth experiment over sampled (g, omega) pairs.

    ``kappa`` is the largest observed defect length(alpha) - 2 length(g)
    - 2 length(omega); the pointwise growth inequality holds with that
    additive constant by construction, and the point of reporting it is that
    it stays near zero for this domain.  ``c_emp`` is the largest ratio of
    the empirical integral of e^{s length(alpha)} over the domain to
    e^{2 s length(g)}.  Monte-Carlo estimates carry standard errors.
    ``exact_fallbacks`` counts the (g, omega) pairs whose float reduction
    was not certified and went through exact rational arithmetic.
    """

    sample_count: int
    g_count: int
    s: float
    s0: float
    kappa: float
    c_emp: float
    c_emp_stderr: float
    exp_integral: float
    exp_integral_stderr: float
    exact_fallbacks: int = 0

    def __post_init__(self):
        if self.sample_count < MIN_DOMAIN_SAMPLES:
            raise ValueError(
                f"sample count {self.sample_count} below the declared minimum "
                f"{MIN_DOMAIN_SAMPLES}"
            )

    def to_json(self):
        return {
            "sampleCount": self.sample_count,
            "gCount": self.g_count,
            "s": self.s,
            "s0": self.s0,
            "kappa": self.kappa,
            "cEmp": self.c_emp,
            "cEmpStderr": self.c_emp_stderr,
            "expIntegral": self.exp_integral,
            "expIntegralStderr": self.exp_integral_stderr,
            "exactFallbacks": self.exact_fallbacks,
        }


def random_group_elements(count, seed, max_length=3.0):
    """Random real matrices with prescribed maximal length, via rotation -
    stretch - rotation products; the length is uniform on [0, max_length]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(int(count)):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        ell = rng.uniform(0.0, float(max_length))
        k1 = np.array([[math.cos(t1), -math.sin(t1)], [math.sin(t1), math.cos(t1)]])
        k2 = np.array([[math.cos(t2), -math.sin(t2)], [math.sin(t2), math.cos(t2)]])
        out.append(k1 @ np.diag([math.exp(ell), math.exp(-ell)]) @ k2)
    return out


def cocycle_growth_check(g_samples, s, domain_samples, weights=None, s0=1.0):
    """Measure cocycle growth over sampled group elements and domain points.

    Requires s <= s0/2 (the admissible range for the exponential moment).
    For each g the empirical integral of e^{s length(alpha(g, .))} is
    compared with e^{2 s length(g)}; the largest ratio and the worst
    pointwise defect kappa are reported together with the empirical
    e^{s0 length} integral of the domain sample itself.

    ``g_samples`` may be any iterable and is read once; ``domain_samples``
    is a sequence of SiegelPoints or an (N, 2, 2) array of representatives.
    Both must be nonempty.
    """
    if s <= 0:
        raise ValueError("rate s must be positive")
    if s > s0 / 2.0 + 1e-12:
        raise ValueError(f"rate s={s} out of admissible range (needs s <= s0/2 = {s0 / 2.0})")
    g_list = [_check_unimodular(g) for g in g_samples]
    if not g_list:
        raise ValueError("no group elements to check")
    omegas, x, y = _representatives(domain_samples)
    count = len(omegas)
    if not count:
        raise ValueError("empty domain sample")
    if weights is None:
        weights = np.full(count, 1.0 / count)
    weights = np.asarray(weights, dtype=float)
    omega_lengths = _point_lengths(x, y)
    kappa = -math.inf
    c_emp = -math.inf
    c_emp_stderr = 0.0
    fallbacks = 0
    for g in g_list:
        lg = element_length(g)
        alphas, fell_back = _alphas(tuple(g.ravel().tolist()), omegas)
        fallbacks += fell_back
        alpha_lengths = element_length(alphas)
        kappa = max(kappa, float(np.max(alpha_lengths - 2.0 * lg - 2.0 * omega_lengths)))
        mean, stderr = weighted_mean_stderr(np.exp(s * alpha_lengths), weights)
        ratio = mean / math.exp(2.0 * s * lg)
        if ratio > c_emp:
            c_emp = ratio
            c_emp_stderr = stderr / math.exp(2.0 * s * lg)
    exp_integral, exp_stderr = domain_exp_integral(omega_lengths, s0, weights)
    return DomainStats(
        sample_count=count,
        g_count=len(g_list),
        s=float(s),
        s0=float(s0),
        kappa=kappa,
        c_emp=c_emp,
        c_emp_stderr=c_emp_stderr,
        exp_integral=exp_integral,
        exp_integral_stderr=exp_stderr,
        exact_fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# measures on the integer group


class LatticeMeasure:
    """A finitely supported signed measure on the integer group, mod center.

    Keys are 4-tuples (a, b, c, d) of Python ints with ad - bc = 1,
    sign-canonicalized; iteration order is sorted, so downstream reports are
    deterministic.
    """

    def __init__(self, entries):
        store = {}
        for key, weight in dict(entries).items():
            k = _canonical_sign(tuple(int(v) for v in key))
            a, b, c, d = k
            if a * d - b * c != 1:
                raise ValueError(f"key {k} is not a determinant-one integer matrix")
            store[k] = store.get(k, 0.0) + float(weight)
        self._entries = dict(sorted(store.items()))

    @classmethod
    def point_mass(cls, key):
        return cls({tuple(int(v) for v in np.asarray(key).ravel()): 1.0})

    def items(self):
        return self._entries.items()

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, key):
        k = _canonical_sign(tuple(int(v) for v in np.asarray(key).ravel()))
        return self._entries.get(k, 0.0)

    @property
    def mass(self):
        return float(math.fsum(self._entries.values()))

    @property
    def is_probability(self):
        return all(w >= -1e-12 for w in self._entries.values()) and abs(self.mass - 1.0) <= 1e-9

    def lengths(self):
        """Element lengths aligned with ``items()`` order."""
        return element_length(np.array(list(self._entries), dtype=float).reshape(-1, 2, 2))

    @property
    def max_length(self):
        if not self._entries:
            return 0.0
        return float(self.lengths().max())

    def support(self):
        return [
            (np.array(k, dtype=np.int64).reshape(2, 2), w) for k, w in self._entries.items()
        ]

    def __repr__(self):
        return f"LatticeMeasure({len(self)} atoms, mass={self.mass:.6g})"


def total_variation(first, second):
    """Total-variation norm of the difference, Sum |first - second|."""
    keys = set(first._entries) | set(second._entries)
    return float(
        math.fsum(abs(first._entries.get(k, 0.0) - second._entries.get(k, 0.0)) for k in keys)
    )


def exp_tail_mass(measure, s, radius):
    """Integral of e^{s length} over the complement of the radius ball."""
    total = 0.0
    for (_, weight), ell in zip(measure.items(), measure.lengths().tolist()):
        if ell >= radius - 1e-12:
            total += weight * math.exp(s * ell)
    return total


def pushforward_mn0(m_tilde, n, domain_samples, weights=None):
    """Push a sampled measure on the real group down to the integer group.

    ``m_tilde`` is an iterable of (matrix, weight) pairs forming a probability
    measure supported in the length-n ball; each atom g and each domain point
    omega contribute weight to the inverse of the integer part of
    g^{-1} omega.  ``domain_samples`` is a nonempty sequence of SiegelPoints
    or an (N, 2, 2) array of representatives.  Returns a LatticeMeasure of
    total mass one.
    """
    pairs = [(_check_unimodular(g), float(w)) for g, w in m_tilde]
    if not pairs:
        raise ValueError("empty measure")
    if any(w < -1e-12 for _, w in pairs):
        raise ValueError("weights must be nonnegative")
    if abs(math.fsum(w for _, w in pairs) - 1.0) > 1e-9:
        raise ValueError("weights must sum to one")
    for g, _ in pairs:
        if element_length(g) > n + 1e-9:
            raise ValueError(
                f"support leaves the length ball: length {element_length(g):.6g} > n={n}"
            )
    omegas, _, _ = _representatives(domain_samples)
    if not len(omegas):
        raise ValueError("empty domain sample")
    if weights is None:
        weights = np.full(len(omegas), 1.0 / len(omegas))
    weights = np.asarray(weights, dtype=float).tolist()
    entries = {}
    for g, wg in pairs:
        alphas, _ = _alphas(_adjugate4(g.ravel().tolist()), omegas)
        for (a, b, c, d), wp in zip(alphas.reshape(-1, 4).tolist(), weights):
            key = _canonical_sign((d, -b, -c, a))
            entries[key] = entries.get(key, 0.0) + wg * wp
    return LatticeMeasure(entries)


def truncate_tail(m0, n, ball_radius=None):
    """Condition a probability measure on the radius ball.

    Returns (truncated, tail_mass) where the truncation is renormalized to
    mass one and tail_mass is the removed mass.  The total-variation distance
    to the input is exactly 2 * tail_mass for probability inputs.
    """
    radius = float(n if ball_radius is None else ball_radius)
    inside, outside_mass = {}, 0.0
    for (key, weight), ell in zip(m0.items(), m0.lengths().tolist()):
        if ell <= radius + 1e-12:
            inside[key] = weight
        else:
            outside_mass += weight
    if not inside:
        span = (
            f"[{m0.lengths().min():.4g}, {m0.lengths().max():.4g}]" if len(m0) else "(empty)"
        )
        raise ValueError(
            f"ball of radius {radius:g} carries no mass; support lengths span {span}"
        )
    kept = math.fsum(inside.values())
    truncated = LatticeMeasure({k: w / kept for k, w in inside.items()})
    return truncated, float(m0.mass - kept)
