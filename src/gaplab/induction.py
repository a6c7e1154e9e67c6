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

Reduction is nearest-integer continued-fraction reduction of the associated
half-plane point (Serre, A Course in Arithmetic, ch. VII), one loop
``_reduce`` over floats and over rationals.  The float pass proposes the
integer matrix gamma, and a certificate accepts it only when the float image
gamma . z lies inside F by more than a rigorous forward-error bound (see
``_certify``); an interior point fixes gamma up to sign, so an accepted
proposal is exact.  Otherwise the loop runs again on exact rationals
(``fractions.Fraction`` on the binary float values, which is lossless): from
the proposed image, where it returns the identity if the proposal landed in
F, or from the point itself when the float pass declines.  ``cocycle`` and
the stacked pass ``_alphas`` (float pass ``_reduce_float_batch``) share the
certificate and the fallback, so every returned gamma is exact even for
badly conditioned inputs; the rational path is also the oracle.  The
representative g w gamma^{-1} that ``cocycle`` returns is the exact
product, formed in integers and rounded once per entry.
Boundary convention: the right half of the boundary (Re z = 1/2, and the
right unit-arc) is folded onto the left, which makes the splitting a true
bijection modulo the +-identity center away from the orbits of the elliptic
points i and rho, whose stabilizers are larger; there gamma is the one the
rational path picks.  Integer matrices are canonicalized by the sign of
their first nonzero entry.  The cocycle rule holds for exact chaining; a
chain that feeds one call's rounded representative to the next can pick
the other side of the unit arc, and so an alpha that differs by S, where the
chained point lies within one rounding of the arc (see ``cocycle``).
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_HALF = Fraction(1, 2)
_MEMBER_TOL = 1e-10
_DET_TOL = 1e-12
_FLOAT_STEPS = 120        # step cap of the float reduction loop
_EXACT_STEPS = 10000      # step cap of the exact (Fraction) reduction loop
_RECON_TOL = 1e-9
_INT64_GUARD = 2 ** 62
_MIN_COLUMN_SQUARE = 2.0 ** -1022   # keeps y = 1/(a^2 + c^2) finite

_UNIT = 2.0 ** -53        # unit roundoff of binary64
_TINY = 2.0 ** -1060      # absolute slack covering gradual underflow
_GAMMA_CAP = 2.0 ** 52    # ||gamma||_F^2 cap: entries below 2^26, det exact
#: rows of the (g, omega) grid that one certified float pass of ``_alphas``
#: takes; the pass holds a few dozen float temporaries of this length
_ALPHA_ROW_BUDGET = 2 ** 14
#: rows of the sample log that ``write_sample_log`` holds as Python objects
_LOG_BLOCK_ROWS = 2 ** 12

#: smallest domain sample count for which summary statistics are accepted
MIN_DOMAIN_SAMPLES = 16


# ---------------------------------------------------------------------------
# matrices and lengths
#
# Small matrices travel as row-major 4-tuples (a, b, c, d).  The helpers on
# them use plain arithmetic only, so they act alike on Python numbers and,
# elementwise, on numpy arrays.


def _as_matrix(g):
    """g as a finite 2x2 float array, with its row-major entries as a list
    of Python floats."""
    m = np.asarray(g, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    entries = m.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix entries must be finite")
    return m, entries


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
    """Validate det = 1 up to rounding at the matrix's own scale; returns
    (m, entries) as ``_as_matrix`` does."""
    m, entries = _as_matrix(g)
    a, b, c, d = entries
    det = a * d - b * c
    if abs(det - 1.0) > _det_tol(entries):
        raise ValueError(f"matrix must have determinant 1, got {det!r}")
    return m, entries


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
    (row-major) is positive.  The entries are Python ints."""
    a, b, c, d = entries
    first = a or b or c or d
    if not first:
        raise ValueError("zero matrix has no canonical sign")
    return (-a, -b, -c, -d) if first < 0 else (a, b, c, d)


def _int_matrix(entries):
    """A 2x2 integer matrix: int64, or object dtype holding Python ints once
    an entry reaches 2^62."""
    a, b, c, d = entries
    wide = max(entries) >= _INT64_GUARD or min(entries) <= -_INT64_GUARD
    return np.array([[a, b], [c, d]], dtype=object if wide else np.int64)


# ---------------------------------------------------------------------------
# half-plane points and their reduction


def _point_of_inverse(m):
    """The half-plane point m^{-1} . i = x + iy of a row-major 4-tuple
    m = (a, b, c, d):

        x = -(ab + cd) / (a^2 + c^2),    y = (ad - bc) / (a^2 + c^2).

    Plain arithmetic: exact on Fractions, elementwise on arrays.  Callers
    check a zero first column before a scalar division, and y > 0.
    """
    a, b, c, d = m
    den = a * a + c * c
    return -(a * b + c * d) / den, (a * d - b * c) / den


def _mobius_int(gamma, x, y):
    """Apply an integer matrix (4-tuple, row-major) to x + iy, exactly."""
    p, q, r, s = gamma
    rx_s = r * x + s
    den = rx_s * rx_s + (r * y) * (r * y)
    x2 = ((p * x + q) * rx_s + p * r * y * y) / den
    y2 = (p * s - q * r) * y / den
    return x2, y2


def _reduce(x, y, half, max_iter):
    """Nearest-integer continued-fraction reduction of x + iy towards F.

    Each step recentres x by n = floor(x + half), which lands it in
    [-1/2, 1/2) and so folds the right edge onto the left, then inverts
    z -> -1/z while |z| < 1.  The one loop runs on floats (half = 0.5) and
    on Fractions (half = 1/2).  Returns (gamma, x', y') with gamma a 4-tuple
    of Python ints and gamma . (x + iy) = x' + iy', or None when the point
    is not finite, y <= 0, x^2 + y^2 = 0 (float underflow) or the loop does
    not settle within max_iter steps.  The right unit-arc is left unfolded.
    """
    a, b, c, d = 1, 0, 0, 1
    for _ in range(max_iter):
        if not (0 < y < math.inf and -math.inf < x < math.inf):
            return None
        n = math.floor(x + half)
        if n:
            x -= n
            a, b = a - n * c, b - n * d
        norm = x * x + y * y
        if norm >= 1:
            return (a, b, c, d), x, y
        if not norm:
            return None
        x, y = -x / norm, y / norm
        a, b, c, d = -c, -d, a, b
    return None


def _reduce_point(x, y):
    """Reduce the exact rational point x + iy into F; returns (gamma, x', y').

    The float loop proposes gamma.  The exact loop then runs from the
    proposed image, where it returns the identity if the proposal landed in
    F, or from x + iy itself when there is no proposal.  Last, the right
    unit-arc is folded onto the left.
    """
    try:
        proposal = _reduce(float(x), float(y), 0.5, _FLOAT_STEPS)
    except OverflowError:       # a coordinate past the float range
        proposal = None
    gamma = (1, 0, 0, 1)
    if proposal is not None:
        gamma = proposal[0]
        x, y = _mobius_int(gamma, x, y)
    reduced = _reduce(x, y, _HALF, _EXACT_STEPS)
    if reduced is None:
        raise RuntimeError("fundamental-domain reduction did not terminate")
    tail, x, y = reduced
    gamma = _matmul4(tail, gamma)
    if x > 0 and x * x + y * y == 1:
        x, gamma = -x, _matmul4((0, -1, 1, 0), gamma)    # S: z -> -1/z
    return gamma, x, y


def _exact_gamma(g, w):
    """The integer part of g w on the rational path: gamma with gamma . z in
    F for the exact point z = (g w)^{-1} . i (g, w row-major float 4-tuples)."""
    M = _matmul4(tuple(map(Fraction, g)), tuple(map(Fraction, w)))
    if not (M[0] or M[2]):
        raise ValueError("singular matrix")
    x, y = _point_of_inverse(M)
    if y <= 0:
        raise ValueError("matrix must have positive determinant")
    gamma, _, _ = _reduce_point(x, y)
    return gamma


def _rounded_representative(g, w, gamma):
    """g w gamma^{-1}, each entry correctly rounded from its exact value.

    Every float is an integer over a power of two (``as_integer_ratio``).
    The largest denominator D_g of g's entries is a multiple of each of
    theirs, so n / den = n (D_g // den) / D_g puts g over one denominator
    with integer numerators, exactly; w likewise over D_w.  gamma^{-1} is
    the integer adjugate of gamma, so D_g D_w g w gamma^{-1} is an integer
    matrix, formed here without rounding (adj(gamma) is folded into w's
    numerators first, which keeps the factors small), and each entry is one
    int / int by D_g D_w.  Python rounds int / int correctly (to nearest,
    ties to even) over the whole float range, subnormals included, and
    raises OverflowError, never returns inf, past it.  The entries are
    Python floats.
    """
    (a, da), (b, db), (c, dc), (d, dd) = map(float.as_integer_ratio, g)
    (e, de), (f, df), (h, dh), (k, dk) = map(float.as_integer_ratio, w)
    dg = max(da, db, dc, dd)
    dw = max(de, df, dh, dk)
    a, b, c, d = a * (dg // da), b * (dg // db), c * (dg // dc), d * (dg // dd)
    e, f, h, k = e * (dw // de), f * (dw // df), h * (dw // dh), k * (dw // dk)
    p, q, r, s = gamma
    e, f, h, k = e * s - f * r, f * p - e * q, h * s - k * r, k * p - h * q
    den = dg * dw
    return ((a * e + b * h) / den, (a * f + b * k) / den,
            (c * e + d * h) / den, (c * f + d * k) / den)


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
    # m adj(gamma) for adj(gamma) = (s, -q, -r, p), bit for bit
    # _matmul4(m, _adjugate4(gamma))
    ma, mb, mc, md = m
    a, b, c, d = ma * s - mb * r, mb * p - ma * q, mc * s - md * r, md * p - mc * q
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
    a, _, c, _ = m
    gamma = None
    if a * a + c * c > 0.0:
        reduced = _reduce(*_point_of_inverse(m), 0.5, _FLOAT_STEPS)
        gamma = reduced and reduced[0]
    # entries past 2^26 never certify; checking here keeps float() exact
    if (gamma is None or max(gamma) >= 1 << 26 or min(gamma) <= -(1 << 26)
            or not _certify(g, w, m, tuple(map(float, gamma)))):
        gamma = _exact_gamma(g, w)
    gamma = _canonical_sign(gamma)
    return gamma, _rounded_representative(g, w, gamma), m


def _reduce_float_batch(x, y):
    """The float loop of ``_reduce`` over arrays: candidate integer matrices
    as four float arrays.  A row that fails to settle, or turns non-finite,
    gives a candidate that the certificate rejects."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    gamma = np.zeros((4, x.size))
    gamma[0] = gamma[3] = 1.0
    live = np.arange(x.size)
    for _ in range(_FLOAT_STEPS):
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


def _alphas(gs, omegas):
    """alpha(g, omega) for every g of a list of G float 4-tuples ``gs`` and
    every omega of validated (N, 2, 2) representatives ``omegas``, at once.

    The G N pairs (g, omega), g-major, take one float reduction and one
    certificate, in blocks of at most ``_ALPHA_ROW_BUDGET`` rows so that the
    float temporaries stay bounded for any G; each row is computed as it is
    for a single g, so the certificate's verdicts do not depend on G.  A row
    the certificate rejects goes to ``_exact_gamma(gs[i // N], omega)``.
    Returns (alphas, exact_fallbacks): alphas of shape (G, N, 2, 2), block g
    equal row by row to ``cocycle(gs[g], omega).alpha`` (int64, or object
    dtype of Python ints once any entry reaches 2^62), and the list of the
    G fallback counts.
    """
    count = len(omegas)
    rows = len(gs) * count
    g_cols = np.ascontiguousarray(np.array(gs, dtype=float).reshape(-1, 4).T)
    w_rows = omegas.reshape(count, 4)
    w_cols = np.ascontiguousarray(w_rows.T)
    alphas = np.zeros((rows, 4), dtype=np.int64)
    failed = []
    for start in range(0, rows, _ALPHA_ROW_BUDGET):
        pair = np.arange(start, min(start + _ALPHA_ROW_BUDGET, rows))
        g = tuple(g_cols[:, pair // count])
        w = tuple(w_cols[:, pair % count])
        m = _matmul4(g, w)
        with np.errstate(all="ignore"):
            cand = _reduce_float_batch(*_point_of_inverse(m))
            ok = _certify(g, w, m, cand)
        p, q = cand[0][ok], cand[1][ok]
        sign = np.where(p != 0, np.sign(p), np.sign(q))
        alphas[pair[ok]] = (np.stack([v[ok] for v in cand]) * sign).T
        failed += pair[~ok].tolist()
    exact = {i: _canonical_sign(_exact_gamma(gs[i // count],
                                             tuple(w_rows[i % count].tolist())))
             for i in failed}
    if any(abs(v) >= _INT64_GUARD for e in exact.values() for v in e):
        alphas = alphas.astype(object)
    for i, e in exact.items():
        alphas[i] = e
    fallbacks = [0] * len(gs)
    for i in failed:
        fallbacks[i // count] += 1
    return alphas.reshape(len(gs), count, 2, 2), fallbacks


# ---------------------------------------------------------------------------
# domain representatives


def _any(mask):
    return mask if mask.__class__ is bool else bool(mask.any())


def _first(values, mask):
    return float(np.asarray(values)[np.asarray(mask)][0])


def _det_tol(m):
    """The determinant tolerance of a row-major float 4-tuple at its own
    scale: _DET_TOL max(1, ||m||_F^2), the rule of ``_check_unimodular``."""
    return _DET_TOL * max(1.0, _sumsq4(m))


def _domain_points(a, b, c, d, factors=()):
    """The points x + iy = omega^{-1} . i of representatives
    omega = [[a, b], [c, d]], elementwise over floats or arrays.

    Raises ValueError unless every omega has determinant 1 (to _DET_TOL at
    its scale) and its point lies in F (to _MEMBER_TOL) with y at most
    about 2^1022, inside the float range.

    A scalar omega that rounds the exact product of `factors` (float
    4-tuples g, w whose determinants passed at their own scales) and an
    integer matrix of determinant 1 has determinant det g det w exactly, so
    it inherits what theirs miss: it is held to its own tolerance plus
    theirs, t_g + t_w + t_g t_w.  That sum is formed only when the plain
    test fails.
    """
    det = a * d - b * c
    off = abs(det - 1.0)
    bad = (off > _DET_TOL) & (off > _DET_TOL * (a * a + b * b + c * c + d * d))
    if _any(bad) and not (factors and off <= _inherited_det_tol(
            (a, b, c, d), *factors)):
        raise ValueError(f"determinant must be 1, got {_first(det, bad)!r}")
    if _any((a == 0) & (c == 0)):
        raise ValueError("representative has a zero first column")
    # y is about 1/(a^2 + c^2): it overflows once a^2 + c^2 falls below
    # 2^-1024, and a^2 + c^2 itself underflows to 0 below 2^-1075
    if _any(a * a + c * c < _MIN_COLUMN_SQUARE):
        raise ValueError("associated point lies too high in the cusp for "
                         "floats: y = 1/(a^2 + c^2) exceeds 2^1022")
    x, y = _point_of_inverse((a, b, c, d))
    if _any(y <= 0):
        raise ValueError("associated point must lie in the upper half-plane")
    bad = (abs(x) > 0.5 + _MEMBER_TOL) | (x * x + y * y < 1.0 - _MEMBER_TOL)
    if _any(bad):
        point = complex(_first(x, bad), _first(y, bad))
        raise ValueError(f"associated point {point:.6g} lies outside the fundamental domain")
    return x, y


def _inherited_det_tol(rep, g, w):
    """Determinant tolerance of rep = g w gamma^-1 (see ``_domain_points``)."""
    t_g, t_w = _det_tol(g), _det_tol(w)
    return _det_tol(rep) + t_g + t_w + t_g * t_w


def _point_lengths(x, y):
    """Half the hyperbolic distance from i to x + iy, elementwise.

    cosh(2 length) = (x^2 + y^2 + 1) / (2y), taken as
    y/2 + (x^2 + 1)/(2y) so that no y^2 overflows: finite for every y up to
    the float range.
    """
    return 0.5 * np.arccosh(y / 2.0 + (x * x + 1.0) / (2.0 * y))


class SiegelPoint:
    """A fundamental-domain representative.

    Wraps a 2x2 real matrix omega with det 1 whose associated half-plane
    point z = omega^{-1} . i lies in F.  The rotation factor of omega (its
    stabilizer part) is retained: omega^{-1} = p(z) k(theta) with p(z) the
    upper-triangular transvection moving i to z and k(theta) a rotation.

    A point holds omega either as its row-major entries, a 4-tuple of
    Python floats from which ``matrix`` is built on first read, or, when
    ``sample_domain`` drew it, as a read-only view of the sample's array.
    """

    __slots__ = ("_entries", "_matrix", "_x", "_y")

    def __init__(self, matrix):
        _, entries = _as_matrix(matrix)
        self._x, self._y = _domain_points(*entries)
        self._entries, self._matrix = tuple(entries), None

    @classmethod
    def _checked(cls, matrix, x, y):
        """A point whose read-only matrix and coordinates were validated in
        bulk by ``_domain_points``."""
        point = object.__new__(cls)
        point._entries, point._matrix, point._x, point._y = None, matrix, x, y
        return point

    @classmethod
    def _of_entries(cls, entries, factors=()):
        """The point of a 4-tuple of finite row-major Python floats
        (a, b, c, d), under the checks of ``_domain_points`` (``factors`` as
        there)."""
        point = object.__new__(cls)
        point._x, point._y = _domain_points(*entries, factors)
        point._entries, point._matrix = entries, None
        return point

    @property
    def matrix(self):
        """omega as a read-only 2x2 float array: the sample's view, or one
        array that owns its data, built from the entries on first read."""
        m = self._matrix
        if m is None:
            a, b, c, d = self._entries
            m = self._matrix = np.array([[a, b], [c, d]])
            m.setflags(write=False)
        return m

    def _row_major(self):
        """omega's entries (a, b, c, d) as Python floats."""
        return self._entries or self._matrix.ravel().tolist()

    @property
    def x(self):
        return self._x

    @property
    def y(self):
        return self._y

    @property
    def length(self):
        """Half the hyperbolic distance from i to the associated point.

        Agrees with ``element_length(self.matrix)``: both equal log of the
        largest singular value of omega.  It is ``_point_lengths`` of the
        point, finite for every y up to the float range.
        """
        return float(_point_lengths(self._x, self._y))


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


def _check_probability(weights, what):
    """Refuse weights unless each is finite and nonnegative (to 1e-12) and
    they sum to one within 1e-9."""
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"{what} must be finite")
    if any(w < -1e-12 for w in weights):
        raise ValueError(f"{what} must be nonnegative")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        raise ValueError(f"{what} must sum to one")


def _weighted_sample(domain_samples):
    """A nonempty domain sample as (omegas, x, y, weights), see
    ``_representatives``; the weights are uniform, 1/N each."""
    omegas, x, y = _representatives(domain_samples)
    count = len(omegas)
    if not count:
        raise ValueError("empty domain sample")
    return omegas, x, y, np.full(count, 1.0 / count)


# ---------------------------------------------------------------------------
# the cocycle


@dataclass(frozen=True, slots=True)
class CocycleResult:
    """Outcome of splitting g*omega: the new representative and the integer
    part, with the scale-normalized reconstruction residual of
    g*omega = (g.omega)*alpha."""

    g_dot_omega: SiegelPoint
    alpha: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        alpha = np.asarray(self.alpha)
        kind = alpha.dtype.kind
        if alpha.shape != (2, 2) or kind not in "iuO":
            raise ValueError("alpha must be a 2x2 integer matrix")
        # integer dtypes list as Python ints; an object array lists its
        # entries as they are, and only Python ints (bool included) pass
        (a, b), (c, d) = alpha.tolist()
        if kind == "O" and not all(isinstance(v, int) for v in (a, b, c, d)):
            raise ValueError("alpha must be a 2x2 integer matrix")
        if a * d - b * c != 1:
            raise ValueError("alpha must have determinant 1")
        if not self.residual <= _RECON_TOL:
            raise ValueError(f"reconstruction residual {self.residual!r} exceeds {_RECON_TOL}")


def cocycle(g, omega):
    """The integer part alpha(g, omega) of g*omega, with the moved point.

    Satisfies the composition rule alpha(g1 g2, omega) =
    alpha(g1, g2.omega) * alpha(g2, omega) exactly (as sign-canonicalized
    integer matrices) for the exact point g2.omega, except on the orbits of
    the elliptic points i and rho, whose stabilizers are larger and where
    alpha is the one the rational path picks; and alpha(k, omega) = identity
    for rotations k.  ``g_dot_omega`` is the moved representative rounded
    once per entry.  When g1 carries it to within one rounding of the unit
    arc, the rounding decides the side of the arc, so alpha(g1, ·) taken at
    the rounded point can differ by S from its value at the exact point: a
    chain of calls through rounded representatives can break the rule there.
    """
    _, g4 = _as_matrix(g)
    a, b, c, d = g4
    det = a * d - b * c
    # the rule of _check_unimodular, on the entries at hand
    if abs(det - 1.0) > _DET_TOL * max(1.0, a * a + b * b + c * c + d * d):
        raise ValueError(f"matrix must have determinant 1, got {det!r}")
    if isinstance(omega, SiegelPoint):
        w4 = omega._row_major()
    else:
        _, w4 = _as_matrix(omega)
        _domain_points(*w4)
    gamma, rep, product = _split(g4, w4)
    point = SiegelPoint._of_entries(rep, (g4, w4))
    # the residual of g w = rep gamma, with rep gamma formed as _matmul4 does
    a, b, c, d = rep
    p, q, r, s = gamma
    m00, m01, m10, m11 = product
    residual = (max(abs(m00 - (a * p + b * r)), abs(m01 - (a * q + b * s)),
                    abs(m10 - (c * p + d * r)), abs(m11 - (c * q + d * s)))
                / max(1.0, max(abs(m00), abs(m01), abs(m10), abs(m11))))
    return CocycleResult(point, _int_matrix(gamma), residual)


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
    ``sample_domain_arrays``; ``seed`` is an integer.  Preamble lines end in
    ``\\n``; the header and rows end in ``\\r\\n`` and carry every float as
    ``.17g``, the bytes ``csv.writer`` gives.  One format string, with the
    seed baked in, makes each row.  The weight column is formatted once per
    distinct bit pattern (a sample's weights are usually all equal); keying
    on the bits, not the value, keeps -0.0 apart from 0.0.  The rows stream
    to the file through ``writelines`` unjoined, and their floats become
    Python floats ``_LOG_BLOCK_ROWS`` rows at a time, so the memory the log
    takes stays bounded whatever the sample size: a string of the whole log
    would cost a copy of the file, and whole columns as Python floats some
    130 bytes a sample.
    """
    fmt = f"{operator.index(seed)}" + ",{:.17g}" * 4 + ",{}\r\n"
    columns = [np.asarray(v, dtype=float) for v in columns]
    bits, which = np.unique(np.ascontiguousarray(weights, dtype=float).view(np.int64),
                            return_inverse=True)
    cells = [format(v, ".17g") for v in bits.view(float).tolist()]
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(str(line).rstrip("\n") + "\n")
        fh.write("seed,omega_x,omega_y,rotation,length,weight\r\n")
        for start in range(0, len(which), _LOG_BLOCK_ROWS):
            block = slice(start, start + _LOG_BLOCK_ROWS)
            rows = zip(*(v[block].tolist() for v in columns),
                       map(cells.__getitem__, which[block].tolist()))
            fh.writelines(itertools.starmap(fmt.format, rows))


# ---------------------------------------------------------------------------
# Monte-Carlo statistics


def weighted_mean_stderr(values, weights):
    """Weighted mean and its standard error (fixed-weight delta method)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mean = float(weights @ values)
    stderr = float(np.sqrt(np.sum((weights * (values - mean)) ** 2)))
    return mean, stderr


def domain_exp_integral(lengths, s, weights):
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


def cusp_decay_fit(lengths, threshold_quantile=0.98):
    """Fit the exponential cusp decay Pr[length > R] <= A e^{-cR}.

    The rate c is the exceedance estimate 1/mean(length - R0 | length > R0)
    with R0 the given quantile; the amplitude is then chosen as
    max_R Pr_hat[length > R] e^{cR} over the radius grid, ten radii from 0.5
    to max(1, the 0.999 quantile), so the bound holds at every reported
    radius by construction.
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
    hi = float(np.quantile(lengths, 0.999))
    radii = np.linspace(0.5, max(1.0, hi), 10)
    probs = np.array([float(np.mean(lengths > r)) for r in radii])
    keep = probs > 0
    if not keep.any():
        raise ValueError("tail is empty on the radius grid")
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
    was not certified and went through exact rational arithmetic, and
    ``nontrivial`` the pairs whose alpha is not the canonical identity.  A
    sample whose every alpha is +-I (g a rotation fixes i, so length 0
    gives that) checks no growth at all.
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
    nontrivial: int = 0

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
            "nontrivial": self.nontrivial,
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


def cocycle_growth_check(g_samples, s, domain_samples, s0=1.0):
    """Measure cocycle growth over sampled group elements and domain points.

    Requires s <= s0/2 (the admissible range for the exponential moment).
    For each g the empirical integral of e^{s length(alpha(g, .))} is
    compared with e^{2 s length(g)}; the largest ratio and the worst
    pointwise defect kappa are reported together with the empirical
    e^{s0 length} integral of the domain sample itself.

    ``g_samples`` may be any iterable and is read once; ``domain_samples``
    is a sequence of SiegelPoints or an (N, 2, 2) array of representatives,
    each weighted 1/N, as ``sample_domain`` draws them (the sampler is
    exact).  Both must be nonempty.  Every alpha(g, omega) comes from one
    stacked ``_alphas`` pass over all (g, omega) pairs.  The statistics stay
    one loop over g: each is a reduction over one g's row, and a stacked
    (G, N) @ (N,) product could round the weighted means differently.
    """
    if s <= 0:
        raise ValueError("rate s must be positive")
    if s > s0 / 2.0 + 1e-12:
        raise ValueError(f"rate s={s} out of admissible range (needs s <= s0/2 = {s0 / 2.0})")
    g_list = [_check_unimodular(g) for g in g_samples]
    if not g_list:
        raise ValueError("no group elements to check")
    omegas, x, y, weights = _weighted_sample(domain_samples)
    omega_lengths = _point_lengths(x, y)
    kappa = -math.inf
    c_emp = -math.inf
    c_emp_stderr = 0.0
    nontrivial = 0
    stacked, fallbacks = _alphas([g4 for _, g4 in g_list], omegas)
    for (g, _), alphas in zip(g_list, stacked):
        lg = element_length(g)
        nontrivial += int(np.any(alphas.reshape(-1, 4) != (1, 0, 0, 1), axis=1).sum())
        alpha_lengths = element_length(alphas)
        kappa = max(kappa, float(np.max(alpha_lengths - 2.0 * lg - 2.0 * omega_lengths)))
        mean, stderr = weighted_mean_stderr(np.exp(s * alpha_lengths), weights)
        ratio = mean / math.exp(2.0 * s * lg)
        if ratio > c_emp:
            c_emp = ratio
            c_emp_stderr = stderr / math.exp(2.0 * s * lg)
    exp_integral, exp_stderr = domain_exp_integral(omega_lengths, s0, weights)
    return DomainStats(
        sample_count=len(omegas),
        g_count=len(g_list),
        s=float(s),
        s0=float(s0),
        kappa=kappa,
        c_emp=c_emp,
        c_emp_stderr=c_emp_stderr,
        exp_integral=exp_integral,
        exp_integral_stderr=exp_stderr,
        exact_fallbacks=sum(fallbacks),
        nontrivial=nontrivial,
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

    def items(self):
        return self._entries.items()

    def __len__(self):
        return len(self._entries)

    @property
    def mass(self):
        return float(math.fsum(self._entries.values()))

    def lengths(self):
        """Element lengths aligned with ``items()`` order."""
        return element_length(np.array(list(self._entries), dtype=float).reshape(-1, 2, 2))


def total_variation(first, second):
    """Total-variation norm of the difference, Sum |first - second|."""
    keys = set(first._entries) | set(second._entries)
    return float(
        math.fsum(abs(first._entries.get(k, 0.0) - second._entries.get(k, 0.0)) for k in keys)
    )


def pushforward_mn0(m_tilde, n, domain_samples):
    """Push a sampled measure on the real group down to the integer group.

    ``m_tilde`` is an iterable of (matrix, weight) pairs forming a probability
    measure supported in the length-n ball; each atom g and each domain point
    omega contribute weight to the inverse of the integer part of
    g^{-1} omega.  ``domain_samples`` is a nonempty sequence of SiegelPoints
    or an (N, 2, 2) array of representatives, each weighted 1/N.  All
    integer parts come from one stacked ``_alphas`` pass.  Returns
    (measure, exact_fallbacks): a LatticeMeasure of total mass one, and the
    number of (g, omega) pairs whose reduction went through exact rational
    arithmetic.
    """
    pairs = [(*_check_unimodular(g), float(w)) for g, w in m_tilde]
    if not pairs:
        raise ValueError("empty measure")
    _check_probability([w for _, _, w in pairs], "weights")
    for g, _, _ in pairs:
        if element_length(g) > n + 1e-9:
            raise ValueError(
                f"support leaves the length ball: length {element_length(g):.6g} > n={n}"
            )
    omegas, _, _, weights = _weighted_sample(domain_samples)
    weights = weights.tolist()
    stacked, fallbacks = _alphas([_adjugate4(g4) for _, g4, _ in pairs], omegas)
    entries = {}
    for (_, _, wg), alphas in zip(pairs, stacked):
        for (a, b, c, d), wp in zip(alphas.reshape(-1, 4).tolist(), weights):
            key = _canonical_sign((d, -b, -c, a))
            entries[key] = entries.get(key, 0.0) + wg * wp
    return LatticeMeasure(entries), sum(fallbacks)


def truncate_tail(m0, radius):
    """Condition a probability measure on the ball of lengths <= radius.

    Returns (truncated, tail_mass) where the truncation is renormalized to
    mass one and tail_mass is the removed mass.  The total-variation distance
    to the input is exactly 2 * tail_mass for probability inputs.
    """
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
