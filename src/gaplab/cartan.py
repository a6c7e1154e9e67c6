"""SL3 over the reals and over Q_p: lengths, KAK data, distortion solves.

Real elements carry float matrices with det pinned to 1; p-adic elements
carry exact Fraction matrices with det exactly 1, and all p-adic invariants
(norms, Smith exponents) are integer-exact.  Lengths use the spectral norm
in the real case and the maximum entry p-norm in the p-adic case, so that
the respective maximal compact subgroups have length zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# real side


@dataclass
class RealGroupElement:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValueError("need a finite 3x3 real matrix")
        if abs(np.linalg.det(m) - 1.0) > 1e-12 * max(1.0, np.abs(m).max() ** 3):
            raise ValueError(f"determinant {np.linalg.det(m)} != 1")
        self.matrix = m

    def inv(self) -> "RealGroupElement":
        return RealGroupElement(np.linalg.inv(self.matrix))

    def __matmul__(self, other: "RealGroupElement") -> "RealGroupElement":
        return RealGroupElement(self.matrix @ other.matrix)


def d_matrix(a1: float, a2: float, a3: float) -> RealGroupElement:
    """exp-diagonal D(a1,a2,a3); requires zero sum."""
    if abs(a1 + a2 + a3) > 1e-10:
        raise ValueError("diagonal exponents must sum to 0")
    return RealGroupElement(np.diag([math.exp(a1), math.exp(a2), math.exp(a3)]))


def d_alpha(alpha: float) -> RealGroupElement:
    """The distinguished ray D(2a, -a, -a) of length 2a."""
    return d_matrix(2 * alpha, -alpha, -alpha)


def k_delta_real(delta: float) -> RealGroupElement:
    """Planar rotation with (1,1) entry delta, fixing the third axis."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta = {delta} outside [0, 1]")
    s = math.sqrt(1.0 - delta * delta)
    return RealGroupElement(np.array([[delta, -s, 0.0],
                                      [s, delta, 0.0],
                                      [0.0, 0.0, 1.0]]))


def is_special_orthogonal(m: np.ndarray, tol: float = 1e-9) -> bool:
    return (np.allclose(m @ m.T, np.eye(3), atol=tol)
            and abs(np.linalg.det(m) - 1.0) < tol)


_U_ZERO = [(0, 1), (0, 2), (1, 0), (2, 0)]          # {(*,0,0),(0,*,*),(0,*,*)}
_UTILDE_ZERO = [(0, 2), (1, 2), (2, 0), (2, 1)]     # {(*,*,0),(*,*,0),(0,0,*)}


def in_u_pattern(m: np.ndarray, tol: float = 1e-9) -> bool:
    return all(abs(m[i, j]) <= tol for i, j in _U_ZERO)


def in_utilde_pattern(m: np.ndarray, tol: float = 1e-9) -> bool:
    return all(abs(m[i, j]) <= tol for i, j in _UTILDE_ZERO)


@dataclass
class CartanTriple:
    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if self.a1 < self.a2 - 1e-10 or self.a2 < self.a3 - 1e-10:
            raise ValueError(f"triple {(self.a1, self.a2, self.a3)} not ordered")
        if abs(self.a1 + self.a2 + self.a3) > 1e-10:
            raise ValueError("triple must sum to 0")

    def as_tuple(self):
        return (self.a1, self.a2, self.a3)

    def as_int_tuple(self):
        t = (int(round(self.a1)), int(round(self.a2)), int(round(self.a3)))
        if t != self.as_tuple():
            raise ValueError("triple is not integral")
        return t

    @property
    def length(self) -> float:
        return max(self.a1, -self.a3)


def length_real(g: RealGroupElement) -> float:
    """max(log ||g||, log ||g^{-1}||) in the spectral norm."""
    sv = np.linalg.svd(g.matrix, compute_uv=False)
    return float(max(math.log(sv[0]), -math.log(sv[-1])))


def kak_real(g: RealGroupElement):
    """g = k1 * expdiag(a) * k2 with k1, k2 in SO(3) and a ordered, zero-sum.

    SVD supplies orthogonal factors; a negative determinant is repaired by
    flipping the last column of k1 together with the last row of k2 (their
    rank-one product is unchanged and singular values stay positive).
    """
    u, sv, vt = np.linalg.svd(g.matrix)
    if np.linalg.det(u) < 0:
        u = u.copy(); vt = vt.copy()
        u[:, 2] *= -1.0
        vt[2, :] *= -1.0
    a = np.log(sv)
    a = a - a.mean()                     # exact zero-sum despite rounding
    return (RealGroupElement(u), CartanTriple(*a),
            RealGroupElement(vt))


def cartan_automorphism(g: RealGroupElement) -> RealGroupElement:
    """rho(g) = J (g^{-1})^T J with J the antidiagonal involution."""
    J = np.fliplr(np.eye(3))
    return RealGroupElement(J @ np.linalg.inv(g.matrix).T @ J)


@dataclass
class SphereDistortion:
    alpha: float
    r: float
    delta: float
    u: RealGroupElement
    u_prime: RealGroupElement
    residual: float
    delta_bound: float          # e^{r - 4 alpha}


def distorted_length(alpha: float, delta: float) -> float:
    """r_alpha(delta) = log || D_alpha k_delta D_alpha ||."""
    g = d_alpha(alpha) @ k_delta_real(delta) @ d_alpha(alpha)
    return float(math.log(np.linalg.svd(g.matrix, compute_uv=False)[0]))


def solve_sphere_distortion(alpha: float, r: float,
                            tol: float = 1e-10) -> SphereDistortion:
    """Find delta with log||D_a k_delta D_a|| = r and the flanking rotations.

    r_alpha is continuous and increasing from alpha (delta = 0) to 4*alpha
    (delta = 1); bisection to |log norm - r| <= tol.  The flanking factors
    come from the SVD of the upper 2x2 block, embedded so both land in
    SO(3) with the (*,*,0 / *,*,0 / 0,0,*) block pattern.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not (alpha <= r <= 4 * alpha):
        raise ValueError(f"r = {r} outside [{alpha}, {4 * alpha}]")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if distorted_length(alpha, mid) < r:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    delta = 0.5 * (lo + hi)
    # polish the endpoint cases where bisection cannot do better
    if abs(distorted_length(alpha, 0.0) - r) <= tol:
        delta = 0.0
    elif abs(distorted_length(alpha, 1.0) - r) <= tol:
        delta = 1.0

    g = (d_alpha(alpha) @ k_delta_real(delta) @ d_alpha(alpha)).matrix
    b = g[:2, :2]
    u2, _, v2t = np.linalg.svd(b)
    if np.linalg.det(u2) < 0:
        u2 = u2.copy(); v2t = v2t.copy()
        u2[:, 1] *= -1.0
        v2t[1, :] *= -1.0
    u = np.eye(3); u[:2, :2] = u2
    up = np.eye(3); up[:2, :2] = v2t
    middle = d_matrix(r, 2 * alpha - r, -2 * alpha).matrix
    residual = float(np.max(np.abs(u @ middle @ up - g)))
    return SphereDistortion(alpha=alpha, r=r, delta=delta,
                            u=RealGroupElement(u), u_prime=RealGroupElement(up),
                            residual=residual,
                            delta_bound=math.exp(r - 4 * alpha))


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

    def is_integral(self) -> bool:
        return self.min_valuation() >= 0


def length_exponent_padic(g: PAdicGroupElement) -> int:
    """Integer exponent e with length = e * log p: the length of the Cartan
    triple, max over g, g^{-1} of -min entry valuation."""
    return int(kak_padic(g).length)


def length_padic(g: PAdicGroupElement) -> float:
    return length_exponent_padic(g) * math.log(g.p)


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


def u0_automorphism(g: PAdicGroupElement) -> PAdicGroupElement:
    """Conjugation g -> diag(p,1,1) g diag(1/p,1,1): the outer automorphism
    that repairs odd-parity chamber points at the cost of log p in length."""
    p = g.p
    left = [Fraction(p), Fraction(1), Fraction(1)]
    right = [Fraction(1, p), Fraction(1), Fraction(1)]
    m = g.matrix
    out = [[left[i] * m[i][j] * right[j] for j in range(3)] for i in range(3)]
    return PAdicGroupElement(p, out)


_OFF_DIAGONAL = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def random_padic_integral(p: int, rng, words: int = 6) -> PAdicGroupElement:
    """Random element of SL3(Z_p) as a word in integer elementary matrices."""
    g = PAdicGroupElement(p, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(words):
        i, j = _OFF_DIAGONAL[int(rng.integers(len(_OFF_DIAGONAL)))]
        c = int(rng.integers(-3, 4))
        e = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        e[i][j] = c
        g = g @ PAdicGroupElement(p, e)
    return g
