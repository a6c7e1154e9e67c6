"""Averaging operators on l2(O_n x O_n): construction, norms, exact identities.

Every operator here has the stamp form

    M[(y,t),(x,s)] = K[(s - t - x*y) mod m],        m = p^n,

for a length-m lookup kernel K: the shift-average S_delta uses
K = delta-spike/m, the character average S_chi spreads chi over the image of
the level-h injection z -> p^(n-h)*z.  Flat index convention: (u, v) -> u*m+v
with u the space label and v the shift label.

The library keeps the kernel only and never forms the m^2 x m^2 matrix; the
dense forms are test oracles (tests/dense_stamps.py).  ``StampOperator``
applies the map as a discrete Radon transform,

    (A f)(y,t) = sum_x g(x, t + x*y),      g = f correlated with K in s,

which after a DFT in the shift variable is a DFT in x read at the frequency
xi*y: one FFT multiplier, one FFT across the space label, one gather and one
inverse FFT, O(m^2 log m) per apply on a vector of length m^2.  Each operator
builds its plan (multipliers and gather index) once, on its first apply.  It
serves the power iteration that cross-checks the exact norms; a step of A*A
skips the inverse/forward shift DFT pair that cancels between the two
applies, so it takes 4 FFT passes, not 6.  The shift-Fourier basis splits
every stamp into blocks K_hat[c] * G_c whose norms have the closed form of
``_block_norms``, so exact norms never need a dense matrix.  Since K -> M is
linear and injective, the decomposition identity of ``verify_S_decomposition``
is checked on kernels as well.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cartan import _det3, _matmul3
from .residue import (AdditiveCharacter, ResidueRing, RingElem,
                      character_decompose, valuation)

_POWER_TOL = 1e-12      # relative residual at which the power iteration stops


# ---------------------------------------------------------------------------
# kernels


def _as_delta_value(ring: ResidueRing, delta) -> int:
    if isinstance(delta, RingElem):
        if delta.ring != ring:
            raise ValueError("delta lives in the wrong ring")
        return delta.value
    return int(delta) % ring.modulus


def _kernel_s_delta(ring: ResidueRing, delta) -> np.ndarray:
    m = ring.modulus
    k = np.zeros(m, dtype=complex)
    k[_as_delta_value(ring, delta)] = 1.0 / m
    return k


def _kernel_s_chi(ring: ResidueRing, chi: AdditiveCharacter) -> np.ndarray:
    p, n = ring.p, ring.n
    h = chi.ring.n
    if chi.ring.p != p:
        raise ValueError("character prime differs from ring prime")
    if not (1 <= h <= n):
        raise ValueError(f"character level h={h} must satisfy 1 <= h <= n={n}")
    if chi.is_trivial:
        raise ValueError("S_chi requires a nontrivial character")
    m = ring.modulus
    q = p ** h
    k = np.zeros(m, dtype=complex)
    # chi(z)/(m q) bit for bit as char_eval's cmath.exp(i theta)/(m q): cos
    # and sin of theta, each divided by m q (numpy divides a complex array
    # by a real through the reciprocal, which changes bits)
    theta = 2 * np.pi * ((chi.index * np.arange(q)) % q) / q
    k.real[::p ** (n - h)] = np.cos(theta) / (m * q)
    k.imag[::p ** (n - h)] = np.sin(theta) / (m * q)
    return k


# ---------------------------------------------------------------------------
# matrix-free applies


@dataclass(frozen=True, eq=False)
class StampOperator:
    """Matrix-free kernel stamp M[(y,t),(x,s)] = K[(s - t - x*y) mod m].

    ``apply`` and ``adjoint_apply`` are FFT Radon transforms on the (m, m)
    label grid: O(m^2 log m) time and a few m^2 complex arrays of memory.
    ``gram_apply`` is A*A in 4 FFT passes, where the two applies in a row
    take 6.  The operator holds a read-only copy of its kernel, so its plan
    (the FFT multipliers and the flat gather index, m^2 integers) is built
    on the first apply and kept for every later one.
    """

    ring: ResidueRing
    kernel: np.ndarray

    def __post_init__(self):
        kernel = np.array(self.kernel)
        kernel.flags.writeable = False
        object.__setattr__(self, "kernel", kernel)

    @property
    def dim(self) -> int:
        m = self.ring.modulus
        return m * m

    @functools.cached_property
    def _kernel_ifft(self) -> np.ndarray:
        return np.fft.ifft(self.kernel)

    @functools.cached_property
    def _apply_mult(self) -> np.ndarray:
        return self.ring.modulus * self._kernel_ifft

    @functools.cached_property
    def _adjoint_mult(self) -> np.ndarray:
        return np.fft.fft(np.conj(self.kernel))

    @functools.cached_property
    def _gather(self) -> np.ndarray:
        """Flat index of H[(xi*y) mod m, xi] in an (m, m) array H."""
        m = self.ring.modulus
        xi = np.arange(m)
        return (np.outer(xi, xi) % m) * m + xi

    # The halves work in place: at m = 128 a fresh m^2 complex array is
    # 256 KB, and each one the allocator maps anew costs its page faults
    # (one gram_apply there took 1.2 ms with a new array per step, 0.7 ms
    # in place, on a 2-core x86-64 host).

    def _forward(self, f: np.ndarray) -> np.ndarray:
        """A f before its final inverse DFT in the shift variable."""
        m = self.ring.modulus
        h = np.fft.fft(f.reshape(m, m), axis=1)
        h *= self._apply_mult
        np.fft.ifft(h, axis=0, out=h)
        h *= m
        return h.ravel()[self._gather]

    def _adjoint(self, f_hat: np.ndarray) -> np.ndarray:
        """A* f from the DFT of f in the shift variable; overwrites f_hat."""
        m = self.ring.modulus
        f_hat *= self._adjoint_mult
        np.fft.fft(f_hat, axis=0, out=f_hat)
        out = f_hat.ravel()[self._gather]
        return np.fft.ifft(out, axis=1, out=out).reshape(m * m)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(A f)(y,t) = sum_x g(x, t + x*y), g(x,u) = sum_w K[w] f(x, u+w).

        After a DFT in the shift variable the sum over x is a DFT in x read
        at the frequency xi*y:  out_hat(y,xi) = H[(xi*y) mod m, xi] with
        H = m * ifft_x(fft_s(f) * m*ifft(K)).  Cost O(m^2 log m).
        """
        m = self.ring.modulus
        out = self._forward(f)
        return np.fft.ifft(out, axis=1, out=out).reshape(m * m)

    def adjoint_apply(self, f: np.ndarray) -> np.ndarray:
        """(A* f)(x,s) = sum_y h(y, s - x*y), h(y,u) = sum_t conj K[u-t] f(y,t).

        The transpose of ``apply``: multiplier fft(conj K), a forward DFT in
        y, and the gather H[(xi*x) mod m, xi].  Cost O(m^2 log m).
        """
        m = self.ring.modulus
        return self._adjoint(np.fft.fft(f.reshape(m, m), axis=1))

    def gram_apply(self, f: np.ndarray) -> np.ndarray:
        """A*A f: ``apply`` ends with an inverse DFT in the shift variable
        and ``adjoint_apply`` starts with the forward one, so the pair that
        cancels is skipped."""
        return self._adjoint(self._forward(f))


def stamp_s_delta(ring: ResidueRing, delta) -> StampOperator:
    return StampOperator(ring, _kernel_s_delta(ring, delta))


def stamp_s_chi(ring: ResidueRing, chi: AdditiveCharacter) -> StampOperator:
    return StampOperator(ring, _kernel_s_chi(ring, chi))


# ---------------------------------------------------------------------------
# norms


@dataclass
class NormReport:
    value: float
    method: str
    residual: float
    iterations: int
    converged: bool
    dim: int

    def to_json(self):
        return {"value": self.value, "method": self.method,
                "residual": self.residual, "iterations": self.iterations,
                "converged": self.converged, "dim": self.dim}


def operator_norm(op: StampOperator, method: str = "exact-decomposition",
                  max_iterations: int = 5000, seed: int = 7) -> NormReport:
    """Norm of a stamp operator with an explicit method report.

    * exact-decomposition: the shift-Fourier basis block-diagonalises every
      kernel stamp into blocks |m^2 * ifft(K)[c]| * G_c, and
      ``_block_norms`` gives ||G_c|| in closed form, so the norm is one
      vectorised maximum over c -- no SVD and no dense matrix.
    * power-iteration: Rayleigh iteration on A*A, one ``gram_apply`` a step
      (4 FFT passes and 2 gathers with the plan the operator keeps).  The
      returned value is a Rayleigh estimate (a lower envelope of the true
      norm) whose residual ||A*Av - mu v|| / sigma is reported; it stops at
      a residual of ``_POWER_TOL``, and non-convergence inside
      ``max_iterations`` is reported through ``converged``, never hidden.

    Any operand other than a ``StampOperator`` is a ``TypeError``.
    """
    if not isinstance(op, StampOperator):
        raise TypeError(f"cannot take the norm of {type(op)!r}")
    method = method.lower()
    if method == "exact-decomposition":
        m = op.ring.modulus
        coeffs = np.abs(m * m * op._kernel_ifft)
        val = float(np.max(coeffs * _block_norms(op.ring)))
        return NormReport(val, "exact-decomposition", 0.0, 0, True, op.dim)
    if method != "power-iteration":
        raise ValueError(f"unknown norm method {method!r}")
    return _power_iteration(op.gram_apply, op.dim, max_iterations, seed)


def _power_iteration(gram, dim: int, max_iterations: int,
                     seed: int) -> NormReport:
    """Power iteration on the Hermitian map ``gram`` (A*A) of dimension dim,
    from a seeded complex Gaussian start; see ``operator_norm``."""
    rng = np.random.default_rng(seed)
    v = np.empty(dim, dtype=complex)
    v.real = rng.standard_normal(dim)
    v.imag = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    mu = 0.0
    res = np.inf
    iters = 0
    for iters in range(1, max_iterations + 1):
        w = gram(v)
        mu = float(np.real(np.vdot(v, w)))
        # in place, as in the stamp halves: v is spent, so it takes mu * v
        # and then the residual vector, and w (a fresh array from gram)
        # becomes the next v
        v *= mu
        res = float(np.linalg.norm(np.subtract(w, v, out=v)))
        nw = np.linalg.norm(w)
        if nw == 0:
            return NormReport(0.0, "power-iteration", 0.0, iters, True, dim)
        w /= nw
        v = w
        sigma = np.sqrt(max(mu, 0.0))
        if sigma > 0 and res / sigma <= _POWER_TOL:
            break
    sigma = float(np.sqrt(max(mu, 0.0)))
    sres = res / sigma if sigma > 0 else res
    return NormReport(sigma, "power-iteration", float(sres), iters,
                      bool(sigma > 0 and sres <= _POWER_TOL), dim)


# ---------------------------------------------------------------------------
# Fourier diagonalisation in the shift variable


def _block_norms(ring: ResidueRing) -> np.ndarray:
    """||G_c|| = p^(-(n - v_p(c))/2) for c = 0..m-1, with v_p(0) = n.

    G_c[y,x] = psi_c(x*y)/m gives (G_c G_c^*)[y,y'] = [c*(y-y') = 0 mod m]/m:
    the kernel of y -> c*y has p^v elements, so G_c G_c^* is 1/m times a
    direct sum of all-ones blocks of size p^v, with top eigenvalue p^(v-n).
    """
    p, n = ring.p, ring.n
    v = np.zeros(ring.modulus, dtype=np.int64)
    for k in range(1, n + 1):
        v[::p ** k] += 1                         # c divisible by p^k
    return np.sqrt(float(p) ** (v - n))


# ---------------------------------------------------------------------------
# decomposition of shifted averages into character averages


def verify_S_decomposition(ring: ResidueRing, a: RingElem,
                           b: RingElem) -> float:
    """Max-entry residual of S_{n,delta(a)} - S_{n,delta(b)}
    = sum_chi t_chi S_{n,chi}, read off the kernels.

    Every operator here is a stamp M[(y,t),(x,s)] = K[(s - t - x*y) mod m],
    and K -> M is linear, so the two sides differ by the stamp of
    D = K_lhs - sum_chi t_chi K_chi.  In every row (y,t) the residue
    s - t - x*y takes every value as s runs over O_n, so each entry of D
    occurs in every row, and the max-entry residual of the m^2 x m^2 identity
    is max |D| over the m kernel entries: O(m) work, no dense matrix.
    """
    if a.ring != b.ring:
        raise ValueError("a, b must share a ring")
    p, n = ring.p, ring.n
    h = a.ring.n
    if a.ring.p != p or h > n:
        raise ValueError("pair ring incompatible with the operator ring")
    step = p ** (n - h)
    lhs = (_kernel_s_delta(ring, step * a.value)
           - _kernel_s_delta(ring, step * b.value))
    rhs = np.zeros_like(lhs)
    for chi, t in character_decompose(a, b).items():
        if abs(t) > 0.0:
            rhs += t * _kernel_s_chi(ring, chi)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# scalar mean-transform ratio (Parseval)


def hausdorff_young_ratio(m: int, f: np.ndarray) -> float:
    """l2 ratio of character means to values for f on Z/m.

    For Hilbert-valued f the ratio equals (#G)^(-1/2) exactly: the character
    means are (1/m) * inverse DFT of f.  f may be a vector (scalar values) or
    a matrix (rows = group, columns = coordinates of the value space).
    """
    f = np.asarray(f, dtype=complex)
    if f.shape[0] != m:
        raise ValueError(f"f must have leading length {m}")
    den = float(np.linalg.norm(f))
    if den == 0.0:
        raise ValueError("f = 0: ratio undefined")
    means = np.fft.ifft(f, axis=0)
    num = float(np.linalg.norm(means))
    return num / den


# ---------------------------------------------------------------------------
# exact rotation-conjugation identity mod p^N


@dataclass
class KDeltaConjugation:
    ok: bool
    delta: RingElem
    omega: RingElem
    precision: int
    determinants_ok: bool
    pattern_ok: bool
    product_ok: bool


def verify_kdelta_conjugation(j: int, a: RingElem, b: RingElem,
                              x: RingElem, y: RingElem) -> KDeltaConjugation:
    """Exact check, mod p^N, that the two unipotent-corner words conjugate to
    the rotation stamp k_{p^(2j) * delta} with delta = y - a*x - b.

    The inputs live in O_n; requires j >= 1 and valuation(delta) <= n - j so
    the scaling unit omega = (sy - sa*sx - sb)/delta exists in 1 + p^j O.
    All arithmetic is integer arithmetic modulo p^N with N = n + 2j + 4
    (divisions happen only through modular inverses of units).
    """
    ring = a.ring
    if not (b.ring == ring and x.ring == ring and y.ring == ring):
        raise ValueError("a, b, x, y must share one ring")
    if j < 1:
        raise ValueError("j must be >= 1")
    p, n = ring.p, ring.n
    sa, sb, sx, sy = a.value, b.value, x.value, y.value

    delta_val = (sy - sa * sx - sb) % p ** n
    v = valuation(p, delta_val, n)
    if v > n - j:
        raise ValueError(
            f"delta has valuation {v} > n-j = {n - j}: identity not claimed")

    N = n + 2 * j + 4
    q = p ** N

    num = sy - sa * sx - sb                     # plain integer, may be negative
    unit = delta_val // p ** v
    omega = ((num // p ** v) * pow(unit, -1, q)) % q
    omega_inv = pow(omega, -1, q)

    alpha = [[1, -p ** j * sa, -p ** (2 * j) * sb],
             [0, 0, 1],
             [0, -1, 0]]
    beta = [[p ** (2 * j) * sy, -1, 0],
            [p ** j * sx, 0, -1],
            [1, 0, 0]]
    dets_ok = (_det3(alpha) == 1 and _det3(beta) == 1)

    left = [[omega_inv, 0, 0],
            [0, 1, 0],
            [0, (p ** j * omega * sx) % q, omega]]
    right = [[1, 0, 0],
             [0, omega, (p ** j * omega_inv * sa) % q],
             [0, 0, omega_inv]]

    prod = left
    for factor in (alpha, beta, right):
        prod = [[e % q for e in row] for row in _matmul3(prod, factor)]
    target = [[(p ** (2 * j) * delta_val) % q, (-1) % q, 0],
              [1, 0, 0],
              [0, 0, 1]]
    product_ok = prod == target

    def _is_unit_pattern(mat):
        for i in range(3):
            for k in range(3):
                want0 = (i != k)
                e = mat[i][k] % q
                if want0 and i in (1, 2) and k in (1, 2):
                    # inside the lower block off-diagonals may be p^j-divisible
                    if e % p ** j != 0:
                        return False
                elif want0:
                    if e != 0:
                        return False
                else:
                    if (e - 1) % p ** j != 0:
                        return False
        return True

    pattern_ok = _is_unit_pattern(left) and _is_unit_pattern(right)

    return KDeltaConjugation(
        ok=bool(dets_ok and product_ok and pattern_ok),
        delta=RingElem(ring, delta_val),
        omega=RingElem(ResidueRing(p, N), omega),
        precision=N,
        determinants_ok=dets_ok,
        pattern_ok=pattern_ok,
        product_ok=product_ok,
    )
