"""Latitude averages on spheres and circle averages on SU(2).

The latitude average T_delta on L2(S^n) acts on degree-l harmonics by the
normalized Gegenbauer value q_l(delta) = C_l^lam(delta)/C_l^lam(1) with
lam = (n-1)/2 (Legendre values for n = 2).  The circle average S_theta on
L2(SU(2)) acts on the spin-j block as the average over the circle of phi
of the spin-j matrix of a fixed two-parameter unitary; entries are trig
polynomials in phi of degree <= 2j, and the average keeps their constant
terms: the diagonal of the phi = 0 matrix, e^(-2im theta) d^j_mm(pi/2).
The gap needs only the moduli |d^j_mm(pi/2)|, from a three-term recurrence
in j whose every row is checked against the character of the rotation.

Norm gaps are suprema over the truncated degree range; the truncation is
always reported together with an analytic Legendre envelope for the tail.

The grid functions take a scalar or a 1-D batch (of deltas, thetas or
unitaries, and for `tdelta_gap_report` of sphere dimensions too) and do the
same per-element arithmetic either way: a scalar is a batch of one, so a
sweep over a grid gives bit-for-bit the values of the pointwise calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _batch(values, what):
    """A float64 vector of ``values`` and whether the caller passed a scalar."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a 1-D sequence")
    return arr.reshape(-1), arr.ndim == 0


# ---------------------------------------------------------------------------
# zonal eigenvalues


# Gegenbauer table entries held at once while `tdelta_gap_report` reduces a
# grid to its suprema: bounds the table to half a MB however many degrees,
# dimensions and deltas it is handed
_GEGENBAUER_ENTRY_BUDGET = 1 << 16
_BASE_THETA = np.pi / 4     # the angle su2-gap measures every gap from


def _checked_deltas(delta):
    """``_batch`` of delta, refused unless every entry lies in [-1, 1]."""
    deltas, scalar = _batch(delta, "delta")
    inside = (deltas >= -1.0) & (deltas <= 1.0)      # False for NaN
    if not inside.all():
        raise ValueError(f"delta = {deltas[~inside][0]} outside [-1, 1]")
    return deltas, scalar


def _gegenbauer_rows(dims, deltas, max_degree, block):
    """q_l(delta) on S^n for every n in `dims` and every delta, `block`
    degrees at a time, from one recurrence over all (n, delta) columns.

    Yields (start, rows) with rows[i, a, b] = q_{start+i}(deltas[b]) on
    S^{dims[a]}; the rows array is reused from one block to the next.  The
    recurrence carries q_l itself,

        (l + 2 lam - 1) q_l = 2 delta (l + lam - 1) q_{l-1} - (l - 1) q_{l-2},

    so |q_l| <= 1 and no normaliser C_l(1) ever grows; each column is bit
    for bit the recurrence of its (n, delta) alone.
    """
    lam = np.array([(n - 1) / 2.0 for n in dims])[:, None]
    ls = np.arange(2, max_degree + 1)[:, None, None]
    # entry l - 2 of each holds degree l's factors, one row per dimension
    rise, denom = ls + lam - 1.0, ls + 2.0 * lam - 1.0
    two_delta = 2.0 * deltas
    q_prev2 = np.ones((len(dims), deltas.size))
    q_prev1 = deltas
    rows = np.empty((min(block, max_degree + 1),) + q_prev2.shape)
    start = 0
    for l in range(max_degree + 1):
        if l - start == block:
            yield start, rows
            start = l
        if l == 0:
            rows[0] = 1.0
        elif l == 1:
            rows[1 - start] = deltas
        else:
            q = two_delta * rise[l - 2]
            q *= q_prev1
            q -= (l - 1.0) * q_prev2
            q /= denom[l - 2]
            rows[l - start] = q
            q_prev2, q_prev1 = q_prev1, q
    yield start, rows[:max_degree + 1 - start]


def _check_dims(dims, max_degree):
    if not dims:
        raise ValueError("need at least one sphere dimension")
    if any(n < 2 for n in dims):
        raise ValueError("sphere dimension must be >= 2")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")


def tdelta_eigenvalues(n: int, max_degree: int, delta) -> np.ndarray:
    """q_l(delta) for l = 0..max_degree via the three-term recurrence.

    q_l = C_l(delta)/C_l(1), where l*C_l = 2*delta*(l+lam-1)*C_{l-1} -
    (l+2*lam-2)*C_{l-2} and C_l(1) = prod_{i<=l} (i+2*lam-1)/i.  Both grow
    like l^(2*lam-1) and overflow for large n (on S^1000 from degree 974),
    so the recurrence carries the ratio q_l itself, and |q_l| <= 1.
    A scalar delta gives shape (max_degree+1,); a 1-D array of k deltas
    gives (max_degree+1, k), one recurrence stepping all columns at once.
    It is the recurrence `tdelta_gap_report` runs, in a single block.
    """
    _check_dims([n], max_degree)
    deltas, scalar = _checked_deltas(delta)
    ((_, rows),) = _gegenbauer_rows([n], deltas, max_degree, max_degree + 1)
    return rows[:, 0, 0] if scalar else rows[:, 0]


def legendre_envelope(ell: int, delta: float) -> float:
    """Classical uniform envelope |P_ell(delta)| <= sqrt(2/(pi*ell*(1-delta^2)))."""
    if ell <= 0 or abs(delta) >= 1.0:
        return 1.0
    return min(1.0, math.sqrt(2.0 / (math.pi * ell * (1.0 - delta * delta))))


@dataclass
class TdeltaGapReport:
    sphere_dim: int
    delta: float
    max_degree: int
    value: float
    arg_degree: int
    tail_envelope: float
    holder_bound: float


def tdelta_gap_report(n, delta, max_degree: int = 200):
    """Gap value plus explicit truncation data: the degree attaining the sup
    and the analytic envelope for every discarded degree.

    The value sup_{l <= D} |q_l(delta) - q_l(0)| is the norm of T_delta - T_0
    on the harmonics of degree <= D = max_degree.

    A scalar delta gives one report; a 1-D sequence gives a list of reports
    in its order.  A 1-D sequence of sphere dimensions n gives one such
    result per n, in its order.  Every (n, delta) column, and the delta = 0
    column of each n that they are compared against, comes from one
    `_gegenbauer_rows` recurrence, reduced block by block to a running
    maximum and its first argmax, so the table is never held whole.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if np.ndim(n) > 1:
        raise ValueError("n must be a scalar or a 1-D sequence")
    dims = np.atleast_1d(n).tolist()
    _check_dims(dims, max_degree)
    deltas, scalar = _checked_deltas(delta)
    columns = np.append(deltas, 0.0)
    block = max(1, _GEGENBAUER_ENTRY_BUDGET // (len(dims) * columns.size))
    best = best_arg = None
    for start, rows in _gegenbauer_rows(dims, columns, max_degree, block):
        diffs = np.abs(rows[:, :, :-1] - rows[:, :, -1:])
        arg = np.argmax(diffs, axis=0)       # the first NaN, if there is one
        top = np.take_along_axis(diffs, arg[None], axis=0)[0]
        if best is None:
            best, best_arg = top, arg
            continue
        # a later block wins only with a larger value or a first NaN, so
        # the argmax stays the first over the whole column
        take = (top > best) | (np.isnan(top) & ~np.isnan(best))
        best = np.where(take, top, best)
        best_arg = np.where(take, arg + start, best_arg)
    tail_zero = legendre_envelope(max_degree + 1, 0.0)
    out = []
    for dim, values, args in zip(dims, best.tolist(), best_arg.tolist()):
        reports = [TdeltaGapReport(
            sphere_dim=dim, delta=d, max_degree=max_degree, value=value,
            arg_degree=arg,
            tail_envelope=float(legendre_envelope(max_degree + 1, d)
                                + tail_zero),
            holder_bound=2.0 * math.sqrt(abs(d)))
            for d, value, arg in zip(deltas.tolist(), values, args)]
        out.append(reports[0] if scalar else reports)
    return out[0] if np.ndim(n) == 0 else out


# ---------------------------------------------------------------------------
# SU(2) circle averages


def su2_element(theta, phi) -> np.ndarray:
    """The displayed two-parameter special unitary; checked before use.

    theta and phi broadcast against each other: scalars give one 2x2
    matrix, arrays a stack of shape (..., 2, 2), every member checked.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    g = np.stack([np.stack([np.exp(-1j * theta), -np.exp(1j * phi)], axis=-1),
                  np.stack([np.exp(-1j * phi), np.exp(1j * theta)], axis=-1)],
                 axis=-2) / np.sqrt(2.0)
    if not _max_unitary_error(g) <= 1e-12:
        raise AssertionError("internal error: matrix is not unitary")
    if np.any(np.abs(np.linalg.det(g) - 1.0) > 1e-12):
        raise AssertionError("internal error: determinant is not 1")
    return g


@lru_cache(maxsize=None)
def _spin_tables(n: int):
    """Weights of recurrence step n, from spin (n-1)/2 to spin n/2.

    Row i carries R = n-i powers of x and S = i of y; column q < n is
    column q of the previous step times (a x + c y), so P = n-q, and the
    last column is column n-1 times (b x + d y), so its P is Q = n.  The
    two (n+1, n+1) tables are sqrt(R/P), weighting the x-term, and
    sqrt(S/P), weighting the y-term.
    """
    i = np.arange(n + 1.0)
    p = np.append(n - i[:-1], n)
    return np.sqrt((n - i)[:, None] / p), np.sqrt(i[:, None] / p)


# spin-matrix entries per slice of a stack: bounds the temporaries of the
# recurrence to a few MB however many unitaries it is handed
_SPIN_ENTRY_BUDGET = 1 << 16


def _spin_levels(stack: np.ndarray, two_j: int):
    """Spin matrices of a (k, 2, 2) stack for every 2j' = 0..two_j.

    Yields (rows, n, V) with V the spin-n/2 matrices of ``stack[rows]``,
    n rising from 0 within each slice of the stack.  In the orthonormal
    basis x^R y^S / sqrt(R!S!), column q of spin n/2 is
    (a x + c y)^(n-q) (b x + d y)^q / sqrt((n-q)! q!), so each spin comes
    from the one below by the weighted shift of ``_spin_tables``: entries
    stay bounded by 1, and every step is element-wise, so a unitary gives
    bit-for-bit the same matrices alone as inside any stack.
    """
    step = max(1, _SPIN_ENTRY_BUDGET // (two_j + 1) ** 2)
    for start in range(0, len(stack), step):
        rows = slice(start, start + step)
        part = stack[rows]
        a, b = part[:, 0, 0, None, None], part[:, 0, 1, None, None]
        c, d = part[:, 1, 0, None, None], part[:, 1, 1, None, None]
        v = np.ones((len(part), 1, 1), dtype=complex)
        yield rows, 0, v
        for n in range(1, two_j + 1):
            wx, wy = _spin_tables(n)
            last = v[:, :, -1:]
            nxt = np.empty((len(part), n + 1, n + 1), dtype=complex)
            nxt[:, :-1, :-1] = a * (wx[:-1, :-1] * v)
            nxt[:, :-1, -1:] = b * (wx[:-1, -1:] * last)
            nxt[:, -1:] = 0.0
            nxt[:, 1:, :-1] += c * (wy[1:, :-1] * v)
            nxt[:, 1:, -1:] += d * (wy[1:, -1:] * last)
            v = nxt
            yield rows, n, v


def _max_unitary_error(v: np.ndarray) -> float:
    """max |v v^* - I| over every entry of a matrix or a stack; NaN if any
    entry is NaN, so a comparison with it fails."""
    gram = v @ v.conj().swapaxes(-1, -2)
    return np.abs(gram - np.eye(v.shape[-1])).max(initial=0.0)


def spin_matrix(two_j: int, u: np.ndarray) -> np.ndarray:
    """Spin-(two_j/2) matrix of a 2x2 unitary via the symmetric power.

    Basis ordered by weight m = j, j-1, ..., -j, so two_j = 1 returns u
    itself.  A stack u of shape (k, 2, 2) gives the stack (k, dim, dim),
    from the column recurrence of ``_spin_levels``; unitarity of every
    result is asserted, every entry of V V^* within 1e-9 of the identity's.
    """
    if two_j < 0:
        raise ValueError("2j must be >= 0")
    u = np.asarray(u)
    stack = u.reshape(-1, 2, 2)
    dim = two_j + 1
    out = np.empty((len(stack), dim, dim), dtype=complex)
    for rows, n, v in _spin_levels(stack, two_j):
        if n == two_j:
            if not _max_unitary_error(v) <= 1e-9:
                raise AssertionError("internal error: spin matrix is not "
                                     "unitary")
            out[rows] = v
    return out.reshape(u.shape[:-2] + (dim, dim))


def _d_row(two_j: int, m2, last, before) -> np.ndarray:
    """Row 2j of d^j_mm(pi/2) over the |m| (squares `m2`) of one parity,
    from its rows 2j - 2 and 2j - 4, by the recurrence in j at cos(beta) = 0
    (Edmonds 4.1.23; Varshalovich et al. 4.8), each column from 2^-|m|:
        j((j+1)^2 - m^2) d^(j+1) = -(2j+1) m^2 d^j - (j+1)(j^2 - m^2) d^(j-1).
    """
    row = np.zeros_like(last)
    born, j = two_j // 2, two_j / 2.0 - 1.0      # born: columns |m| < j + 1
    if two_j > 2:                # d^1_00 = 0: the j = 0 step divides by 0
        s, d1, d0 = m2[:born], last[:born], before[:born]
        row[:born] = -((2.0 * j + 1.0) * s * d1 + (j + 1.0) * (j * j - s)
                       * d0) / (j * ((j + 1.0) ** 2 - s))
    row[born] = 2.0 ** (-two_j / 2.0)
    return row


def _diagonal_maxima(two_j_max: int) -> np.ndarray:
    """Entry k = 2|m| is max over 2j <= two_j_max of |d^j_mm(pi/2)|, one
    `_d_row` at a time.  Every row must meet the character, sum_m d^j_mm =
    sqrt(2) sin((2j+1) pi/4), and every entry be finite and at most 1."""
    m2 = [(np.arange(p, two_j_max + 1, 2) / 2.0) ** 2 for p in (0, 1)]
    rows = [(np.zeros_like(s), np.zeros_like(s)) for s in m2]
    best, miss = np.zeros(two_j_max + 1), np.empty(two_j_max + 1)
    for two_j in range(two_j_max + 1):
        p = two_j % 2
        row = _d_row(two_j, m2[p], rows[p][1], rows[p][0])
        rows[p] = rows[p][1], row
        miss[two_j] = (2.0 * row.sum() - (1 - p) * row[0] - math.sqrt(2.0)
                       * math.sin((two_j + 1) * math.pi / 4.0))
        np.maximum(best[p::2], np.abs(row), out=best[p::2])
    if not best.max() <= 1.0:                     # NaN fails it too
        raise AssertionError("internal error: d^j(pi/2) entry not finite or >1")
    off = np.flatnonzero(~(np.abs(miss) <= 1e-9))
    if off.size:
        raise AssertionError(f"internal error: d^j(pi/2) row {off[0]} misses "
                             "its character")
    return best


def stheta_norm_gap(theta, two_j_max: int = 40):
    """sup over spins 2j <= two_j_max of ||block_j(theta) - block_j(pi/4)||.

    block_j(theta) is the circle average of the spin-j matrix, the diagonal
    e^(-2im theta) d^j_mm(pi/2), so the gap is the max over 2|m| <=
    two_j_max of e(m) 2|sin(m (theta - pi/4))|, e(m) from `_diagonal_maxima`.
    A scalar theta gives a float, a 1-D sequence an array.
    """
    if two_j_max < 1:
        raise ValueError("need at least spin 1/2")
    thetas, scalar = _batch(theta, "theta")
    m = np.arange(1, two_j_max + 1) / 2.0
    sines = np.abs(np.sin(np.outer(thetas - _BASE_THETA, m)))
    best = (2.0 * _diagonal_maxima(two_j_max)[1:] * sines).max(axis=1)
    return float(best[0]) if scalar else best


def spin_half_gap(theta: float) -> float:
    """Spin-1/2 term of `stheta_norm_gap`: sqrt(2)*|sin((theta-pi/4)/2)|."""
    return math.sqrt(2.0) * abs(math.sin((theta - _BASE_THETA) / 2.0))


def fit_stheta_constant(two_j_max: int = 40, thetas=None) -> float:
    """Smallest C with gap(theta) <= C*|theta - pi/4|^(1/4) on the grid."""
    if thetas is None:
        thetas = np.linspace(0.0, 2.0 * np.pi, 41, endpoint=False)
    thetas, _ = _batch(thetas, "thetas")
    dists = np.abs(thetas - _BASE_THETA)
    keep = dists >= 1e-12
    gaps = stheta_norm_gap(thetas[keep], two_j_max)
    return max([0.0] + [g / d ** 0.25 for g, d
                        in zip(gaps.tolist(), dists[keep].tolist())])
