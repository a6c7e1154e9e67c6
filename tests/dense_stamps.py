"""Dense oracles of the stamp operators on l2(O_n x O_n).

The library works on the length-m kernel K of an operator
M[(y,t),(x,s)] = K[(s - t - x*y) mod m] only.  These helpers gather K into
the full m^2 x m^2 matrix and take its norm densely, so that tests can check
the matrix-free applies, the closed-form block norms and the decomposition
identity against matrices built straight from the definition.
"""
import numpy as np

from gaplab.finite_models import _kernel_s_chi, _kernel_s_delta
from gaplab.residue import AdditiveCharacter, ResidueRing


def _shift_index(m: int, rows=None) -> np.ndarray:
    """tau[(y,t),(x,s)] = (s - t - x*y) mod m for the requested flat rows."""
    if rows is None:
        rows = np.arange(m * m)
    y = rows // m
    t = rows % m
    x = np.arange(m)
    s = np.arange(m)
    xy = (x[:, None] * y[None, :]) % m          # (m, rows)
    tau = (s[None, None, :] - t[None, :, None] - xy[:, :, None]) % m
    # axes (x, row, s) -> (row, x, s)
    return tau.transpose(1, 0, 2).reshape(len(rows), m * m)


def _materialize(ring: ResidueRing, kernel: np.ndarray) -> np.ndarray:
    m = ring.modulus
    out = np.empty((m * m, m * m), dtype=complex)
    # build in blocks of rows that hold at most 2^22 index entries, so the
    # int64 index and its transposed copy take 32 MB each at any m <= 2048
    block = max(1, (1 << 22) // (m * m))
    for start in range(0, m * m, block):
        rows = np.arange(start, min(start + block, m * m))
        out[rows] = kernel[_shift_index(m, rows)]
    return out


def build_S_delta(ring: ResidueRing, delta) -> np.ndarray:
    """S_delta f(y,t) = E_x f(x, t + delta + x*y) as a dense matrix."""
    return _materialize(ring, _kernel_s_delta(ring, delta))


def build_S_chi(ring: ResidueRing, chi: AdditiveCharacter) -> np.ndarray:
    """S_chi f(y,t) = E_{x,z} chi(z) f(x, t + p^(n-h)*z + x*y), dense."""
    return _materialize(ring, _kernel_s_chi(ring, chi))


def dense_norm(A: np.ndarray) -> float:
    """||A|| as the square root of the largest eigenvalue of the Hermitian
    square A^H A, one `eigvalsh` at every dimension and every scale; it
    agrees with a direct SVD to within 8 dim eps ||A||."""
    # largest entry scaled into [0.5, 1) exactly: A^H A stays in range
    exp = int(np.frexp(np.abs(A).max())[1])
    unit = np.array(A, dtype=complex)
    np.ldexp(unit.view(float), -exp, out=unit.view(float))
    top = np.linalg.eigvalsh(unit.conj().T @ unit)[-1]
    return float(np.ldexp(np.sqrt(max(top, 0.0)), exp))
