"""Latitude averages on spheres and the SU(2) circle average.

The slow reference paths live here as test oracles: Gauss-Jacobi
quadrature of the zonal average, the literal M-term circle average, the
circle averages as diagonals of the recurrence's spin matrices, the scalar
Gegenbauer recurrence, the spin matrices as sums over a triple-loop
monomial table, the d^j_mm(pi/2) table as an exact integer sum, and the gap
as a norm of masked spin blocks per spin.
"""
import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_gegenbauer, roots_jacobi

from gaplab import spheres
from gaplab.spheres import (legendre_envelope, spin_half_gap, spin_matrix,
                            stheta_norm_gap, su2_element, tdelta_eigenvalues,
                            tdelta_gap_report)


# ---------------------------------------------------------------------------
# oracles


def quadrature_eigenvalue(n, ell, delta, probe=0.3):
    """Independent realization of q_ell(delta) by direct averaging.

    Averages a degree-ell zonal harmonic over the latitude {<x,y> = delta}:
    with c = <x, pole>, the average reduces to a one-dimensional integral
    against the (1-u^2)^((n-3)/2) marginal, evaluated by Gauss-Jacobi
    quadrature (exact for the polynomial integrand), then divided by the
    zonal value q_ell(c) at the probe point.
    """
    if not -1.0 <= delta <= 1.0:
        raise ValueError(f"delta = {delta} outside [-1, 1]")
    lam = (n - 1) / 2.0
    zonal_at_one = eval_gegenbauer(ell, lam, 1.0)

    def q(x):
        return eval_gegenbauer(ell, lam, x) / zonal_at_one

    alpha = (n - 3) / 2.0
    nodes, weights = roots_jacobi(ell + 2, alpha, alpha)
    args = delta * probe + np.sqrt(1 - delta ** 2) * np.sqrt(1 - probe ** 2) * nodes
    avg = float(np.sum(weights * q(args)) / np.sum(weights))
    return avg / q(probe)


def scalar_recurrence(n, max_degree, delta):
    """The recurrence of q_l in Python floats, one delta at a time."""
    lam = (n - 1) / 2.0
    vals = [1.0, delta][:max_degree + 1]
    for l in range(2, max_degree + 1):
        vals.append((2.0 * delta * (l + lam - 1.0) * vals[-1]
                     - (l - 1.0) * vals[-2]) / (l + 2.0 * lam - 1.0))
    return np.array(vals)


def unnormalised_recurrence(n, max_degree, delta):
    """C_l(delta) / C_l(1) from the recurrence of C_l and the product for
    C_l(1), in Python floats: both grow like l^(2 lam - 1)."""
    lam = (n - 1) / 2.0
    vals = [1.0]
    c_prev2, c_prev1 = 1.0, 2.0 * lam * delta
    norm = 2.0 * lam
    if max_degree >= 1:
        vals.append(c_prev1 / norm)
    for l in range(2, max_degree + 1):
        c = (2.0 * delta * (l + lam - 1.0) * c_prev1
             - (l + 2.0 * lam - 2.0) * c_prev2) / l
        norm = norm * (l + 2.0 * lam - 1.0) / l
        vals.append(c / norm)
        c_prev2, c_prev1 = c_prev1, c
    return np.array(vals)


def gap_reports_oracle(n, deltas, max_degree):
    """One dimension's gap reports from its whole (max_degree + 1, k + 1)
    eigenvalue table: each column's first argmax and the value there."""
    table = tdelta_eigenvalues(n, max_degree, np.append(deltas, 0.0))
    diffs = np.abs(table[:, :-1] - table[:, -1:])
    tail_zero = legendre_envelope(max_degree + 1, 0.0)
    reports = []
    for j, d in enumerate(deltas):
        arg = int(np.argmax(diffs[:, j]))
        reports.append(spheres.TdeltaGapReport(
            sphere_dim=n, delta=d, max_degree=max_degree,
            value=float(diffs[arg, j]), arg_degree=arg,
            tail_envelope=float(legendre_envelope(max_degree + 1, d)
                                + tail_zero),
            holder_bound=2.0 * math.sqrt(abs(d))))
    return reports


# 2j up to which the spin-matrix recurrence is held to its 1e-9 checks: at
# 2j = 48 the worst unitarity error on a 721-point theta grid is 2.4e-10,
# and 2j = 53, at 1.1e-9, is the first that fails
SPIN_RECURRENCE_TWO_J = 48


def circle_averages(two_j, thetas, quadrature_points):
    """phi-averages of the spins 2j' = 0..two_j over the M-point circle grid,
    one row per theta, each block as its diagonal: row entries
    n(n+1)/2 .. (n+1)(n+2)/2 - 1 hold the diagonal of spin n/2.

    Entry (i2, i1) of the spin matrix carries the single phi-frequency
    m2 - m1 = i1 - i2, so the M-point trapezoid average multiplies it by the
    grid mean of exp(i*(i1-i2)*phi): exactly 1 when M | (i1-i2) and 0
    otherwise.  With M > 2j only i1 = i2 survives, so the average is the
    diagonal of the phi = 0 spin matrix, every one of them asserted
    unitary.  A diagonal block's norm is its largest modulus, so each
    average is checked to stay a contraction.
    """
    if quadrature_points < 64:
        raise ValueError("at least 64 quadrature points required")
    if quadrature_points <= two_j:
        raise ValueError("quadrature must resolve the top phi-frequency")
    stack = spheres.su2_element(np.asarray(thetas, dtype=float), 0.0)
    out = np.empty((len(stack), (two_j + 1) * (two_j + 2) // 2),
                   dtype=complex)
    for rows, n, v in spheres._spin_levels(stack, two_j):
        if not spheres._max_unitary_error(v) <= 1e-9:
            raise AssertionError("internal error: spin matrix is not unitary")
        out[rows, n * (n + 1) // 2:(n + 1) * (n + 2) // 2] = np.diagonal(
            v, axis1=-2, axis2=-1)
    if np.abs(out).max(initial=0.0) > 1.0 + 1e-12:
        raise AssertionError("internal error: average of unitaries expanded")
    return out


def averaged_block(two_j, theta, quadrature_points=128):
    """The phi-averaged spin-(two_j/2) block: `circle_averages`' diagonal."""
    row = circle_averages(two_j, [theta], quadrature_points)[0]
    return np.diag(row[two_j * (two_j + 1) // 2:])


def circle_average_gap(thetas, two_j_max, quadrature_points,
                       base_theta=np.pi / 4):
    """The gap as the largest modulus of the diagonal block differences of
    `circle_averages`, over every spin at once."""
    diags = circle_averages(two_j_max, np.append(thetas, base_theta),
                            quadrature_points)
    return np.abs(diags[:-1] - diags[-1]).max(axis=1)


def exact_d_sums(two_j):
    """sum_k (-1)^k C(j+m, k) C(j-m, k) for 2|m| = 2j mod 2, ..., 2j, each
    term from the one before in integers: 2^j d^j_mm(pi/2)."""
    out = []
    for k in range(two_j % 2, two_j + 1, 2):
        a, b = (two_j + k) // 2, (two_j - k) // 2
        total, term = 0, 1
        for i in range(b + 1):
            total += -term if i % 2 else term
            term = term * (a - i) * (b - i) // ((i + 1) ** 2)
        out.append(total)
    return out


def recorded_d_rows(monkeypatch, two_j_max):
    """Every row `_diagonal_maxima(two_j_max)` steps through, by 2j."""
    rows, step = {}, spheres._d_row

    def record(two_j, *args):
        rows[two_j] = step(two_j, *args)
        return rows[two_j]

    monkeypatch.setattr(spheres, "_d_row", record)
    spheres._diagonal_maxima(two_j_max)
    return rows


def stheta_block_summed(two_j, theta, quadrature_points=128):
    """Literal M-term average of spin matrices, one phi at a time."""
    dim = two_j + 1
    acc = np.zeros((dim, dim), dtype=complex)
    for k in range(quadrature_points):
        phi = 2.0 * np.pi * k / quadrature_points
        acc += spin_matrix(two_j, su2_element(theta, phi))
    return acc / quadrature_points


@functools.lru_cache(maxsize=None)
def spin_tables_loop(two_j):
    """Monomial table of the symmetric-power matrix, term by term.

    Entry (i2, i1) of the spin matrix is sum_k coef * a^k c^(P-k) b^(R-k)
    d^(Q-R+k) with P = two_j-i1, Q = i1, R = two_j-i2, and coefficient
    sqrt(R!S!/(P!Q!))*comb(P,k)*comb(Q,R-k), the factorial ratio as an
    exact Fraction."""
    pos, pa, pc, pb, pd, coef = [], [], [], [], [], []
    dim = two_j + 1
    for i1 in range(dim):          # column: m1 = j - i1
        P = two_j - i1
        Q = i1
        for i2 in range(dim):      # row: m2 = j - i2
            R = two_j - i2
            S = i2
            scale = math.sqrt(Fraction(math.factorial(R) * math.factorial(S),
                                       math.factorial(P) * math.factorial(Q)))
            for k in range(max(0, R - Q), min(P, R) + 1):
                pos.append(i2 * dim + i1)
                pa.append(k)
                pc.append(P - k)
                pb.append(R - k)
                pd.append(Q - R + k)
                coef.append(scale * math.comb(P, k) * math.comb(Q, R - k))
    return (np.array(pos), np.array(pa), np.array(pc), np.array(pb),
            np.array(pd), np.array(coef))


def spin_matrix_monomial(two_j, u):
    """Spin matrices of a (k, 2, 2) stack as sums of the monomial terms of
    ``spin_tables_loop``."""
    pos, pa, pc, pb, pd, coef = spin_tables_loop(two_j)
    dim = two_j + 1
    a, b = u[:, 0, 0, None], u[:, 0, 1, None]
    c, d = u[:, 1, 0, None], u[:, 1, 1, None]
    terms = coef * a ** pa * c ** pc * b ** pb * d ** pd
    bins = (np.arange(len(u))[:, None] * dim * dim + pos).ravel()
    size = len(u) * dim * dim
    sums = (np.bincount(bins, terms.real.ravel(), size)
            + 1j * np.bincount(bins, terms.imag.ravel(), size))
    return sums.reshape(len(u), dim, dim)


def stheta_gap_masked_svd(thetas, two_j_max, quadrature_points,
                          base_theta=np.pi / 4):
    """The gap spin by spin: the phi = 0 monomial-sum matrices masked to
    the entries whose phi-frequency the M-point grid does not cancel, and
    the norm of each block difference by SVD."""
    grid = su2_element(np.append(thetas, base_theta), 0.0)
    best = np.zeros(len(thetas))
    for two_j in range(1, two_j_max + 1):
        m = np.arange(two_j + 1)
        mask = (m[None, :] - m[:, None]) % quadrature_points == 0
        blocks = spin_matrix_monomial(two_j, grid) * mask
        gaps = np.linalg.norm(blocks[:-1] - blocks[-1], 2, axis=(-2, -1))
        best = np.maximum(best, gaps)
    return best


# ---------------------------------------------------------------------------
# eigenvalues


def test_constants_are_fixed():
    for n in (2, 3, 4):
        for d in (-0.7, 0.0, 0.3, 1.0):
            assert tdelta_eigenvalues(n, 0, d)[0] == 1.0


def test_linear_harmonic():
    # n=2, l=1: eigenvalue is delta itself
    for d in np.linspace(-1, 1, 9):
        assert tdelta_eigenvalues(2, 1, d)[1] == pytest.approx(d, abs=1e-14)


def test_frozen_legendre_values():
    assert tdelta_eigenvalues(2, 2, 0.0)[2] == pytest.approx(-0.5, abs=1e-14)
    # P_3(x) = (5x^3-3x)/2 at 0.4
    assert tdelta_eigenvalues(2, 3, 0.4)[3] == pytest.approx(
        (5 * 0.4 ** 3 - 3 * 0.4) / 2, abs=1e-13)


def test_delta_one_fixes_everything():
    for n in (2, 3, 5):
        assert np.allclose(tdelta_eigenvalues(n, 40, 1.0), 1.0, atol=1e-12)


def test_eigenvalues_bounded_by_one():
    for n in (2, 3, 4):
        for d in np.linspace(-1, 1, 21):
            assert np.max(np.abs(tdelta_eigenvalues(n, 120, d))) <= 1 + 1e-12


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tdelta_eigenvalues(2, 3, 1.5)
    with pytest.raises(ValueError):
        tdelta_eigenvalues(1, 3, 0.5)
    with pytest.raises(ValueError, match="max_degree"):
        tdelta_eigenvalues(2, -1, 0.5)
    with pytest.raises(ValueError):
        tdelta_gap_report(2, 0.5, 0)
    with pytest.raises(ValueError, match="sphere dimension"):
        tdelta_gap_report([], 0.5, 10)
    with pytest.raises(ValueError, match="sphere dimension"):
        tdelta_gap_report([3, 1], 0.5, 10)


def test_matches_quadrature_oracle():
    for n in (2, 3, 4):
        for ell in (0, 1, 2, 5, 11, 30):
            for d in (-0.9, -0.3, 0.0, 0.45, 0.9):
                assert tdelta_eigenvalues(n, ell, d)[ell] == pytest.approx(
                    quadrature_eigenvalue(n, ell, d), abs=1e-8)


@given(st.integers(2, 4), st.integers(0, 25),
       st.floats(-0.95, 0.95, allow_nan=False))
@settings(max_examples=60)
def test_quadrature_agreement_property(n, ell, d):
    assert abs(tdelta_eigenvalues(n, ell, d)[ell]
               - quadrature_eigenvalue(n, ell, d)) < 1e-8


# ---------------------------------------------------------------------------
# norm gaps


def test_gap_zero_at_origin():
    assert tdelta_gap_report(2, 0.0, 50).value == 0.0


def test_holder_bound_sample():
    for d in (-0.9, -0.5, -0.1, 0.05, 0.25, 0.7, 0.98):
        gap = tdelta_gap_report(2, d, 200).value
        assert gap <= 2 * math.sqrt(abs(d)) + 1e-9


def test_gap_weaker_on_higher_spheres():
    v2 = tdelta_gap_report(2, 0.25, 200).value
    v3 = tdelta_gap_report(3, 0.25, 200).value
    assert v3 <= v2 + 1e-9


def test_gap_monotone_in_truncation():
    vals = [tdelta_gap_report(2, 0.35, D).value for D in (5, 20, 80, 200)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_gap_report_contents():
    rep = tdelta_gap_report(2, 0.25, 200)
    table = tdelta_eigenvalues(2, 200, [0.25, 0.0])
    assert rep.value == np.abs(table[:, 0] - table[:, 1]).max()
    assert 0 <= rep.arg_degree <= 200
    assert rep.holder_bound == pytest.approx(1.0)
    assert rep.value <= rep.holder_bound + 1e-9
    assert 0 < rep.tail_envelope <= 2.0


def test_legendre_envelope_dominates():
    # the envelope really does bound the eigenvalues it truncates
    for d in (0.1, 0.45, 0.8):
        env = legendre_envelope(201, d)
        assert abs(tdelta_eigenvalues(2, 201, d)[201]) <= env + 1e-12


def test_spectrum_table():
    # a table over deltas (0, 0.25, 1) keeps the zonal invariants: degree 0
    # is fixed, every eigenvalue is a contraction, delta = 1 fixes all
    table = tdelta_eigenvalues(3, 60, (0.0, 0.25, 1.0))
    assert table.shape == (61, 3) and np.all(table[0] == 1.0)
    assert np.abs(table).max() <= 1.0 + 1e-12
    assert np.allclose(table[:, 2], 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# SU(2)


def test_su2_element_is_special_unitary():
    for th in np.linspace(0, 2 * np.pi, 7):
        for ph in np.linspace(0, 2 * np.pi, 7):
            g = su2_element(th, ph)
            assert np.allclose(g @ g.conj().T, np.eye(2), atol=1e-12)
            assert abs(np.linalg.det(g) - 1) < 1e-12


def test_spin_half_is_identity_map():
    g = su2_element(0.9, 2.2)
    assert np.allclose(spin_matrix(1, g), g, atol=1e-14)


def test_spin_zero_is_trivial():
    g = su2_element(1.3, 0.4)
    assert np.allclose(spin_matrix(0, g), np.eye(1), atol=1e-15)
    assert np.allclose(averaged_block(0, 1.3, 64), np.eye(1), atol=1e-15)


def test_spin_matrices_are_homomorphic():
    u = su2_element(0.3, 1.1)
    v = su2_element(2.0, 0.5)
    for tj in (1, 2, 3, 7):
        left = spin_matrix(tj, u @ v)
        right = spin_matrix(tj, u) @ spin_matrix(tj, v)
        assert np.allclose(left, right, atol=1e-10)


def test_spin_matrices_unitary():
    for tj in (1, 2, 5, 16):
        d = spin_matrix(tj, su2_element(0.8, 1.9))
        assert np.allclose(d @ d.conj().T, np.eye(tj + 1), atol=1e-10)


def test_block_spin_half_closed_form():
    th = 0.7
    blk = averaged_block(1, th, 64)
    want = np.diag([np.exp(-1j * th), np.exp(1j * th)]) / np.sqrt(2)
    assert np.allclose(blk, want, atol=1e-12)


def test_block_matches_literal_average():
    for (tj, th) in [(1, 0.7), (4, 2.1), (9, 5.0)]:
        fast = averaged_block(tj, th, 64)
        slow = stheta_block_summed(tj, th, 64)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_block_contractive():
    for tj in range(1, 24):
        blk = averaged_block(tj, 1.234, 128)
        assert np.linalg.norm(blk, 2) <= 1 + 1e-12


def test_block_rejects_coarse_quadrature():
    with pytest.raises(ValueError):
        averaged_block(3, 0.5, 32)
    with pytest.raises(ValueError):
        averaged_block(70, 0.5, 64)


def test_gap_vanishes_at_base_point():
    assert stheta_norm_gap(np.pi / 4, 12) == pytest.approx(0.0, abs=1e-13)


def test_gap_dominates_spin_half():
    th = np.pi / 4 + 0.1
    assert stheta_norm_gap(th, 40) >= spin_half_gap(th) - 1e-12


def test_spin_half_gap_formula():
    for th in (0.0, 0.5, np.pi / 4 + 0.02, 3.0):
        blk1 = averaged_block(1, th, 64)
        blk0 = averaged_block(1, np.pi / 4, 64)
        got = np.linalg.norm(blk1 - blk0, 2)
        assert got == pytest.approx(spin_half_gap(th), abs=1e-12)


def fit_stheta_constant(two_j_max, thetas):
    """Smallest C with gap(theta) <= C*|theta - pi/4|^(1/4) on the grid: the
    paper's constant, which no acceptance criterion states."""
    thetas = np.asarray(thetas, dtype=float)
    dists = np.abs(thetas - np.pi / 4)
    keep = dists >= 1e-12
    gaps = stheta_norm_gap(thetas[keep], two_j_max)
    return max([0.0] + [g / d ** 0.25 for g, d
                        in zip(gaps.tolist(), dists[keep].tolist())])


def test_quarter_power_fit_is_uniform():
    """Paper: ||S_theta - S_(pi/4)|| <= C |theta - pi/4|^(1/4), one C."""
    C = fit_stheta_constant(
        two_j_max=16, thetas=np.linspace(0, 2 * np.pi, 17, endpoint=False))
    assert 0 < C < 3.0
    # the fitted constant really does dominate a finer probe grid
    for th in np.linspace(0.1, 2 * np.pi - 0.1, 11):
        gap = stheta_norm_gap(th, 16)
        assert gap <= (C + 1e-9) * abs(th - np.pi / 4) ** 0.25 + 1e-9


# ---------------------------------------------------------------------------
# batches against pointwise calls and oracles


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_eigenvalues_match_pointwise(n):
    rng = np.random.default_rng(n)
    deltas = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 17)])
    table = tdelta_eigenvalues(n, 300, deltas)
    assert table.shape == (301, deltas.size)
    for j, d in enumerate(deltas):
        assert np.array_equal(table[:, j], tdelta_eigenvalues(n, 300, d))
        assert np.array_equal(table[:, j], scalar_recurrence(n, 300, float(d)))


@pytest.mark.parametrize("bad", [np.nan, 1.5, -1.0000001])
def test_batched_eigenvalues_reject_bad_deltas(bad):
    for where in (0, 3, 6):
        deltas = np.linspace(-0.9, 0.9, 7)
        deltas[where] = bad
        with pytest.raises(ValueError, match="outside"):
            tdelta_eigenvalues(2, 10, deltas)
        with pytest.raises(ValueError, match="outside"):
            tdelta_gap_report(3, deltas, 10)
    with pytest.raises(ValueError, match="1-D"):
        tdelta_eigenvalues(2, 10, np.zeros((2, 2)))


def test_batched_gap_reports_match_pointwise():
    deltas = [0.0, 0.013, 0.25, 0.5, 0.999, 1.0, -0.4]
    for n in (2, 3, 5):
        reports = tdelta_gap_report(n, deltas, 400)
        assert len(reports) == len(deltas)
        for d, rep in zip(deltas, reports):
            assert rep == tdelta_gap_report(n, d, 400)
            want = np.abs(scalar_recurrence(n, 400, d)
                          - scalar_recurrence(n, 400, 0.0))
            assert rep.value == want.max()
            assert rep.arg_degree == int(np.argmax(want))


# 60 entries make blocks of 4 degrees on a grid of 3 dimensions x 5 columns
@pytest.mark.parametrize("budget", [None, 60])
def test_joint_gap_reports_match_the_per_dimension_oracle(monkeypatch,
                                                          budget):
    # every (n, delta) from one recurrence, reduced block by block, against
    # each dimension's whole table; dmax runs to either side of a block end
    if budget is not None:
        monkeypatch.setattr(spheres, "_GEGENBAUER_ENTRY_BUDGET", budget)
    deltas = [-1.0, 0.0, 0.999, 1.0]
    dims = [2, 3, 5]
    block = spheres._GEGENBAUER_ENTRY_BUDGET // (len(dims) * (len(deltas) + 1))
    for dmax in sorted({1, 2, block - 1, block, block + 1, 2000}):
        joint = tdelta_gap_report(dims, deltas, dmax)
        assert len(joint) == len(dims)
        for n, reports in zip(dims, joint):
            assert reports == gap_reports_oracle(n, deltas, dmax), (n, dmax)
            assert reports == tdelta_gap_report(n, deltas, dmax)
        assert tdelta_gap_report(dims, 0.999, dmax) == [
            rep[2] for rep in joint]


def test_joint_gap_reports_keep_the_first_nan(monkeypatch):
    # a column that turns NaN mid-block: the report names the first NaN
    # degree, as a whole table's argmax does, in whatever block it falls
    monkeypatch.setattr(spheres, "_GEGENBAUER_ENTRY_BUDGET", 3 * 3 * 16)
    rows = spheres._gegenbauer_rows

    def poisoned(dims, deltas, max_degree, block):
        # S^1000 turns NaN from degree 974 (where C_l(1) used to overflow)
        for start, table in rows(dims, deltas, max_degree, block):
            if 1000 in dims:
                a = dims.index(1000)
                table[max(0, 974 - start):, a] = np.nan
            yield start, table

    monkeypatch.setattr(spheres, "_gegenbauer_rows", poisoned)
    deltas = [0.3, 0.7]
    joint = tdelta_gap_report([2, 1000, 3], deltas, 1200)
    for n, reports in zip([2, 1000, 3], joint):
        assert repr(reports) == repr(gap_reports_oracle(n, deltas, 1200))
    assert all(math.isnan(rep.value) for rep in joint[1])
    assert [rep.arg_degree for rep in joint[1]] == [974, 974]
    assert not any(math.isnan(rep.value) for rep in joint[0] + joint[2])


def test_carried_ratio_matches_the_unnormalised_recurrence():
    # q_l carried directly against C_l / C_l(1) where the latter is finite:
    # n in {2, 3, 5}, dmax 2000.  Near delta = 1 both lose a few digits
    # (each lies within 2e-14 of a 40-digit evaluation at delta = 0.999);
    # they differ by at most 1.3e-14, and by 0 on S^2
    deltas = np.append(np.linspace(-1.0, 1.0, 41), [0.013, 0.999])
    for n in (2, 3, 5):
        table = tdelta_eigenvalues(n, 2000, deltas)
        for j, d in enumerate(deltas):
            want = unnormalised_recurrence(n, 2000, float(d))
            assert np.max(np.abs(table[:, j] - want)) <= 3e-14, (n, d)


def test_large_spheres_stay_finite():
    # C_l and C_l(1) overflow on S^1000 from degree 974 (545 on S^2000, 310
    # on S^5000); q_l never leaves [-1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(unnormalised_recurrence(1000, 2000, 0.3)[974])
    deltas = [-1.0, -0.999, 0.3, 0.7, 1.0]
    for n in (1000, 2000, 5000):
        table = tdelta_eigenvalues(n, 2000, deltas)
        assert np.isfinite(table).all()
        assert np.max(np.abs(table)) <= 1.0 + 1e-12
        assert np.array_equal(table[:, -1], np.ones(2001))
    for reports in tdelta_gap_report([1000, 5000], [0.3, 0.7], 2000):
        assert all(math.isfinite(rep.value) for rep in reports)


def test_batched_stheta_gap_matches_block_loop():
    thetas = [0.0, 0.05, np.pi / 4, 1.0, 2.5, np.pi, 5.9]
    gaps = stheta_norm_gap(thetas, 24)
    assert gaps.shape == (len(thetas),)
    for th, gap in zip(thetas, gaps):
        want = max(np.linalg.norm(averaged_block(tj, th, 64)
                                  - averaged_block(tj, np.pi / 4, 64), 2)
                   for tj in range(1, 25))
        assert abs(gap - want) <= 1e-15
        assert stheta_norm_gap(th, 24) == gap
    assert gaps[thetas.index(np.pi / 4)] == 0.0


def test_spin_recurrence_matches_monomial_oracle():
    thetas, phis = np.meshgrid(np.linspace(0.1, 2.0 * np.pi, 9),
                               np.linspace(0.0, 2.0 * np.pi, 5))
    u = su2_element(thetas.ravel(), phis.ravel())
    for two_j in range(SPIN_RECURRENCE_TWO_J + 1):
        got = spin_matrix(two_j, u)
        assert np.abs(got - spin_matrix_monomial(two_j, u)).max() <= 1e-9


def test_stheta_gap_matches_masked_svd_oracle():
    rng = np.random.default_rng(10)
    thetas = np.concatenate([[0.0, np.pi / 4, np.pi],
                             rng.uniform(0.0, 2.0 * np.pi, 9)])
    for two_j_max, points in ((12, 64), (40, 128),
                              (SPIN_RECURRENCE_TWO_J, 97)):
        got = stheta_norm_gap(thetas, two_j_max)
        want = stheta_gap_masked_svd(thetas, two_j_max, points)
        assert np.abs(got - want).max() <= 1e-13


def test_non_unitary_input_is_refused():
    # a unitary scaled by 1.001 scales spin n by 1.001^n: every spin matrix
    # check fires, for one matrix and inside a stack
    u = 1.001 * su2_element(0.3, 1.1)
    stack = 1.001 * su2_element(np.linspace(0.0, 3.0, 5), 0.7)
    for two_j in (1, 2, 17):
        with pytest.raises(AssertionError, match="not unitary"):
            spin_matrix(two_j, u)
        with pytest.raises(AssertionError, match="not unitary"):
            spin_matrix(two_j, stack)


def test_gap_checks_fire_on_the_stacked_path(monkeypatch):
    element = spheres.su2_element

    def scaled(factor, diagonal=False):
        def make(theta, phi):
            g = element(theta, phi)
            if diagonal:
                g = g * np.eye(2) * np.sqrt(2.0)
            return factor * g
        return make

    # every spin of the oracle's recurrence is asserted unitary
    monkeypatch.setattr(spheres, "su2_element", scaled(1.001))
    with pytest.raises(AssertionError, match="not unitary"):
        circle_average_gap([0.2, 1.0], 12, 64)
    # diag(e^-i theta, e^i theta)(1 + 1e-11) passes the unitarity check up
    # to 2j = 12, |V V* - I| <= (1 + 1e-11)^24 - 1 < 1e-9, but its averages
    # have modulus (1 + 1e-11)^2j > 1 + 1e-12
    monkeypatch.setattr(spheres, "su2_element", scaled(1.0 + 1e-11, True))
    with pytest.raises(AssertionError, match="expanded"):
        circle_average_gap([0.2, 1.0], 12, 64)
    # (1 + 1e-7) is within an rtol of 1e-5 on the Gram diagonal, but every
    # entry of the Gram matrix is held to 1e-9 absolute
    monkeypatch.setattr(spheres, "su2_element", scaled(1.0 + 1e-7, True))
    with pytest.raises(AssertionError, match="not unitary"):
        circle_average_gap([0.2, 1.0], 12, 64)


def test_spin_matrices_unitary_at_certified_bound():
    # every matrix of this grid passes up to the recurrence's certified 2j
    thetas = np.linspace(0.0, 2.0 * np.pi, 721, endpoint=False)
    two_j = SPIN_RECURRENCE_TWO_J
    stack = spin_matrix(two_j, su2_element(thetas, 0.0))
    gram = stack @ stack.conj().swapaxes(-1, -2)
    assert np.abs(gram - np.eye(two_j + 1)).max() <= 1e-9


def test_d_table_matches_the_exact_sum(monkeypatch):
    # squares, so that half-integer j needs no sqrt(2); signs separately
    for two_j_max, checked in ((60, range(61)), (2000, (1999, 2000))):
        rows = recorded_d_rows(monkeypatch, two_j_max)
        for two_j in checked:
            sums = exact_d_sums(two_j)
            got = rows[two_j][:len(sums)]
            want = [float(Fraction(s * s, 2 ** two_j)) for s in sums]
            assert np.abs(got ** 2 - want).max() <= 1e-15
            assert np.array_equal(np.sign(got)[np.nonzero(sums)],
                                  np.sign(sums)[np.nonzero(sums)])


def test_d_table_maxima_are_the_column_maxima(monkeypatch):
    rows = recorded_d_rows(monkeypatch, 60)
    best = spheres._diagonal_maxima(60)
    for k in range(61):
        column = [abs(rows[two_j][k // 2]) for two_j in range(k, 61, 2)]
        assert best[k] == max(column)


@pytest.mark.parametrize("bad, message", [
    (1e-8, r"^internal error: d\^j\(pi/2\) row 30 misses its character$"),
    (np.nan, r"^internal error: d\^j\(pi/2\) entry not finite")])
def test_character_check_fires_on_a_corrupt_entry(monkeypatch, bad, message):
    step = spheres._d_row

    def corrupted(two_j, *args):
        row = step(two_j, *args)
        if two_j == 30:
            row[1] = bad if np.isnan(bad) else row[1] + bad
        return row

    monkeypatch.setattr(spheres, "_d_row", corrupted)
    with pytest.raises(AssertionError, match=message):
        stheta_norm_gap([0.2, 1.0], 40)


_angles = arrays(np.float64, st.integers(1, 6),
                 elements=st.floats(0.0, 2.0 * np.pi))


@given(_angles, st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi),
       st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_stacked_spin_matrix_is_homomorphic(thetas, phi, psi, two_j):
    u = su2_element(thetas, phi)
    v = su2_element(thetas[::-1], psi)
    left = spin_matrix(two_j, u @ v)
    right = spin_matrix(two_j, u) @ spin_matrix(two_j, v)
    assert left.shape == (len(thetas), two_j + 1, two_j + 1)
    assert np.allclose(left, right, atol=1e-10)
    for i in range(len(thetas)):
        assert np.array_equal(spin_matrix(two_j, u[i]),
                              spin_matrix(two_j, u)[i])


def test_driver_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, gaplab.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
