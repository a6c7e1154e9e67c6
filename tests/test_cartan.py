"""Lengths, KAK data, sphere distortion, and the two automorphisms."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.cartan import (CartanTriple, PAdicGroupElement, RealGroupElement,
                           _adjugate3, _det3, _matmul3,
                           cartan_automorphism, d_alpha, d_alpha_padic,
                           d_matrices, d_matrix, d_matrix_padic,
                           distorted_length,
                           frac_valuation, in_u_pattern, in_utilde_pattern,
                           is_special_orthogonal, k_delta_padic, k_delta_real,
                           kak_padic, kak_real, padic_sphere_distortion,
                           random_padic_integral, solve_sphere_distortion,
                           u0_automorphism)


def _length(g):
    return kak_real(g)[1].length


def _length_oracle(g):
    """max(log ||g||, log ||g^{-1}||) from an SVD of its own."""
    sv = np.linalg.svd(g.matrix, compute_uv=False)
    return float(max(math.log(sv[0]), -math.log(sv[-1])))


def _padic_length_oracle(g):
    """e in the p-adic length e log p: max over g, g^{-1} of -min v_p."""
    return max(-g.min_valuation(), -g.inv().min_valuation())


def _random_sl3(rng, scale=2.0):
    while True:
        m = rng.standard_normal((3, 3)) * scale
        d = np.linalg.det(m)
        if abs(d) > 1e-6:
            return RealGroupElement(m / np.cbrt(d))


# ---------------------------------------------------------------------------
# reference implementations of the batched real paths: one matrix per call


def _check_element(m):
    """The validation a RealGroupElement made of each matrix it held."""
    assert m.shape == (3, 3) and np.all(np.isfinite(m))
    assert abs(np.linalg.det(m) - 1.0) <= 1e-12 * max(1.0, np.abs(m).max() ** 3)
    return m


def _d_oracle(a1, a2, a3):
    assert abs(a1 + a2 + a3) <= 1e-10
    return _check_element(np.diag([math.exp(a1), math.exp(a2), math.exp(a3)]))


def _k_delta_oracle(delta):
    assert 0.0 <= delta <= 1.0
    s = math.sqrt(1.0 - delta * delta)
    return _check_element(np.array([[delta, -s, 0.0],
                                    [s, delta, 0.0],
                                    [0.0, 0.0, 1.0]]))


def _dkd_oracle(alpha, delta):
    d = _d_oracle(2 * alpha, -alpha, -alpha)
    return _check_element(_check_element(d @ _k_delta_oracle(delta)) @ d)


def _distorted_length_oracle(alpha, delta):
    g = _dkd_oracle(alpha, delta)
    return float(math.log(np.linalg.svd(g, compute_uv=False)[0]))


def _kak_real_oracle(g):
    """(k1, a, k2) of one matrix, with the single-element det repair."""
    u, sv, vt = np.linalg.svd(_check_element(g))
    if np.linalg.det(u) < 0:
        u = u.copy(); vt = vt.copy()
        u[:, 2] *= -1.0
        vt[2, :] *= -1.0
    a = np.log(sv)
    a = a - a.mean()
    CartanTriple(*a)
    return _check_element(u), a, _check_element(vt)


def _solve_distortion_oracle(alpha, r, tol=1e-10):
    """(delta, residual) by a scalar bisection: 200 steps at most, stopping
    once the bracket is narrower than 1e-16."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _distorted_length_oracle(alpha, mid) < r:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    delta = 0.5 * (lo + hi)
    if abs(_distorted_length_oracle(alpha, 0.0) - r) <= tol:
        delta = 0.0
    elif abs(_distorted_length_oracle(alpha, 1.0) - r) <= tol:
        delta = 1.0
    g = _dkd_oracle(alpha, delta)
    u2, _, v2t = np.linalg.svd(g[:2, :2])
    if np.linalg.det(u2) < 0:
        u2 = u2.copy(); v2t = v2t.copy()
        u2[:, 1] *= -1.0
        v2t[1, :] *= -1.0
    u = np.eye(3); u[:2, :2] = u2
    up = np.eye(3); up[:2, :2] = v2t
    middle = _d_oracle(r, 2 * alpha - r, -2 * alpha)
    residual = float(np.max(np.abs(u @ middle @ up - g)))
    return delta, residual, _check_element(u), _check_element(up)


def _random_stack(rng, n, scale=2.0):
    return np.stack([_random_sl3(rng, scale).matrix for _ in range(n)])


# ---------------------------------------------------------------------------
# real lengths and KAK


def test_length_identity_and_ray():
    assert _length(RealGroupElement(np.eye(3))) == 0.0
    assert _length(d_alpha(1.5)) == pytest.approx(3.0, abs=1e-12)
    assert _length(d_matrix(2, 0, -2)) == pytest.approx(2.0, abs=1e-12)


def test_length_vanishes_on_rotations():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        assert abs(_length(RealGroupElement(q))) < 1e-12


def test_length_symmetry_and_subadditivity():
    rng = np.random.default_rng(1)
    for _ in range(300):
        g = _random_sl3(rng)
        h = _random_sl3(rng)
        assert _length(g) == pytest.approx(_length(g.inv()), abs=1e-9)
        assert _length(g @ h) <= _length(g) + _length(h) + 1e-9


def test_group_element_validation():
    with pytest.raises(ValueError):
        RealGroupElement(np.eye(3) * 2)          # det 8
    with pytest.raises(ValueError):
        RealGroupElement(np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        d_matrix(1, 1, 1)                         # nonzero sum


def test_kak_real_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = _random_sl3(rng)
        k1, a, k2 = kak_real(g)
        rec = k1.matrix @ np.diag(np.exp(a.as_tuple())) @ k2.matrix
        assert np.max(np.abs(rec - g.matrix)) < 1e-10
        assert is_special_orthogonal(k1.matrix)
        assert is_special_orthogonal(k2.matrix)
        assert abs(sum(a.as_tuple())) < 1e-12
        assert _length_oracle(g) == pytest.approx(a.length, abs=1e-10)


def test_kak_real_on_diagonal_and_rotation():
    _, a, _ = kak_real(d_matrix(2, 0, -2))
    assert a.as_tuple() == pytest.approx((2, 0, -2), abs=1e-12)

    rot = RealGroupElement(k_delta_real(0.3).matrix)
    _, a, _ = kak_real(rot)
    assert a.as_tuple() == pytest.approx((0, 0, 0), abs=1e-12)


def test_kak_recovers_planted_triple():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        vals = np.sort(rng.standard_normal(3))[::-1]
        vals -= vals.mean()
        g = RealGroupElement(q1 @ np.diag(np.exp(vals)) @ q2
                             / np.cbrt(np.linalg.det(q1) * np.linalg.det(q2)))
        _, a, _ = kak_real(g)
        assert a.as_tuple() == pytest.approx(tuple(vals), abs=1e-9)


def _repair_cases(rng, n):
    """Rotations, signed diagonals and sparse elements: the SVD returns
    det(u) = -1 for a share of these, never for dense random ones."""
    out = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        out.append(q * np.sign(np.linalg.det(q)))
        a = rng.standard_normal(3)
        out.append(np.diag(rng.permutation([-1.0, -1.0, 1.0])
                           * np.exp(a - a.mean())))
        while True:
            m = rng.standard_normal((3, 3)) * (rng.random((3, 3)) < 0.5)
            if abs(np.linalg.det(m)) > 1e-3:
                out.append(m / np.cbrt(np.linalg.det(m)))
                break
    return np.stack(out)


def test_kak_real_stack_matches_oracle():
    rng = np.random.default_rng(21)
    g = np.concatenate([_random_stack(rng, 100),
                        _random_stack(rng, 40, scale=8.0),
                        _repair_cases(rng, 20),
                        [d_matrix(2, 0, -2).matrix, np.eye(3),
                         k_delta_real(0.3).matrix]])
    n = len(g)
    k1, a, k2 = kak_real(g)
    assert k1.shape == (n, 3, 3) and a.shape == (n, 3) and k2.shape == (n, 3, 3)
    repaired = 0
    for i, m in enumerate(g):
        o1, oa, o2 = _kak_real_oracle(m)
        assert np.array_equal(k1[i], o1)
        assert np.array_equal(a[i], oa)
        assert np.array_equal(k2[i], o2)
        repaired += np.linalg.det(np.linalg.svd(m)[0]) < 0
        e1, triple, e2 = kak_real(RealGroupElement(m))
        assert np.array_equal(e1.matrix, o1) and np.array_equal(e2.matrix, o2)
        assert triple.as_tuple() == tuple(oa)
    # both branches of the det(u) < 0 repair ran
    assert 10 < repaired < n - 10


def test_kak_real_stack_refuses_bad_elements():
    rng = np.random.default_rng(22)
    good = _random_stack(rng, 8)
    for bad in (2.0 * np.eye(3), np.full((3, 3), np.nan),
                np.diag([1.0, 1.0, np.inf])):
        stack = good.copy()
        stack[5] = bad
        with pytest.raises(ValueError):
            kak_real(stack)
    with pytest.raises(ValueError):
        kak_real(good[0])            # a bare matrix is neither form


def test_d_matrices_match_oracle():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(40, 3)) * 3
    a -= a.mean(axis=1, keepdims=True)
    stack = d_matrices(a)
    for row, m in zip(a, stack):
        assert np.array_equal(m, _d_oracle(*row))
    a[7, 0] += 1e-6
    with pytest.raises(ValueError, match="sum to 0"):
        d_matrices(a)


@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.floats(0.1, 30.0))
@settings(max_examples=60, deadline=None)
def test_kak_real_stack_reconstructs(n, seed, scale):
    rng = np.random.default_rng(seed)
    g = np.concatenate([_random_stack(rng, n, scale), _repair_cases(rng, 2)])
    k1, a, k2 = kak_real(g)
    recon = k1 @ (np.exp(a)[:, :, None] * np.eye(3)) @ k2
    tol = 1e-10 * np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
    assert np.all(np.abs(recon - g).max(axis=(1, 2)) <= tol)
    assert np.all(np.abs(a.sum(axis=1)) <= 1e-12)
    assert np.all(a[:, :-1] >= a[:, 1:])
    for k in (*k1, *k2):
        assert is_special_orthogonal(k)


def test_cartan_triple_validation():
    with pytest.raises(ValueError):
        CartanTriple(0.0, 1.0, -1.0)     # unordered
    with pytest.raises(ValueError):
        CartanTriple(2.0, 0.0, -1.0)     # nonzero sum
    assert CartanTriple(2.0, 0.0, -2.0).length == 2.0


# ---------------------------------------------------------------------------
# k_delta and the automorphism


def test_k_delta_real_endpoints():
    """Paper: the stamps k_delta run from I (delta = 1) to k_0 (delta = 0)."""
    assert np.allclose(k_delta_real(1.0).matrix, np.eye(3))
    k0 = k_delta_real(0.0).matrix
    assert np.allclose(k0, np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        k_delta_real(1.2)
    with pytest.raises(ValueError):
        k_delta_real(-0.1)


def test_d_alpha_k0_identity():
    # D_a k_0 D_a = D(a, a, -2a) k_0
    alpha = 0.8
    lhs = (d_alpha(alpha) @ RealGroupElement(k_delta_real(0.0).matrix)
           @ d_alpha(alpha)).matrix
    rhs = d_matrix(alpha, alpha, -2 * alpha).matrix @ k_delta_real(0.0).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cartan_automorphism_involution():
    """Paper: g -> J (g^{-1})^T J, which trades U and U~, is an involution."""
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = _random_sl3(rng)
        gg = cartan_automorphism(cartan_automorphism(g))
        assert np.max(np.abs(gg.matrix - g.matrix)) < 1e-12


def test_cartan_automorphism_on_diagonals():
    """Paper: it maps D(a1, a2, a3) to D(-a3, -a2, -a1), fixing the chamber."""
    out = cartan_automorphism(d_matrix(2, 0, -2))
    assert np.allclose(out.matrix, d_matrix(2, 0, -2).matrix, atol=1e-12)
    out = cartan_automorphism(d_matrix(3, 1, -4))
    assert np.allclose(out.matrix, d_matrix(4, -1, -3).matrix, atol=1e-12)


def test_cartan_automorphism_swaps_patterns():
    """Paper: it swaps U (rotations of e2, e3) and U~ (rotations of e1, e2)."""
    theta = 0.77
    u_elem = np.array([[1, 0, 0],
                       [0, math.cos(theta), -math.sin(theta)],
                       [0, math.sin(theta), math.cos(theta)]])
    ut_elem = np.array([[math.cos(theta), -math.sin(theta), 0],
                        [math.sin(theta), math.cos(theta), 0],
                        [0, 0, 1]])
    assert in_u_pattern(u_elem) and not in_utilde_pattern(u_elem)
    assert in_utilde_pattern(ut_elem) and not in_u_pattern(ut_elem)
    assert in_utilde_pattern(cartan_automorphism(RealGroupElement(u_elem)).matrix)
    assert in_u_pattern(cartan_automorphism(RealGroupElement(ut_elem)).matrix)


def test_length_invariant_under_cartan_automorphism():
    """Paper: the automorphism preserves length."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = _random_sl3(rng)
        assert _length(cartan_automorphism(g)) == pytest.approx(
            _length(g), abs=1e-9)


# ---------------------------------------------------------------------------
# sphere distortion (real)


def test_distortion_endpoints():
    sol = solve_sphere_distortion(1.0, 1.0)
    assert sol.delta == pytest.approx(0.0, abs=1e-9)
    sol = solve_sphere_distortion(1.0, 4.0)
    assert sol.delta == pytest.approx(1.0, abs=1e-9)


def test_distortion_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_sphere_distortion(1.0, 0.5)
    with pytest.raises(ValueError):
        solve_sphere_distortion(1.0, 4.5)
    with pytest.raises(ValueError):
        solve_sphere_distortion(-1.0, 1.0)


def test_distortion_solution_quality():
    sol = solve_sphere_distortion(1.0, 2.5)
    assert 0 < sol.delta < 1
    assert sol.delta <= math.exp(-1.5) * (1 + 1e-9)
    assert abs(distorted_length(1.0, sol.delta) - 2.5) <= 1e-10
    assert sol.residual <= 1e-9
    assert in_utilde_pattern(sol.u.matrix)
    assert in_utilde_pattern(sol.u_prime.matrix)
    assert is_special_orthogonal(sol.u.matrix)
    assert is_special_orthogonal(sol.u_prime.matrix)


def test_distorted_length_stack_matches_oracle():
    # np.log differs from math.log in the last bit on ~1 value in 3000, so
    # the grid is large enough for a stray np.log to show
    rng = np.random.default_rng(24)
    deltas = np.concatenate([[0.0, 1.0, 0.5], rng.random(4000)])
    for alpha in (0.5, 1.0, 2.0, float(rng.uniform(0.1, 3.0))):
        stacked = distorted_length(alpha, deltas)
        assert stacked.shape == deltas.shape
        want = [_distorted_length_oracle(alpha, d) for d in deltas]
        assert np.array_equal(stacked, want)
        assert distorted_length(alpha, 0.3) == _distorted_length_oracle(alpha, 0.3)
    with pytest.raises(ValueError, match="delta"):
        distorted_length(1.0, np.array([0.2, 1.0 + 1e-12]))
    with pytest.raises(ValueError, match="delta"):
        distorted_length(1.0, np.array([0.2, np.nan]))


def test_distortion_batch_matches_scalar_bisection():
    rng = np.random.default_rng(25)
    alphas = [0.5, 1.0, 2.0, *rng.uniform(0.2, 3.0, 2).tolist()]
    for alpha in alphas:
        rs = np.concatenate([np.linspace(alpha, 4 * alpha, 9),
                             rng.uniform(alpha, 4 * alpha, 6)]).tolist()
        sols = solve_sphere_distortion(alpha, rs)
        assert isinstance(sols, list) and len(sols) == len(rs)
        for r, sol in zip(rs, sols):
            delta, residual, u, up = _solve_distortion_oracle(alpha, r)
            assert sol.r == r and sol.alpha == alpha
            assert sol.delta == delta and sol.residual == residual
            assert np.array_equal(sol.u.matrix, u)
            assert np.array_equal(sol.u_prime.matrix, up)
            assert sol.delta_bound == math.exp(r - 4 * alpha)
        # a scalar r is a batch of one
        one = solve_sphere_distortion(alpha, rs[3])
        assert one.delta == sols[3].delta and one.residual == sols[3].residual
    assert solve_sphere_distortion(1.0, []) == []


def test_distortion_batch_refuses_any_bad_r():
    for rs in ([1.0, 2.0, 4.0 + 1e-9], [1.0, 0.999, 2.0], [1.0, np.nan],
               [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            solve_sphere_distortion(1.0, rs)
    with pytest.raises(ValueError, match="alpha"):
        solve_sphere_distortion(0.0, [0.0])


def test_distortion_monotone_on_grid():
    for alpha in (0.5, 2.0):
        rs = np.linspace(alpha, 4 * alpha, 12)
        ds = [solve_sphere_distortion(alpha, r).delta for r in rs]
        assert all(x <= y + 1e-12 for x, y in zip(ds, ds[1:]))


# ---------------------------------------------------------------------------
# p-adic side


def _kak_padic_oracle(g):
    """Cartan triple of g from Smith-form valuations taken literally: v1 is
    the min valuation over entries, v2 the min over all nine 2x2 minors."""
    m = g.matrix
    v1 = g.min_valuation()
    minor_vals = []
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [s for s in range(3) if s != j]
            minor = (m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                     - m[rows[0]][cols[1]] * m[rows[1]][cols[0]])
            v = frac_valuation(g.p, minor)
            if v is not None:
                minor_vals.append(v)
    v2 = min(minor_vals)
    return (-v1, v1 - v2, v2)


@given(st.lists(st.integers(-50, 50), min_size=9, max_size=9),
       st.lists(st.integers(1, 12), min_size=9, max_size=9),
       st.booleans())
@settings(max_examples=60)
def test_adjugate_times_matrix_is_det(nums, dens, rational):
    """adj(m) m = m adj(m) = det(m) I, exactly, for int and Fraction m."""
    flat = ([Fraction(a, b) for a, b in zip(nums, dens)] if rational
            else nums)
    m = [flat[0:3], flat[3:6], flat[6:9]]
    det = _det3(m)
    scalar = [[det if i == j else 0 for j in range(3)] for i in range(3)]
    assert _matmul3(_adjugate3(m), m) == scalar
    assert _matmul3(m, _adjugate3(m)) == scalar


def test_padic_validation_and_length():
    with pytest.raises(ValueError):
        PAdicGroupElement(2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])   # det 2
    g = PAdicGroupElement(2, [[Fraction(1, 4), 0, 0], [0, 2, 0], [0, 0, 2]])
    assert kak_padic(g).length == _padic_length_oracle(g) == 2


def test_padic_length_symmetry_subadditive():
    rng = np.random.default_rng(6)
    x = d_matrix_padic(3, 2, -1, -1)
    for _ in range(60):
        g = random_padic_integral(3, rng) @ x @ random_padic_integral(3, rng)
        h = random_padic_integral(3, rng, 4)
        assert kak_padic(g).length == kak_padic(g.inv()).length
        assert (kak_padic(g @ h).length
                <= kak_padic(g).length + kak_padic(h).length)


def test_padic_integral_has_zero_length():
    """Paper: the maximal compact SL3(Z_p) has length zero."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = random_padic_integral(5, rng, 8)
        assert k.is_integral()
        assert kak_padic(k).length == 0
        assert kak_padic(k).as_int_tuple() == (0, 0, 0)


def test_kak_padic_examples():
    g = PAdicGroupElement(2, [[Fraction(1, 4), 0, 0], [0, 2, 0], [0, 0, 2]])
    assert kak_padic(g).as_int_tuple() == (2, -1, -1)
    h = PAdicGroupElement(3, [[1, Fraction(1, 27), 0], [0, 1, 0], [0, 0, 1]])
    assert kak_padic(h).as_int_tuple() == (3, 0, -3)


def test_kak_padic_bi_invariance():
    """Paper: the p-adic Cartan projection is SL3(Z_p)-bi-invariant."""
    rng = np.random.default_rng(8)
    x = d_matrix_padic(3, 3, 1, -4)
    base = kak_padic(x).as_int_tuple()
    assert base == (3, 1, -4)
    for _ in range(100):
        k1 = random_padic_integral(3, rng)
        k2 = random_padic_integral(3, rng)
        assert kak_padic(k1 @ x @ k2).as_int_tuple() == base


def test_kak_padic_matches_length():
    rng = np.random.default_rng(9)
    for a1, a2 in [(2, -1), (4, 0), (3, 3)]:
        a3 = -a1 - a2
        g = (random_padic_integral(2, rng) @ d_matrix_padic(2, a1, a2, a3)
             @ random_padic_integral(2, rng))
        oracle = _kak_padic_oracle(g)
        assert oracle == (a1, a2, a3)
        assert kak_padic(g).as_int_tuple() == oracle
        assert kak_padic(g).length == _padic_length_oracle(g) == max(a1, -a3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kak_padic_matches_minor_oracle(p):
    """kak_padic reads v2 off g^{-1}; the oracle takes it from the minors."""
    rng = np.random.default_rng([12, p])
    for _ in range(60):
        a1, a2 = (int(v) for v in rng.integers(-4, 5, size=2))
        g = (random_padic_integral(p, rng)
             @ d_matrix_padic(p, a1, a2, -a1 - a2)
             @ random_padic_integral(p, rng))
        oracle = _kak_padic_oracle(g)
        assert kak_padic(g).as_int_tuple() == oracle
        assert kak_padic(g).length == max(oracle[0], -oracle[2])
        assert oracle == tuple(sorted((a1, a2, -a1 - a2), reverse=True))


def test_k_delta_padic():
    k = k_delta_padic(3, 0)
    assert kak_padic(k).as_int_tuple() == (0, 0, 0)
    with pytest.raises(ValueError):
        k_delta_padic(3, Fraction(1, 3))     # not integral


@pytest.mark.parametrize("p,alpha,r,val,triple", [
    (2, 1, 4, 0, (4, -2, -2)),
    (2, 1, 1, 3, (1, 1, -2)),
    (2, 2, 5, 3, (5, -1, -4)),
    (3, 2, 8, 0, (8, -4, -4)),
])
def test_padic_distortion(p, alpha, r, val, triple):
    sol = padic_sphere_distortion(p, alpha, r)
    assert sol.ok
    assert frac_valuation(p, sol.delta) == val
    assert sol.triple.as_int_tuple() == triple


def test_padic_distortion_all_integer_alphas():
    for alpha in (1, 2, 3, 4):
        for r in range(alpha, 4 * alpha + 1):
            assert padic_sphere_distortion(2, alpha, r).ok


def test_padic_distortion_rejects():
    with pytest.raises(ValueError):
        padic_sphere_distortion(2, 1, 5)
    with pytest.raises(ValueError):
        padic_sphere_distortion(2, 1.5, 3)


def test_u0_fixed_points_and_distortion():
    """Paper: conjugation by diag(p,1,1) changes length by at most log p."""
    ident = PAdicGroupElement(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert u0_automorphism(ident).matrix == ident.matrix
    diag = d_matrix_padic(5, 1, 0, -1)
    assert u0_automorphism(diag).matrix == diag.matrix

    rng = np.random.default_rng(10)
    x = d_matrix_padic(5, 2, 0, -2)
    for _ in range(100):
        g = random_padic_integral(5, rng, 5) @ x @ random_padic_integral(5, rng, 3)
        drift = abs(kak_padic(g).length
                    - kak_padic(u0_automorphism(g)).length)
        assert drift <= 1


def test_u0_is_multiplicative():
    """Paper: conjugation by diag(p, 1, 1) is a group automorphism."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_padic_integral(7, rng)
        h = random_padic_integral(7, rng) @ d_matrix_padic(7, 1, 0, -1)
        lhs = u0_automorphism(g @ h).matrix
        rhs = (u0_automorphism(g) @ u0_automorphism(h)).matrix
        assert lhs == rhs


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=30)
def test_padic_diagonal_triples(a1, a2):
    a3 = -a1 - a2
    vals = sorted((a1, a2, a3), reverse=True)
    g = d_matrix_padic(3, a1, a2, a3)
    assert kak_padic(g).as_int_tuple() == tuple(vals)
