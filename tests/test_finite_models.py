"""Operators on l2(O_n x O_n): construction, norms, Fourier law, identities."""
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import (AdditiveCharacter, ResidueRing, RingElem, char_eval,
                    character_decompose, classify_character,
                    hausdorff_young_ratio, operator_norm, stamp_s_chi,
                    stamp_s_delta, verify_S_decomposition,
                    verify_kdelta_conjugation, valuation)
from gaplab import finite_models
from gaplab.finite_models import (_POWER_TOL, StampOperator, _block_norms,
                                  _power_iteration)
from dense_stamps import _materialize, build_S_chi, build_S_delta, dense_norm
from test_acceptance import _block_spectra, _fourier_block


def _direct_s_delta(p, n, delta):
    """Loop-level oracle straight from the defining average."""
    m = p ** n
    D = np.zeros((m * m, m * m))
    for y in range(m):
        for t in range(m):
            for x in range(m):
                s = (t + delta + x * y) % m
                D[y * m + t, x * m + s] += 1.0 / m
    return D


def _direct_s_chi(p, n, chi):
    m = p ** n
    h = chi.ring.n
    step = p ** (n - h)
    D = np.zeros((m * m, m * m), dtype=complex)
    for y in range(m):
        for t in range(m):
            for x in range(m):
                for z in range(p ** h):
                    s = (t + step * z + x * y) % m
                    D[y * m + t, x * m + s] += char_eval(chi, z) / (m * p ** h)
    return D


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("p,n,delta", [(2, 1, 0), (2, 2, 3), (3, 1, 2), (3, 2, 5)])
def test_s_delta_matches_definition(p, n, delta):
    R = ResidueRing(p, n)
    got = build_S_delta(R, delta)
    assert np.array_equal(got, _direct_s_delta(p, n, delta))


def test_s_delta_small_explicit():
    # p=2, n=1, delta=0: the 4x4 average over x of f(x, t + x*y)
    R = ResidueRing(2, 1)
    S = build_S_delta(R, 0)
    assert set(np.unique(S.real)) == {0.0, 0.5}
    assert np.allclose(np.abs(S).sum(axis=1), 1.0)  # absolute row sums


def test_s_chi_small_explicit():
    # p=2, n=1, h=1: entries are +-1/4 where s = t + z + x*y
    R = ResidueRing(2, 1)
    chi = AdditiveCharacter(ResidueRing(2, 1), 1)
    S = build_S_chi(R, chi)
    assert np.array_equal(S, _direct_s_chi(2, 1, chi))
    assert set(np.unique(S.real)) <= {-0.25, 0.0, 0.25}


@pytest.mark.parametrize("p,n,h,idx", [(2, 3, 2, 1), (3, 2, 1, 2), (3, 2, 2, 4)])
def test_s_chi_matches_definition(p, n, h, idx):
    R = ResidueRing(p, n)
    chi = AdditiveCharacter(ResidueRing(p, h), idx)
    got = build_S_chi(R, chi)
    assert np.max(np.abs(got - _direct_s_chi(p, n, chi))) < 1e-15


def test_s_chi_rejects_bad_inputs():
    R = ResidueRing(2, 2)
    with pytest.raises(ValueError):
        stamp_s_chi(R, AdditiveCharacter(ResidueRing(2, 3), 1))  # h > n
    with pytest.raises(ValueError):
        stamp_s_chi(R, AdditiveCharacter(ResidueRing(2, 2), 0))  # trivial
    with pytest.raises(ValueError):
        stamp_s_chi(R, AdditiveCharacter(ResidueRing(3, 1), 1))  # wrong prime


def _apply_loop(op, f):
    """Loop oracle of StampOperator.apply: correlate along the shift axis,
    then out[y,t] = sum_x g[x, (t + x*y) mod m], one x at a time."""
    m = op.ring.modulus
    mult = m * np.fft.ifft(op.kernel)
    g = np.fft.ifft(np.fft.fft(f.reshape(m, m), axis=1) * mult[None, :], axis=1)
    out = np.zeros((m, m), dtype=complex)
    t = np.arange(m)
    y = np.arange(m)
    for x in range(m):
        out += g[x][(t[None, :] + (x * y)[:, None]) % m]
    return out.reshape(m * m)


def _adjoint_loop(op, f):
    """Loop oracle of StampOperator.adjoint_apply: convolve with conj K,
    then out[x,s] = sum_y h[y, (s - x*y) mod m], one y at a time."""
    m = op.ring.modulus
    khat = np.fft.fft(np.conj(op.kernel))
    h = np.fft.ifft(np.fft.fft(f.reshape(m, m), axis=1) * khat[None, :], axis=1)
    out = np.zeros((m, m), dtype=complex)
    s = np.arange(m)
    x = np.arange(m)
    for y in range(m):
        out += h[y][(s[None, :] - (x * y)[:, None]) % m]
    return out.reshape(m * m)


def _apply_formula(op, f):
    """StampOperator.apply as one expression, plan rebuilt on every call."""
    m = op.ring.modulus
    xi = np.arange(m)
    mult = m * np.fft.ifft(op.kernel)
    h = m * np.fft.ifft(np.fft.fft(f.reshape(m, m), axis=1) * mult, axis=0)
    return np.fft.ifft(h[np.outer(xi, xi) % m, xi], axis=1).reshape(m * m)


def _adjoint_formula(op, f):
    """StampOperator.adjoint_apply as one expression, plan rebuilt."""
    m = op.ring.modulus
    xi = np.arange(m)
    mult = np.fft.fft(np.conj(op.kernel))
    h = np.fft.fft(np.fft.fft(f.reshape(m, m), axis=1) * mult, axis=0)
    return np.fft.ifft(h[np.outer(xi, xi) % m, xi], axis=1).reshape(m * m)


def _random_stamp(p, n, rng):
    """A stamp with a random complex kernel, about half its entries zero."""
    m = p ** n
    kernel = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    kernel[rng.random(m) < 0.5] = 0.0
    return StampOperator(ResidueRing(p, n), kernel)


def _rings_up_to(limit):
    return [(p, n) for p in (2, 3, 5, 7) for n in range(1, 9) if p ** n <= limit]


def test_s_chi_kernel_matches_char_eval():
    # the kernel is chi(z)/(m p^h) at z*p^(n-h), bit for bit as char_eval
    # computes chi(z), so the closed-form norms (and CSVs) do not move
    for p, n in _rings_up_to(343):
        R = ResidueRing(p, n)
        m = R.modulus
        for h in range(1, n + 1):
            q = p ** h
            for idx in range(1, q):
                chi = AdditiveCharacter(ResidueRing(p, h), idx)
                want = np.zeros(m, dtype=complex)
                for z in range(q):
                    want[z * p ** (n - h)] = char_eval(chi, z) / (m * q)
                assert np.array_equal(stamp_s_chi(R, chi).kernel, want), \
                    (p, n, h, idx)


@given(st.sampled_from(_rings_up_to(128)), st.integers(0, 2 ** 32 - 1))
@example((2, 7), 0)
@settings(max_examples=60, deadline=None)
def test_stamp_applies_match_loops(ring, seed):
    rng = np.random.default_rng(seed)
    op = _random_stamp(*ring, rng)
    f = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    bound = 1e-12 * np.linalg.norm(f)
    assert np.linalg.norm(op.apply(f) - _apply_loop(op, f)) <= bound
    assert np.linalg.norm(op.adjoint_apply(f) - _adjoint_loop(op, f)) <= bound


@given(st.sampled_from(_rings_up_to(128)), st.integers(0, 2 ** 32 - 1))
@example((2, 7), 0)
@settings(max_examples=40, deadline=None)
def test_stamp_applies_are_the_one_expression_formulas(ring, seed):
    # the kept plan changes no bit: each apply, first call or later, is the
    # formula that rebuilds multipliers and gather index on every call
    rng = np.random.default_rng(seed)
    op = _random_stamp(*ring, rng)
    for _ in range(2):
        f = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        assert np.array_equal(op.apply(f), _apply_formula(op, f))
        assert np.array_equal(op.adjoint_apply(f), _adjoint_formula(op, f))


@given(st.sampled_from(_rings_up_to(128)), st.integers(0, 2 ** 32 - 1))
@example((2, 7), 0)
@example((2, 4), 1)
@settings(max_examples=40, deadline=None)
def test_gram_apply_is_the_adjoint_of_the_apply(ring, seed):
    # the fused A*A step against the two applies in a row, and against the
    # dense A^H A where the matrix is small; the kernel is scaled to
    # ||A|| <= 1, so rounding is on the scale of ||f||
    rng = np.random.default_rng(seed)
    op = _random_stamp(*ring, rng)
    norm = operator_norm(op, method="exact-decomposition").value
    op = StampOperator(op.ring, op.kernel / max(norm, 1.0))
    f = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    bound = 1e-12 * np.linalg.norm(f)
    got = op.gram_apply(f)
    assert np.linalg.norm(got - op.adjoint_apply(op.apply(f))) <= bound
    if op.ring.modulus <= 16:
        dense = _materialize(op.ring, op.kernel)
        assert np.linalg.norm(got - dense.conj().T @ (dense @ f)) <= bound


def test_stamp_kernel_is_frozen():
    # the plan is built from the kernel once, so the kernel cannot change
    source = np.zeros(8, dtype=complex)
    source[3] = 1.0
    op = StampOperator(ResidueRing(2, 3), source)
    f = np.random.default_rng(0).standard_normal(op.dim) + 0j
    before = op.apply(f)
    source[3] = 5.0                      # the operator holds its own copy
    assert op.kernel[3] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        op.kernel[3] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.kernel = source
    assert np.array_equal(op.apply(f), before)


@given(st.sampled_from(_rings_up_to(343)), st.integers(0, 2 ** 32 - 1))
@example((7, 3), 0)
@settings(max_examples=40, deadline=None)
def test_stamp_adjoint_property(ring, seed):
    # <Af, g> = <f, A*g>, up to rounding on the scale ||A|| ||f|| ||g||
    rng = np.random.default_rng(seed)
    op = _random_stamp(*ring, rng)
    f, g = (rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            for _ in range(2))
    scale = (operator_norm(op, method="exact-decomposition").value
             * np.linalg.norm(f) * np.linalg.norm(g))
    gap = abs(np.vdot(g, op.apply(f)) - np.vdot(op.adjoint_apply(g), f))
    assert gap <= 1e-12 * scale


def test_stamp_apply_matches_dense():
    rng = np.random.default_rng(3)
    for (p, n) in [(2, 3), (3, 2)]:
        R = ResidueRing(p, n)
        m = R.modulus
        chi = AdditiveCharacter(ResidueRing(p, n), 1 + p)
        for dense, stamp in [
            (build_S_delta(R, 3), stamp_s_delta(R, 3)),
            (build_S_chi(R, chi), stamp_s_chi(R, chi)),
        ]:
            f = rng.standard_normal(m * m) + 1j * rng.standard_normal(m * m)
            assert np.max(np.abs(stamp.apply(f) - dense @ f)) < 1e-12
            assert np.max(np.abs(stamp.adjoint_apply(f)
                                 - dense.conj().T @ f)) < 1e-12


# ---------------------------------------------------------------------------
# norms


def test_dense_norm_identity_and_rank_one():
    eye = np.eye(10, dtype=complex)
    assert dense_norm(eye) == pytest.approx(1.0)

    u = np.zeros(8, dtype=complex); u[:4] = 1.0          # norm 2
    v = np.zeros(8, dtype=complex); v[:] = 3 / np.sqrt(8)  # norm 3
    assert dense_norm(np.outer(u, v.conj())) == pytest.approx(6.0, abs=1e-12)


@given(st.integers(1, 64), st.integers(0, 64), st.integers(0, 2 ** 32 - 1),
       st.integers(-1060, 1000))
@settings(max_examples=100, deadline=None)
def test_dense_norm_is_the_top_singular_value(dim, rank, seed, exp):
    # the Gram eigensolve against a direct SVD on complex square matrices of
    # every rank, at binary scales from subnormal entries to near overflow
    rng = np.random.default_rng(seed)
    rank = min(rank, dim)
    X = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    Y = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    A = (X @ Y) * 2.0 ** exp
    want = float(np.linalg.svd(A, compute_uv=False)[0])
    got = dense_norm(A)
    assert abs(got - want) <= 8 * dim * np.finfo(float).eps * want


def test_power_iteration_tracks_svd():
    rng = np.random.default_rng(11)
    for trial in range(100):
        A = (rng.standard_normal((64, 64))
             + 1j * rng.standard_normal((64, 64))) / np.sqrt(64)
        svd = dense_norm(A)
        pit = _power_iteration(lambda v: A.conj().T @ (A @ v), 64,
                               max_iterations=20000, seed=trial)
        assert pit.converged
        assert pit.value <= svd + pit.residual + 1e-12
        assert abs(pit.value - svd) < 1e-8


def _power_iteration_oracle(gram, dim, tolerance, max_iterations, seed):
    """operator_norm's power iteration with a fresh array for every value."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for iters in range(1, max_iterations + 1):
        w = gram(v)
        mu = float(np.real(np.vdot(v, w)))
        res = float(np.linalg.norm(w - mu * v))
        v = w / np.linalg.norm(w)
        sigma = np.sqrt(max(mu, 0.0))
        if sigma > 0 and res / sigma <= tolerance:
            break
    sigma = float(np.sqrt(max(mu, 0.0)))
    return sigma, res / sigma, iters


def test_power_iteration_is_the_allocating_loop():
    # the iteration works in place; every report is bit for bit the loop
    # that allocates, on dense grams and on stamps through operator_norm;
    # a cap of 7 stops every case before it converges
    rng = np.random.default_rng(23)
    cases = []
    for trial in range(5):
        A = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        gram = lambda v, A=A: A.conj().T @ (A @ v)
        cases.append((functools.partial(_power_iteration, gram, 48), gram, 48))
    for p, n in [(2, 3), (3, 2), (2, 7), (5, 2)]:
        op = _random_stamp(p, n, rng)
        run = functools.partial(operator_norm, op, "power-iteration")
        cases.append((run, op.gram_apply, op.dim))
    for seed, (run, gram, dim) in enumerate(cases):
        for cap in (5000, 7):
            rep = run(max_iterations=cap, seed=seed)
            want = _power_iteration_oracle(gram, dim, _POWER_TOL, cap, seed)
            assert (rep.value, rep.residual, rep.iterations) == want
            assert rep.converged == (cap == 5000)


def test_norm_report_fields():
    rep = operator_norm(stamp_s_delta(ResidueRing(2, 1), 1))
    assert rep.method == "exact-decomposition" and rep.value == 1.0
    assert rep.residual == 0.0 and rep.converged and rep.iterations == 0
    assert rep.dim == 4

    with pytest.raises(ValueError):
        operator_norm(stamp_s_delta(ResidueRing(2, 1), 1),
                      method="not-a-method")
    # a dense matrix's norm is the test oracle dense_stamps.dense_norm
    dense = build_S_delta(ResidueRing(2, 1), 1)
    for operand in (dense, np.eye(4, dtype=complex), "nonsense"):
        with pytest.raises(TypeError):
            operator_norm(operand)


def test_exact_decomposition_norm_matches_svd():
    cases = [(2, 3, h, idx) for h in (1, 2, 3) for idx in range(1, 2 ** h)]
    cases += [(3, 2, h, idx) for h in (1, 2) for idx in range(1, 3 ** h)]
    # p = 5: dense S_chi at dimension 625, one index per valuation and level
    cases += [(5, 2, 1, 1), (5, 2, 1, 3), (5, 2, 2, 7), (5, 2, 2, 10)]
    for p, n, h, idx in cases:
        R = ResidueRing(p, n)
        chi = AdditiveCharacter(ResidueRing(p, h), idx)
        exact = operator_norm(stamp_s_chi(R, chi),
                              method="exact-decomposition")
        svd = dense_norm(build_S_chi(R, chi))
        assert exact.method == "exact-decomposition"
        assert abs(exact.value - svd) < 1e-10, (p, n, h, idx)
    # the block formula holds for every kernel, not only S_delta and S_chi;
    # zero-mean kernels empty the c = 0 block so a deeper block must win
    rng = np.random.default_rng(17)
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1),
                 (7, 1)]:
        R = ResidueRing(p, n)
        m = R.modulus
        for trial in range(3):
            kernel = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            kernel[rng.random(m) < 0.5] = 0.0
            if trial == 2:
                kernel -= kernel.mean()
            exact = operator_norm(StampOperator(R, kernel),
                                  method="exact-decomposition")
            svd = dense_norm(_materialize(R, kernel))
            assert abs(exact.value - svd) <= 1e-12 * max(1.0, svd)


def test_contraction_bounds():
    for (p, n) in [(2, 2), (3, 2)]:
        R = ResidueRing(p, n)
        for delta in range(R.modulus):
            assert operator_norm(stamp_s_delta(R, delta)).value <= 1 + 1e-12


def test_nondegenerate_decay_small():
    # ||S_{n,chi}|| <= p^{-(n-h)/2} for nondegenerate chi; equality at v=0
    for (p, n) in [(2, 3), (3, 2)]:
        R = ResidueRing(p, n)
        for h in range(1, n + 1):
            for idx in range(1, p ** h):
                chi = AdditiveCharacter(ResidueRing(p, h), idx)
                v = valuation(p, idx, h)
                got = dense_norm(build_S_chi(R, chi))
                assert got == pytest.approx(p ** (-(n - v) / 2), abs=1e-10)
                if chi.is_nondegenerate:
                    assert got <= p ** (-(n - h) / 2) + 1e-9


def test_degenerate_factorization_small():
    # a degenerate character at level n matches its reduction at level n-h+d
    p, n, h = 2, 4, 3
    chi = AdditiveCharacter(ResidueRing(p, h), 2)      # v=1, d=2
    cls = classify_character(chi)
    big = dense_norm(build_S_chi(ResidueRing(p, n), chi))
    small = dense_norm(
        build_S_chi(ResidueRing(p, n - h + cls.level), cls.reduced))
    assert abs(big - small) < 1e-9


# ---------------------------------------------------------------------------
# Fourier law


def _reassemble(m, delta):
    """Dense S_delta rebuilt from the blocks psi_c(delta) * G_c (oracle):
    in the shift-Fourier basis, S_delta acts on the block of the character
    psi_c as psi_c(delta) * G_c with G_c[y,x] = psi_c(x*y)/m."""
    c = np.arange(m)
    F = np.exp(-2j * np.pi * np.outer(c, c) / m) / np.sqrt(m)
    shat = np.zeros((m, m, m, m), dtype=complex)       # (y, c, x, c')
    for ci in range(m):
        shat[:, ci, :, ci] = (np.exp(2j * np.pi * (ci * delta % m) / m)
                              * _fourier_block(m, ci))
    U = np.kron(np.eye(m), F)
    return U.conj().T @ shat.reshape(m * m, m * m) @ U


def test_fourier_reassembly():
    R = ResidueRing(2, 2)
    for delta in range(4):
        res = np.max(np.abs(_reassemble(R.modulus, delta) - build_S_delta(R, delta)))
        assert res < 1e-12


def test_fourier_trivial_block_is_full_average():
    R = ResidueRing(3, 2)
    m = R.modulus
    assert np.allclose(_fourier_block(m, 0), np.full((m, m), 1 / m))
    assert _block_norms(R)[0] == pytest.approx(1.0, abs=1e-12)


def test_fourier_block_norm_profile():
    # ||G_c|| = p^{-(n - v_p(c))/2}, with the c=0 block of norm 1; checked
    # against the SVD of each dense G_c, not only against the formula
    for (p, n) in [(2, 3), (3, 2), (5, 2), (7, 2)]:
        R = ResidueRing(p, n)
        block_norms = _block_norms(R)
        spectra = _block_spectra(R.modulus)
        for c in range(R.modulus):
            k = valuation(p, c, n)
            assert block_norms[c] == pytest.approx(spectra[c][0], abs=1e-12)
            assert block_norms[c] == pytest.approx(p ** (-(n - k) / 2),
                                                   abs=1e-12)


def _difference_norm(ring, delta, delta_prime):
    """||S_delta - S_delta'|| as the exact stamp norm of the kernel
    difference."""
    kernel = (stamp_s_delta(ring, delta).kernel
              - stamp_s_delta(ring, delta_prime).kernel)
    return operator_norm(StampOperator(ring, kernel)).value


def test_fourier_difference_law_vs_dense():
    R = ResidueRing(3, 2)
    dense = {}
    for d in range(9):
        dense[d] = build_S_delta(R, d)
    for (d, dp) in [(1, 0), (5, 2), (8, 8), (3, 6)]:
        law = _difference_norm(R, d, dp)
        svd = np.linalg.svd(dense[d] - dense[dp], compute_uv=False)[0]
        assert abs(law - svd) < 1e-9
        assert law <= svd + 1e-9


def test_difference_triangle_bound():
    # ||S_delta - S_delta'|| <= 2 p^h p^{-(n-h)/2} on the embedded grid
    p, n, h = 2, 3, 2
    R = ResidueRing(p, n)
    step = p ** (n - h)
    bound = 2 * p ** h * p ** (-(n - h) / 2)
    for a in range(p ** h):
        for b in range(p ** h):
            assert _difference_norm(R, step * a, step * b) <= bound + 1e-9


# ---------------------------------------------------------------------------
# decomposition identity


@pytest.mark.parametrize("p,n,h,av,bv", [
    (2, 2, 1, 1, 0), (3, 3, 2, 4, 1), (2, 3, 3, 5, 2), (3, 2, 1, 2, 1),
])
def test_decomposition_identity(p, n, h, av, bv):
    R = ResidueRing(p, n)
    Rh = ResidueRing(p, h)
    res = verify_S_decomposition(R, Rh.elem(av), Rh.elem(bv))
    assert res <= 1e-12


def test_decomposition_identity_equal_pair():
    R = ResidueRing(2, 2)
    Rh = ResidueRing(2, 2)
    assert verify_S_decomposition(R, Rh.elem(3), Rh.elem(3)) == 0.0


def _dense_decomposition_residual(ring, a, b, decompose=character_decompose):
    """verify_S_decomposition's residual from the two dense sides, summed
    as the library sums the kernels."""
    step = ring.p ** (ring.n - a.ring.n)
    lhs = (build_S_delta(ring, step * a.value)
           - build_S_delta(ring, step * b.value))
    rhs = np.zeros_like(lhs)
    for chi, t in decompose(a, b).items():
        if abs(t) > 0.0:
            rhs += t * build_S_chi(ring, chi)
    return float(np.max(np.abs(lhs - rhs)))


def _criterion_3_pairs():
    for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        for h in range(1, n + 1):
            sub = ResidueRing(p, h)
            for ai, bi in {(1 % sub.modulus, 0),
                           (sub.modulus - 1, 1 % sub.modulus)}:
                if ai != bi:
                    yield ResidueRing(p, n), sub.elem(ai), sub.elem(bi)


def test_decomposition_on_kernels_is_the_dense_residual(monkeypatch):
    # every entry of a stamp's kernel occurs in every row of its matrix, so
    # the residual over the m kernel entries is the max-entry residual of
    # the m^2 x m^2 identity; numpy rounds a 2-D gather and a length-m
    # vector differently, so the two agree to rounding, not bit for bit
    pairs = list(_criterion_3_pairs())
    assert len(pairs) == 25
    for ring, a, b in pairs:
        got = verify_S_decomposition(ring, a, b)
        want = _dense_decomposition_residual(ring, a, b)
        assert abs(got - want) <= 1e-18, (ring, a, b)
    # with the i-th coefficient scaled by 1 + i/7 the identity fails by
    # O(1/m), unevenly over the kernel, and the kernel residual is still
    # the dense one
    def skewed(a, b):
        terms = character_decompose(a, b).items()
        return {chi: t * (1 + i / 7) for i, (chi, t) in enumerate(terms)}

    monkeypatch.setattr(finite_models, "character_decompose", skewed)
    for ring, a, b in pairs:
        got = verify_S_decomposition(ring, a, b)
        want = _dense_decomposition_residual(ring, a, b, skewed)
        assert want > 1e-3 and abs(got - want) <= 1e-16, (ring, a, b)


def test_decomposition_rejects_mismatch():
    R = ResidueRing(2, 2)
    with pytest.raises(ValueError):
        verify_S_decomposition(R, ResidueRing(2, 3).elem(1),
                               ResidueRing(2, 3).elem(0))  # h > n
    with pytest.raises(ValueError):
        verify_S_decomposition(R, ResidueRing(2, 1).elem(1),
                               ResidueRing(3, 1).elem(0))


# ---------------------------------------------------------------------------
# mean-transform ratio


def test_hausdorff_young_two_point():
    assert hausdorff_young_ratio(2, np.array([1.0, 0.0])) == pytest.approx(
        2 ** -0.5, abs=1e-15)


def test_hausdorff_young_random_and_constant():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert hausdorff_young_ratio(16, f) == pytest.approx(0.25, abs=1e-12)
    # constant vector: all mass on the trivial character
    assert hausdorff_young_ratio(16, np.full(16, 2.0 + 1j)) == pytest.approx(
        0.25, abs=1e-12)


def test_hausdorff_young_vector_valued():
    rng = np.random.default_rng(6)
    f = rng.standard_normal((27, 5)) + 1j * rng.standard_normal((27, 5))
    assert hausdorff_young_ratio(27, f) == pytest.approx(27 ** -0.5, abs=1e-12)


def test_hausdorff_young_rejects_zero():
    with pytest.raises(ValueError):
        hausdorff_young_ratio(4, np.zeros(4))
    with pytest.raises(ValueError):
        hausdorff_young_ratio(4, np.zeros(5))  # wrong length


@given(st.integers(2, 64), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40)
def test_hausdorff_young_is_parseval(m, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    assert abs(hausdorff_young_ratio(m, f) - m ** -0.5) < 1e-10


# ---------------------------------------------------------------------------
# rotation-conjugation identity


def test_kdelta_conjugation_frozen_example():
    """Paper: the corner words conjugate to k_{p^(2j) delta}; one instance."""
    R = ResidueRing(3, 3)
    r = verify_kdelta_conjugation(1, R.elem(1), R.elem(0), R.elem(1), R.elem(2))
    assert r.ok and r.determinants_ok and r.pattern_ok and r.product_ok
    assert r.delta.value == 1          # 2 - 1*1 - 0
    assert r.precision == 3 + 2 + 4


def test_kdelta_conjugation_omega_unit_case():
    # a=b=x=0 and y a unit: omega = 1 exactly
    R = ResidueRing(5, 2)
    r = verify_kdelta_conjugation(1, R.elem(0), R.elem(0), R.elem(0), R.elem(3))
    assert r.ok
    assert r.omega.value == 1


def test_kdelta_conjugation_random_sweep():
    """Paper: the conjugation holds iff valuation(delta) <= n - j."""
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(120):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 5))
        j = int(rng.integers(1, n + 1))
        R = ResidueRing(p, n)
        vals = [int(rng.integers(p ** n)) for _ in range(4)]
        a, b, x, y = (R.elem(v) for v in vals)
        dval = (y.value - a.value * x.value - b.value) % p ** n
        if valuation(p, dval, n) > n - j:
            with pytest.raises(ValueError):
                verify_kdelta_conjugation(j, a, b, x, y)
            continue
        r = verify_kdelta_conjugation(j, a, b, x, y)
        checked += 1
        assert r.ok, (p, n, j, vals)
    assert checked > 40


def test_kdelta_conjugation_rejects_bad_shapes():
    R = ResidueRing(3, 2)
    with pytest.raises(ValueError):
        verify_kdelta_conjugation(0, R.elem(1), R.elem(0), R.elem(1), R.elem(2))
    with pytest.raises(ValueError):
        verify_kdelta_conjugation(1, R.elem(1), R.elem(0), R.elem(1),
                                  ResidueRing(3, 3).elem(2))


@given(st.integers(0, 3 ** 3 - 1), st.integers(0, 3 ** 3 - 1),
       st.integers(0, 3 ** 3 - 1), st.integers(0, 3 ** 3 - 1))
@settings(max_examples=60)
def test_kdelta_conjugation_holds_whenever_claimed(av, bv, xv, yv):
    """Paper: the conjugation holds for every admissible input in Z/27."""
    R = ResidueRing(3, 3)
    a, b, x, y = R.elem(av), R.elem(bv), R.elem(xv), R.elem(yv)
    dval = (yv - av * xv - bv) % 27
    if valuation(3, dval, 3) > 2:
        return
    assert verify_kdelta_conjugation(1, a, b, x, y).ok
