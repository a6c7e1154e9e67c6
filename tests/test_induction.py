"""Tests for fundamental-domain reduction, the cocycle, and measure transport."""

import csv
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import svdvals

from gaplab import induction as ind
from gaplab.induction import (
    CocycleResult,
    LatticeMeasure,
    SiegelPoint,
    cocycle,
    cocycle_alphas,
    cocycle_growth_check,
    cusp_decay_fit,
    domain_exp_integral,
    domain_matrices,
    element_length,
    exp_tail_mass,
    pushforward_mn0,
    random_group_elements,
    reduce_to_domain,
    sample_domain,
    sample_domain_arrays,
    total_variation,
    truncate_tail,
    write_sample_log,
)

S_MAT = np.array([[0, -1], [1, 0]], dtype=np.int64)
T_MAT = np.array([[1, 1], [0, 1]], dtype=np.int64)
T_INV = np.array([[1, -1], [0, 1]], dtype=np.int64)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def transvection(x, y):
    """p(z) with p(z).i = x + iy."""
    sq = math.sqrt(y)
    return np.array([[sq, x / sq], [0.0, 1.0 / sq]])


def canonical(mat):
    return ind._canonical_sign(tuple(int(v) for v in np.asarray(mat).ravel()))


def random_word(rng, k):
    g = np.eye(2, dtype=np.int64)
    for _ in range(k):
        g = g @ (S_MAT, T_MAT, T_INV)[rng.integers(3)]
    return g


# ---------------------------------------------------------------------------
# lengths


def test_element_length_basics():
    assert element_length(np.eye(2)) == 0.0
    assert element_length(rotation(1.234)) == pytest.approx(0.0, abs=1e-12)
    t = 0.7
    assert element_length(np.diag([math.exp(t), math.exp(-t)])) == pytest.approx(t, abs=1e-12)


def test_element_length_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_group_elements(1, rng.integers(1 << 30), max_length=4.0)[0]
        want = math.log(svdvals(g)[0])
        assert element_length(g) == pytest.approx(want, abs=1e-10)
        assert element_length(np.linalg.inv(g)) == pytest.approx(want, abs=1e-8)


def test_element_length_subadditive():
    rng = np.random.default_rng(6)
    gs = random_group_elements(40, 7, max_length=2.0)
    for _ in range(100):
        a, b = gs[rng.integers(40)], gs[rng.integers(40)]
        assert element_length(a @ b) <= element_length(a) + element_length(b) + 1e-9


# ---------------------------------------------------------------------------
# domain representatives


def test_siegel_point_properties():
    x, y, theta = -0.21, 1.42, 0.83
    omega = np.linalg.inv(transvection(x, y) @ rotation(theta))
    pt = SiegelPoint(omega)
    assert pt.x == pytest.approx(x, abs=1e-12)
    assert pt.y == pytest.approx(y, abs=1e-12)
    assert pt.point == pytest.approx(complex(x, y), abs=1e-12)
    assert pt.rotation == pytest.approx(theta, abs=1e-9)
    # two length formulas: hyperbolic distance vs singular values
    want = 0.5 * math.acosh((x * x + y * y + 1.0) / (2.0 * y))
    assert pt.length == pytest.approx(want, abs=1e-12)
    assert pt.length == pytest.approx(element_length(pt.matrix), abs=1e-10)
    assert pt.matrix.flags.writeable is False


def test_siegel_point_validation():
    with pytest.raises(ValueError, match="determinant"):
        SiegelPoint(np.diag([2.0, 1.0]))
    # associated point 0.8i is inside the unit circle, outside F
    with pytest.raises(ValueError, match="outside the fundamental domain"):
        SiegelPoint(np.linalg.inv(transvection(0.0, 0.8)))
    with pytest.raises(ValueError, match="outside the fundamental domain"):
        SiegelPoint(np.linalg.inv(transvection(0.9, 5.0)))
    with pytest.raises(ValueError, match="2x2"):
        SiegelPoint(np.eye(3))


def test_siegel_point_accepts_boundary():
    SiegelPoint(np.linalg.inv(transvection(-0.5, 3.0)))
    SiegelPoint(np.linalg.inv(transvection(0.0, 1.0)))  # the corner i


# ---------------------------------------------------------------------------
# reduction


def test_reduce_shift_example():
    # half-plane point of g^{-1} is 5.3 + i; reduction is the shift by -5
    g = np.linalg.inv(transvection(5.3, 1.0))
    pt, gamma = reduce_to_domain(g)
    assert gamma.tolist() == [[1, -5], [0, 1]]
    assert pt.point == pytest.approx(0.3 + 1.0j, abs=1e-12)
    assert np.abs(g - pt.matrix @ gamma).max() <= 1e-9


def test_reduce_identity_coset():
    pts, _ = sample_domain(4, 99)
    for p in pts:
        pt, gamma = reduce_to_domain(p.matrix)
        assert gamma.tolist() == [[1, 0], [0, 1]]
        assert np.array_equal(pt.matrix, p.matrix)


def test_reduce_roundtrip_recovers_gamma():
    rng = np.random.default_rng(17)
    pts, _ = sample_domain(20, 23)
    for p in pts:
        gamma0 = random_word(rng, int(rng.integers(1, 9)))
        g = p.matrix @ gamma0
        pt, gamma = reduce_to_domain(g)
        assert tuple(int(v) for v in gamma.ravel()) == canonical(gamma0)
        # omega recovered up to the center
        dev = min(
            np.abs(pt.matrix - p.matrix).max(), np.abs(pt.matrix + p.matrix).max()
        )
        assert dev <= 1e-9
        scale = max(1.0, np.abs(g).max())
        assert np.abs(g - pt.matrix @ gamma).max() <= 1e-9 * scale


def test_reduce_rejects_nonunimodular():
    with pytest.raises(ValueError, match="determinant"):
        reduce_to_domain(np.diag([2.0, 1.0]))


def test_exact_reduction_boundary_tiebreaks():
    # Re z = 1/2 exactly folds to the left edge
    gamma, x, y = ind._reduce_exact(Fraction(1, 2), Fraction(2))
    assert gamma == (1, -1, 0, 1)
    assert (x, y) == (Fraction(-1, 2), Fraction(2))
    # right unit-arc folds to the left arc: z = 5/13 + 12i/13
    gamma, x, y = ind._reduce_exact(Fraction(5, 13), Fraction(12, 13))
    assert x == Fraction(-5, 13) and y == Fraction(12, 13)
    assert x * x + y * y == 1
    # a unit-arc point outside |x| <= 1/2 reduces through the corner chart
    gamma, x, y = ind._reduce_exact(Fraction(3, 5), Fraction(4, 5))
    assert (x, y) == (Fraction(-1, 2), Fraction(1))
    assert ind._in_domain_exact(x, y)
    # the corner 1/2 + i sqrt(3)/2 is rational only in x; use the half-integer
    # shift on a point just inside the arc instead: i stays put
    gamma, x, y = ind._reduce_exact(Fraction(0), Fraction(1))
    assert gamma == (1, 0, 0, 1) and (x, y) == (0, 1)


def test_exact_reduction_matches_public_api():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_group_elements(1, rng.integers(1 << 30), max_length=2.5)[0]
        pt, gamma = reduce_to_domain(g)
        M = ind._frac_matrix(g)
        x, y = ind._point_of_inverse(M)
        exact_gamma, xr, yr = ind._reduce_exact(x, y)
        assert canonical(exact_gamma) == tuple(int(v) for v in gamma.ravel())
        assert ind._in_domain_exact(xr, yr)
        assert pt.x == pytest.approx(float(xr), abs=1e-12)
        assert pt.y == pytest.approx(float(yr), rel=1e-12)


# ---------------------------------------------------------------------------
# cocycle


def test_cocycle_identity_element():
    pts, _ = sample_domain(3, 7)
    for p in pts:
        res = cocycle(np.eye(2), p)
        assert res.alpha.tolist() == [[1, 0], [0, 1]]
        assert np.array_equal(res.g_dot_omega.matrix, p.matrix)
        assert res.residual == 0.0


def test_cocycle_rotations_have_trivial_integer_part():
    pts, _ = sample_domain(5, 8)
    for theta in (0.01, 0.5, math.pi / 2, 2.2, 3.14):
        res = cocycle(rotation(theta), pts[0])
        assert res.alpha.tolist() == [[1, 0], [0, 1]]
    # and the moved point is the rotated matrix itself
    res = cocycle(rotation(0.3), pts[1])
    assert np.abs(res.g_dot_omega.matrix - rotation(0.3) @ pts[1].matrix).max() <= 1e-12


def test_cocycle_identity_on_random_triples():
    gs = random_group_elements(40, 41, max_length=2.0)
    rng = np.random.default_rng(43)
    gs += [random_word(rng, int(rng.integers(1, 6))).astype(float) for _ in range(10)]
    pts, _ = sample_domain(25, 44)
    for i in range(300):
        g1 = gs[int(rng.integers(len(gs)))]
        g2 = gs[int(rng.integers(len(gs)))]
        om = pts[int(rng.integers(len(pts)))]
        r2 = cocycle(g2, om)
        r1 = cocycle(g1, r2.g_dot_omega)
        r12 = cocycle(g1 @ g2, om)
        prod = np.array(r1.alpha, dtype=object) @ np.array(r2.alpha, dtype=object)
        assert tuple(int(v) for v in r12.alpha.ravel()) == canonical(prod)


def test_cocycle_matches_reduction():
    gs = random_group_elements(30, 51, max_length=2.0)
    pts, _ = sample_domain(30, 52)
    for g, p in zip(gs, pts):
        res = cocycle(g, p)
        pt2, gamma2 = reduce_to_domain(g @ p.matrix)
        assert np.array_equal(res.alpha, gamma2)
        dev = min(
            np.abs(res.g_dot_omega.matrix - pt2.matrix).max(),
            np.abs(res.g_dot_omega.matrix + pt2.matrix).max(),
        )
        assert dev <= 1e-9


def test_cocycle_reconstruction_residual():
    gs = random_group_elements(50, 61, max_length=3.0)
    pts, _ = sample_domain(50, 62)
    for g, p in zip(gs, pts):
        res = cocycle(g, p)
        assert res.residual <= 1e-9
        lhs = g @ p.matrix
        rhs = res.g_dot_omega.matrix @ res.alpha.astype(float)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


def test_cocycle_result_validation():
    pts, _ = sample_domain(1, 3)
    good = cocycle(np.eye(2), pts[0])
    with pytest.raises(ValueError, match="integer"):
        CocycleResult(good.g_dot_omega, np.eye(2))
    with pytest.raises(ValueError, match="determinant"):
        CocycleResult(good.g_dot_omega, np.array([[1, 0], [0, -1]]))
    with pytest.raises(ValueError, match="residual"):
        CocycleResult(good.g_dot_omega, np.eye(2, dtype=np.int64), residual=1e-3)
    with pytest.raises(ValueError, match="determinant"):
        cocycle(np.diag([3.0, 1.0]), pts[0])


@settings(max_examples=60, deadline=None)
@given(
    word=st.lists(st.sampled_from([0, 1, 2]), min_size=0, max_size=8),
    idx=st.integers(min_value=0, max_value=9),
)
def test_reduction_roundtrip_property(word, idx):
    pts, _ = sample_domain(10, 2024)
    gamma0 = np.eye(2, dtype=np.int64)
    for w in word:
        gamma0 = gamma0 @ (S_MAT, T_MAT, T_INV)[w]
    pt, gamma = reduce_to_domain(pts[idx].matrix @ gamma0)
    assert tuple(int(v) for v in gamma.ravel()) == canonical(gamma0)


# ---------------------------------------------------------------------------
# the certified float path against the rational oracle


def fraction_alpha(g, omega):
    """alpha(g, omega) on the rational path alone, without the certificate.

    The exact point is reduced by ``_reduce_point``, whose result is checked
    in rational arithmetic.  Off the orbits of i and rho that result is
    unique; at those elliptic points the stabilizer is nontrivial, and alpha
    is the representative this path picks.
    """
    M = ind._frac_matmul(ind._frac_matrix(g), ind._frac_matrix(omega))
    gamma, _, _ = ind._reduce_point(*ind._point_of_inverse(M))
    return ind._canonical_sign(gamma)


def word_matrix(word):
    g = np.eye(2, dtype=np.int64)
    for w in word:
        g = g @ (S_MAT, T_MAT, T_INV)[w]
    return g


def adjugate(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def assert_paths_agree(g, omegas, public=True):
    """Batch and scalar alpha agree with the rational path bit for bit on
    every row; returns the batch's fallback count.

    The scalar alpha comes from ``cocycle``, or, with ``public=False``, from
    its integer-part core ``_split``: ``cocycle`` also validates the moved
    representative, whose determinant inherits the rounding error of a
    large float g, which can exceed the representative's own tolerance.
    """
    alphas, fallbacks = cocycle_alphas(g, omegas)
    assert 0 <= fallbacks <= len(omegas)
    g4 = tuple(np.asarray(g, dtype=float).ravel().tolist())
    for row, om in zip(alphas, omegas):
        want = fraction_alpha(g, om)
        assert tuple(int(v) for v in row.ravel()) == want
        if public:
            scalar = tuple(int(v) for v in cocycle(g, om).alpha.ravel())
        else:
            scalar = ind._split(g4, tuple(om.ravel().tolist()))[0]
        assert scalar == want
    return fallbacks


def exact_boundary_representatives():
    """Representatives with dyadic entries whose points lie exactly on the
    boundary of F: i, -1/2 + iy and 1/2 + iy for y = 1, 2, 4, 16, each also
    turned by a quarter rotation.  Products with integer words are exact."""
    base = [np.eye(2)]
    for x in (-0.5, 0.5):
        base += [np.array([[1.0, -x], [0.0, 1.0]]),
                 np.array([[0.5, -0.5 * x], [0.0, 2.0]]),
                 np.array([[0.25, -0.25 * x], [0.0, 4.0]]),
                 # omega^{-1} = [[x/2 + 1, x/2 - 1], [1/2, 1/2]] sends i to x + 2i
                 np.array([[0.5, 1.0 - 0.5 * x], [-0.5, 1.0 + 0.5 * x]])]
    quarter = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.array(base + [quarter @ b for b in base])


EXACT_BOUNDARY = exact_boundary_representatives()
WORDS = st.lists(st.lists(st.sampled_from([0, 1, 2]), max_size=30), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.integers(0, len(EXACT_BOUNDARY) - 1), min_size=1, max_size=5),
       words=WORDS)
def test_fast_paths_match_fraction_oracle_on_boundary_images(rows, words):
    stack = EXACT_BOUNDARY[rows]
    for om in stack:
        for word in words:
            w = word_matrix(word).astype(float)
            # (om w om^-1) om = om w exactly: its row reduces w^-1 . z0, the
            # image of the boundary point z0 of om, and so does om w alone
            assert_paths_agree(om @ w @ adjugate(om), stack)
            _, gamma = reduce_to_domain(om @ w)
            assert tuple(int(v) for v in gamma.ravel()) == fraction_alpha(om @ w, np.eye(2))


@st.composite
def boundary_points(draw):
    """A float point on the boundary of F (edges, unit arc, i, rho) with a
    random rotation, as a representative matrix."""
    kind = draw(st.sampled_from(["left", "right", "arc", "i", "rho", "rho-left"]))
    if kind in ("left", "right"):
        x = -0.5 if kind == "left" else 0.5
        y = draw(st.floats(min_value=math.sqrt(3.0) / 2.0, max_value=6.0))
    elif kind == "arc":
        phi = draw(st.floats(min_value=math.pi / 3.0, max_value=2.0 * math.pi / 3.0))
        x, y = math.cos(phi), math.sin(phi)
    elif kind == "i":
        x, y = 0.0, 1.0
    else:
        x, y = (0.5 if kind == "rho" else -0.5), math.sqrt(3.0) / 2.0
    theta = draw(st.floats(min_value=0.0, max_value=math.pi, exclude_max=True))
    return domain_matrices([x], [y], [theta])[0]


@settings(max_examples=60, deadline=None)
@given(omegas=st.lists(boundary_points(), min_size=1, max_size=5), words=WORDS)
def test_fast_paths_match_fraction_oracle_near_boundary(omegas, words):
    stack = np.array(omegas)
    # rotations fix i, so each row's point stays on the boundary
    assert_paths_agree(rotation(0.7), stack)
    assert_paths_agree(np.eye(2), stack)
    for om in omegas:
        for word in words:
            g = om @ word_matrix(word).astype(float) @ adjugate(om)
            assert_paths_agree(g, stack, public=False)


def test_boundary_points_fall_back_and_match_oracle():
    rho = domain_matrices([0.5], [math.sqrt(3.0) / 2.0], [0.0])
    stack = np.concatenate([EXACT_BOUNDARY, rho])
    # the points themselves lie on the boundary: every row is in the band
    assert assert_paths_agree(np.eye(2), stack) == len(stack)
    assert assert_paths_agree(S_MAT.astype(float), stack) == len(stack)
    # exact images of boundary points under words: the row of om is in the
    # band again
    rng = np.random.default_rng(90)
    for om in EXACT_BOUNDARY:
        for _ in range(3):
            w = random_word(rng, int(rng.integers(1, 12))).astype(float)
            assert assert_paths_agree(om @ w @ adjugate(om), stack) >= 1


def test_generic_points_take_the_float_path():
    pts, _ = sample_domain(400, 91)
    for g in random_group_elements(6, 92, max_length=3.0):
        alphas, fallbacks = cocycle_alphas(g, pts)
        assert fallbacks == 0
        for row, p in zip(alphas[:40], pts[:40]):
            assert tuple(int(v) for v in row.ravel()) == fraction_alpha(g, p.matrix)


def test_cocycle_alphas_accepts_arrays_and_points():
    x, y, theta, _, _ = sample_domain_arrays(50, 93)
    omegas = domain_matrices(x, y, theta)
    pts, _ = sample_domain(50, 93)
    assert all(np.array_equal(p.matrix, om) for p, om in zip(pts, omegas))
    g = random_group_elements(1, 94, max_length=2.0)[0]
    from_array, _ = cocycle_alphas(g, omegas)
    from_points, _ = cocycle_alphas(g, pts)
    assert from_array.dtype == np.int64 and from_array.shape == (50, 2, 2)
    assert np.array_equal(from_array, from_points)
    bad = omegas.copy()
    bad[7] = np.diag([2.0, 0.5])  # its point is i/4, inside the unit disc
    with pytest.raises(ValueError, match="outside the fundamental domain"):
        cocycle_alphas(g, bad)
    with pytest.raises(ValueError, match="determinant"):
        cocycle_alphas(g, np.array([np.diag([2.0, 1.0])]))
    with pytest.raises(ValueError, match="shape"):
        cocycle_alphas(g, np.eye(2))


def test_integer_parts_past_int64_are_python_ints():
    g = [[1.0, 2.0**63], [0.0, 1.0]]
    pt, gamma = reduce_to_domain(g)
    assert gamma.dtype == object
    assert gamma.tolist() == [[1, 2**63], [0, 1]]
    assert pt.point == pytest.approx(1j, abs=1e-12)
    res = cocycle(g, np.eye(2))
    assert res.alpha.tolist() == [[1, 2**63], [0, 1]] and res.residual == 0.0
    alphas, fallbacks = cocycle_alphas(g, [SiegelPoint(np.eye(2))])
    assert alphas.dtype == object and fallbacks == 1
    assert alphas[0].tolist() == [[1, 2**63], [0, 1]]
    with pytest.raises(ValueError, match="determinant"):
        CocycleResult(pt, np.array([[2**63, 0], [0, 1]], dtype=object))
    with pytest.raises(ValueError, match="integer"):
        CocycleResult(pt, np.array([[1.0, 0], [0, 1]], dtype=object))


# ---------------------------------------------------------------------------
# sampling


def test_sample_domain_basic():
    pts, weights = sample_domain(1, 0)
    assert len(pts) == 1 and isinstance(pts[0], SiegelPoint)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    pts, weights = sample_domain(500, 1)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    for p in pts[:50]:
        assert abs(p.x) <= 0.5 + 1e-10
        assert p.x**2 + p.y**2 >= 1.0 - 1e-10
    with pytest.raises(ValueError):
        sample_domain(0, 1)


def test_sample_domain_deterministic():
    a, wa = sample_domain(20, 77)
    b, wb = sample_domain(20, 77)
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a, b))
    assert np.array_equal(wa, wb)


def test_sample_domain_matches_arrays():
    x, y, theta, lengths, weights = sample_domain_arrays(25, 13)
    pts, w2 = sample_domain(25, 13)
    assert np.array_equal(weights, w2)
    for i, p in enumerate(pts):
        assert p.x == pytest.approx(x[i], abs=1e-12)
        assert p.y == pytest.approx(y[i], rel=1e-12)
        assert p.rotation == pytest.approx(theta[i], abs=1e-9)
        assert p.length == pytest.approx(lengths[i], abs=1e-10)


def test_two_seed_consistency_of_bounded_statistic():
    _, _, _, len1, w1 = sample_domain_arrays(20000, 1001)
    _, _, _, len2, w2 = sample_domain_arrays(20000, 2002)
    m1, s1 = ind.weighted_mean_stderr(np.exp(-len1), w1)
    m2, s2 = ind.weighted_mean_stderr(np.exp(-len2), w2)
    assert abs(m1 - m2) <= 3.0 * (s1 + s2)


def _exp_integral_oracle(s):
    """Quadrature of the normalized e^{s length} integral over the domain."""

    def f(yv, xv):
        v = (xv * xv + yv * yv + 1.0) / (2.0 * yv)
        return (v + math.sqrt(max(v * v - 1.0, 0.0))) ** (s / 2.0) / yv**2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = integrate.dblquad(
            f, -0.5, 0.5, lambda xv: math.sqrt(1.0 - xv * xv), np.inf,
            epsabs=1e-9, epsrel=1e-9,
        )
    return val * 3.0 / math.pi


def test_exp_integral_against_quadrature_oracle():
    _, _, _, lengths, weights = sample_domain_arrays(40000, 101)
    mean, stderr = domain_exp_integral(lengths, 0.5, weights)
    oracle = _exp_integral_oracle(0.5)
    assert abs(mean - oracle) <= 4.0 * stderr
    m2, s2 = domain_exp_integral(sample_domain_arrays(40000, 202)[3], 0.5)
    assert abs(mean - m2) <= 3.0 * (stderr + s2)


def test_exp_integral_blows_up_near_threshold():
    # the cusp integral behaves like int y^{s/2 - 2} dy: finite below s = 2,
    # blowing up as s approaches it
    vals = [_exp_integral_oracle(s) for s in (1.0, 1.5, 1.8)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] / vals[0] > 4.0
    mc = domain_exp_integral(sample_domain_arrays(5000, 7)[3], 1.8)[0]
    assert math.isfinite(mc)


def test_cusp_decay_fit():
    _, _, _, lengths, _ = sample_domain_arrays(40000, 11)
    fit = cusp_decay_fit(lengths)
    assert fit.rate > 0
    assert 1.6 <= fit.rate <= 2.4  # cusp-width oracle: true decay rate is 2
    assert 0.3 <= fit.amplitude <= 3.0
    assert fit.exceedances >= 20 and fit.sample_count == 40000
    # the fitted bound holds at every reported radius by construction
    for p, r in zip(fit.tail_probs, fit.radii):
        assert p <= fit.amplitude * math.exp(-fit.rate * r) + 1e-15
    fit2 = cusp_decay_fit(sample_domain_arrays(40000, 22)[3])
    assert abs(fit.rate - fit2.rate) <= 3.0 * (fit.rate_stderr + fit2.rate_stderr)
    keys = set(fit.to_json())
    assert {"amplitude", "rate", "rateStderr", "radii", "tailProbs"} <= keys


def test_cusp_decay_fit_validation():
    with pytest.raises(ValueError, match="samples"):
        cusp_decay_fit(np.ones(5))
    _, _, _, lengths, _ = sample_domain_arrays(1000, 3)
    with pytest.raises(ValueError, match="exceedances"):
        cusp_decay_fit(lengths, threshold_quantile=0.9999)
    with pytest.raises(ValueError, match="empty"):
        cusp_decay_fit(lengths, radii=[lengths.max() + 1.0])


def test_write_sample_log(tmp_path):
    x, y, theta, lengths, weights = sample_domain_arrays(10, 5)
    pts, _ = sample_domain(10, 5)
    path = tmp_path / "samples.csv"
    write_sample_log(path, 5, (x, y, theta, lengths), weights, preamble=["# schema=test/v1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=test/v1"
    assert lines[1].split(",") == ["seed", "omega_x", "omega_y", "rotation", "length", "weight"]
    rows = list(csv.reader(lines[2:]))
    assert len(rows) == 10
    assert all(r[0] == "5" for r in rows)
    assert [float(v) for v in rows[3][1:]] == [x[3], y[3], theta[3], lengths[3], weights[3]]
    assert float(rows[0][1]) == pytest.approx(pts[0].x, rel=1e-15)
    assert float(rows[0][4]) == pytest.approx(pts[0].length, rel=1e-15)


# ---------------------------------------------------------------------------
# cocycle growth statistics


def test_growth_check_identity_as_ratio_one():
    pts, weights = sample_domain(64, 15)
    stats = cocycle_growth_check([np.eye(2)], 0.2, pts, weights)
    assert stats.c_emp == pytest.approx(1.0, abs=1e-12)
    assert stats.kappa <= 0.0
    assert stats.g_count == 1 and stats.sample_count == 64


def test_growth_check_pointwise_and_uniform():
    gs = random_group_elements(30, 5, max_length=3.0)
    pts, weights = sample_domain(150, 13)
    stats = cocycle_growth_check(gs, 0.2, pts, weights, s0=1.0)
    # the classical domain is exactly length-minimal in its coset, so the
    # pointwise defect never exceeds zero (the generic bound's additive
    # constant vanishes here); float rounding is the only slack
    assert stats.kappa <= 1e-9
    assert stats.c_emp >= 1.0 - 1e-12
    assert stats.c_emp_stderr >= 0.0
    assert stats.exp_integral > 1.0
    keys = set(stats.to_json())
    assert {"sampleCount", "gCount", "s", "s0", "kappa", "cEmp", "expIntegral"} <= keys


def test_growth_check_rejects_bad_rates():
    pts, weights = sample_domain(20, 1)
    with pytest.raises(ValueError, match="admissible"):
        cocycle_growth_check([np.eye(2)], 0.6, pts, weights, s0=1.0)
    with pytest.raises(ValueError, match="positive"):
        cocycle_growth_check([np.eye(2)], -0.1, pts, weights)


def test_growth_check_reads_iterables_once():
    gs = random_group_elements(5, 3, max_length=2.0)
    pts, weights = sample_domain(32, 4)
    from_lists = cocycle_growth_check(gs, 0.2, pts, weights)
    from_iters = cocycle_growth_check(iter(gs), 0.2, (p for p in pts), weights)
    assert from_iters.g_count == 5 and from_iters.sample_count == 32
    assert from_iters == from_lists
    x, y, theta, _, _ = sample_domain_arrays(32, 4)
    assert cocycle_growth_check(gs, 0.2, domain_matrices(x, y, theta), weights) == from_lists
    assert from_lists.to_json()["exactFallbacks"] == from_lists.exact_fallbacks == 0


def test_growth_check_rejects_empty_inputs():
    pts, weights = sample_domain(20, 1)
    with pytest.raises(ValueError, match="no group elements"):
        cocycle_growth_check([], 0.2, pts, weights)
    with pytest.raises(ValueError, match="no group elements"):
        cocycle_growth_check(iter(()), 0.2, pts, weights)
    with pytest.raises(ValueError, match="empty domain sample"):
        cocycle_growth_check([np.eye(2)], 0.2, [])
    with pytest.raises(ValueError, match="empty domain sample"):
        cocycle_growth_check([np.eye(2)], 0.2, np.empty((0, 2, 2)))


def test_growth_check_enforces_minimum_samples():
    pts, weights = sample_domain(8, 1)
    with pytest.raises(ValueError, match="minimum"):
        cocycle_growth_check([np.eye(2)], 0.2, pts, weights)


# ---------------------------------------------------------------------------
# lattice measures


def test_lattice_measure_basics():
    m = LatticeMeasure({(1, 0, 0, 1): 0.25, (-1, 0, 0, -1): 0.25, (1, 1, 0, 1): 0.5})
    assert len(m) == 2  # the center is folded
    assert m[(1, 0, 0, 1)] == pytest.approx(0.5)
    assert m[(-1, -1, 0, -1)] == pytest.approx(0.5)
    assert m.mass == pytest.approx(1.0, abs=1e-12)
    assert m.is_probability
    assert m.max_length == pytest.approx(element_length(np.array([[1.0, 1.0], [0.0, 1.0]])))
    with pytest.raises(ValueError, match="determinant-one"):
        LatticeMeasure({(1, 0, 0, 2): 1.0})
    pm = LatticeMeasure.point_mass(np.eye(2, dtype=int))
    assert dict(pm.items()) == {(1, 0, 0, 1): 1.0}


def test_total_variation():
    a = LatticeMeasure({(1, 0, 0, 1): 0.7, (1, 1, 0, 1): 0.3})
    b = LatticeMeasure({(1, 0, 0, 1): 0.4, (0, -1, 1, 0): 0.6})
    assert total_variation(a, b) == pytest.approx(0.3 + 0.3 + 0.6, abs=1e-12)
    assert total_variation(a, a) == 0.0


def test_pushforward_of_point_mass_at_identity():
    pts, weights = sample_domain(64, 9)
    m0 = pushforward_mn0([(np.eye(2), 1.0)], 1.0, pts, weights)
    assert dict(m0.items()) == {(1, 0, 0, 1): pytest.approx(1.0, abs=1e-12)}


def test_pushforward_mass_and_support():
    gs = random_group_elements(50, 3, max_length=1.5)
    pts, weights = sample_domain(80, 9)
    m0 = pushforward_mn0([(g, 1.0 / 50) for g in gs], 1.5, pts, weights)
    assert abs(m0.mass - 1.0) <= 1e-12
    assert m0.is_probability
    # support lengths obey the growth bound (kappa <= 0 for this domain)
    max_omega = max(p.length for p in pts)
    assert m0.max_length <= 2.0 * (1.5 + max_omega) + 1e-9


def test_pushforward_validation():
    pts, weights = sample_domain(8, 2)
    with pytest.raises(ValueError, match="empty"):
        pushforward_mn0([], 1.0, pts, weights)
    with pytest.raises(ValueError, match="sum to one"):
        pushforward_mn0([(np.eye(2), 0.5)], 1.0, pts, weights)
    with pytest.raises(ValueError, match="nonnegative"):
        pushforward_mn0([(np.eye(2), 2.0), (rotation(0.3), -1.0)], 1.0, pts, weights)
    big = np.diag([math.e**2, math.e**-2])
    with pytest.raises(ValueError, match="length ball"):
        pushforward_mn0([(big, 1.0)], 1.0, pts, weights)


def test_pushforward_tail_lemma():
    # integral of e^{s length} beyond radius 5n decays like e^{(-3 s0/2 + 5s) n}
    s, s0 = 0.1, 1.0
    pts, weights = sample_domain(400, 71)
    lengths = np.array([p.length for p in pts])
    c_const = math.exp(s0 / 2.0) * domain_exp_integral(lengths, s0, weights)[0]
    for n in (1.0, 2.0):
        gs = random_group_elements(60, int(10 + n), max_length=n)
        m0 = pushforward_mn0([(g, 1.0 / 60) for g in gs], n, pts, weights)
        lhs = exp_tail_mass(m0, s, 5.0 * n)
        assert lhs <= c_const * math.exp((-1.5 * s0 + 5.0 * s) * n)


def test_truncate_tail_examples():
    pts, weights = sample_domain(64, 9)
    gs = random_group_elements(40, 4, max_length=1.5)
    m0 = pushforward_mn0([(g, 1.0 / 40) for g in gs], 1.5, pts, weights)
    # already inside a huge ball: unchanged
    same, tail0 = truncate_tail(m0, 50.0)
    assert tail0 == 0.0
    assert total_variation(same, m0) <= 1e-12
    # genuine truncation: TV distance is exactly twice the removed mass
    trunc, tail = truncate_tail(m0, 2.0)
    assert 0.0 < tail < 1.0
    assert trunc.is_probability
    assert trunc.max_length <= 2.0 + 1e-9
    assert total_variation(trunc, m0) == pytest.approx(2.0 * tail, abs=1e-12)


def test_truncate_tail_two_atoms():
    m = LatticeMeasure({(1, 0, 0, 1): 0.5, (8, 3, 5, 2): 0.5})
    trunc, tail = truncate_tail(m, 1.0)
    assert dict(trunc.items()) == {(1, 0, 0, 1): pytest.approx(1.0)}
    assert tail == pytest.approx(0.5, abs=1e-12)


def test_truncate_tail_empty_ball_rejected():
    m = LatticeMeasure({(8, 3, 5, 2): 1.0})
    with pytest.raises(ValueError, match="carries no mass"):
        truncate_tail(m, 1.0)


def test_exp_tail_mass():
    m = LatticeMeasure({(1, 0, 0, 1): 0.5, (8, 3, 5, 2): 0.5})
    ell = element_length(np.array([[8.0, 3.0], [5.0, 2.0]]))
    assert exp_tail_mass(m, 0.3, 1.0) == pytest.approx(0.5 * math.exp(0.3 * ell), rel=1e-12)
    assert exp_tail_mass(m, 0.3, ell + 1.0) == 0.0
    assert exp_tail_mass(m, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
