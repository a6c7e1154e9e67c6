"""Tests for fundamental-domain reduction, the cocycle, and measure transport."""

import csv
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import svdvals

from gaplab import induction as ind
from gaplab.induction import (
    CocycleResult,
    LatticeMeasure,
    SiegelPoint,
    cocycle,
    cocycle_growth_check,
    cusp_decay_fit,
    domain_exp_integral,
    domain_matrices,
    element_length,
    pushforward_mn0,
    random_group_elements,
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


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def reduce_to_domain(g):
    """Split g = omega * gamma: (SiegelPoint of omega, gamma), from the
    pieces ``cocycle`` splits g omega with, at omega = I."""
    _, g4 = ind._check_unimodular(g)
    gamma, rep, _ = ind._split(g4, _IDENTITY)
    return (SiegelPoint._of_entries(rep, (g4, _IDENTITY)),
            ind._int_matrix(gamma))


def cocycle_alphas(g, omegas):
    """(alphas, exact fallbacks) of one g over a domain sample (an array of
    representatives or a sequence of SiegelPoints): the one-g case of the
    stacked pass ``_alphas``."""
    _, g4 = ind._check_unimodular(g)
    omegas, _, _ = ind._representatives(omegas)
    alphas, fallbacks = ind._alphas([g4], omegas)
    return alphas[0], fallbacks[0]


def point_rotation(pt):
    """The stabilizer angle theta in [0, pi) with omega^{-1} = p(z) k(theta)
    for the representative omega of a SiegelPoint."""
    m = pt.matrix
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    sq = math.sqrt(pt.y)
    p_inv = np.array([[1.0 / sq, -pt.x / sq], [0.0, sq]])
    k = p_inv @ inv
    return math.atan2(k[1, 0], k[0, 0]) % math.pi


def _is_probability(measure):
    """Nonnegative weights (to 1e-12) of total mass one (to 1e-9)."""
    return (min(w for _, w in measure.items()) >= -1e-12
            and abs(measure.mass - 1.0) <= 1e-9)


def _fractions(mat):
    """The exact rational entries of a 2x2 float matrix, row-major."""
    return tuple(map(Fraction, np.asarray(mat, dtype=float).ravel().tolist()))


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
    assert point_rotation(pt) == pytest.approx(theta, abs=1e-9)
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
    assert complex(pt.x, pt.y) == pytest.approx(0.3 + 1.0j, abs=1e-12)
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


def exact_reduction(x, y):
    """The rational oracle: the continued-fraction loop on Fractions from the
    identity, then the right unit-arc folded onto the left."""
    gamma, x, y = ind._reduce(x, y, Fraction(1, 2), 10000)
    if x * x + y * y == 1 and x > 0:
        a, b, c, d = gamma
        gamma, x = (-c, -d, a, b), -x
    return gamma, x, y


def in_domain(x, y):
    """Canonical (half-open) membership of a rational point: |x| <= 1/2 with
    the right edge excluded, |z| >= 1 with the right arc excluded."""
    if y <= 0:
        return False
    norm = x * x + y * y
    if norm > 1:
        return -Fraction(1, 2) <= x < Fraction(1, 2)
    return norm == 1 and -Fraction(1, 2) <= x <= 0


def test_exact_reduction_boundary_tiebreaks():
    for reduce in (ind._reduce_point, exact_reduction):
        # Re z = 1/2 exactly folds to the left edge
        gamma, x, y = reduce(Fraction(1, 2), Fraction(2))
        assert gamma == (1, -1, 0, 1)
        assert (x, y) == (Fraction(-1, 2), Fraction(2))
        # right unit-arc folds to the left arc: z = 5/13 + 12i/13
        gamma, x, y = reduce(Fraction(5, 13), Fraction(12, 13))
        assert x == Fraction(-5, 13) and y == Fraction(12, 13)
        assert x * x + y * y == 1
        # a unit-arc point outside |x| <= 1/2 reduces through the corner chart
        gamma, x, y = reduce(Fraction(3, 5), Fraction(4, 5))
        assert (x, y) == (Fraction(-1, 2), Fraction(1))
        assert in_domain(x, y)
        # the corner 1/2 + i sqrt(3)/2 is rational only in x; use the
        # half-integer shift on a point just inside the arc instead: i stays
        # put
        gamma, x, y = reduce(Fraction(0), Fraction(1))
        assert gamma == (1, 0, 0, 1) and (x, y) == (0, 1)


def test_exact_reduction_matches_public_api():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_group_elements(1, rng.integers(1 << 30), max_length=2.5)[0]
        pt, gamma = reduce_to_domain(g)
        x, y = ind._point_of_inverse(_fractions(g))
        for reduce in (ind._reduce_point, exact_reduction):
            exact_gamma, xr, yr = reduce(x, y)
            assert canonical(exact_gamma) == tuple(int(v) for v in gamma.ravel())
            assert in_domain(xr, yr)
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
    # omega given as a matrix is checked as a SiegelPoint would be
    with pytest.raises(ValueError, match="determinant"):
        cocycle(np.eye(2), np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="outside the fundamental domain"):
        cocycle(np.eye(2), np.diag([2.0, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        cocycle(np.eye(2), np.array([[1.0, math.inf], [0.0, 1.0]]))


def _object_matrix(entries):
    out = np.empty((2, 2), dtype=object)
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = entries
    return out


_AFTER_TOL = math.nextafter(1e-9, 1.0)


@pytest.mark.parametrize("alpha,residual,refusal", [
    (np.eye(2, dtype=np.int64), 0.0, None),
    (np.array([[1, 2], [0, 1]], dtype=np.int32), 1e-9, None),
    (np.array([[1, 0], [5, 1]], dtype=np.uint8), -1.0, None),
    ([[2, 3], [1, 2]], 0.0, None),
    (_object_matrix([1, 2**63, 0, 1]), 0.0, None),
    (_object_matrix([True, False, False, True]), 0.0, None),
    (_object_matrix([True, 7, False, True]), 0.0, None),
    (np.eye(2), 0.0, "integer"),
    (np.eye(2, dtype=bool), 0.0, "integer"),
    (_object_matrix([1.0, 0, 0, 1]), 0.0, "integer"),
    (_object_matrix([np.int64(1), 0, 0, 1]), 0.0, "integer"),
    (_object_matrix([1, 0, 0, np.int64(1)]), 0.0, "integer"),
    (_object_matrix([1, 0, 0, Fraction(1)]), 0.0, "integer"),
    (np.eye(3, dtype=np.int64), 0.0, "integer"),
    (np.array([1, 0, 0, 1]), 0.0, "integer"),
    (np.array([[1, 0, 0, 1]]), 0.0, "integer"),
    (np.eye(2, dtype=np.int64)[:, :, None], 0.0, "integer"),
    (np.array([1, 0, 0, 1], dtype=object), 0.0, "integer"),
    (np.int64(1), 0.0, "integer"),
    (np.array([[1, 0], [0, -1]]), 0.0, "determinant"),
    (np.array([[2, 0], [0, 1]], dtype=np.uint64), 0.0, "determinant"),
    (_object_matrix([2**63, 0, 0, 1]), 0.0, "determinant"),
    (_object_matrix([True, True, True, True]), 0.0, "determinant"),
    (np.eye(2, dtype=np.int64), 1e-3, "residual"),
    (np.eye(2, dtype=np.int64), _AFTER_TOL, "residual"),
    (np.eye(2, dtype=np.int64), math.inf, "residual"),
    (np.eye(2, dtype=np.int64), math.nan, "residual"),
    (np.eye(2), math.nan, "integer"),
    (np.array([[1, 0], [0, -1]]), math.nan, "determinant"),
])
def test_cocycle_result_accepts_and_refuses(alpha, residual, refusal):
    point = SiegelPoint(np.eye(2))
    if refusal is None:
        result = CocycleResult(point, alpha, residual)
        assert result.alpha is alpha and result.residual is residual
    else:
        with pytest.raises(ValueError, match=refusal):
            CocycleResult(point, alpha, residual)


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
    M = ind._matmul4(_fractions(g), _fractions(omega))
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


# representatives for the stacked pass: 30 generic points, then the exact
# boundary points and rho, whose rows the identity, S and rotations send to
# the exact path
ALPHA_POOL = np.concatenate([domain_matrices(*sample_domain_arrays(30, 95)[:3]),
                             EXACT_BOUNDARY,
                             domain_matrices([0.5], [math.sqrt(3.0) / 2.0], [0.0])])
GROUP_ELEMENTS = st.one_of(
    st.tuples(st.just("rotation"), st.floats(0.0, 2.0 * math.pi)),
    st.tuples(st.just("word"), st.lists(st.sampled_from([0, 1, 2]), max_size=12)),
    st.tuples(st.just("random"), st.integers(0, 2 ** 16)),
)


def group_element(kind, arg):
    if kind == "rotation":
        return rotation(arg)
    if kind == "word":
        return word_matrix(arg).astype(float)
    return random_group_elements(1, arg, max_length=3.0)[0]


def growth_check_per_g(g_samples, s, omegas, s0):
    """The growth statistics from one ``cocycle_alphas`` call per g: the
    loop that the stacked pass of ``cocycle_growth_check`` replaced."""
    _, x, y, weights = ind._weighted_sample(omegas)
    omega_lengths = ind._point_lengths(x, y)
    kappa = c_emp = -math.inf
    c_emp_stderr, fallbacks, nontrivial = 0.0, 0, 0
    for g in g_samples:
        lg = element_length(g)
        alphas, fell_back = cocycle_alphas(g, omegas)
        fallbacks += fell_back
        nontrivial += int(np.any(alphas.reshape(-1, 4) != (1, 0, 0, 1), axis=1).sum())
        alpha_lengths = element_length(alphas)
        kappa = max(kappa, float(np.max(alpha_lengths - 2.0 * lg - 2.0 * omega_lengths)))
        mean, stderr = ind.weighted_mean_stderr(np.exp(s * alpha_lengths), weights)
        if mean / math.exp(2.0 * s * lg) > c_emp:
            c_emp = mean / math.exp(2.0 * s * lg)
            c_emp_stderr = stderr / math.exp(2.0 * s * lg)
    exp_integral, exp_stderr = domain_exp_integral(omega_lengths, s0, weights)
    return ind.DomainStats(len(omegas), len(g_samples), float(s), float(s0), kappa,
                           c_emp, c_emp_stderr, exp_integral, exp_stderr,
                           fallbacks, nontrivial)


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(GROUP_ELEMENTS, min_size=1, max_size=5),
       rows=st.lists(st.integers(0, len(ALPHA_POOL) - 1), min_size=1, max_size=50))
@example(kinds=[("word", []), ("word", [0]), ("rotation", 0.9)],
         rows=list(range(30, len(ALPHA_POOL)))).via("every row falls back")
def test_stacked_alphas_match_cocycle_row_by_row(kinds, rows):
    gs = [group_element(*kind) for kind in kinds]
    omegas = ALPHA_POOL[rows]
    stacked, fallbacks = ind._alphas([ind._check_unimodular(g)[1] for g in gs], omegas)
    assert stacked.shape == (len(gs), len(rows), 2, 2) and len(fallbacks) == len(gs)
    for g, block, fell_back in zip(gs, stacked, fallbacks):
        single, count = cocycle_alphas(g, omegas)
        assert fell_back == count
        assert block.tolist() == single.tolist()
        for row, om in zip(block, omegas):
            assert row.tolist() == cocycle(g, om).alpha.tolist()
    if rows == list(range(30, len(ALPHA_POOL))):
        assert fallbacks == [len(rows)] * len(gs)


def test_stacked_pass_does_not_depend_on_the_row_budget(monkeypatch):
    # 42 g over 219 representatives, some on the boundary: at a budget of 97
    # rows the grid spans 95 blocks, none aligned with a g
    x, y, theta, _, _ = sample_domain_arrays(200, 96)
    omegas = np.concatenate([domain_matrices(x, y, theta), ALPHA_POOL[30:]])
    gs = random_group_elements(40, 97, max_length=2.0) + [np.eye(2), rotation(0.4)]
    whole = cocycle_growth_check(gs, 0.2, omegas, s0=1.0)
    assert whole == growth_check_per_g(gs, 0.2, omegas, 1.0)
    assert whole.exact_fallbacks >= 2 * (len(ALPHA_POOL) - 30)
    pushed = pushforward_mn0([(g, 1.0 / 8) for g in gs[:8]], 2.0 + 1e-9, omegas)
    monkeypatch.setattr(ind, "_ALPHA_ROW_BUDGET", 97)
    assert cocycle_growth_check(gs, 0.2, omegas, s0=1.0) == whole
    chunked, fell_back = pushforward_mn0([(g, 1.0 / 8) for g in gs[:8]], 2.0 + 1e-9, omegas)
    assert fell_back == pushed[1]
    assert list(chunked.items()) == list(pushed[0].items())


def test_stacked_pass_promotes_past_int64_as_each_g_alone():
    # one g whose integer parts pass 2^62 makes the whole stack object
    # dtype; every block keeps the values, and the statistics the bits, of
    # its own cocycle_alphas call (int64 for the other g)
    big = np.array([[1.0, 2.0 ** 63], [0.0, 1.0]])
    gs = random_group_elements(2, 98, max_length=2.0)
    gs.insert(1, big)
    x, y, theta, _, _ = sample_domain_arrays(24, 99)
    omegas = np.concatenate([np.eye(2)[None], domain_matrices(x, y, theta)])
    stacked, fallbacks = ind._alphas([ind._check_unimodular(g)[1] for g in gs], omegas)
    assert stacked.dtype == object and fallbacks[1] == len(omegas)
    assert stacked[1, 0].tolist() == [[1, 2 ** 63], [0, 1]]
    for g, block, fell_back in zip(gs, stacked, fallbacks):
        single, count = cocycle_alphas(g, omegas)
        assert fell_back == count and block.tolist() == single.tolist()
    assert cocycle_alphas(gs[0], omegas)[0].dtype == np.int64
    stats_ = cocycle_growth_check(gs, 0.1, omegas, s0=1.0)
    assert stats_ == growth_check_per_g(gs, 0.1, omegas, 1.0)
    assert stats_.exact_fallbacks == sum(fallbacks)


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
    assert complex(pt.x, pt.y) == pytest.approx(1j, abs=1e-12)
    res = cocycle(g, np.eye(2))
    assert res.alpha.tolist() == [[1, 2**63], [0, 1]] and res.residual == 0.0
    alphas, fallbacks = cocycle_alphas(g, [SiegelPoint(np.eye(2))])
    assert alphas.dtype == object and fallbacks == 1
    assert alphas[0].tolist() == [[1, 2**63], [0, 1]]
    with pytest.raises(ValueError, match="determinant"):
        CocycleResult(pt, np.array([[2**63, 0], [0, 1]], dtype=object))
    with pytest.raises(ValueError, match="integer"):
        CocycleResult(pt, np.array([[1.0, 0], [0, 1]], dtype=object))


def test_underflowing_points_take_the_exact_path():
    # x^2 + y^2 of the point 1e-200 i underflows to 0 in floats, so the float
    # loop declines and the exact loop inverts it
    g = np.diag([1e100, 1e-100])
    flip = [[0, 1], [-1, 0]]
    pt, gamma = reduce_to_domain(g)
    assert gamma.tolist() == flip
    assert complex(pt.x, pt.y) == pytest.approx(1e200j, rel=1e-12)
    assert cocycle(g, np.eye(2)).alpha.tolist() == flip
    alphas, fallbacks = cocycle_alphas(g, np.eye(2)[None])
    assert alphas.tolist() == [flip] and fallbacks == 1


@settings(max_examples=150, deadline=None)
@given(k=st.integers(-600, 600), shear=st.booleans())
@example(k=600, shear=False).via("the point 2^-1200 i underflows")
@example(k=-600, shear=False).via("the point 2^1200 i overflows")
@example(k=600, shear=True).via("an integer part past int64")
def test_extreme_scales_match_the_oracle_or_refuse(k, shear):
    g = np.array([[1.0, 2.0**k], [0.0, 1.0]]) if shear else np.diag([2.0**k, 2.0**-k])
    want, _, _ = exact_reduction(*ind._point_of_inverse(_fractions(g)))
    calls = (lambda: reduce_to_domain(g)[1],
             lambda: cocycle(g, np.eye(2)).alpha,
             lambda: cocycle_alphas(g, np.eye(2)[None])[0][0])
    for call in calls:
        try:
            gamma = call()
        except ValueError as exc:
            # only a point past the float range, 2^|2k| i with |k| >= 512
            assert str(exc).startswith(_PAST_FLOATS) and not shear
            assert abs(k) >= 512
            continue
        assert canonical(gamma) == canonical(want)


_PAST_FLOATS = "associated point lies too high in the cusp for floats"


@pytest.mark.parametrize("k", [512, 600, -512, -600])
def test_points_past_the_float_range_are_refused(k):
    # diag(2^k, 2^-k) reduces to the point 2^|2k| i, whose y passes the float
    # range; no first column is zero, and the batch path, which keeps no
    # point, still returns the oracle's gamma
    g = np.diag([2.0 ** k, 2.0 ** -k])
    want, _, _ = exact_reduction(*ind._point_of_inverse(_fractions(g)))
    for call in (reduce_to_domain, lambda g: cocycle(g, np.eye(2))):
        with pytest.raises(ValueError, match=f"^{_PAST_FLOATS}"):
            call(g)
    assert canonical(cocycle_alphas(g, np.eye(2)[None])[0][0]) == canonical(want)
    if abs(k) == 512:
        # one step in, y = 2^1022 is still a float
        inner = k - 1 if k > 0 else k + 1
        pt, _ = reduce_to_domain(np.diag([2.0 ** inner, 2.0 ** -inner]))
        assert pt.y == 2.0 ** 1022


@pytest.mark.parametrize("sign", [1, -1])
def test_lengths_stay_finite_up_to_the_float_range(sign):
    # diag(2^k, 2^-k) reduces to the point 2^(2|k|) i, whose length is
    # k log 2; y^2 would overflow from k = 256 on
    for k in range(512):
        g = np.diag([2.0 ** (sign * k), 2.0 ** (-sign * k)])
        pt, _ = reduce_to_domain(g)
        assert pt.length == pytest.approx(element_length(g), rel=1e-14,
                                          abs=1e-15), k
        assert ind._point_lengths(pt.x, pt.y) == pytest.approx(pt.length,
                                                              rel=1e-15)


def test_lengths_match_the_hyperbolic_distance_formula():
    # y/2 + (x^2 + 1)/(2y) is (x^2 + y^2 + 1)/(2y) to rounding; near i,
    # where acosh is steep, an ulp of the argument moves the length by ~1e-15
    x, y, _, lengths, _ = sample_domain_arrays(2000, 19)
    want = 0.5 * np.arccosh((x * x + y * y + 1.0) / (2.0 * y))
    np.testing.assert_allclose(lengths, want, rtol=1e-13, atol=1e-14)


def test_valid_elements_keep_their_representatives():
    # a float g of length up to 6 misses det 1 by up to ~1e-11, inside its
    # tolerance 1e-12 ||g||^2; the representative g w gamma^-1 has det
    # det g det w exactly and inherits that miss at a much smaller scale,
    # beyond its own tolerance for at least 14 of these
    gs = random_group_elements(2000, 77, max_length=6.0)
    (omega,), _ = sample_domain(1, 3)
    w = omega.matrix.ravel().tolist()
    inherited = 0
    for g in gs:
        g4 = g.ravel().tolist()
        for pt, factors in ((cocycle(g, omega).g_dot_omega, (g4, w)),
                            (reduce_to_domain(g)[0], (g4, _IDENTITY))):
            a, b, c, d = rep = pt.matrix.ravel().tolist()
            off = abs(a * d - b * c - 1.0)
            inherited += off > ind._det_tol(rep)
            assert off <= ind._inherited_det_tol(rep, *factors)
    assert inherited >= 14


def test_determinant_refusals_still_fire(monkeypatch):
    (omega,), _ = sample_domain(1, 3)
    # a g that is truly off is refused for its own determinant
    for call in (reduce_to_domain, lambda g: cocycle(g, omega)):
        with pytest.raises(ValueError,
                           match="^matrix must have determinant 1, got 1.000001$"):
            call(np.diag([1.0 + 1e-6, 1.0]))
    # a representative that misses more than its factors carry is refused
    rounded = ind._rounded_representative

    def off(g, w, gamma):
        a, b, c, d = rounded(g, w, gamma)
        return a * (1.0 + 1e-9), b, c, d

    monkeypatch.setattr(ind, "_rounded_representative", off)
    g = random_group_elements(1, 77, max_length=2.0)[0]
    for call in (reduce_to_domain, lambda g: cocycle(g, omega)):
        with pytest.raises(ValueError, match="^determinant must be 1, got"):
            call(g)


def test_cocycle_checks_det_by_the_rule_of_check_unimodular():
    # cocycle runs the determinant test on its own entries; it must refuse
    # exactly the g that _check_unimodular refuses, at either scale, for
    # det = 1 + off with off on both sides of the tolerance
    (omega,), _ = sample_domain(1, 3)
    for scale in (1.0, 1e3):
        tol = ind._det_tol((scale, scale, 0.0, 1.0 / scale))
        for off in (np.linspace(0.9, 1.1, 41) * tol).tolist() + [0.0, 2.0 * tol]:
            g = np.array([[scale * (1.0 + off), scale], [0.0, 1.0 / scale]])
            try:
                ind._check_unimodular(g)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    cocycle(g, omega)
            else:
                cocycle(g, omega)


# ---------------------------------------------------------------------------
# the moved representative against exact arithmetic


def dyadic(values):
    """Integers n_i and one k with values[i] == n_i / 2**k exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    k = max(den.bit_length() for _, den in ratios) - 1
    return [num << (k + 1 - den.bit_length()) for num, den in ratios], k


def dyadic_representative(g, w, gamma):
    """g w gamma^{-1} through one power of two per factor: g and w as
    integer matrices over 2^kg and 2^kw, their integer product with the
    adjugate of gamma, and one int / int per entry."""
    gi, kg = dyadic(g)
    wi, kw = dyadic(w)
    den = 1 << (kg + kw)
    return tuple(v / den for v in ind._matmul4(ind._matmul4(gi, wi), ind._adjugate4(gamma)))


def fraction_representative(g, w, gamma):
    """float(Fraction) of g w adj(gamma), entry by entry."""
    exact = (np.array(_fractions(g), dtype=object).reshape(2, 2)
             @ np.array(_fractions(w), dtype=object).reshape(2, 2)
             @ adjugate(np.array(gamma, dtype=object).reshape(2, 2)))
    return tuple(float(v) for v in exact.ravel())


def assert_representative_is_exact(g, omega):
    res = cocycle(g, omega)
    alpha = tuple(int(v) for v in res.alpha.ravel())
    g4, w4 = (tuple(np.asarray(m, dtype=float).ravel().tolist()) for m in (g, omega))
    want = fraction_representative(g4, w4, alpha)
    assert tuple(res.g_dot_omega.matrix.ravel().tolist()) == want
    assert (res.g_dot_omega.x, res.g_dot_omega.y) == ind._domain_points(*want)
    assert dyadic_representative(g4, w4, alpha) == want


@st.composite
def generic_pairs(draw):
    """A rotation-stretch-rotation g of length up to 2.5 and a
    representative drawn anywhere in F with y <= 1000.  Both determinants
    stay within the representative's tolerance of 1, as the moved one must."""
    t1, t2 = (draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(2))
    ell = draw(st.floats(0.0, 2.5))
    g = rotation(t1) @ np.diag([math.exp(ell), math.exp(-ell)]) @ rotation(t2)
    x = draw(st.floats(-0.5, 0.5))
    y = draw(st.floats(math.sqrt(1.0 - x * x), 1e3))
    theta = draw(st.floats(0.0, math.pi, exclude_max=True))
    return g, domain_matrices([x], [y], [theta])[0]


@st.composite
def boundary_pairs(draw):
    """An integer word or a rotation on a float boundary point or an exact
    dyadic one."""
    word = word_matrix(draw(st.lists(st.sampled_from([0, 1, 2]), max_size=12)))
    g = draw(st.sampled_from([word.astype(float), rotation(0.7), rotation(2.0)]))
    omega = draw(boundary_points() | st.sampled_from(list(EXACT_BOUNDARY)))
    return g, omega


@st.composite
def cusp_pairs(draw):
    """diag(2^k, 2^-k) times an integer word, with omega = I: the reduced
    point is 2^|2k| i, inside the float range for |k| <= 511."""
    k = draw(st.integers(-511, 511))
    word = word_matrix(draw(st.lists(st.sampled_from([0, 1, 2]), max_size=6)))
    return np.diag([2.0**k, 2.0**-k]) @ word.astype(float), np.eye(2)


@st.composite
def subnormal_pairs(draw):
    """Entries at or near the subnormal range: a shear by m 2^-1074 on a
    diagonal of 2^k (det exactly 1), and a representative whose off-diagonal
    entry is subnormal."""
    k = draw(st.integers(-511, 511))
    m = draw(st.integers(-2**20, 2**20))
    g = np.array([[2.0**k, m * 2.0**-1074], [0.0, 2.0**-k]])
    if draw(st.booleans()):
        g = g.T
    s = draw(st.integers(-2**10, 2**10)) * 2.0**-1074
    return g, np.array([[1.0, s], [0.0, 1.0]])


@settings(max_examples=300, deadline=None)
@given(pair=generic_pairs() | boundary_pairs() | cusp_pairs() | subnormal_pairs())
@example(pair=(np.diag([2.0**511, 2.0**-511]), np.eye(2)))
@example(pair=(np.diag([2.0**-511, 2.0**511]), np.eye(2)))
@example(pair=(np.array([[1.0, 2.0**-1074], [0.0, 1.0]]),
               np.array([[1.0, -(2.0**-1074)], [0.0, 1.0]])))
def test_moved_representative_is_the_rounded_exact_product(pair):
    assert_representative_is_exact(*pair)


_SCALES = (0, 30, -30, 200, -200, 500, -500, -1060, -1070)


@st.composite
def scaled_floats(draw, count):
    """count finite floats sharing a scale 2^e, e from _SCALES, each within a
    factor 16 of it; some are zero."""
    scale = draw(st.sampled_from(_SCALES))
    return [0.0 if draw(st.integers(0, 9)) == 0
            else draw(st.floats(-2.0, 2.0)) * 2.0 ** (scale + draw(st.integers(-3, 3)))
            for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(g=scaled_floats(4), w=scaled_floats(4),
       gamma=st.lists(st.integers(-2**25, 2**25) | st.integers(-9, 9),
                      min_size=4, max_size=4))
def test_rounded_representative_matches_both_oracles(g, w, gamma):
    try:
        want = fraction_representative(g, w, gamma)
    except OverflowError:
        with pytest.raises(OverflowError):
            ind._rounded_representative(g, w, gamma)
        return
    assert ind._rounded_representative(g, w, gamma) == want
    assert dyadic_representative(g, w, gamma) == want


def orbit_of_i_triples():
    """300 pairs (g1, g2) of S/T/T^-1 words of length 1-7 from Random(0):
    the composition checks of ROADMAP item 2, the cocycle at the orbit of i."""
    rng = random.Random(0)

    def word():
        g = np.eye(2, dtype=np.int64)
        for _ in range(rng.randint(1, 7)):
            g = g @ rng.choice((S_MAT, T_MAT, T_INV))
        return g

    return [(word(), word()) for _ in range(300)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2 (orbit of i)")
@pytest.mark.parametrize("omega", [np.eye(2), S_MAT.astype(float)], ids=["I", "S"])
def test_cocycle_identity_on_the_orbit_of_i(omega):
    # i is fixed by S, so a domain in the half-plane cannot choose between
    # gamma and S gamma there; 67 (omega = I) and 96 (omega = S) triples break
    broken = 0
    for g1, g2 in orbit_of_i_triples():
        r2 = cocycle(g2.astype(float), omega)
        r1 = cocycle(g1.astype(float), r2.g_dot_omega)
        r12 = cocycle((g1 @ g2).astype(float), omega)
        prod = np.array(r1.alpha, dtype=object) @ np.array(r2.alpha, dtype=object)
        broken += tuple(int(v) for v in r12.alpha.ravel()) != canonical(prod)
    assert broken == 0, f"{broken} of 300 triples break the composition rule"


# defect (b) of ROADMAP item 2: omega is the float point of the unit arc at
# ARC_X (rotation 0), g1 = T^-1 and g2 = T S, so g1 g2 = S.  A Random(0)
# search over 2000 triples of S/T/T^-1 words of length 1-6, with x uniform
# on [-1/2, 0], broke 6; this is one of them.
ARC_X = float.fromhex("-0x1.0d4592b09c0a3p-2")
ARC_TRIPLE = (T_INV, T_MAT @ S_MAT,
              domain_matrices([ARC_X], [math.sqrt(1.0 - ARC_X * ARC_X)], [0.0])[0])


def test_exact_chain_keeps_the_composition_rule_near_the_arc():
    g1, g2, omega = ARC_TRIPLE
    r2 = cocycle(g2.astype(float), omega)
    alpha2 = tuple(int(v) for v in r2.alpha.ravel())
    # the exact point of g1 (g2 omega alpha2^-1), reduced on the rational path
    exact = ind._matmul4(ind._matmul4(_fractions(g1 @ g2), _fractions(omega)),
                         ind._adjugate4(alpha2))
    alpha1, _, _ = ind._reduce_point(*ind._point_of_inverse(exact))
    r12 = cocycle((g1 @ g2).astype(float), omega)
    assert canonical(r12.alpha) == ind._canonical_sign(ind._matmul4(alpha1, alpha2))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2 (within one rounding of the unit arc)")
def test_cocycle_identity_through_a_rounded_point_near_the_arc():
    # g2.omega rounded once per entry puts g1's point on the other side of
    # the unit arc than the exact chain does: alpha1 alpha2 = I, alpha12 = S
    g1, g2, omega = ARC_TRIPLE
    r2 = cocycle(g2.astype(float), omega)
    r1 = cocycle(g1.astype(float), r2.g_dot_omega)
    r12 = cocycle((g1 @ g2).astype(float), omega)
    prod = np.array(r1.alpha, dtype=object) @ np.array(r2.alpha, dtype=object)
    assert canonical(r12.alpha) == canonical(prod)


def bits(result):
    """A cocycle result down to its bits: alpha with its dtype, the moved
    matrix, its point and the residual."""
    point = result.g_dot_omega
    return (result.alpha.dtype.str, result.alpha.tolist(), point.matrix.tobytes(),
            point.x.hex(), point.y.hex(), result.residual.hex())


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=6),
                      min_size=1, max_size=4),
       idx=st.integers(0, 9))
def test_cocycle_on_a_point_equals_cocycle_on_its_matrix(words, idx):
    # the first point is a view of the sample's array; each later one is a
    # moved point that holds its entries and builds its matrix on first read
    pts, _ = sample_domain(10, 31)
    point = pts[idx]
    for word in words:
        g = word_matrix(word).astype(float)
        result = cocycle(g, point)
        assert bits(result) == bits(cocycle(g, np.array(point.matrix)))
        point = result.g_dot_omega


def test_lean_results_own_their_arrays():
    pts, _ = sample_domain(3, 5)
    g = (T_MAT @ S_MAT).astype(float)
    for p in pts:
        assert p.matrix.base is not None    # a view of the sample's array
        result = cocycle(g, p)
        # alpha is one owning array: a view would keep a base array alive
        assert result.alpha.base is None
        moved = result.g_dot_omega
        matrix = moved.matrix
        assert matrix is moved.matrix
        assert matrix.base is None and not matrix.flags.writeable
        assert matrix.ravel().tolist() == list(moved._row_major())
    for point in (SiegelPoint(pts[0].matrix), reduce_to_domain(g)[0]):
        assert point.matrix.base is None and not point.matrix.flags.writeable
        assert point.matrix.tobytes() == np.array(point._row_major()).tobytes()


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


def test_sample_domain_arrays_marginals_pass_kolmogorov_smirnov():
    # exact inversion sampling: x has CDF (arcsin x + pi/6) / (pi/3) on
    # [-1/2, 1/2], u = sqrt(1 - x^2) / y is uniform on (0, 1] given x, and
    # theta is uniform on [0, pi).  The seeds and the threshold p > 1e-3
    # were fixed before the first run.  The arcsine law is close to the
    # uniform one on [-1/2, 1/2] (the CDFs differ by at most ~0.009), and
    # 2e5 samples resolve that gap: a uniform-x sampler fails.
    for seed in (2601, 2602):
        x, y, theta, _, _ = sample_domain_arrays(200000, seed)
        marginals = (
            (x, lambda v: (np.arcsin(v) + math.pi / 6.0) / (math.pi / 3.0)),
            (np.sqrt(1.0 - x * x) / y, stats.uniform(0.0, 1.0).cdf),
            (theta, stats.uniform(0.0, math.pi).cdf),
        )
        for values, cdf in marginals:
            assert stats.kstest(values, cdf).pvalue > 1e-3


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
        assert point_rotation(p) == pytest.approx(theta[i], abs=1e-9)
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
    _, _, _, lengths2, weights2 = sample_domain_arrays(40000, 202)
    m2, s2 = domain_exp_integral(lengths2, 0.5, weights2)
    assert abs(mean - m2) <= 3.0 * (stderr + s2)


def test_exp_integral_blows_up_near_threshold():
    # the cusp integral behaves like int y^{s/2 - 2} dy: finite below s = 2,
    # blowing up as s approaches it
    vals = [_exp_integral_oracle(s) for s in (1.0, 1.5, 1.8)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] / vals[0] > 4.0
    _, _, _, lengths, weights = sample_domain_arrays(5000, 7)
    mc = domain_exp_integral(lengths, 1.8, weights)[0]
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


@pytest.mark.parametrize("seed", [2025, 2028])
def test_cusp_rate_is_two_within_three_stderr(seed):
    # the cusp {y > Y} of F has normalized measure 3 / (pi Y), and a point
    # high in the cusp has length (log y) / 2, so Pr[length > R] ~ (3/pi)
    # e^{-2R}: the exact rate is 2.  Criterion 11's two samples, 10^5 each.
    _, _, _, lengths, _ = sample_domain_arrays(10 ** 5, seed)
    fit = cusp_decay_fit(lengths)
    assert abs(fit.rate - 2.0) <= 3.0 * fit.rate_stderr


def test_cusp_decay_fit_validation():
    with pytest.raises(ValueError, match="samples"):
        cusp_decay_fit(np.ones(5))
    _, _, _, lengths, _ = sample_domain_arrays(1000, 3)
    with pytest.raises(ValueError, match="exceedances"):
        cusp_decay_fit(lengths, threshold_quantile=0.9999)
    with pytest.raises(ValueError, match="tail is empty"):
        cusp_decay_fit(np.linspace(0.0, 0.4, 2000))


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


def _sample_log_oracle(path, seed, columns, weights, preamble=()):
    """The csv.writer loop that write_sample_log replaced: one writerow
    call per row, each of its floats an f-string."""
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(str(line).rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(["seed", "omega_x", "omega_y", "rotation", "length", "weight"])
        rows = zip(*(np.asarray(v, dtype=float).tolist() for v in (*columns, weights)))
        for row in rows:
            writer.writerow([seed] + [f"{v:.17g}" for v in row])


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                1.7976931348623157e308, -1.7976931348623157e308]
# every edge value in every column
_EDGE_ROWS = [(_EDGE_FLOATS * 2)[i:i + 5] for i in range(len(_EDGE_FLOATS))]
_PREAMBLES = [(), ("# schema=cocycle-mc/v1", "# generated=2026-01-01T00:00:00+00:00"),
              ("# ends in a newline\n",)]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(),
                              min_size=5, max_size=5), max_size=12),
       seed=st.sampled_from([0, 2**62]) | st.integers(0, 2**63 - 1),
       preamble=st.sampled_from(_PREAMBLES))
@example(rows=_EDGE_ROWS, seed=0, preamble=_PREAMBLES[0])
@example(rows=_EDGE_ROWS, seed=2**62, preamble=_PREAMBLES[1])
@example(rows=_EDGE_ROWS, seed=2**62, preamble=_PREAMBLES[2])
@example(rows=[], seed=0, preamble=_PREAMBLES[1])
def test_write_sample_log_matches_csv_writer_oracle(tmp_path_factory, rows, seed, preamble):
    # byte for byte: the preamble ends in \n, the header and rows in \r\n,
    # and every float, non-finite, signed zero or subnormal, is .17g
    columns = np.array(rows, dtype=float).reshape(-1, 5).T
    base = tmp_path_factory.mktemp("log")
    write_sample_log(base / "got.csv", seed, columns[:4], columns[4], preamble=preamble)
    _sample_log_oracle(base / "want.csv", seed, columns[:4], columns[4], preamble=preamble)
    got = (base / "got.csv").read_bytes()
    assert got == (base / "want.csv").read_bytes()
    assert got.count(b"\r\n") == len(rows) + 1


@pytest.mark.parametrize("block", [1, 7, 40])
def test_write_sample_log_blocks_join_seamlessly(tmp_path, monkeypatch, block):
    # 40 rows in blocks of 1, 7 (a short last block) and 40 (one block),
    # with two distinct weights that alternate across block edges
    monkeypatch.setattr(ind, "_LOG_BLOCK_ROWS", block)
    x, y, theta, lengths, weights = sample_domain_arrays(40, 9)
    weights = np.where(np.arange(40) % 3, weights, -0.0)
    columns = (x, y, theta, lengths)
    write_sample_log(tmp_path / "got.csv", 9, columns, weights, preamble=_PREAMBLES[1])
    _sample_log_oracle(tmp_path / "want.csv", 9, columns, weights, preamble=_PREAMBLES[1])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# cocycle growth statistics


def test_growth_check_identity_as_ratio_one():
    pts, _ = sample_domain(64, 15)
    stats = cocycle_growth_check([np.eye(2)], 0.2, pts)
    assert stats.c_emp == pytest.approx(1.0, abs=1e-12)
    assert stats.kappa <= 0.0
    assert stats.g_count == 1 and stats.sample_count == 64


def test_growth_check_pointwise_and_uniform():
    gs = random_group_elements(30, 5, max_length=3.0)
    pts, _ = sample_domain(150, 13)
    stats = cocycle_growth_check(gs, 0.2, pts, s0=1.0)
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
    pts, _ = sample_domain(20, 1)
    with pytest.raises(ValueError, match="admissible"):
        cocycle_growth_check([np.eye(2)], 0.6, pts, s0=1.0)
    with pytest.raises(ValueError, match="positive"):
        cocycle_growth_check([np.eye(2)], -0.1, pts)


def test_growth_check_reads_iterables_once():
    gs = random_group_elements(5, 3, max_length=2.0)
    pts, _ = sample_domain(32, 4)
    from_lists = cocycle_growth_check(gs, 0.2, pts)
    from_iters = cocycle_growth_check(iter(gs), 0.2, (p for p in pts))
    assert from_iters.g_count == 5 and from_iters.sample_count == 32
    assert from_iters == from_lists
    x, y, theta, _, _ = sample_domain_arrays(32, 4)
    assert cocycle_growth_check(gs, 0.2, domain_matrices(x, y, theta)) == from_lists
    assert from_lists.to_json()["exactFallbacks"] == from_lists.exact_fallbacks == 0


def test_growth_check_counts_nontrivial_cocycles():
    # nontrivial counts the (g, omega) pairs whose alpha is not the canonical
    # identity: none for rotations (they fix i), and as many as scalar
    # cocycle calls find for any g
    pts, _ = sample_domain(64, 9)
    rotations = [np.eye(2)] + random_group_elements(4, 2, max_length=0.0)
    trivial = cocycle_growth_check(rotations, 0.2, pts)
    assert trivial.nontrivial == 0 and trivial.to_json()["nontrivial"] == 0
    gs = random_group_elements(6, 3, max_length=2.0)
    stats = cocycle_growth_check(gs, 0.2, pts)
    want = sum(cocycle(g, p).alpha.ravel().tolist() != [1, 0, 0, 1]
               for g in gs for p in pts)
    assert stats.nontrivial == want > 0
    assert stats.to_json()["nontrivial"] == want


def test_growth_check_rejects_empty_inputs():
    pts, _ = sample_domain(20, 1)
    with pytest.raises(ValueError, match="no group elements"):
        cocycle_growth_check([], 0.2, pts)
    with pytest.raises(ValueError, match="no group elements"):
        cocycle_growth_check(iter(()), 0.2, pts)
    with pytest.raises(ValueError, match="empty domain sample"):
        cocycle_growth_check([np.eye(2)], 0.2, [])
    with pytest.raises(ValueError, match="empty domain sample"):
        cocycle_growth_check([np.eye(2)], 0.2, np.empty((0, 2, 2)))


def test_growth_check_enforces_minimum_samples():
    pts, _ = sample_domain(8, 1)
    with pytest.raises(ValueError, match="minimum"):
        cocycle_growth_check([np.eye(2)], 0.2, pts)


# ---------------------------------------------------------------------------
# lattice measures


def test_lattice_measure_basics():
    m = LatticeMeasure({(1, 0, 0, 1): 0.25, (-1, 0, 0, -1): 0.25, (1, 1, 0, 1): 0.5})
    assert len(m) == 2  # the center is folded
    assert dict(m.items()) == {(1, 0, 0, 1): pytest.approx(0.5),
                               (1, 1, 0, 1): pytest.approx(0.5)}
    assert m.mass == pytest.approx(1.0, abs=1e-12)
    assert _is_probability(m)
    assert m.lengths().max() == pytest.approx(
        element_length(np.array([[1.0, 1.0], [0.0, 1.0]])))
    with pytest.raises(ValueError, match="determinant-one"):
        LatticeMeasure({(1, 0, 0, 2): 1.0})
    # keys are sign-canonical: -I is I, and (-1, -1, 0, -1) is (1, 1, 0, 1)
    pm = LatticeMeasure({(-1, 0, 0, -1): 1.0})
    assert dict(pm.items()) == {(1, 0, 0, 1): 1.0}
    assert list(LatticeMeasure({(-1, -1, 0, -1): 1.0}).items()) == [
        ((1, 1, 0, 1), 1.0)]


def test_total_variation():
    a = LatticeMeasure({(1, 0, 0, 1): 0.7, (1, 1, 0, 1): 0.3})
    b = LatticeMeasure({(1, 0, 0, 1): 0.4, (0, -1, 1, 0): 0.6})
    assert total_variation(a, b) == pytest.approx(0.3 + 0.3 + 0.6, abs=1e-12)
    assert total_variation(a, a) == 0.0


def test_pushforward_of_point_mass_at_identity():
    pts, _ = sample_domain(64, 9)
    m0, _ = pushforward_mn0([(np.eye(2), 1.0)], 1.0, pts)
    assert dict(m0.items()) == {(1, 0, 0, 1): pytest.approx(1.0, abs=1e-12)}


def test_pushforward_mass_and_support():
    gs = random_group_elements(50, 3, max_length=1.5)
    pts, _ = sample_domain(80, 9)
    m0, _ = pushforward_mn0([(g, 1.0 / 50) for g in gs], 1.5, pts)
    assert abs(m0.mass - 1.0) <= 1e-12
    assert _is_probability(m0)
    # support lengths obey the growth bound (kappa <= 0 for this domain)
    max_omega = max(p.length for p in pts)
    assert m0.lengths().max() <= 2.0 * (1.5 + max_omega) + 1e-9


def test_pushforward_validation():
    pts, _ = sample_domain(8, 2)
    with pytest.raises(ValueError, match="empty"):
        pushforward_mn0([], 1.0, pts)
    with pytest.raises(ValueError, match="sum to one"):
        pushforward_mn0([(np.eye(2), 0.5)], 1.0, pts)
    with pytest.raises(ValueError, match="nonnegative"):
        pushforward_mn0([(np.eye(2), 2.0), (rotation(0.3), -1.0)], 1.0, pts)
    big = np.diag([math.e**2, math.e**-2])
    with pytest.raises(ValueError, match="length ball"):
        pushforward_mn0([(big, 1.0)], 1.0, pts)


# a paper quantity that no acceptance criterion states, kept with its tests
def exp_tail_mass(measure, s, radius):
    """Integral of e^{s length} over the complement of the radius ball."""
    total = 0.0
    for (_, weight), ell in zip(measure.items(), measure.lengths().tolist()):
        if ell >= radius - 1e-12:
            total += weight * math.exp(s * ell)
    return total


def test_pushforward_tail_lemma():
    # integral of e^{s length} beyond radius 5n decays like e^{(-3 s0/2 + 5s) n}
    s, s0 = 0.1, 1.0
    pts, weights = sample_domain(400, 71)
    lengths = np.array([p.length for p in pts])
    c_const = math.exp(s0 / 2.0) * domain_exp_integral(lengths, s0, weights)[0]
    for n in (1.0, 2.0):
        gs = random_group_elements(60, int(10 + n), max_length=n)
        m0, _ = pushforward_mn0([(g, 1.0 / 60) for g in gs], n, pts)
        lhs = exp_tail_mass(m0, s, 5.0 * n)
        assert lhs <= c_const * math.exp((-1.5 * s0 + 5.0 * s) * n)


def test_truncate_tail_examples():
    pts, _ = sample_domain(64, 9)
    gs = random_group_elements(40, 4, max_length=1.5)
    m0, _ = pushforward_mn0([(g, 1.0 / 40) for g in gs], 1.5, pts)
    # already inside a huge ball: unchanged
    same, tail0 = truncate_tail(m0, 50.0)
    assert tail0 == 0.0
    assert total_variation(same, m0) <= 1e-12
    # genuine truncation: TV distance is exactly twice the removed mass
    trunc, tail = truncate_tail(m0, 2.0)
    assert 0.0 < tail < 1.0
    assert _is_probability(trunc)
    assert trunc.lengths().max() <= 2.0 + 1e-9
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
    """Paper: the e^{s length} mass outside a ball, which the tail lemma
    bounds."""
    m = LatticeMeasure({(1, 0, 0, 1): 0.5, (8, 3, 5, 2): 0.5})
    ell = element_length(np.array([[8.0, 3.0], [5.0, 2.0]]))
    assert exp_tail_mass(m, 0.3, 1.0) == pytest.approx(0.5 * math.exp(0.3 * ell), rel=1e-12)
    assert exp_tail_mass(m, 0.3, ell + 1.0) == 0.0
    assert exp_tail_mass(m, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
