"""Group models, measure algebra, two-step families, and decay profiles."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import twostep
from gaplab.twostep import (_DECAY_FLOOR, FiniteGroupModel, FiniteMeasure,
                            LocalEstimate, TwoStepRep, _log_linear_fit,
                            _opnorms, _translate, apply_measure,
                            convolution_powers, convolve, cusp_measure_bound,
                            cyclic_model, left_regular_matrix,
                            local_estimate_check, sandwich_limit,
                            sandwich_twostep, sl3_f2_model,
                            spectral_gap_profile, symmetric_model,
                            verify_star_instance)


@pytest.fixture(scope="module")
def sl3():
    return sl3_f2_model()


@pytest.fixture(scope="module")
def oracle_models(sl3):
    """Z/3..Z/12, S3, S4 and SL3(F2): the models the oracles are run on."""
    return ([cyclic_model(m) for m in range(3, 13)]
            + [symmetric_model(3), symmetric_model(4), sl3])


def _inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


# ---------------------------------------------------------------------------
# reference implementations of the batched code paths


def _bfs_oracle(model, steps):
    """Set-based breadth-first search from the identity along right
    multiplication by `steps`; distance per element, -1 if unreached."""
    dist = {model.identity: 0}
    frontier = [model.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in steps:
                y = int(model.mult[x, g])
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return np.array([dist.get(g, -1) for g in range(model.order)])


def _associativity_oracle(mult):
    """Exhaustive associativity, O(order^3): (a b) c == a (b c) for every
    triple, one row a at a time."""
    m = np.asarray(mult)
    return all(np.array_equal(m[m[a], :], m[a][m]) for a in range(len(m)))


def _identity_inverse_oracle(mult):
    """The two-sided identity and each element's two-sided inverse, found
    element by element."""
    m = np.asarray(mult)
    idx = np.arange(len(m))
    (e,) = [e for e in idx
            if np.array_equal(m[e], idx) and np.array_equal(m[:, e], idx)]
    inverse = []
    for g in idx:
        (h,) = np.nonzero(m[g] == e)[0]
        assert m[h, g] == e
        inverse.append(h)
    return e, np.array(inverse)


def _z12_mutant():
    """Z/12 with row 3's entries at columns 1 and 2 swapped: it keeps its
    identity and inverses (columns 0 and 9 are untouched) and +-1 still
    generate it, but 3 * 1 = 5 breaks associativity."""
    mult = cyclic_model(12).mult.copy()
    mult[3, [1, 2]] = mult[3, [2, 1]]
    return mult


def _translate_oracle(m, g, gp):
    """delta_g * m * delta_g' as two general convolutions."""
    model = m.model
    return convolve(convolve(FiniteMeasure.point_mass(model, g), m),
                    FiniteMeasure.point_mass(model, gp)).weights


def _opnorms_oracle(stack):
    """Spectral norm of each matrix of a stack, one matrix at a time."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    return np.array([np.linalg.norm(a, 2)
                     for a in flat]).reshape(stack.shape[:-2])


def _regular_stack_oracle(model):
    n = model.order
    lam = np.zeros((n, n, n))
    for g in range(n):
        for x in range(n):
            lam[g, model.mult[g, x], x] = 1.0
    return lam


def _gap_profile_oracle(model, mu, horizon):
    """(values, rho) of a gap profile from the powers of T = lambda(mu) - P,
    formed one at a time, with one SVD each."""
    n = model.order
    T = left_regular_matrix(mu) - np.full((n, n), 1.0 / n)
    vals = []
    M = np.eye(n)
    for _ in range(horizon):
        M = M @ T
        vals.append(float(np.linalg.norm(M, 2)))
    fit = _log_linear_fit(np.arange(1, horizon + 1), vals)
    return vals, (math.exp(-fit.t) if fit is not None else None)


def _relation_residual_oracle(model, pi0, pi1):
    """max |pi1(x) pi0(y) - pi(x y)| over all pairs, one einsum per x."""
    pi = np.einsum("gij,jk->gik", pi1, pi0[model.identity])
    worst = 0.0
    for x in range(model.order):
        lhs = np.einsum("ij,gjk->gik", pi1[x], pi0)
        worst = max(worst, float(np.max(np.abs(lhs - pi[model.mult[x]]))))
    return worst


def _sl3_f2_oracle():
    """(mult, generator indices, labels) of SL3(F2) by one product per pair,
    elements numbered in breadth-first order from the identity."""
    eye = np.eye(3, dtype=np.uint8)
    gens_mats = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = eye.copy()
                m[i, j] = 1
                gens_mats.append(m)
    elems = [eye]
    index = {eye.tobytes(): 0}
    frontier = [eye]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens_mats:
                p = (g @ m) % 2
                key = p.tobytes()
                if key not in index:
                    index[key] = len(elems)
                    elems.append(p)
                    nxt.append(p)
        frontier = nxt
    n = len(elems)
    mult = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mult[a, b] = index[((elems[a] @ elems[b]) % 2).tobytes()]
    return mult, [index[g.tobytes()] for g in gens_mats], elems


# ---------------------------------------------------------------------------
# models


def test_cyclic_model_basics():
    z6 = cyclic_model(6)
    assert z6.order == 6
    assert z6.identity == 0
    assert list(z6.inverse) == [0, 5, 4, 3, 2, 1]
    # word length for {+-1} is the circle distance
    assert list(z6.lengths) == [0, 1, 2, 3, 2, 1]
    assert z6.check_axioms()


def test_symmetric_model_lengths_are_inversions():
    """Paper: word length on S_n (adjacent transpositions) = inversions."""
    # adjacent transpositions generate S_n with word length = inversion count
    s4 = symmetric_model(4)
    assert s4.order == 24
    for g, perm in enumerate(s4.labels):
        assert s4.word_length(g) == _inversions(perm)


def test_sl3_f2_model(sl3):
    assert sl3.order == 168
    assert len(sl3.generators) == 6
    assert sl3.check_axioms()
    inv = sl3.inverse
    assert all(sl3.lengths[g] == sl3.lengths[inv[g]] for g in range(168))


def test_sl3_f2_model_matches_pairwise_oracle(sl3):
    mult, gens, labels = _sl3_f2_oracle()
    assert np.array_equal(sl3.mult, mult)
    assert np.array_equal(sl3.generators, sorted(gens))
    assert len(sl3.labels) == len(labels)
    for got, want in zip(sl3.labels, labels):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_constructor_checks_associativity_like_the_oracle(sl3):
    # Light's test at construction agrees with the exhaustive triple loop,
    # and the array identity, inverses and BFS with their loops, on every
    # cyclic model of orders 3..64 and on the order-168 SL3(F2)
    for model in [cyclic_model(m) for m in range(3, 65)] + [sl3]:
        assert _associativity_oracle(model.mult)
        assert model.check_axioms()
        identity, inverse = _identity_inverse_oracle(model.mult)
        assert model.identity == identity
        assert np.array_equal(model.inverse, inverse)
        assert np.array_equal(model.lengths, _bfs_oracle(model, model.generators))


def test_non_associative_table_is_refused_at_every_order():
    mutant = _z12_mutant()
    assert not _associativity_oracle(mutant)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupModel("Z/12 mutant", mutant, [1, 11])
    # swapped entries in larger tables, past the order-64 relation cap too,
    # keep identity, inverses and reach, and fail associativity
    rng = np.random.default_rng(16)
    for m in (13, 40, 65, 100):
        model = cyclic_model(m)
        for _ in range(5):
            mult = model.mult.copy()
            row = int(rng.integers(1, m))
            free = [c for c in range(1, m) if c != model.inverse[row]]
            c1, c2 = rng.choice(free, size=2, replace=False)
            mult[row, [c1, c2]] = mult[row, [c2, c1]]
            assert not _associativity_oracle(mult)
            with pytest.raises(ValueError, match="not associative"):
                FiniteGroupModel("mutant", mult, model.generators)


def test_length_subadditive(sl3):
    rng = np.random.default_rng(0)
    for _ in range(500):
        g, h = rng.integers(0, 168, size=2)
        assert (sl3.lengths[sl3.mult[g, h]]
                <= sl3.lengths[g] + sl3.lengths[h])


def test_model_validation():
    with pytest.raises(ValueError, match="identity"):
        FiniteGroupModel("bad", np.zeros((2, 2), dtype=int), [0])
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroupModel("bad", [[0, 1], [1, 1]], [1])
    with pytest.raises(ValueError, match="symmetric"):
        z5 = cyclic_model(5)
        FiniteGroupModel("z5", z5.mult, [1])
    with pytest.raises(ValueError, match="generate"):
        s3 = symmetric_model(3)
        FiniteGroupModel("s3", s3.mult, [s3.generators[0]])


def test_regular_stack_is_permutations():
    s3 = symmetric_model(3)
    lam = s3.left_regular_stack()
    assert lam.shape == (6, 6, 6)
    assert np.array_equal(lam[s3.identity], np.eye(6))
    for g in range(6):
        assert np.array_equal(lam[g].sum(axis=0), np.ones(6))
        assert np.array_equal(lam[g] @ lam[g].T, np.eye(6))


def test_regular_stack_matches_loop(oracle_models):
    for model in oracle_models:
        assert np.array_equal(model.left_regular_stack(),
                              _regular_stack_oracle(model))


def test_reach_matches_set_bfs(oracle_models):
    # the generators give the word metric; the other step sets include
    # supports that do not generate (a single generator, a subgroup of Z/m,
    # the identity alone, nothing at all)
    rng = np.random.default_rng(11)
    for model in oracle_models:
        n = model.order
        step_sets = [model.generators, model.generators[:1], (),
                     (model.identity,), tuple(range(0, n, 2)),
                     tuple(rng.choice(n, size=2, replace=False))]
        for steps in step_sets:
            assert np.array_equal(model._reach(steps),
                                  _bfs_oracle(model, steps)), (model, steps)
        assert np.array_equal(model.lengths,
                              _bfs_oracle(model, model.generators))
    z6 = cyclic_model(6)
    assert list(z6._reach([2])) == [0, -1, 1, -1, 2, -1]


# ---------------------------------------------------------------------------
# measures and convolution


def test_measure_basics():
    z4 = cyclic_model(4)
    m = FiniteMeasure(z4, [0.5, 0.25, 0.25, 0.0])
    assert m.is_probability
    assert m.mass == 1.0
    assert m.support == [(0, 0.5), (1, 0.25), (2, 0.25)]
    assert m.max_word_length == 2
    assert not FiniteMeasure(z4, [2.0, 0, 0, 0]).is_probability
    with pytest.raises(ValueError):
        FiniteMeasure(z4, [1.0, 2.0])
    with pytest.raises(ValueError):
        FiniteMeasure(z4, [np.nan, 0, 0, 0])


def test_convolution_identity_and_haar():
    s3 = symmetric_model(3)
    m = FiniteMeasure(s3, np.random.default_rng(1).random(6))
    e = FiniteMeasure.point_mass(s3, s3.identity)
    assert np.allclose(convolve(e, m).weights, m.weights)
    assert np.allclose(convolve(m, e).weights, m.weights)

    z2 = cyclic_model(2)
    haar = FiniteMeasure.uniform(z2)
    assert np.allclose(convolve(haar, haar).weights, haar.weights)


def test_convolution_brute_force_oracle():
    s3 = symmetric_model(3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        w1, w2 = rng.standard_normal(6), rng.standard_normal(6)
        m1, m2 = FiniteMeasure(s3, w1), FiniteMeasure(s3, w2)
        brute = np.zeros(6)
        for a in range(6):
            for b in range(6):
                brute[s3.mult[a, b]] += w1[a] * w2[b]
        assert np.max(np.abs(convolve(m1, m2).weights - brute)) < 1e-12
        assert convolve(m1, m2).mass == pytest.approx(m1.mass * m2.mass)


def _convolve_add_at(m1, m2):
    """convolve through np.add.at, one product at a time in input order."""
    model = m1.model
    s1, s2 = np.nonzero(m1.weights)[0], np.nonzero(m2.weights)[0]
    out = np.zeros(model.order)
    np.add.at(out, model.mult[np.ix_(s1, s2)],
              np.outer(m1.weights[s1], m2.weights[s2]))
    return out


def test_convolution_is_the_add_at_accumulation(oracle_models):
    # bincount adds each bin's products in the order np.add.at does, so the
    # weights agree bit for bit: dense, sparse, signed and empty measures
    rng = np.random.default_rng(5)
    for model in oracle_models:
        n = model.order
        dense = rng.random(n)
        sparse = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
        signed = rng.standard_normal(n)
        point = np.eye(n)[rng.integers(n)]
        for w1 in (dense, sparse, signed, point):
            for w2 in (dense, sparse, signed, np.zeros(n)):
                m1, m2 = FiniteMeasure(model, w1), FiniteMeasure(model, w2)
                got = convolve(m1, m2).weights
                assert np.array_equal(got, _convolve_add_at(m1, m2)), model.name
                assert got.shape == (n,) and got.dtype == np.float64


def test_convolution_group_mismatch():
    with pytest.raises(ValueError, match="different groups"):
        convolve(FiniteMeasure.uniform(cyclic_model(3)),
                 FiniteMeasure.uniform(cyclic_model(4)))


def test_regular_matrix_is_multiplicative():
    s3 = symmetric_model(3)
    rng = np.random.default_rng(3)
    m1 = FiniteMeasure(s3, rng.random(6))
    m2 = FiniteMeasure(s3, rng.random(6))
    lhs = left_regular_matrix(convolve(m1, m2))
    rhs = left_regular_matrix(m1) @ left_regular_matrix(m2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(st.integers(2, 12), st.integers(0, 11), st.integers(0, 11))
@settings(max_examples=40)
def test_point_masses_convolve_like_the_group(m, a, b):
    model = cyclic_model(m)
    da, db = FiniteMeasure.point_mass(model, a % m), FiniteMeasure.point_mass(model, b % m)
    out = convolve(da, db)
    assert out.support == [(int(model.mult[a % m, b % m]), 1.0)]


def test_translate_matches_double_convolution(oracle_models):
    # every (g, g') pair, capped at the first 20 x 20 on the larger groups;
    # the weights are signed and have zeros, as Cauchy differences do
    rng = np.random.default_rng(12)
    for model in oracle_models:
        n = model.order
        w = rng.standard_normal(n)
        w[rng.random(n) < 0.3] = 0.0
        m = FiniteMeasure(model, w)
        for g in range(min(n, 20)):
            for gp in range(min(n, 20)):
                got = _translate(m, g, gp)
                assert got.model is model
                assert np.array_equal(got.weights,
                                      _translate_oracle(m, g, gp)), (model, g, gp)


# ---------------------------------------------------------------------------
# two-step representations


def test_opnorms_match_per_matrix_loop(oracle_models):
    rng = np.random.default_rng(13)
    stacks = [rng.standard_normal((4, 3, 3)),
              rng.standard_normal((2, 3, 5, 4)),
              rng.standard_normal((3, 168, 168)),
              rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))]
    for model in oracle_models[-4:-1]:
        d = model.order
        rep = sandwich_twostep(model, model.left_regular_stack(),
                               rng.standard_normal((d, 3)),
                               rng.standard_normal((2, d)))
        stacks += [rep._pi0, rep._pi1]
    for stack in stacks:
        assert np.array_equal(_opnorms(stack), _opnorms_oracle(stack))
    single = stacks[0][0]
    assert float(_opnorms(single)) == np.linalg.norm(single, 2)


def _family_products_oracle(rep):
    """pi0 = u A, pi1 = B u and pi = pi1 pi0(e) of a sandwich family, each
    as the per-element einsum they were once formed by."""
    pi0 = np.einsum("gij,jk->gik", rep.u_stack, rep.A)
    pi1 = np.einsum("ij,gjk->gik", rep.B, rep.u_stack)
    return pi0, pi1, np.einsum("gij,jk->gik", pi1, pi0[rep.model.identity])


def test_family_products_match_the_einsum_oracle():
    # identity and permutation factors only move entries, so the BLAS
    # products are the einsum bit for bit; random factors agree to 4 ulp
    # of the largest entry
    rng = np.random.default_rng(24)
    ulp = np.finfo(float).eps
    for d in range(2, 32):
        model = cyclic_model(d)
        lam = model.left_regular_stack()
        perm = np.eye(d)[rng.permutation(d)]
        for A, B in ((np.eye(d), np.eye(d)), (perm, perm.T),
                     (np.eye(d)[:, :3], perm[:2])):
            rep = sandwich_twostep(model, lam, A, B)
            for got, want in zip((rep._pi0, rep._pi1, rep.pi_stack()),
                                 _family_products_oracle(rep)):
                assert np.array_equal(got, want)
        rep = sandwich_twostep(model, lam, rng.standard_normal((d, 3)),
                               rng.standard_normal((4, d)))
        for got, want in zip((rep._pi0, rep._pi1, rep.pi_stack()),
                             _family_products_oracle(rep)):
            assert np.abs(got - want).max() <= 4 * ulp * np.abs(want).max()


def test_sandwich_identity_is_the_rep_itself():
    z3 = cyclic_model(3)
    lam = z3.left_regular_stack()
    rep = sandwich_twostep(z3, lam, np.eye(3), np.eye(3))
    assert np.max(np.abs(rep.pi_stack() - lam)) == 0.0
    assert rep.L == pytest.approx(1.0)
    assert rep.s == 0.0
    assert rep.dims == (3, 3, 3)


def test_sandwich_growth_certificate():
    s3 = symmetric_model(3)
    lam = s3.left_regular_stack()
    A = np.zeros((6, 1)); A[0, 0] = 2.0
    B = np.zeros((1, 6)); B[0, 0] = 3.0
    rep = sandwich_twostep(s3, lam, A, B)
    assert rep.L == pytest.approx(3.0)
    assert rep.s == 0.0


def test_sandwich_weights_and_rate():
    s3 = symmetric_model(3)
    lam = s3.left_regular_stack()
    A = np.eye(6)[:, :2]
    w = np.array([5.0, 0.5])
    rep = sandwich_twostep(s3, lam, A * w, np.eye(6))
    assert rep.s == 0.0
    assert np.array_equal(rep.A, A * w)
    # measured L: the biggest norm, max(||A diag(w)||, ||B||) = 5
    assert rep.L == pytest.approx(5.0)
    for g in range(6):
        cap = rep.L * math.exp(rep.s * s3.word_length(g)) + 1e-9
        assert np.linalg.norm(rep.pi0(g), 2) <= cap
        assert np.linalg.norm(rep.pi1(g), 2) <= cap


def test_sandwich_rejections():
    z3 = cyclic_model(3)
    lam = z3.left_regular_stack()
    with pytest.raises(ValueError, match="identity"):
        sandwich_twostep(z3, lam[[1, 0, 2]], np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="X0"):
        sandwich_twostep(z3, lam, np.eye(4), np.eye(3))
    with pytest.raises(ValueError, match="X2"):
        sandwich_twostep(z3, lam, np.eye(3), np.eye(4))
    stretched = lam.copy()
    stretched[1] = 2.0 * np.eye(3)
    with pytest.raises(ValueError, match="unitary"):
        sandwich_twostep(z3, stretched, np.eye(3), np.eye(3))


def test_sandwich_names_first_non_orthogonal_element():
    z5 = cyclic_model(5)
    lam = z5.left_regular_stack()
    lam[2] *= 2.0
    lam[4] *= 3.0
    with pytest.raises(ValueError, match=r"^u\(2\) is not orthogonal"):
        sandwich_twostep(z5, lam, np.eye(5), np.eye(5))


def test_sandwich_rejects_complex_family():
    # u(g) = e^{2 pi i g/3} is a unitary character of Z/3; a float cast would
    # keep only its real part and then blame orthogonality
    z3 = cyclic_model(3)
    u = np.array([[[cmath.exp(2j * math.pi * g / 3)]] for g in range(3)])
    with pytest.raises(ValueError, match="must be real"):
        sandwich_twostep(z3, u, np.eye(1), np.eye(1))
    lam = z3.left_regular_stack()
    with pytest.raises(ValueError, match="must be real"):
        sandwich_twostep(z3, lam, 1j * np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="must be real"):
        sandwich_twostep(z3, lam, np.eye(3), np.eye(3).astype(complex))


def test_relation_enforced_on_tampered_family():
    z3 = cyclic_model(3)
    lam = z3.left_regular_stack()
    pi0 = lam.copy()
    pi1 = lam.copy()
    pi1[2] = np.eye(3)          # breaks once-composability
    with pytest.raises(ValueError, match="once-composable"):
        TwoStepRep(z3, pi0, pi1, L=1.0, s=0.0)


def test_growth_certificate_enforced():
    z3 = cyclic_model(3)
    lam = z3.left_regular_stack()
    with pytest.raises(ValueError, match="growth"):
        TwoStepRep(z3, 5.0 * lam, lam, L=1.0, s=0.0)
    # a rotation representation of Z/6 conjugated by a shear is once-
    # composable with norms that vary over the group; the message names the
    # first element the per-element loop finds over the cap
    z6 = cyclic_model(6)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    rot = [np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
           for a in np.pi * np.arange(6) / 3]
    u = np.stack([shear @ r @ np.linalg.inv(shear) for r in rot])
    norms = [np.linalg.norm(a, 2) for a in u]
    first = next(g for g in range(6) if norms[g] > 1.0 + 1e-9)
    assert first > 0 and norms[3] <= 1.0 + 1e-9
    with pytest.raises(ValueError, match=f"at element {first}$"):
        TwoStepRep(z6, u, u, L=1.0, s=0.0)
    TwoStepRep(z6, u, u, L=max(norms), s=0.0)


def test_sandwich_takes_the_growth_norms_once(monkeypatch):
    # sandwich_twostep measures each family's norms for L, and the
    # constructor checks the certificate against those same norms
    calls = []

    def counting(stack):
        calls.append(stack.shape)
        return _opnorms(stack)

    monkeypatch.setattr(twostep, "_opnorms", counting)
    s4 = symmetric_model(4)
    rng = np.random.default_rng(15)
    rep = sandwich_twostep(s4, s4.left_regular_stack(),
                           rng.standard_normal((24, 3)),
                           rng.standard_normal((2, 24)))
    assert calls == [(24, 24, 3), (24, 2, 24)]
    want = max(float(np.linalg.norm(m, 2))
               for fam in (rep._pi0, rep._pi1) for m in fam)
    assert rep.L == pytest.approx(want, rel=1e-12)


def test_supplied_norms_are_checked_against_the_certificate():
    # norms measured by the caller still refuse an (L, s) they break, and
    # name the first element over the cap
    z3 = cyclic_model(3)
    lam = z3.left_regular_stack()
    with pytest.raises(ValueError, match="at element 1$"):
        TwoStepRep(z3, lam, lam, L=1.0, s=0.0, norms=np.array([1.0, 2.0, 2.0]))
    TwoStepRep(z3, lam, lam, L=2.0, s=0.0, norms=np.array([1.0, 2.0, 2.0]))


def test_relation_sampled_on_large_model():
    # order 101 > exhaustive cap: constructor samples 10^4 pairs; we verify
    # 2000 random triples of the original three-variable relation directly
    m = 101
    model = cyclic_model(m)
    angles = 2 * np.pi * np.arange(m) / m
    u = np.stack([[[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
                  for a in angles])
    rep = sandwich_twostep(model, u, np.eye(2), np.eye(2))
    rng = np.random.default_rng(4)
    for _ in range(2000):
        g, gp, gpp = rng.integers(0, m, size=3)
        lhs = rep.pi1(model.mult[g, gp]) @ rep.pi0(gpp)
        rhs = rep.pi1(g) @ rep.pi0(model.mult[gp, gpp])
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def _rectangular_families():
    """Sandwich families with X0, X1, X2 of different dimensions: the
    permutation representations of S3 (dims 2, 3, 4) and S4 (3, 4, 2), and a
    plane rotation of Z/7 plus a trivial line (2, 3, 4)."""
    rng = np.random.default_rng(15)
    out = []
    for model, d0, d2 in ((symmetric_model(3), 2, 4),
                          (symmetric_model(4), 3, 2)):
        d = len(model.labels[0])
        u = np.zeros((model.order, d, d))
        for g, perm in enumerate(model.labels):
            u[g, list(perm), range(d)] = 1.0
        out.append((model, u, d0, d2))
    z7 = cyclic_model(7)
    u = np.zeros((7, 3, 3))
    for g, a in enumerate(2 * np.pi * np.arange(7) / 7):
        u[g] = [[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]]
    out.append((z7, u, 2, 4))
    return [sandwich_twostep(model, u, rng.standard_normal((u.shape[1], d0)),
                             rng.standard_normal((d2, u.shape[1])))
            for model, u, d0, d2 in out]


def test_relation_residual_matches_einsum_oracle():
    # the gemm against the (j, n k) layout of pi0 and the per-element einsum
    # measure the same residual, to rounding, on rectangular families
    reps = _rectangular_families()
    assert [rep.dims for rep in reps] == [(2, 3, 4), (3, 4, 2), (2, 3, 4)]
    for rep in reps:
        want = _relation_residual_oracle(rep.model, rep._pi0, rep._pi1)
        got = rep._check_relation()
        assert want <= 1e-14
        assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("eps, fails", [(1e-8, True), (1e-12, False)])
def test_relation_perturbed_entry(eps, fails):
    # one entry of pi1 at one element moved by eps: the residual is about
    # eps times an entry of A, so 1e-8 crosses the 1e-10 tolerance and
    # 1e-12 stays under it
    for rep in _rectangular_families():
        model = rep.model
        pi0, pi1 = rep._pi0.copy(), rep._pi1.copy()
        pi1[model.order - 1, 1, 2] += eps
        want = _relation_residual_oracle(model, pi0, pi1)
        assert (want > 1e-10) == fails
        if fails:
            with pytest.raises(ValueError, match="once-composable"):
                TwoStepRep(model, pi0, pi1, L=rep.L, s=0.0)
        else:
            got = TwoStepRep(model, pi0, pi1, L=rep.L, s=0.0)._check_relation()
            assert abs(got - want) <= 1e-14


def test_apply_measure_oracle():
    s4 = symmetric_model(4)
    rng = np.random.default_rng(5)
    rep = sandwich_twostep(s4, s4.left_regular_stack(),
                           rng.standard_normal((24, 3)),
                           rng.standard_normal((2, 24)))
    m = FiniteMeasure(s4, rng.standard_normal(24))
    explicit = sum(m.weights[g] * rep.pi(g) for g in range(24))
    assert np.max(np.abs(apply_measure(rep, m) - explicit)) < 1e-12

    g = 7
    assert np.allclose(apply_measure(rep, FiniteMeasure.point_mass(s4, g)),
                       rep.pi(g))


def test_apply_measure_once_composable_contract():
    s4 = symmetric_model(4)
    rng = np.random.default_rng(6)
    rep = sandwich_twostep(s4, s4.left_regular_stack(),
                           rng.standard_normal((24, 3)),
                           rng.standard_normal((2, 24)))
    for _ in range(5):
        m1 = FiniteMeasure(s4, rng.random(24))
        m2 = FiniteMeasure(s4, rng.random(24))
        lhs = apply_measure(rep, convolve(m1, m2))
        pi1_m1 = np.tensordot(m1.weights, [rep.pi1(g) for g in range(24)], 1)
        pi0_m2 = np.tensordot(m2.weights, [rep.pi0(g) for g in range(24)], 1)
        assert np.max(np.abs(lhs - pi1_m1 @ pi0_m2)) < 1e-10


# ---------------------------------------------------------------------------
# spectral gap profiles


def test_profile_z2_lazy_dies_immediately():
    z2 = cyclic_model(2)
    prof = spectral_gap_profile(z2, FiniteMeasure(z2, [0.5, 0.5]), 5)
    assert max(prof.values) < 1e-14
    assert prof.generating
    assert prof.rho is None


def test_profile_z3_exact_halving():
    z3 = cyclic_model(3)
    prof = spectral_gap_profile(z3, FiniteMeasure.uniform(z3, [1, 2]), 30)
    for n, v in enumerate(prof, start=1):
        assert abs(v - 0.5 ** n) <= 1e-12
    assert prof.rho == pytest.approx(0.5, abs=1e-12)


def test_profile_sl3_geometric(sl3):
    mu = FiniteMeasure.uniform(sl3, list(sl3.generators))
    prof = spectral_gap_profile(sl3, mu, 25)
    assert prof.generating
    assert prof.rho is not None and prof.rho < 1
    for a, b in zip(prof.values, prof.values[1:]):
        assert b <= a + 1e-12
    # mu is symmetric, so the difference operator is normal and the profile
    # is exactly rho^n with rho its largest eigenvalue magnitude
    T = left_regular_matrix(mu) - np.full((168, 168), 1.0 / 168)
    rho = float(np.max(np.abs(np.linalg.eigvalsh(T))))
    assert prof.rho == pytest.approx(rho, abs=1e-9)
    for n, v in enumerate(prof, start=1):
        assert v == pytest.approx(rho ** n, abs=1e-12)


def test_profile_reports_non_generating_support():
    z4 = cyclic_model(4)
    prof = spectral_gap_profile(z4, FiniteMeasure.uniform(z4, [0, 2]), 6)
    assert not prof.generating
    assert "not generate" in prof.note
    assert prof.values[-1] == pytest.approx(1.0)   # stalls


def _lazy_walk(model):
    """quotient-gap's hold-1/2 nearest-neighbour walk on Z/m."""
    m = model.order
    w = np.zeros(m)
    w[0] = 0.5
    w[1] += 0.25
    w[m - 1] += 0.25
    return FiniteMeasure(model, w)


def _assert_matches_power_oracle(model, mu, horizon):
    prof = spectral_gap_profile(model, mu, horizon)
    vals, rho = _gap_profile_oracle(model, mu, horizon)
    assert len(prof) == horizon
    assert np.max(np.abs(np.array(prof.values) - vals)) <= 1e-12, model
    assert (prof.rho is None) == (rho is None), model
    if rho is not None:
        assert abs(prof.rho - rho) <= 1e-12, model


def test_profile_matches_power_oracle_on_lazy_walks():
    for m in range(3, 65):
        model = cyclic_model(m)
        _assert_matches_power_oracle(model, _lazy_walk(model), 32)


def test_profile_matches_power_oracle_on_generators(oracle_models):
    # Z/3..Z/12, S3, S4 and SL3(F2) under the uniform measure on generators
    for model in oracle_models:
        mu = FiniteMeasure.uniform(model, list(model.generators))
        _assert_matches_power_oracle(model, mu, 32)


def test_profile_rho_is_the_eigensolve_radius():
    # rho is max |eigvalsh(T)| bit for bit, and None exactly when fewer than
    # two profile values clear the noise floor: horizon 1, the lazy walk on
    # Z/2 (T = 0), the non-generating Z/4 measure (rho = 1) and lazy walks
    z2, z4 = cyclic_model(2), cyclic_model(4)
    stalled = FiniteMeasure.uniform(z4, [0, 2])
    cases = [(z2, FiniteMeasure(z2, [0.5, 0.5]), 5), (z4, stalled, 6)]
    for m in range(3, 65):
        model = cyclic_model(m)
        cases += [(model, _lazy_walk(model), h) for h in (1, 2, 32)]
    nones = 0
    for model, mu, horizon in cases:
        prof = spectral_gap_profile(model, mu, horizon)
        n = model.order
        T = left_regular_matrix(mu) - np.full((n, n), 1.0 / n)
        rho = float(np.abs(np.linalg.eigvalsh(T)).max())
        if sum(v > twostep._NOISE_FLOOR for v in prof.values) < 2:
            assert prof.rho is None, (n, horizon)
            nones += 1
        else:
            assert prof.rho == rho, (n, horizon)
    assert nones == 1 + 62      # Z/2, and every walk at horizon 1
    assert spectral_gap_profile(z4, stalled, 6).rho == pytest.approx(1.0)


def test_profile_refuses_non_symmetric_measure():
    z5 = cyclic_model(5)
    with pytest.raises(ValueError, match="symmetric"):
        spectral_gap_profile(z5, FiniteMeasure.point_mass(z5, 1), 4)
    # symmetry is exact: one unit in the last place breaks it
    w = _lazy_walk(z5).weights.copy()
    w[4] = np.nextafter(w[4], 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        spectral_gap_profile(z5, FiniteMeasure(z5, w), 4)


def test_profile_memory_does_not_grow_with_horizon(sl3):
    # one eigvalsh of the order-168 difference operator and no power of it:
    # the peak is ~0.71 MB at horizon 32 and at 1000 alike; stacking all 32
    # powers for one batched norm call peaked near 14.5 MB
    mu = FiniteMeasure.uniform(sl3, list(sl3.generators))
    for horizon in (32, 1000):
        tracemalloc.start()
        try:
            spectral_gap_profile(sl3, mu, horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, horizon


def test_profile_rejections():
    z3 = cyclic_model(3)
    with pytest.raises(ValueError, match="probability"):
        spectral_gap_profile(z3, FiniteMeasure(z3, [2.0, 0, 0]), 3)
    with pytest.raises(ValueError, match="horizon"):
        spectral_gap_profile(z3, FiniteMeasure.uniform(z3), 0)


# ---------------------------------------------------------------------------
# property-star verification


def _z3_classical(n_max=35):
    z3 = cyclic_model(3)
    rep = sandwich_twostep(z3, z3.left_regular_stack(), np.eye(3), np.eye(3))
    ms = convolution_powers(FiniteMeasure.uniform(z3, [1, 2]), n_max)
    return z3, rep, ms


def test_star_classical_fit():
    z3, rep, ms = _z3_classical()
    report = verify_star_instance(rep, ms, [(1, 2), (2, 0)])
    assert report.passed
    # differences are exactly (3/2) 2^{-n}
    assert report.fitted_C == pytest.approx(1.5, rel=1e-9)
    assert report.fitted_t == pytest.approx(math.log(2), rel=1e-9)
    assert report.cauchy_diffs[0] == pytest.approx(0.75, abs=1e-12)
    # limit is the averaging projection
    assert np.max(np.abs(report.p_estimate - np.full((3, 3), 1 / 3))) < 1e-9
    assert np.max(np.abs(report.p_estimate - sandwich_limit(rep))) < 1e-9
    # invariance residuals decay to zero
    assert report.invariance_residuals[0] > 1e-3
    assert report.invariance_residuals[-1] < 1e-9


def test_star_projection_idempotence():
    _, rep, ms = _z3_classical(36)
    p = verify_star_instance(rep, ms, [(0, 0)]).p_estimate
    assert np.max(np.abs(p @ p - p)) < 1e-10
    for g in range(3):
        pg = rep.pi(g)
        assert np.max(np.abs(p @ pg - p)) < 1e-10
        assert np.max(np.abs(pg @ p - p)) < 1e-10


def test_star_cfit_stable_across_scale():
    fits = []
    for L in (1.0, 10.0, 100.0):
        z3 = cyclic_model(3)
        rep = sandwich_twostep(z3, z3.left_regular_stack(),
                               L * np.eye(3), L * np.eye(3))
        assert rep.L == pytest.approx(L)
        ms = convolution_powers(FiniteMeasure.uniform(z3, [1, 2]), 25)
        report = verify_star_instance(rep, ms, [(1, 2)])
        assert report.passed
        fits.append(report.fitted_C * rep.L ** 2 / L ** 2)
    base = fits[0]
    for c in fits[1:]:
        assert base / 2 <= c <= base * 2


def test_star_json_and_no_decay_reported():
    z3, rep, _ = _z3_classical(3)
    haar = FiniteMeasure.uniform(z3)
    report = verify_star_instance(rep, [haar, haar, haar], [(1, 1)])
    assert not report.passed
    assert report.fitted_C is None
    doc = report.to_json()
    assert set(doc) == {"cauchyDiffs", "invarianceResiduals", "fittedC",
                        "fittedT", "pass", "notes"}
    assert doc["pass"] is False


class _RegularFamily:
    """What `verify_star_instance` reads of star-verify's representation,
    sandwich_twostep(Z/order, regular stack, I, I): the model, L and the pi
    stack.  The real constructor checks the relation exhaustively in
    O(order^5), ~13 s over the orders 3..64;
    `test_regular_family_gives_the_sandwich_report` shows both give the
    same report."""

    def __init__(self, model):
        self.model = model
        self._pi = model.left_regular_stack()
        self.L = float(_opnorms(self._pi).max())

    def pi_stack(self):
        return self._pi


def _star_verify_case(rep, horizon=30):
    """star-verify's case on Z/order: the +-1 walk's powers and the grid
    {(1, -1), (2, 0)}."""
    model = rep.model
    order = model.order
    mu = FiniteMeasure.uniform(model, [1, order - 1])
    return verify_star_instance(rep, convolution_powers(mu, horizon),
                                [(1, order - 1), (2, 0)])


@pytest.mark.parametrize("order", [3, 4, 7, 8, 11, 12])
def test_regular_family_gives_the_sandwich_report(order):
    model = cyclic_model(order)
    rep = sandwich_twostep(model, model.left_regular_stack(),
                           np.eye(order), np.eye(order))
    want = _star_verify_case(rep)
    got = _star_verify_case(_RegularFamily(model))
    assert got.to_json() == want.to_json()
    assert np.array_equal(got.p_estimate, want.p_estimate)


def test_star_periodic_walks_fail_and_aperiodic_ones_pass():
    """At horizon 30 every even order 4..64 fails: the +-1 walk on an even
    cycle is periodic, so its Cauchy differences are constant and fit a
    rounding-level t of either sign (|t| <= 2.1e-17 here; without the decay
    floor the positive ones passed).  Every odd order 3..63 passes; order 63
    decays slowest, t ~ 1.2e-3 over a 29-point window."""
    for order in range(4, 65, 2):
        report = _star_verify_case(_RegularFamily(cyclic_model(order)))
        assert max(report.cauchy_diffs) - min(report.cauchy_diffs) < 1e-12
        assert abs(report.fitted_t) < 1e-15
        assert not report.passed, order
        assert report.notes == "differences do not decay"
        _assert_star_closed_form(report, order, 30)
    for order in range(3, 64, 2):
        report = _star_verify_case(_RegularFamily(cyclic_model(order)))
        assert report.passed, order
        assert report.fitted_t * 28 > 1e6 * _DECAY_FLOOR
        _assert_star_closed_form(report, order, 30)
    assert report.fitted_t == pytest.approx(1.2e-3, rel=0.05)


def _assert_star_closed_form(report, order, horizon):
    """star-verify's family on Z/order is the regular representation, a
    circulant, so its spectrum is closed-form (Diaconis 1988, ch. 3): with
    mu-hat(k) = cos(2 pi k / order) the Cauchy differences are
    ||lambda(mu^n) - lambda(mu^{n+1})|| = max_k |mu-hat(k)|^n |1 - mu-hat(k)|,
    the exact rate is -log max_{k != 0} |mu-hat(k)|, and the verdict is
    'the rate is positive'.  Nothing here reads the model matrices."""
    hat = np.cos(2.0 * np.pi * np.arange(order) / order)
    n = np.arange(1, horizon)[:, None]
    diffs = (np.abs(hat) ** n * np.abs(1.0 - hat)).max(axis=1)
    np.testing.assert_allclose(report.cauchy_diffs, diffs, rtol=0, atol=1e-13)
    rate = -math.log(np.abs(hat[1:]).max())
    assert report.passed == (rate > 0), (order, horizon)
    if report.passed:
        assert report.fitted_t == pytest.approx(rate, rel=1e-11)


@pytest.mark.parametrize("horizon", [3, 4, 6, 10, 64])
def test_star_verdict_is_the_exact_rate_at_every_horizon(horizon):
    # horizon 30 runs over every order 3..64 above
    for order in (3, 4, 5, 8, 9, 16, 17):
        report = _star_verify_case(_RegularFamily(cyclic_model(order)),
                                   horizon)
        _assert_star_closed_form(report, order, horizon)


def test_star_single_difference_cannot_be_fitted():
    # at horizon 2 there is one Cauchy difference and no decay window
    for order in (3, 4, 5, 8, 9, 16, 17):
        report = _star_verify_case(_RegularFamily(cyclic_model(order)), 2)
        assert len(report.cauchy_diffs) == 1
        assert not report.passed
        assert report.notes == "no usable decay window in the differences"


def test_star_support_condition_enforced():
    # on Z/7, mu^2 reaches word length 2, so declaring it as n=1 must fail
    z7 = cyclic_model(7)
    rep = sandwich_twostep(z7, z7.left_regular_stack(), np.eye(7), np.eye(7))
    ms = convolution_powers(FiniteMeasure.uniform(z7, [1, 6]), 2)
    with pytest.raises(ValueError, match="word-ball"):
        verify_star_instance(rep, [ms[1]], [(0, 0)])


def test_star_refuses_a_run_that_checks_nothing():
    _, rep, ms = _z3_classical(4)
    with pytest.raises(ValueError, match="grid"):
        verify_star_instance(rep, ms, [])
    for few in ([], ms[:1]):
        with pytest.raises(ValueError, match="two measures"):
            verify_star_instance(rep, few, [(1, 2)])


def test_star_residuals_match_double_convolution():
    # Cauchy differences and invariance residuals against the per-element
    # loops over double convolutions they replace, on a non-regular family
    s4 = symmetric_model(4)
    rng = np.random.default_rng(14)
    rep = sandwich_twostep(s4, s4.left_regular_stack(),
                           rng.standard_normal((24, 3)),
                           rng.standard_normal((2, 24)))
    ms = convolution_powers(FiniteMeasure.uniform(s4, s4.generators), 6)
    grid = [(1, 5), (7, 0), (23, 11)]
    report = verify_star_instance(rep, ms, grid)
    mats = [apply_measure(rep, m) for m in ms]
    assert report.cauchy_diffs == tuple(
        np.linalg.norm(a - b, 2) for a, b in zip(mats, mats[1:]))
    assert report.invariance_residuals == tuple(
        max(np.linalg.norm(apply_measure(rep, FiniteMeasure(
            s4, _translate_oracle(m, g, gp))) - mat, 2) for g, gp in grid)
        for m, mat in zip(ms, mats))


def test_star_report_is_the_per_measure_applies(oracle_models):
    # every pi(m_n) and pi(delta_g m_n delta_g') of the stacked einsum is bit
    # for bit apply_measure of the measure or of its translate, on signed
    # non-regular families and on star-verify's regular one (up to order 24)
    rng = np.random.default_rng(16)
    for model in oracle_models:
        d = model.order
        families = [(rng.standard_normal((d, 3)), rng.standard_normal((2, d)))]
        if d <= 24:
            families.append((np.eye(d), np.eye(d)))
        for A, B in families:
            rep = sandwich_twostep(model, model.left_regular_stack(), A, B)
            ms = convolution_powers(FiniteMeasure.uniform(model,
                                                          model.generators), 5)
            grid = [(int(g), int(gp))
                    for g, gp in rng.integers(0, d, size=(3, 2))]
            report = verify_star_instance(rep, ms, grid)
            mats = np.stack([apply_measure(rep, m) for m in ms])
            shifted = np.stack([[apply_measure(rep, _translate(m, g, gp))
                                 for g, gp in grid] for m in ms])
            assert np.array_equal(report.p_estimate, mats[-1])
            assert report.cauchy_diffs == tuple(
                _opnorms(mats[:-1] - mats[1:]).tolist())
            assert report.invariance_residuals == tuple(
                _opnorms(shifted - mats[:, None]).max(axis=1).tolist())


def test_translate_index_stacks_the_scalar_indices(oracle_models):
    rng = np.random.default_rng(17)
    for model in oracle_models:
        gs, gps = rng.integers(0, model.order, size=(2, 9))
        stacked = twostep._translate_index(model, gs, gps)
        for row, g, gp in zip(stacked, gs, gps):
            assert np.array_equal(row, twostep._translate_index(model, g, gp))
            assert np.array_equal(row, twostep._translate_index(
                model, int(g), int(gp)))


# ---------------------------------------------------------------------------
# local estimate and cusp bounds


def test_local_estimate_zero_difference():
    z4 = cyclic_model(4)
    rep = sandwich_twostep(z4, z4.left_regular_stack(), np.eye(4), np.eye(4))
    mu = FiniteMeasure(z4, [0.4, 0.3, 0.2, 0.1])
    out = local_estimate_check(rep, mu, mu, 1, 3)
    assert out.lhs == 0.0
    assert out.passed


def test_local_estimate_z4_random():
    z4 = cyclic_model(4)
    rep = sandwich_twostep(z4, z4.left_regular_stack(), np.eye(4), np.eye(4))
    rng = np.random.default_rng(7)
    for _ in range(20):
        w1 = rng.random(4); w1 /= w1.sum()
        w2 = rng.random(4); w2 /= w2.sum()
        out = local_estimate_check(rep, FiniteMeasure(z4, w1),
                                   FiniteMeasure(z4, w2), 0, 0)
        assert isinstance(out, LocalEstimate)
        assert out.passed


def test_local_estimate_inflated_scale():
    s4 = symmetric_model(4)
    lam = s4.left_regular_stack()
    rng = np.random.default_rng(8)
    rep1 = sandwich_twostep(s4, lam, np.eye(24), np.eye(24))
    rep10 = sandwich_twostep(s4, lam, 10.0 * np.eye(24), np.eye(24))
    assert rep10.L == pytest.approx(10.0)
    for _ in range(100):
        w1 = rng.random(24); w1 /= w1.sum()
        w2 = rng.random(24); w2 /= w2.sum()
        g1, g2 = rng.integers(0, 24, size=2)
        mu, nu = FiniteMeasure(s4, w1), FiniteMeasure(s4, w2)
        a = local_estimate_check(rep1, mu, nu, g1, g2)
        b = local_estimate_check(rep10, mu, nu, g1, g2)
        assert a.passed and b.passed
        assert b.rhs == pytest.approx(100.0 * a.rhs, rel=1e-12)


def test_local_estimate_requires_probabilities():
    z4 = cyclic_model(4)
    rep = sandwich_twostep(z4, z4.left_regular_stack(), np.eye(4), np.eye(4))
    with pytest.raises(ValueError, match="probability"):
        local_estimate_check(rep, FiniteMeasure(z4, [2, 0, 0, 0]),
                             FiniteMeasure.uniform(z4), 0, 0)


def test_cusp_measure_bound():
    """Paper: |Omega_(n+1)| >= 1 - eps_n / |Omega_1|, clamped to [0, 1]."""
    assert np.allclose(cusp_measure_bound(0.5, [0.0, 0.0]), [1.0, 1.0])
    got = cusp_measure_bound(0.1, [2.0 ** -n for n in range(1, 8)])
    want = np.clip([1 - 10 * 2.0 ** -n for n in range(1, 8)], 0, 1)
    assert np.allclose(got, want)
    assert got.min() >= 0 and got.max() <= 1
    with pytest.raises(ValueError):
        cusp_measure_bound(0.0, [0.1])
    with pytest.raises(ValueError):
        cusp_measure_bound(1.5, [0.1])
