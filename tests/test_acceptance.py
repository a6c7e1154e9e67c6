"""End-to-end acceptance gate: eleven numbered criteria, one line each.

Every criterion states an explicit inequality or identity with a fixed
tolerance and (where relevant) a runtime budget.  Each test appends a
``criterion NN PASS/FAIL`` line that conftest.py prints in the terminal
summary, so the final report always carries one line per criterion.
"""

import functools
import math
import time

import numpy as np

from gaplab import cartan
from gaplab import induction
from gaplab import spheres
from gaplab import twostep
from gaplab import zigzag
from gaplab.finite_models import (_block_norms, hausdorff_young_ratio,
                                  operator_norm, stamp_s_chi, stamp_s_delta,
                                  verify_S_decomposition)
from gaplab.residue import (AdditiveCharacter, ResidueRing,
                            classify_character, valuation)
from dense_stamps import build_S_chi, build_S_delta, dense_norm
from test_spheres import quadrature_eigenvalue

ACCEPTANCE = []


def criterion(num):
    """Record one PASS/FAIL summary line no matter how the test exits."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                ACCEPTANCE.append(
                    f"criterion {num:2d} FAIL  {type(exc).__name__}: {exc}")
                raise
            ACCEPTANCE.append(f"criterion {num:2d} PASS  {detail}")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. sphere averaging: Hoelder envelope and the quadrature oracle


@criterion(1)
def test_criterion_01_sphere_gap_envelope():
    start = time.perf_counter()
    deltas = [i / 100.0 for i in range(1, 100)]
    worst_excess = -math.inf
    for delta in deltas:
        rep = spheres.tdelta_gap_report(2, delta, 200)
        worst_excess = max(worst_excess, rep.value - 2.0 * math.sqrt(delta))
        assert rep.value <= 2.0 * math.sqrt(delta) + 1e-9
    worst_oracle = 0.0
    for delta in deltas:
        eig = spheres.tdelta_eigenvalues(2, 200, delta)
        for ell in range(201):
            q = quadrature_eigenvalue(2, ell, delta)
            worst_oracle = max(worst_oracle, abs(eig[ell] - q))
    assert worst_oracle <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return (f"99 deltas, degrees<=200: envelope excess {worst_excess:.2e}, "
            f"oracle dev {worst_oracle:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. residue-ring operators: norm decay by character depth


def _fourier_block(m, c):
    """Dense unit Fourier block G_c[y,x] = psi_c(x*y)/m (test oracle)."""
    xy = np.outer(np.arange(m), np.arange(m)) % m
    return np.exp(2j * np.pi * ((c * xy) % m) / m) / m


def _block_spectra(m):
    """Sorted singular values of the unit Fourier blocks G_c, c = 0..m-1."""
    return [np.linalg.svd(_fourier_block(m, c), compute_uv=False)
            for c in range(m)]


def _full_spectrum(ring, chi, blocks):
    """Complete singular spectrum of S_{n,chi} via its exact block form.

    The shift-Fourier conjugation is unitary, so the spectrum is the union
    over blocks c of |m^2 ifft(K)[c]| times the singular values of G_c; the
    dense cross-checks below confirm this equals the raw dense SVD.
    """
    m = ring.modulus
    coeffs = m * m * np.fft.ifft(stamp_s_chi(ring, chi).kernel)
    spec = np.concatenate([abs(coeffs[c]) * blocks[c] for c in range(m)])
    return np.sort(spec)[::-1]


@criterion(2)
def test_criterion_02_residue_operator_decay():
    start = time.perf_counter()
    block_cache = {}

    def blocks_for(m):
        if m not in block_cache:
            block_cache[m] = _block_spectra(m)
        return block_cache[m]

    nondegenerate = degenerate = dense_checked = 0
    worst_margin = -math.inf
    worst_law = worst_reduction = worst_dense = 0.0
    for p in (2, 3):
        n = 1
        while p ** (2 * n) <= 6561:
            ring = ResidueRing(p, n)
            m = ring.modulus
            for h in range(1, n + 1):
                for idx in range(1, p ** h):
                    chi = AdditiveCharacter(ResidueRing(p, h), idx)
                    spec = _full_spectrum(ring, chi, blocks_for(m))
                    norm = float(spec[0])
                    v = valuation(p, idx, h)
                    worst_law = max(worst_law,
                                    abs(norm - p ** (-(n - v) / 2.0)))
                    if idx % p != 0:
                        nondegenerate += 1
                        margin = norm - p ** (-(n - h) / 2.0)
                        worst_margin = max(worst_margin, margin)
                        assert margin <= 1e-9
                    else:
                        degenerate += 1
                        cls = classify_character(chi)
                        small_ring = ResidueRing(p, n - h + cls.level)
                        small = float(_full_spectrum(
                            small_ring, cls.reduced,
                            blocks_for(small_ring.modulus))[0])
                        worst_reduction = max(worst_reduction,
                                              abs(norm - small))
                        assert abs(norm - small) <= 1e-9
                    if m * m <= 729:
                        raw = np.linalg.svd(build_S_chi(ring, chi),
                                            compute_uv=False)
                        worst_dense = max(worst_dense,
                                          float(np.max(np.abs(raw - spec))))
                        dense_checked += 1
            n += 1
    assert worst_law <= 1e-10
    assert worst_dense <= 1e-9
    # corroborate the block spectrum against a raw dense SVD at the largest
    # even-prime dimension (4096) as well
    ring = ResidueRing(2, 6)
    chi = AdditiveCharacter(ResidueRing(2, 3), 3)
    top = float(_full_spectrum(ring, chi, blocks_for(64))[0])
    raw = dense_norm(build_S_chi(ring, chi))
    assert abs(top - raw) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    return (f"{nondegenerate} nondegenerate chi (worst margin "
            f"{worst_margin:.2e}), {degenerate} reductions (dev "
            f"{worst_reduction:.2e}), {dense_checked + 1} dense SVD "
            f"cross-checks (dev {worst_dense:.2e}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. difference decomposition and the Fourier-block norm law


@criterion(3)
def test_criterion_03_difference_decomposition():
    worst_resid = 0.0
    cases = 0
    for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        ring = ResidueRing(p, n)
        for h in range(1, n + 1):
            sub = ResidueRing(p, h)
            pairs = {(1 % sub.modulus, 0), (sub.modulus - 1, 1 % sub.modulus)}
            for ai, bi in pairs:
                if ai == bi:
                    continue
                resid = verify_S_decomposition(ring, sub.elem(ai),
                                               sub.elem(bi))
                worst_resid = max(worst_resid, resid)
                assert resid <= 1e-12
                cases += 1
    worst_block = worst_norm = 0.0
    for p, n in ((2, 2), (2, 3), (3, 2)):
        ring = ResidueRing(p, n)
        m = ring.modulus
        block_norms = _block_norms(ring)
        spectra = _block_spectra(m)
        for c in range(m):
            k = valuation(p, c, n)
            # the oracle is a dense SVD of G_c, independent of the formula
            dev = abs(block_norms[c] - spectra[c][0])
            worst_block = max(worst_block, dev)
            assert dev <= 1e-9
            assert abs(block_norms[c] - p ** (-(n - k) / 2.0)) <= 1e-9
        for delta in range(m):
            dense = dense_norm(build_S_delta(ring, delta))
            stamp = operator_norm(stamp_s_delta(ring, delta),
                                  method="exact-decomposition").value
            worst_norm = max(worst_norm, abs(dense - stamp))
            assert abs(dense - stamp) <= 1e-9
    return (f"{cases} difference pairs (max entry residual "
            f"{worst_resid:.2e}); block law dev {worst_block:.2e}, "
            f"dense/stamp norm dev {worst_norm:.2e}")


# ---------------------------------------------------------------------------
# 4. Parseval specialization on cyclic groups


@criterion(4)
def test_criterion_04_parseval_ratio():
    rng = np.random.default_rng(41)
    worst = 0.0
    for m in range(2, 65):
        target = m ** -0.5
        for _ in range(20):
            f = rng.normal(size=m) + 1j * rng.normal(size=m)
            worst = max(worst, abs(hausdorff_young_ratio(m, f) - target))
        # Hilbert-valued sample: rows are group points, columns coordinates
        fmat = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
        worst = max(worst, abs(hausdorff_young_ratio(m, fmat) - target))
    assert worst <= 1e-12
    return f"orders 2..64, 20 vectors each: max |ratio - #G^-1/2| = {worst:.2e}"


# ---------------------------------------------------------------------------
# 5. KAK round-trips and diagonal sphere distortion


@criterion(5)
def test_criterion_05_kak_and_distortion():
    rng = np.random.default_rng(5)
    worst_rt = 0.0
    for _ in range(50):
        mat = rng.normal(size=(3, 3))
        while abs(np.linalg.det(mat)) < 1e-3:
            mat = rng.normal(size=(3, 3))
        g = cartan.RealGroupElement(mat / np.cbrt(np.linalg.det(mat)))
        k1, triple, k2 = cartan.kak_real(g)
        recon = (k1.matrix @ cartan.d_matrix(*triple.as_tuple()).matrix
                 @ k2.matrix)
        resid = float(np.max(np.abs(recon - g.matrix)))
        worst_rt = max(worst_rt, resid)
        assert resid <= 1e-10
    worst_delta = -math.inf
    for alpha in (0.5, 1.0, 2.0):
        for r in np.linspace(alpha, 4.0 * alpha, 20):
            sol = cartan.solve_sphere_distortion(alpha, float(r))
            bound = math.exp(r - 4.0 * alpha)
            worst_delta = max(worst_delta, sol.delta / bound - 1.0)
            assert sol.delta <= bound * (1 + 1e-9)
    padic = 0
    for p in (2, 3):
        for alpha in range(1, 5):
            for r in range(alpha, 4 * alpha + 1):
                res = cartan.padic_sphere_distortion(p, alpha, r)
                assert res.ok
                assert res.triple.as_tuple() == (float(r),
                                                 float(2 * alpha - r),
                                                 float(-2 * alpha))
                padic += 1
    return (f"50 round-trips (worst {worst_rt:.2e}); 60 real distortions "
            f"(worst rel excess {worst_delta:.2e}); {padic} p-adic cases "
            f"exact")


# ---------------------------------------------------------------------------
# 6. chamber-walk certificates against the telescoped target


def _grid_triple(r, pattern):
    a2 = (0.0, r / 4.0, -r / 4.0)[pattern % 3]
    if a2 >= 0:
        return (r - a2, a2, -r)
    return (r, a2, -r - a2)


@criterion(6)
def test_criterion_06_zigzag_certificates():
    r_first = np.linspace(1.0, 20.0, 10)
    r_second = np.linspace(1.0, 20.0, 20)
    count = 0
    worst_slack = math.inf
    for s in (0.05, 0.1, 0.2):
        t = 0.5 - 2.0 * s
        for L in (1.0, 10.0):
            for i, ra in enumerate(r_first):
                a = _grid_triple(float(ra), i)
                for j, rb in enumerate(r_second):
                    b = _grid_triple(float(rb), i + j)
                    cert = zigzag.zigzag_certificate(a, b, s, L)
                    target = (70.0 / (1.0 - 4.0 * s)) * L * L * max(
                        math.exp(-t * max(a[0], -a[2])),
                        math.exp(-t * max(b[0], -b[2])))
                    assert cert.passed[0]
                    assert cert.totals[0] <= target * (1 + 1e-12)
                    assert abs(cert.targets[0] - target) <= 1e-9 * target
                    assert zigzag.revalidate_certificate(cert)
                    if cert.totals[0] > 0:  # identical endpoints telescope away
                        worst_slack = min(worst_slack, target / cert.totals[0])
                    count += 1
    return (f"{count} certificates over s in (0.05,0.1,0.2), L in (1,10); "
            f"every step revalidated; tightest target/total = "
            f"{worst_slack:.3f}")


# ---------------------------------------------------------------------------
# 7. parameter-transport formulas


@criterion(7)
def test_criterion_07_parameter_transport():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        s, t = rng.uniform(0.01, 1.5, size=2)
        C = float(rng.uniform(0.1, 10.0))
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.0, 3.0))
        moved = zigzag.rescale_params(zigzag.StarParams(s, t, C), a, b)
        want = C * math.exp((2.0 * s * b + t * a + t * b) / a)
        worst = max(worst, abs(moved.C - want) / want,
                    abs(moved.s - s / a), abs(moved.t - t / a))
        s1, t1, s2, t2 = rng.uniform(0.05, 1.5, size=4)
        c1, c2 = rng.uniform(0.1, 10.0, size=2)
        combined = zigzag.product_params(zigzag.StarParams(s1, t1, c1),
                                         zigzag.StarParams(s2, t2, c2))
        s_star = min(t1 / 3.0, t2 / 3.0, s1, s2)
        want_c = ((2.0 * c1 * math.exp(2.0 * s_star) + 2.0 * c2)
                  / (1.0 - math.exp(-s_star)))
        worst = max(worst, abs(combined.C - want_c) / want_c,
                    abs(combined.s - s_star), abs(combined.t - s_star))
    assert worst <= 1e-12
    return f"50 draws of both transport formulas: max deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# 8. spectral-gap profiles and the averaging projection


@criterion(8)
def test_criterion_08_gap_profiles_and_projection():
    z3 = twostep.cyclic_model(3)
    prof = twostep.spectral_gap_profile(
        z3, twostep.FiniteMeasure.uniform(z3, [1, 2]), 30)
    worst_half = max(abs(v - 0.5 ** n)
                     for n, v in enumerate(prof.values, start=1))
    assert worst_half <= 1e-12

    sl3 = twostep.sl3_f2_model()
    mu = twostep.FiniteMeasure.uniform(sl3, list(sl3.generators))
    prof_sl3 = twostep.spectral_gap_profile(sl3, mu, 20)
    assert prof_sl3.generating
    rho = prof_sl3.rho
    assert rho is not None and rho < 1.0
    worst_geo = max(abs(v - rho ** n)
                    for n, v in enumerate(prof_sl3.values, start=1))
    assert worst_geo <= 1e-9

    worst_proj = 0.0
    for model in (z3, sl3):
        u = model.left_regular_stack()
        P = u.mean(axis=0)
        worst_proj = max(worst_proj, float(np.max(np.abs(P @ P - P))))
        for g in range(model.order):
            worst_proj = max(worst_proj,
                             float(np.max(np.abs(P @ u[g] - P))),
                             float(np.max(np.abs(u[g] @ P - P))))
    assert worst_proj <= 1e-10
    return (f"Z/3 profile halves exactly (dev {worst_half:.2e}); order-168 "
            f"profile geometric with rho {rho:.4f} (dev {worst_geo:.2e}); "
            f"projection identities dev {worst_proj:.2e}")


# ---------------------------------------------------------------------------
# 9. sandwiched two-step instances: scale-stable fit, translated residuals


@criterion(9)
def test_criterion_09_sandwich_fit_stability():
    model = twostep.cyclic_model(3)
    u = model.left_regular_stack()
    mu = twostep.FiniteMeasure.uniform(model, [1, 2])
    measures = twostep.convolution_powers(mu, 29)
    grid = [(1, 2), (2, 0)]
    fits = {}
    rate_dev = 0.0
    bound_excess = -math.inf
    for L in (1.0, 10.0, 100.0):
        rep = twostep.sandwich_twostep(model, u, L * np.eye(3), L * np.eye(3))
        report = twostep.verify_star_instance(rep, measures, grid)
        assert report.passed
        fits[L] = report.fitted_C
        limit = twostep.sandwich_limit(rep)
        for n, m_n in enumerate(measures, start=1):
            resid = float(np.linalg.norm(
                twostep.apply_measure(rep, m_n) - limit, ord=2))
            bound = (report.fitted_C * rep.L ** 2
                     * math.exp(-report.fitted_t * n))
            bound_excess = max(bound_excess, resid / bound - 1.0)
            assert resid <= bound * (1 + 1e-6)
        ns = np.arange(1, len(measures) + 1)
        residuals = np.asarray(report.invariance_residuals)
        slope = np.polyfit(ns, np.log(residuals), 1)[0]
        rate_dev = max(rate_dev, abs(-slope - report.fitted_t))
        assert abs(-slope - report.fitted_t) <= 1e-6
    spread = max(fits.values()) / min(fits.values())
    assert spread <= 2.0
    return (f"fitted C stable across L in (1,10,100): spread {spread:.6f}; "
            f"translated residual rate matches fit to {rate_dev:.2e}; "
            f"max bound excess {bound_excess:.2e}")


# ---------------------------------------------------------------------------
# 10. local comparison estimate on random configurations


@criterion(10)
def test_criterion_10_local_estimate():
    rng = np.random.default_rng(10)
    models = {}
    worst = -math.inf
    for _ in range(100):
        order = int(rng.integers(3, 25))
        if order not in models:
            models[order] = twostep.cyclic_model(order)
        model = models[order]
        u = model.left_regular_stack()
        A = rng.normal(size=(order, order))
        B = rng.normal(size=(order, order))
        rep = twostep.sandwich_twostep(model, u, A, B)
        mu = twostep.FiniteMeasure(model, rng.dirichlet(np.ones(order)))
        mu_prime = twostep.FiniteMeasure(model, rng.dirichlet(np.ones(order)))
        g1, g2 = int(rng.integers(order)), int(rng.integers(order))
        est = twostep.local_estimate_check(rep, mu, mu_prime, g1, g2)
        worst = max(worst, est.lhs - est.rhs)
        assert est.lhs <= est.rhs + 1e-10
        assert est.passed
    return f"100 random configurations, orders 3..24: max lhs-rhs = {worst:.2e}"


# ---------------------------------------------------------------------------
# 11. lattice cocycle: exactness, growth, cusp decay, truncation


@criterion(11)
def test_criterion_11_lattice_cocycle():
    start = time.perf_counter()
    seed = 2025
    points, _ = induction.sample_domain(100000, seed)
    lengths = np.array([pt.length for pt in points])

    # (a) cocycle identity, exact integer equality on 10^4 triples
    s_mat = np.array([[0, -1], [1, 0]], dtype=np.int64)
    t_mat = np.array([[1, 1], [0, 1]], dtype=np.int64)
    t_inv = np.array([[1, -1], [0, 1]], dtype=np.int64)
    rng = np.random.default_rng(seed + 1)

    def word(k):
        g = np.eye(2, dtype=np.int64)
        for _ in range(k):
            g = g @ (s_mat, t_mat, t_inv)[rng.integers(3)]
        return g

    pool = [word(int(rng.integers(1, 7))) for _ in range(200)]
    identities = 0
    for _ in range(10000):
        g1 = pool[int(rng.integers(len(pool)))]
        g2 = pool[int(rng.integers(len(pool)))]
        om = points[int(rng.integers(20000))]
        r2 = induction.cocycle(g2.astype(float), om)
        r1 = induction.cocycle(g1.astype(float), r2.g_dot_omega)
        r12 = induction.cocycle((g1 @ g2).astype(float), om)
        prod = np.array(r1.alpha, dtype=object) @ np.array(r2.alpha,
                                                           dtype=object)
        want = induction._canonical_sign(tuple(int(v) for v in prod.ravel()))
        assert tuple(int(v) for v in r12.alpha.ravel()) == want
        identities += 1

    # (b) growth: reported kappa, then the pointwise bound re-checked
    g_samples = induction.random_group_elements(10, seed + 2, max_length=2.5)
    subset = points[:2000]
    stats = induction.cocycle_growth_check(g_samples, 0.2, subset, s0=1.0)
    assert stats.kappa <= 1e-9
    worst_pointwise = -math.inf
    for g in g_samples:
        lg = induction.element_length(g)
        for pt in subset:
            alpha = induction.cocycle(g, pt).alpha.astype(float)
            gap = (induction.element_length(alpha)
                   - (stats.kappa + 2.0 * lg + 2.0 * pt.length))
            worst_pointwise = max(worst_pointwise, gap)
            assert gap <= 1e-12
    # (c) cusp mass decays exponentially, reproducibly across seeds
    fit = induction.cusp_decay_fit(lengths)
    assert fit.rate > 0 and fit.rate > 3.0 * fit.rate_stderr
    probs = np.asarray(fit.tail_probs)
    radii = np.asarray(fit.radii)
    keep = probs > 0
    assert np.all(probs[keep] <= fit.amplitude
                  * np.exp(-fit.rate * radii[keep]) + 1e-15)
    _, _, _, alt_lengths, _ = induction.sample_domain_arrays(100000,
                                                             seed + 3)
    fit_alt = induction.cusp_decay_fit(alt_lengths)
    gap = abs(fit.rate - fit_alt.rate)
    band = 3.0 * (fit.rate_stderr + fit_alt.rate_stderr)
    assert gap <= band

    # (d) truncation: total variation equals twice the removed mass
    push_gs = induction.random_group_elements(10, seed + 4, max_length=1.0)
    m_tilde = [(g, 0.1) for g in push_gs]
    pushed, _ = induction.pushforward_mn0(m_tilde, 1.0 + 1e-6, points[:500])
    truncated, tail = induction.truncate_tail(pushed, 2.5)
    tv = induction.total_variation(truncated, pushed)
    assert abs(tv - 2.0 * tail) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    return (f"{identities} exact identities; kappa {stats.kappa:.4f} with "
            f"pointwise max gap {worst_pointwise:.2e}; cusp rate "
            f"{fit.rate:.3f}+-{fit.rate_stderr:.3f} (seeds differ by "
            f"{gap:.3f} <= {band:.3f}); |TV - 2 tail| = "
            f"{abs(tv - 2.0 * tail):.1e}; N=1e5 in {elapsed:.0f}s")
