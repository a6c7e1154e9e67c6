"""Finite group models, measures on them, and two-step representations.

A `FiniteGroupModel` is a multiplication table with a word metric coming from
a declared symmetric generating set.  `FiniteMeasure` holds a dense (possibly
signed) weight vector; convolution and the left regular matrix are exact
index arithmetic.  A `TwoStepRep` carries two once-composable map families
pi0: X0 -> X1 and pi1: X1 -> X2 satisfying

    pi1(g g') pi0(g'') == pi1(g) pi0(g' g'')

together with a growth certificate (L, s) bounding ||pi_i(g)|| <= L e^{s l(g)}.
On top of these sit geometric-decay profiles for powers of a symmetric
probability measure, the property-star verification report, and the local
comparison estimate against the regular representation.
"""
import math
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Optional

import numpy as np

_RELATION_TOL = 1e-10
_REGULAR_CAP = 400
_EXHAUSTIVE_ORDER = 64
_RELATION_SEED = 5      # draws the sampled pairs above _EXHAUSTIVE_ORDER
_NOISE_FLOOR = 100 * np.finfo(float).eps
# A fitted total decay t * (window length - 1) at or below this is a flat
# sequence: its first and last fitted values agree to about one part in 1e9.
# A periodic walk's constant differences fit |t| ~ 1e-17; the slowest real
# decay that star-verify meets (order 63, horizon 30) totals ~0.03.
_DECAY_FLOOR = 1e-9

__all__ = [
    "FiniteGroupModel",
    "FiniteMeasure",
    "TwoStepRep",
    "StarReport",
    "GapProfile",
    "LocalEstimate",
    "cyclic_model",
    "symmetric_model",
    "sl3_f2_model",
    "convolve",
    "convolution_powers",
    "left_regular_matrix",
    "apply_measure",
    "sandwich_twostep",
    "sandwich_limit",
    "spectral_gap_profile",
    "verify_star_instance",
    "local_estimate_check",
    "cusp_measure_bound",
]


def _opnorms(stack):
    """Spectral norms over the last two axes: one batched SVD call."""
    return np.linalg.norm(stack, 2, axis=(-2, -1))


class FiniteGroupModel:
    """A finite group given by its multiplication table, with a word metric.

    Elements are integers 0..order-1.  The generating set must be symmetric
    (closed under inversion) and generate the group; word lengths come from
    breadth-first search, which makes l(g^{-1}) = l(g) and the triangle
    inequality automatic.  Every table is checked for the group axioms on
    construction, whatever its order: the identity and the inverses as
    array expressions, associativity by `check_axioms`.
    """

    def __init__(self, name, mult, generators, labels=None):
        mult = np.asarray(mult, dtype=np.int64)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise ValueError("multiplication table must be square")
        n = mult.shape[0]
        if n == 0 or mult.min() < 0 or mult.max() >= n:
            raise ValueError("table entries must index elements")
        self.name = name
        self.mult = mult
        self.order = n
        idx = np.arange(n)
        ident = np.flatnonzero((mult == idx).all(axis=1)
                               & (mult == idx[:, None]).all(axis=0))
        if ident.size != 1:
            raise ValueError("table needs exactly one two-sided identity")
        self.identity = int(ident[0])
        hits = mult == self.identity
        inverse = hits.argmax(axis=1)
        bad = (hits.sum(axis=1) != 1) | (mult[inverse, idx] != self.identity)
        if bad.any():
            raise ValueError(
                f"element {int(np.argmax(bad))} has no two-sided inverse")
        self.inverse = inverse
        gens = sorted({int(g) for g in generators})
        if any(not 0 <= g < n for g in gens):
            raise ValueError("generator indices out of range")
        if not gens and n > 1:
            raise ValueError("nontrivial group needs generators")
        if {int(inverse[g]) for g in gens} != set(gens):
            raise ValueError("generating set must be symmetric")
        self.generators = tuple(gens)
        self.lengths = self._reach(self.generators)
        if (self.lengths < 0).any():
            raise ValueError("generators do not generate the group")
        self.labels = list(labels) if labels is not None else list(range(n))
        self.check_axioms()

    def _reach(self, steps):
        """Breadth-first distances from the identity along right
        multiplication by `steps`, with -1 for unreached elements."""
        rows = self.mult[:, np.asarray(steps, dtype=np.int64)].tolist()
        dist = [-1] * self.order
        dist[self.identity] = 0
        frontier = [self.identity]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for a in frontier:
                for b in rows[a]:
                    if dist[b] < 0:
                        dist[b] = d
                        nxt.append(b)
            frontier = nxt
        return np.array(dist, dtype=np.int64)

    def check_axioms(self):
        """Associativity by Light's test, in O(order^2 |generators|).

        (a b) g = a (b g) for all a, b and every generator g.  The g that
        pass are closed under products, since (a b)(g h) = ((a b) g) h =
        (a (b g)) h = a ((b g) h) = a (b (g h)), and the identity passes;
        the generators reach every element by right multiplication (the
        constructor demands it), so every element passes.  The identity
        and the inverses are checked by the constructor.
        """
        m = self.mult
        for g in self.generators:
            if not np.array_equal(m[m, g], m[:, m[:, g]]):
                raise ValueError("multiplication table is not associative")
        return True

    def word_length(self, g) -> int:
        return int(self.lengths[g])

    def left_regular_stack(self) -> np.ndarray:
        """All left-translation permutation matrices, shape (order, order, order)."""
        if self.order > _REGULAR_CAP:
            raise ValueError(
                f"regular representation capped at order {_REGULAR_CAP}")
        n = self.order
        idx = np.arange(n)
        lam = np.zeros((n, n, n))
        lam[idx[:, None], self.mult, idx[None, :]] = 1.0
        return lam

    def __repr__(self):
        return f"FiniteGroupModel({self.name!r}, order={self.order})"


def cyclic_model(m: int) -> FiniteGroupModel:
    if m < 1:
        raise ValueError("order must be positive")
    idx = np.arange(m)
    mult = (idx[:, None] + idx[None, :]) % m
    gens = [] if m == 1 else sorted({1, m - 1})
    return FiniteGroupModel(f"Z/{m}", mult, gens)


def symmetric_model(n: int) -> FiniteGroupModel:
    """The symmetric group S_n generated by adjacent transpositions."""
    if n < 1:
        raise ValueError("n must be positive")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    mult = [[index[tuple(p[q[x]] for x in range(n))] for q in elems]
            for p in elems]
    gens = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append(index[tuple(t)])
    return FiniteGroupModel(f"S{n}", mult, gens, labels=elems)


_F2_BITS = (1 << np.arange(9)).astype(np.uint16)


def _f2_keys(mats: np.ndarray) -> np.ndarray:
    """The 9-bit key sum_k m_k 2^k of each 0/1 matrix in a (..., 3, 3) stack."""
    return mats.reshape(mats.shape[:-2] + (9,)) @ _F2_BITS


def sl3_f2_model() -> FiniteGroupModel:
    """SL(3) over the two-element field (order 168), generated by the six
    elementary transvections, which are involutions in characteristic 2.

    Elements are numbered in breadth-first order from the identity; the
    table is one stacked uint8 product of all pairs, reduced mod 2 and
    looked up through the 9-bit keys.
    """
    eye = np.eye(3, dtype=np.uint8)
    gens_mats = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = eye.copy()
                m[i, j] = 1
                gens_mats.append(m)
    gens = np.stack(gens_mats)
    index = np.full(512, -1, dtype=np.int64)
    index[_f2_keys(eye)] = 0
    elems = [eye]
    frontier = eye[None]
    while frontier.size:
        # g @ m for each frontier m, then each generator g, in that order
        prods = (gens[None] @ frontier[:, None]) % 2
        new = []
        for p, key in zip(prods.reshape(-1, 3, 3), _f2_keys(prods).ravel()):
            if index[key] < 0:
                index[key] = len(elems)
                elems.append(p)
                new.append(p)
        frontier = np.array(new, dtype=np.uint8).reshape(-1, 3, 3)
    stack = np.stack(elems)
    mult = index[_f2_keys((stack[:, None] @ stack[None]) % 2)]
    return FiniteGroupModel("SL3(F2)", mult, index[_f2_keys(gens)],
                            labels=elems)


class FiniteMeasure:
    """A (possibly signed) measure on a model, stored as a dense weight vector."""

    def __init__(self, model: FiniteGroupModel, weights):
        w = np.asarray(weights, dtype=float)
        if w.shape != (model.order,):
            raise ValueError("weight vector must match the group order")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        self.model = model
        self.weights = w

    @classmethod
    def point_mass(cls, model, g):
        w = np.zeros(model.order)
        w[g] = 1.0
        return cls(model, w)

    @classmethod
    def uniform(cls, model, elements=None):
        if elements is None:
            elements = range(model.order)
        elements = list(elements)
        w = np.zeros(model.order)
        w[elements] = 1.0 / len(elements)
        return cls(model, w)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return (self.weights.min() >= -1e-12
                and abs(self.mass - 1.0) <= 1e-12)

    @property
    def support(self):
        idx = np.nonzero(self.weights)[0]
        return [(int(i), float(self.weights[i])) for i in idx]

    @property
    def max_word_length(self) -> int:
        idx = np.nonzero(self.weights)[0]
        if idx.size == 0:
            return 0
        return int(self.model.lengths[idx].max())

    def __add__(self, other):
        self._same_model(other)
        return FiniteMeasure(self.model, self.weights + other.weights)

    def __sub__(self, other):
        self._same_model(other)
        return FiniteMeasure(self.model, self.weights - other.weights)

    def __mul__(self, scalar):
        return FiniteMeasure(self.model, self.weights * float(scalar))

    __rmul__ = __mul__

    def _same_model(self, other):
        if self.model is not other.model:
            raise ValueError("measures live on different groups")

    def __repr__(self):
        return (f"FiniteMeasure({self.model.name}, mass={self.mass:.6g}, "
                f"support={len(self.support)})")


def convolve(m1: FiniteMeasure, m2: FiniteMeasure) -> FiniteMeasure:
    """Pushforward of m1 (x) m2 under multiplication; masses multiply."""
    m1._same_model(m2)
    model = m1.model
    s1 = np.nonzero(m1.weights)[0]
    s2 = np.nonzero(m2.weights)[0]
    # bincount adds into each bin in input order, as np.add.at does
    out = np.bincount(model.mult[np.ix_(s1, s2)].ravel(),
                      weights=np.outer(m1.weights[s1], m2.weights[s2]).ravel(),
                      minlength=model.order)
    return FiniteMeasure(model, out)


def convolution_powers(mu: FiniteMeasure, n: int):
    """[mu, mu^2, ..., mu^n] under convolution."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = [mu]
    for _ in range(n - 1):
        out.append(convolve(out[-1], mu))
    return out


def _translate_index(model, g, gp) -> np.ndarray:
    """The weight permutation of delta_g * m * delta_g': the translate's
    weight at x is m(g^-1 x g'^-1), so it is ``m.weights[index]``.  Scalars
    g, g' give one (order,) index; arrays of one shape (k,) give (k, order).
    """
    mult, inv = model.mult, model.inverse
    return mult[mult[inv[g]], np.expand_dims(inv[gp], -1)]


def _translate(m: FiniteMeasure, g, gp) -> FiniteMeasure:
    """delta_g * m * delta_g', through `_translate_index`."""
    return FiniteMeasure(m.model, m.weights[_translate_index(m.model, g, gp)])


def left_regular_matrix(m: FiniteMeasure) -> np.ndarray:
    """Matrix of the left regular representation applied to the measure.

    Entry (x, y) is m(x y^{-1}); convolution of measures goes to matrix
    product.
    """
    model = m.model
    return m.weights[model.mult[:, model.inverse]]


class TwoStepRep:
    """Two families pi0(g): X0 -> X1 and pi1(g): X1 -> X2, once-composable.

    The defining relation pi1(g g') pi0(g'') == pi1(g) pi0(g' g'') is
    equivalent to the two-variable form pi1(x) pi0(y) == pi(x y) with
    pi(z) := pi1(z) pi0(e), which needs only order^2 products; construction
    checks it exhaustively for orders <= 64 and on 10^4 random pairs beyond
    that, and verifies the growth certificate ||pi_i(g)|| <= L e^{s l(g)}
    with one batched norm per family, naming the first violating element.
    A caller that has measured them already (`sandwich_twostep`) passes the
    norms max(||pi0(g)||, ||pi1(g)||) as `norms`; they are checked against
    (L, s) the same way.
    """

    def __init__(self, model, pi0, pi1, L, s, norms=None):
        pi0 = np.asarray(pi0)
        pi1 = np.asarray(pi1)
        n = model.order
        if pi0.ndim != 3 or pi1.ndim != 3 or pi0.shape[0] != n or pi1.shape[0] != n:
            raise ValueError("need one matrix per group element in each family")
        if pi1.shape[2] != pi0.shape[1]:
            raise ValueError("pi1 must consume the space pi0 produces")
        if not (L > 0 and s >= 0):
            raise ValueError("growth certificate needs L > 0 and s >= 0")
        self.model = model
        self._pi0 = pi0
        self._pi1 = pi1
        self.L = float(L)
        self.s = float(s)
        self.u_stack = None     # populated by sandwich_twostep
        self.A = None
        self.B = None
        self._pi = pi1 @ pi0[model.identity]
        self._check_relation()
        self._check_growth(norms)

    @property
    def dims(self):
        return (self._pi0.shape[2], self._pi0.shape[1], self._pi1.shape[1])

    def pi0(self, g):
        return self._pi0[g]

    def pi1(self, g):
        return self._pi1[g]

    def pi(self, g):
        return self._pi[g]

    def pi_stack(self):
        return self._pi

    def _check_relation(self):
        """The largest entry of pi1(x) pi0(y) - pi(x y): over every pair for
        orders <= 64, over 10^4 random pairs beyond; raises above
        `_RELATION_TOL`.

        The exhaustive branch lays pi0 out as one (j, n k) matrix
        [pi0(0) | ... | pi0(n-1)] and pi as (i, n, k), so row x is a single
        gemm pi1(x) [pi0(y)]_y against pi(x y) for all y at once.
        """
        n = self.model.order
        mult = self.model.mult
        worst = 0.0
        if n <= _EXHAUSTIVE_ORDER:
            i, j = self._pi1.shape[1:]
            k = self._pi0.shape[2]
            row = self._pi0.transpose(1, 0, 2).reshape(j, n * k)
            pi_t = self._pi.transpose(1, 0, 2)
            for x in range(n):
                lhs = (self._pi1[x] @ row).reshape(i, n, k)
                worst = max(worst, float(np.max(np.abs(lhs - pi_t[:, mult[x]]))))
        else:
            rng = np.random.default_rng(_RELATION_SEED)
            xs = rng.integers(0, n, size=10000)
            ys = rng.integers(0, n, size=10000)
            for x, y in zip(xs, ys):
                lhs = self._pi1[x] @ self._pi0[y]
                rhs = self._pi[mult[x, y]]
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        if worst > _RELATION_TOL:
            raise ValueError(
                f"once-composable relation fails (residual {worst:.3e})")
        return worst

    def _check_growth(self, norms=None):
        caps = self.L * np.exp(self.s * self.model.lengths) + 1e-9
        if norms is None:
            norms = np.maximum(_opnorms(self._pi0), _opnorms(self._pi1))
        bad = np.flatnonzero(norms > caps)
        if bad.size:
            raise ValueError(
                f"growth certificate (L={self.L}, s={self.s}) violated at "
                f"element {bad[0]}")


def _apply_weights(weights, pi) -> np.ndarray:
    """sum_g w(g) pi(g) for every weight vector along the last axis of
    `weights`, by one einsum.  Its loop sums each entry the same way for
    one vector as for a whole stack, so a vector gives bit for bit its row
    of any stack it sits in; a BLAS product would not."""
    return np.einsum("...g,gij->...ij", weights, pi)


def apply_measure(rep: TwoStepRep, m: FiniteMeasure) -> np.ndarray:
    """pi(m) = sum_g m(g) pi(g) for a two-step representation; linear, and
    pi(m1 * m2) = pi1(m1) pi0(m2).  Computed by `_apply_weights`, so it is
    bit for bit what `verify_star_instance` computes for the same measure."""
    if rep.model is not m.model:
        raise ValueError("representation and measure live on different groups")
    return _apply_weights(m.weights, rep.pi_stack())


def sandwich_twostep(model, u_stack, A, B) -> TwoStepRep:
    """Canonical two-step family pi0(g) = u(g) A, pi1(g) = B u(g).

    `u_stack` must be a real orthogonal representation (one matrix per
    element, identity at the identity) and A, B real; the once-composable
    relation then holds identically.  Complex input is refused rather than
    cast.  A diagonal reweighting of X0 is the caller's A * w.  The growth
    certificate is measured directly: s = 0 and L = max_g max_i ||pi_i(g)||,
    which is max(||A||, ||B||).  Those norms are taken once, here, and the
    constructor checks the certificate against them.
    """
    if any(np.iscomplexobj(x) for x in (u_stack, A, B)):
        raise ValueError("sandwich families must be real, not complex")
    u = np.asarray(u_stack, dtype=float)
    n = model.order
    if u.ndim != 3 or u.shape[0] != n or u.shape[1] != u.shape[2]:
        raise ValueError("u_stack must hold one square matrix per element")
    d = u.shape[1]
    eye = np.eye(d)
    if np.max(np.abs(u[model.identity] - eye)) > 1e-12:
        raise ValueError("u must send the identity to the identity matrix")
    gram = u @ u.transpose(0, 2, 1)
    gram -= eye
    bad = np.flatnonzero(np.abs(gram, out=gram).max(axis=(1, 2)) > 1e-10)
    if bad.size:
        raise ValueError(f"u({bad[0]}) is not orthogonal/unitary")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != d:
        raise ValueError("A must map X0 into the representation space")
    if B.ndim != 2 or B.shape[1] != d:
        raise ValueError("B must map the representation space into X2")
    pi0 = u @ A
    pi1 = B @ u
    norms = np.maximum(_opnorms(pi0), _opnorms(pi1))
    rep = TwoStepRep(model, pi0, pi1, float(norms.max()), 0.0, norms=norms)
    rep.u_stack, rep.A, rep.B = u, A, B
    return rep


def sandwich_limit(rep: TwoStepRep) -> np.ndarray:
    """B (group average of u) A: the predicted limit of pi(mu^n) for a
    generating probability measure mu on a model with a spectral gap."""
    if rep.u_stack is None:
        raise ValueError("limit prediction needs a sandwich-built representation")
    return rep.B @ rep.u_stack.mean(axis=0) @ rep.A


class _FitResult(NamedTuple):
    C: float
    t: float
    window: tuple


def _log_linear_fit(ns, values) -> Optional[_FitResult]:
    """Fit values ~ C e^{-t n} by least squares on the log scale.

    The window is the largest suffix of the above-floor region: entries at or
    below `_NOISE_FLOOR` are numerical noise and are discarded, then the fit
    runs over the trailing contiguous run of what remains.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    mask = vals > _NOISE_FLOOR
    if not mask.any():
        return None
    last = int(np.nonzero(mask)[0][-1])
    start = last
    while start > 0 and mask[start - 1]:
        start -= 1
    window = slice(start, last + 1)
    if last - start + 1 < 2:
        return None
    slope, intercept = np.polyfit(ns[window], np.log(vals[window]), 1)
    return _FitResult(float(math.exp(intercept)), float(-slope),
                      tuple(range(start, last + 1)))


class GapProfile:
    """Sequence ||lambda(mu^n) - P|| plus generation flag and decay ratio."""

    def __init__(self, values, generating, rho, note=""):
        self.values = tuple(float(v) for v in values)
        self.generating = bool(generating)
        self.rho = rho
        self.note = note

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


def spectral_gap_profile(model, mu: FiniteMeasure, horizon: int) -> GapProfile:
    """||lambda(mu^n) - P|| for n = 1..horizon on the regular representation.

    P averages onto constants; since lambda(mu) fixes constants, the n-th
    value is the operator norm of T^n with T = lambda(mu) - P.  The measure
    must be symmetric, mu(g^-1) == mu(g) exactly: then T is real symmetric,
    so ||T^n|| = rho(T)^n with rho(T) the largest eigenvalue magnitude, and
    one `eigvalsh` gives the whole profile and its `rho`, None when fewer
    than two values exceed `_NOISE_FLOOR`.  A support that does not reach
    the whole group (`FiniteGroupModel._reach`) is reported in the profile
    rather than raised: the sequence may stall at a positive value.
    """
    if mu.model is not model:
        raise ValueError("measure lives on a different group")
    if not mu.is_probability:
        raise ValueError("need a probability measure")
    if not np.array_equal(mu.weights, mu.weights[model.inverse]):
        raise ValueError("need a symmetric measure, mu(g^-1) == mu(g)")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    generating = bool((model._reach(np.flatnonzero(mu.weights)) >= 0).all())
    n = model.order
    T = left_regular_matrix(mu) - np.full((n, n), 1.0 / n)
    rho_T = float(np.abs(np.linalg.eigvalsh(T)).max())
    if rho_T > 1.0 + 1e-12:
        raise AssertionError("internal error: a Markov operator minus its "
                             "projection must have spectral radius <= 1")
    vals = rho_T ** np.arange(1, horizon + 1)
    rho = rho_T if np.count_nonzero(vals > _NOISE_FLOOR) >= 2 else None
    note = "" if generating else (
        "support does not generate; the profile may stall at a positive value")
    return GapProfile(vals, generating, rho, note)


@dataclass
class StarReport:
    cauchy_diffs: tuple
    p_estimate: np.ndarray
    invariance_residuals: tuple
    fitted_C: Optional[float]
    fitted_t: Optional[float]
    passed: bool
    notes: str

    def to_json(self) -> dict:
        return {
            "cauchyDiffs": list(self.cauchy_diffs),
            "invarianceResiduals": list(self.invariance_residuals),
            "fittedC": self.fitted_C,
            "fittedT": self.fitted_t,
            "pass": self.passed,
            "notes": self.notes,
        }


def verify_star_instance(rep: TwoStepRep, measures, grid) -> StarReport:
    """Cauchy differences, invariance residuals, and the exponential fit.

    `measures` is m_1, m_2, ...; each m_n must be supported in the
    word-ball of radius n.  The fit template is
    ||pi(m_n) - pi(m_{n+1})|| <= C L^2 e^{-t n}, solved by log-linear least
    squares over the noise-trimmed window; a failed fit is reported in the
    result, never raised.  A fit whose total decay over its window,
    t * (window length - 1), is at or below `_DECAY_FLOOR` has found no
    decay (constant differences give a rounding-level t of either sign) and
    fails.  Residuals are max over the (g, g') grid of
    ||pi(delta_g m_n delta_g') - pi(m_n)||.  Fewer than two measures or an
    empty grid would check nothing and are refused.

    Each translate is a permutation of the weights (`_translate_index`), so
    the weights of every measure and every translate form one
    (measures, 1 + grid, order) stack, and one `_apply_weights` gives every
    pi(.) at once, each bit for bit its `apply_measure`.
    """
    model = rep.model
    for i, m in enumerate(measures):
        if m.model is not model:
            raise ValueError("measures must live on the representation's group")
        if m.max_word_length > i + 1:
            raise ValueError(
                f"measure at n={i + 1} is supported outside the "
                f"word-ball of radius {i + 1}")
    if len(measures) < 2:
        raise ValueError("need at least two measures")
    if len(grid) == 0:
        raise ValueError("need a non-empty (g, g') grid")
    weights = np.stack([m.weights for m in measures])
    gs, gps = np.asarray(grid).reshape(-1, 2).T
    index = np.vstack([np.arange(model.order),
                       _translate_index(model, gs, gps)])
    pis = _apply_weights(weights[:, index], rep.pi_stack())
    mats = pis[:, 0]
    cauchy = tuple(_opnorms(mats[:-1] - mats[1:]).tolist())
    shifted = pis[:, 1:]
    shifted -= mats[:, None]
    residuals = tuple(_opnorms(shifted).max(axis=1).tolist())
    fit = _log_linear_fit(np.arange(1, len(cauchy) + 1), cauchy)
    if fit is None:
        return StarReport(cauchy, mats[-1], residuals, None, None,
                          False, "no usable decay window in the differences")
    c_fit = fit.C / rep.L ** 2
    if fit.t * (len(fit.window) - 1) <= _DECAY_FLOOR or c_fit <= 0:
        return StarReport(cauchy, mats[-1], residuals, c_fit, fit.t,
                          False, "differences do not decay")
    note = (f"fit over n={fit.window[0] + 1}..{fit.window[-1] + 1} "
            f"({len(fit.window)} points)")
    return StarReport(cauchy, mats[-1], residuals, c_fit, fit.t,
                      True, note)


class LocalEstimate(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def local_estimate_check(rep: TwoStepRep, mu, mu_prime, g1, g2) -> LocalEstimate:
    """Compare ||pi(delta_g1 (mu - mu') delta_g2)|| with its regular bound.

    The right-hand side L^2 e^{s(l(g1)+l(g2))} ||lambda(mu - mu')|| dominates
    for every representation with growth certificate (L, s): this is a
    theorem, so a failure indicates an implementation bug.
    """
    for m in (mu, mu_prime):
        if not m.is_probability:
            raise ValueError("need probability measures")
    model = rep.model
    diff = mu - mu_prime
    lhs = float(_opnorms(apply_measure(rep, _translate(diff, g1, g2))))
    rhs = (rep.L ** 2
           * math.exp(rep.s * (model.lengths[g1] + model.lengths[g2]))
           * float(_opnorms(left_regular_matrix(diff))))
    return LocalEstimate(lhs, rhs, lhs <= rhs + 1e-10)


def cusp_measure_bound(omega1_mass: float, gap_profile) -> np.ndarray:
    """Lower bounds on the mass of the n+1-st domain from a gap profile.

    The deficit obeys 1 - |Omega_{n+1}| <= eps_n / |Omega_1|; the returned
    sequence is 1 - eps_n/mass clamped to [0, 1].
    """
    if not 0 < omega1_mass <= 1:
        raise ValueError("omega1 mass must lie in (0, 1]")
    eps = np.asarray(list(gap_profile), dtype=float)
    return np.clip(1.0 - eps / omega1_mass, 0.0, 1.0)
