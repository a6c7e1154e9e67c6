"""Ring arithmetic, additive characters, and the two-spike decomposition."""
import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (AdditiveCharacter, ResidueRing, RingElem, char_eval,
                    character_decompose, classify_character, valuation)


def test_ring_basics():
    R = ResidueRing(3, 2)
    assert R.modulus == 9
    # elements and characters are stored by their canonical residue
    assert [R.elem(v).value for v in (7, 16, -2, 9)] == [7, 7, 7, 0]
    assert RingElem(R, -11).value == 7
    assert R.character(13).index == AdditiveCharacter(R, -5).index == 4
    assert [chi.index for chi in R.characters()] == list(range(9))


def test_ring_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ResidueRing(4, 2)   # not prime
    with pytest.raises(ValueError):
        ResidueRing(2, 0)   # n >= 1 required


def test_mixed_ring_arithmetic_rejected():
    # an element meets a character or another element only in its own ring
    a = ResidueRing(2, 2).elem(1)
    b = ResidueRing(3, 2).elem(1)
    with pytest.raises(ValueError, match="same ring"):
        character_decompose(a, b)
    with pytest.raises(ValueError, match="level mismatch"):
        char_eval(AdditiveCharacter(ResidueRing(2, 3), 1), a)


def test_valuation():
    assert valuation(3, 0, 5) == 5
    assert valuation(3, 9, 5) == 2
    assert valuation(2, 12, 10) == 2
    assert valuation(5, 7, 3) == 0


def test_character_frozen_value():
    # chi_4 on O_2 (p=3) at z=3: exp(2*pi*i*12/9) = exp(2*pi*i/3)
    chi = AdditiveCharacter(ResidueRing(3, 2), 4)
    got = char_eval(chi, 3)
    assert got == pytest.approx(cmath.exp(2j * cmath.pi / 3), abs=1e-15)


def test_character_exact_at_full_period():
    # phase reduction keeps chi(z) exactly 1 on multiples of the modulus
    chi = AdditiveCharacter(ResidueRing(2, 3), 5)
    assert char_eval(chi, 8) == 1.0 + 0.0j
    assert char_eval(chi, 0) == 1.0 + 0.0j


def test_character_orthogonality():
    for (p, h) in [(2, 3), (3, 2), (3, 4), (2, 6)]:
        R = ResidueRing(p, h)
        m = R.modulus
        z = np.arange(m)
        table = np.exp(2j * np.pi * np.outer(np.arange(m), z) / m)
        gram = table @ table.conj().T
        assert np.allclose(gram, m * np.eye(m), atol=1e-9)


@given(st.sampled_from([(2, 3), (3, 2), (5, 1)]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_character_is_multiplicative(ph, a, z, w):
    p, h = ph
    chi = AdditiveCharacter(ResidueRing(p, h), a % p ** h)
    lhs = char_eval(chi, z + w)
    rhs = char_eval(chi, z) * char_eval(chi, w)
    assert abs(lhs - rhs) < 1e-12


@given(st.sampled_from([(2, 3), (3, 2)]), st.integers(0, 100),
       st.integers(0, 100), st.integers(0, 100))
def test_character_product_adds_indices(ph, a, b, z):
    p, h = ph
    R = ResidueRing(p, h)
    ca, cb = AdditiveCharacter(R, a % p ** h), AdditiveCharacter(R, b % p ** h)
    prod = AdditiveCharacter(R, a + b)       # chi_a chi_b = chi_{a+b}
    assert prod.index == (a + b) % p ** h
    assert abs(char_eval(prod, z) - char_eval(ca, z) * char_eval(cb, z)) < 1e-12


def test_conjugate_character_inverts():
    chi = AdditiveCharacter(ResidueRing(3, 3), 7)
    conjugate = AdditiveCharacter(chi.ring, -chi.index)
    assert conjugate.index == 20
    for z in range(27):
        assert abs(char_eval(conjugate, z)
                   - char_eval(chi, z).conjugate()) < 1e-15


def test_classify_examples():
    # nondegenerate: index coprime to p keeps full level
    c = classify_character(AdditiveCharacter(ResidueRing(3, 2), 1))
    assert not c.degenerate and c.level == 2

    # p | index: drops to level h - v with the cofactor index
    c = classify_character(AdditiveCharacter(ResidueRing(3, 2), 3))
    assert c.degenerate and c.level == 1 and c.reduced.index == 1

    c = classify_character(AdditiveCharacter(ResidueRing(2, 3), 4))
    assert c.degenerate and c.level == 1 and c.reduced.index == 1

    with pytest.raises(ValueError):
        classify_character(AdditiveCharacter(ResidueRing(2, 3), 0))


@given(st.sampled_from([(2, 4), (3, 3)]), st.integers(1, 10 ** 4))
def test_classification_preserves_values(ph, raw):
    p, h = ph
    idx = raw % p ** h
    if idx == 0:
        idx = 1
    chi = AdditiveCharacter(ResidueRing(p, h), idx)
    c = classify_character(chi)
    assert not c.reduced.is_trivial
    assert c.reduced.index % p != 0         # nondegenerate
    # the reduced character evaluates identically through the projection
    for z in range(p ** h):
        assert abs(char_eval(chi, z) - char_eval(c.reduced, z)) < 1e-12


def _coefficients_by_linear_solve(a, b):
    """Independent oracle: solve the full character linear system for the
    coefficients of p^h*(spike at a - spike at b)."""
    R = a.ring
    m = R.modulus
    z = np.arange(m)
    table = np.exp(2j * np.pi * np.outer(z, np.arange(m)) / m)  # [z, index]
    target = np.zeros(m, dtype=complex)
    target[a.value] = m
    target[b.value] = -m
    return np.linalg.solve(table, target)


@pytest.mark.parametrize("p,h,av,bv", [
    (2, 1, 0, 1), (2, 3, 3, 6), (3, 2, 4, 7), (3, 2, 0, 1), (5, 1, 2, 3),
])
def test_decomposition_matches_linear_solve(p, h, av, bv):
    R = ResidueRing(p, h)
    a, b = R.elem(av), R.elem(bv)
    coeffs = character_decompose(a, b)
    oracle = _coefficients_by_linear_solve(a, b)
    for chi, t in coeffs.items():
        assert abs(t - oracle[chi.index]) < 1e-12


@pytest.mark.parametrize("p,h", [(2, 2), (3, 2), (2, 4)])
def test_decomposition_reconstructs_spikes(p, h):
    R = ResidueRing(p, h)
    m = R.modulus
    a, b = R.elem(1), R.elem(m - 2)
    coeffs = character_decompose(a, b)
    for z in range(m):
        want = m * ((z == a.value) - (z == b.value))
        got = sum(t * char_eval(chi, z) for chi, t in coeffs.items())
        assert abs(got - want) < 1e-12


def test_decomposition_parseval_mass():
    # sum over characters of |t_chi|^2 = 2 p^h whenever a != b
    R = ResidueRing(3, 3)
    a, b = R.elem(5), R.elem(20)
    coeffs = character_decompose(a, b)
    mass = sum(abs(t) ** 2 for t in coeffs.values())
    assert mass == pytest.approx(2 * 27, abs=1e-9)


def test_decomposition_trivial_term_vanishes():
    R = ResidueRing(2, 3)
    coeffs = character_decompose(R.elem(1), R.elem(5))
    trivial = [chi for chi in coeffs if chi.is_trivial]
    assert len(trivial) == 1
    assert coeffs[trivial[0]] == 0


def test_decomposition_equal_spikes_vanish():
    R = ResidueRing(2, 3)
    coeffs = character_decompose(R.elem(3), R.elem(3))
    assert all(t == 0 for t in coeffs.values())


def test_decomposition_two_point_case():
    # h=1, p=2: the only nontrivial coefficient is -2
    R = ResidueRing(2, 1)
    coeffs = character_decompose(R.elem(1), R.elem(0))
    by_index = {chi.index: t for chi, t in coeffs.items()}
    assert by_index[0] == 0
    assert by_index[1] == pytest.approx(-2)


def test_decomposition_closed_form_up_to_reindex():
    # the coefficient at conj(chi) equals chi(a) - chi(b)
    R = ResidueRing(3, 2)
    a, b = R.elem(2), R.elem(6)
    coeffs = character_decompose(a, b)
    by_index = {chi.index: t for chi, t in coeffs.items()}
    for chi in R.characters():
        want = char_eval(chi, a) - char_eval(chi, b)
        assert abs(by_index[-chi.index % R.modulus] - want) < 1e-12
    assert max(abs(t) for t in coeffs.values()) <= 2 + 1e-12


@settings(max_examples=25)
@given(st.integers(0, 26), st.integers(0, 26))
def test_decomposition_random_pairs(av, bv):
    R = ResidueRing(3, 3)
    if av == bv:
        return
    coeffs = character_decompose(R.elem(av), R.elem(bv))
    oracle = _coefficients_by_linear_solve(R.elem(av), R.elem(bv))
    worst = max(abs(t - oracle[chi.index]) for chi, t in coeffs.items())
    assert worst < 1e-10
