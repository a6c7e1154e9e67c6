"""Exact arithmetic in Z/p^n and additive characters of its underlying group.

Conventions
-----------
Elements of the level-n residue ring are stored as canonical integers in
[0, p^n).  The additive character with index a is

    chi_a(z) = exp(2*pi*i * a*z / p^h)        (h = level of the character)

so chi_a * chi_b = chi_{a+b} and chi_a is nondegenerate exactly when p
does not divide a.  The decomposition of p^h*(delta_a - delta_b) into
characters is normalised so that the reconstruction identity

    sum_chi t_chi * chi(z)  ==  p^h * (1{z==a} - 1{z==b})

holds exactly; with this normalisation t_chi = conj(chi(a)) - conj(chi(b)),
and the closed form chi(a) - chi(b) is recovered by reindexing chi -> conj(chi).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def valuation(p: int, value: int, cap: int) -> int:
    """p-adic valuation of ``value`` read modulo p^cap (0 maps to cap)."""
    value %= p ** cap
    if value == 0:
        return cap
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


@dataclass(frozen=True)
class ResidueRing:
    """The ring of integers modulo p^n for a prime p."""

    p: int
    n: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n < 1:
            raise ValueError(f"level must be >= 1, got {self.n}")

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    def elem(self, value: int) -> "RingElem":
        return RingElem(self, value % self.modulus)

    def elements(self) -> Iterator["RingElem"]:
        for v in range(self.modulus):
            yield RingElem(self, v)

    def character(self, index: int) -> "AdditiveCharacter":
        return AdditiveCharacter(self, index % self.modulus)

    def characters(self) -> Iterator["AdditiveCharacter"]:
        for a in range(self.modulus):
            yield AdditiveCharacter(self, a)


@dataclass(frozen=True)
class RingElem:
    ring: ResidueRing
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.ring.modulus)

    def _check(self, other: "RingElem"):
        if self.ring != other.ring:
            raise ValueError("ring mismatch between operands")

    def __add__(self, other):
        if isinstance(other, int):
            return self.ring.elem(self.value + other)
        self._check(other)
        return self.ring.elem(self.value + other.value)

    def __sub__(self, other):
        if isinstance(other, int):
            return self.ring.elem(self.value - other)
        self._check(other)
        return self.ring.elem(self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring.elem(self.value * other)
        self._check(other)
        return self.ring.elem(self.value * other.value)

    def __neg__(self):
        return self.ring.elem(-self.value)

    def valuation(self) -> int:
        """p-adic valuation of the canonical representative (0 -> level)."""
        return valuation(self.ring.p, self.value, self.ring.n)


@dataclass(frozen=True)
class AdditiveCharacter:
    """chi_index on the additive group of ``ring``."""

    ring: ResidueRing
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.index % self.ring.modulus)

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    @property
    def is_nondegenerate(self) -> bool:
        return self.index % self.ring.p != 0

    def __call__(self, z) -> complex:
        return char_eval(self, z)

    def __mul__(self, other: "AdditiveCharacter") -> "AdditiveCharacter":
        if self.ring != other.ring:
            raise ValueError("cannot multiply characters of different levels")
        return AdditiveCharacter(self.ring, self.index + other.index)

    def conjugate(self) -> "AdditiveCharacter":
        return AdditiveCharacter(self.ring, -self.index)


def char_eval(chi: AdditiveCharacter, z) -> complex:
    """Evaluate chi at z.

    z may be a RingElem of the character's own ring or a plain integer
    (interpreted modulo the modulus).  An element of a different ring is a
    rejected input: reductions between levels must be done explicitly.
    """
    if isinstance(z, RingElem):
        if z.ring != chi.ring:
            raise ValueError(
                f"level mismatch: character lives on Z/{chi.ring.p}^{chi.ring.n}, "
                f"element on Z/{z.ring.p}^{z.ring.n}"
            )
        zv = z.value
    else:
        zv = int(z) % chi.ring.modulus
    m = chi.ring.modulus
    # reduce the phase exactly before touching floats
    expo = (chi.index * zv) % m
    return cmath.exp(2j * cmath.pi * expo / m)


@dataclass(frozen=True)
class CharacterClass:
    degenerate: bool
    level: int
    reduced: AdditiveCharacter


def classify_character(chi: AdditiveCharacter) -> CharacterClass:
    """Split off the degenerate part of a nontrivial character.

    Returns (degenerate?, d, chi') where chi' is nondegenerate of level d
    and chi factors as chi' composed with reduction Z/p^h -> Z/p^d.
    """
    if chi.is_trivial:
        raise ValueError("the trivial character has no nondegenerate part")
    p, h = chi.ring.p, chi.ring.n
    v = valuation(p, chi.index, h)
    d = h - v
    reduced = AdditiveCharacter(ResidueRing(p, d), chi.index // (p ** v))
    return CharacterClass(degenerate=(v > 0), level=d, reduced=reduced)


def character_decompose(a: RingElem, b: RingElem) -> dict[AdditiveCharacter, complex]:
    """Coefficients t_chi with sum_chi t_chi*chi == p^h*(delta_a - delta_b).

    The trivial character always gets coefficient 0 and |t_chi| <= 2; the
    coefficients satisfy sum |t_chi|^2 == 2*p^h for a != b.
    """
    if a.ring != b.ring:
        raise ValueError("a and b must live in the same ring")
    ring = a.ring
    out = {}
    for chi in ring.characters():
        out[chi] = (char_eval(chi, a).conjugate()
                    - char_eval(chi, b).conjugate())
    return out
