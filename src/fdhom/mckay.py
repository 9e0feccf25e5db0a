"""Exact cyclotomic character arithmetic and McKay quiver construction.

Input is a character table with power maps, not a group: computing classes
and characters from matrix generators is a CAS concern kept out of scope.
Arithmetic happens in the power basis of a primitive root of unity with
reduction by the cyclotomic polynomial, so integrality of multiplicities is
a hard check rather than a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from fdhom.errors import MissingPowerMaps, NonIntegerMultiplicity
from fdhom.results import QuiverGraph


def cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Coefficients of Φ_n, constant first."""
    if n == 1:
        return [Fraction(-1), Fraction(1)]
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div(num, cyclotomic_polynomial(d))
    return num


def _poly_div(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    dlead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] / dlead
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _poly_mod(coeffs: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    deg_m = len(modulus) - 1
    lead = modulus[-1]
    while len(out) > deg_m:
        c = out[-1] / lead
        if c:
            for i in range(deg_m + 1):
                out[len(out) - 1 - deg_m + i] -= c * modulus[i]
        out.pop()
    while len(out) < deg_m:
        out.append(Fraction(0))
    return out


class CyclotomicNumber:
    """Element of Q(zeta_n) in the power basis 1, zeta, ..., zeta^{phi(n)-1}."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self.conductor = conductor
        self.coeffs = _poly_mod([Fraction(c) for c in coeffs],
                                cyclotomic_polynomial(conductor))

    @staticmethod
    def rational(x) -> "CyclotomicNumber":
        return CyclotomicNumber(1, [Fraction(x)])

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * ((k % n) + 1)
        coeffs[k % n] = Fraction(1)
        return CyclotomicNumber(n, coeffs)

    def lift(self, m: int) -> "CyclotomicNumber":
        """Rewrite in Q(zeta_m) for a multiple m of the conductor."""
        if m == self.conductor:
            return self
        if m % self.conductor:
            raise ValueError("can only lift to a multiple of the conductor")
        step = m // self.conductor
        out = [Fraction(0)] * (len(self.coeffs) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] += c
        return CyclotomicNumber(m, out)

    def _pair(self, other: "CyclotomicNumber"):
        m = self.conductor * other.conductor // gcd(self.conductor,
                                                    other.conductor)
        return self.lift(m), other.lift(m), m

    def __add__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.rational(other)
        a, b, m = self._pair(other)
        n = max(len(a.coeffs), len(b.coeffs))
        coeffs = [(a.coeffs[i] if i < len(a.coeffs) else 0)
                  + (b.coeffs[i] if i < len(b.coeffs) else 0) for i in range(n)]
        return CyclotomicNumber(m, coeffs)

    def __sub__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.rational(other)
        return self + other.scale(-1)

    def scale(self, c) -> "CyclotomicNumber":
        return CyclotomicNumber(self.conductor,
                                [Fraction(c) * x for x in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return self.scale(other)
        a, b, m = self._pair(other)
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1 or 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        out[i + j] += ca * cb
        return CyclotomicNumber(m, out)

    def substitute_power(self, k: int) -> "CyclotomicNumber":
        """zeta -> zeta^k."""
        n = self.conductor
        out = [Fraction(0)] * (max((i * (k % n) for i in
                                    range(len(self.coeffs))), default=0) + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * k) % n] += c
        return CyclotomicNumber(n, out)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation: zeta -> zeta^{-1}."""
        return self.substitute_power(self.conductor - 1)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise NonIntegerMultiplicity(f"value {self.coeffs} is irrational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.rational(other)
        return (self - other).is_zero()

    def __repr__(self):
        return f"Cyc({self.conductor}; {[str(c) for c in self.coeffs]})"


@dataclass
class ConjClass:
    label: str
    size: int
    power_maps: dict  # exponent -> class index


@dataclass
class CharacterTable:
    order: int
    classes: list[ConjClass]
    irreducibles: list[list[CyclotomicNumber]]
    labels: list[str]

    def __post_init__(self):
        if sum(c.size for c in self.classes) != self.order:
            raise ValueError("class sizes do not sum to the group order")
        if self.classes[0].size != 1:
            raise ValueError("class 0 must be the identity class")
        if not any(all(v == 1 for v in row) for row in self.irreducibles):
            raise ValueError("missing the trivial character row")
        for i in range(len(self.irreducibles)):
            for j in range(len(self.irreducibles)):
                ip = inner_product(self.irreducibles[i], self.irreducibles[j],
                                   self)
                if ip != (1 if i == j else 0):
                    raise ValueError(f"rows {i},{j} not orthonormal: {ip}")

    def degree(self, row) -> Fraction:
        return row[0].rational_value()


def inner_product(chi, psi, table: CharacterTable) -> Fraction:
    """(1/|G|) sum over classes of size * chi * conj(psi)."""
    acc = CyclotomicNumber.rational(0)
    for k, cls in enumerate(table.classes):
        acc = acc + (chi[k] * psi[k].conjugate()).scale(cls.size)
    acc = acc.scale(Fraction(1, table.order))
    return acc.rational_value()


def product_character(chi, psi):
    return [a * b for a, b in zip(chi, psi)]


def decompose_character(chi, table: CharacterTable) -> list[int]:
    """Multiplicities of the irreducibles inside chi (all integral >= 0)."""
    mults = []
    for row in table.irreducibles:
        m = inner_product(chi, row, table)
        if m.denominator != 1 or m < 0:
            raise NonIntegerMultiplicity(f"multiplicity {m} not a natural")
        mults.append(int(m))
    total = sum(m * table.degree(row) for m, row in
                zip(mults, table.irreducibles))
    if total != table.degree(chi):
        raise NonIntegerMultiplicity("degrees do not add up")
    return mults


def determinant_character(table: CharacterTable, chi_v, d: int):
    """chi of the top exterior power of V, from Newton-type identities."""
    if d == 2:
        need = [2]
    elif d == 3:
        need = [2, 3]
    else:
        raise MissingPowerMaps(f"no built-in formula for degree {d}")
    for cls in table.classes:
        for e in need:
            if e not in cls.power_maps:
                raise MissingPowerMaps(f"class {cls.label} lacks power map {e}")
    out = []
    for k, cls in enumerate(table.classes):
        x1 = chi_v[k]
        x2 = chi_v[cls.power_maps[2]]
        if d == 2:
            val = (x1 * x1 - x2).scale(Fraction(1, 2))
        else:
            x3 = chi_v[cls.power_maps[3]]
            val = (x1 * x1 * x1 - (x1 * x2).scale(3) + x3.scale(2)).scale(
                Fraction(1, 6))
        out.append(val)
    return out


def mckay_quiver(table: CharacterTable, chi_v, d: int,
                 chi_s=None) -> QuiverGraph:
    """d_XY = multiplicity of X in V ⊗ Y; dotted arrows tensor with the
    determinant character (degree d >= 2 defined; d = 1 is not)."""
    if d < 2:
        raise ValueError("McKay quiver needs degree d >= 2")
    if table.degree(chi_v) != d:
        raise ValueError("character degree does not match d")
    r = len(table.irreducibles)
    mult = [[0] * r for _ in range(r)]
    for y in range(r):
        vy = product_character(chi_v, table.irreducibles[y])
        row = decompose_character(vy, table)
        for x in range(r):
            mult[x][y] = row[x]
    # row sums: sum_X d_XY deg X = d * deg Y
    for y in range(r):
        tot = sum(mult[x][y] * table.degree(table.irreducibles[x])
                  for x in range(r))
        if tot != d * table.degree(table.irreducibles[y]):
            raise NonIntegerMultiplicity("degree count fails on a column")
    if chi_s is None:
        chi_s = determinant_character(table, chi_v, d)
    dotted = {}
    for x in range(r):
        sx = product_character(chi_s, table.irreducibles[x])
        hits = [y for y in range(r)
                if all(a == b for a, b in zip(sx, table.irreducibles[y]))]
        if len(hits) != 1:
            raise NonIntegerMultiplicity("determinant twist is not a bijection")
        dotted[x] = hits[0]
    if sorted(dotted.values()) != list(range(r)):
        raise NonIntegerMultiplicity("dotted map is not a permutation")
    for x in range(r):
        if table.degree(table.irreducibles[dotted[x]]) != \
                table.degree(table.irreducibles[x]):
            raise NonIntegerMultiplicity("dotted map changes degrees")
    return QuiverGraph(list(table.labels), mult, dotted)
