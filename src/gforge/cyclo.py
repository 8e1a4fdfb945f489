"""Exact cyclotomic arithmetic.

Scalars live in Q(zeta_m), represented on the power basis 1, x, ..., x^(phi(m)-1)
modulo the m-th cyclotomic polynomial. A scalar stores integer numerators on
that basis over one positive denominator, with no common factor, so its
arithmetic runs on Python ints and equal values at one modulus have equal
representations; `coeffs` reads the coefficients back as Fractions in lowest
terms. Values that turn out rational are demoted to modulus 1, and
mixed-modulus arithmetic promotes both sides to the lcm, so equality is field
equality. CycScalar is deliberately unhashable: equal values can carry
different moduli.

Every scalar is made by _scalar, or by _rational for a value at modulus 1;
they are the only places the slots are written, through the slots' member
descriptors, and they keep the form canonical. Setting or deleting a slot
from outside raises AttributeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .errors import PreconditionError


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, int(m ** 0.5) + 1) if m % d == 0]
    large = [m // d for d in reversed(small) if d * d != m]
    return small + large


def phi(m: int) -> int:
    out, rem, p = 1, m, 2
    while p * p <= rem:
        if rem % p == 0:
            out *= p - 1
            rem //= p
            while rem % p == 0:
                out *= p
                rem //= p
        p += 1
    if rem > 1:
        out *= rem - 1
    return out


def _exact_div_monic_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    num = list(num)
    dd = len(den) - 1
    quo = [0] * (len(num) - dd)
    for k in range(len(quo) - 1, -1, -1):
        c = num[k + dd]
        quo[k] = c
        for i in range(dd + 1):
            num[k + i] -= c * den[i]
    if any(num[:dd]):
        raise ArithmeticError("division was not exact")
    return quo


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic."""
    if m < 1:
        raise PreconditionError("modulus must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        poly = _exact_div_monic_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row t is x^t reduced modulo the m-th cyclotomic polynomial."""
    mod = cyclotomic_polynomial(m)
    deg = len(mod) - 1
    cur = [0] * deg
    cur[0] = 1
    rows = []
    for _ in range(m):
        rows.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for i in range(deg):
                cur[i] -= lead * mod[i]
    return tuple(rows)


def _reduce_poly(m: int, coeffs) -> list[int]:
    """Integer coefficients of powers of x, reduced to the power basis at m."""
    rows = _power_rows(m)
    deg = len(rows[0])
    out = list(coeffs[:deg])
    out += [0] * (deg - len(out))
    for t in range(deg, len(coeffs)):
        c = coeffs[t]
        if c:
            for i, r in enumerate(rows[t % m]):
                if r:
                    out[i] += c * r
    return out


def _convolve(a, b) -> list:
    """Product of two integer coefficient lists as polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _integral(m: int, coeffs) -> tuple[list[int], int]:
    """The power-basis coefficients of a scalar at modulus m as integer
    numerators over their least common denominator (so with no factor common
    to all of them), once m >= 1 and there are phi(m) of them."""
    if m < 1:
        raise PreconditionError("modulus must be positive")
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != phi(m):
        raise PreconditionError(f"need {phi(m)} coefficients at modulus {m}")
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


_new_object = object.__new__


def _scalar(m: int, nums, den: int = 1) -> "CycScalar":
    """The scalar nums / den at modulus m, for den > 0, with the common
    factor removed. With _rational, the only place the slots are written."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    x = _new_object(CycScalar)
    _set_modulus(x, m)
    _set_nums(x, tuple(nums))
    _set_den(x, den)
    return x


def _rational(v: int, den: int = 1) -> "CycScalar":
    """The rational scalar v / den at modulus 1, for den > 0, in lowest
    terms. With _scalar, the only place the slots are written."""
    g = gcd(v, den)
    if g != 1:
        v //= g
        den //= g
    x = _new_object(CycScalar)
    _set_modulus(x, 1)
    _set_nums(x, (v,))
    _set_den(x, den)
    return x


def _demoted(m: int, nums, den: int = 1) -> "CycScalar":
    """_scalar, or _rational when the value is rational."""
    if not any(nums[1:]):
        return _rational(nums[0], den)
    return _scalar(m, nums, den)


class CycScalar:
    """Element of Q(zeta_modulus) on the power basis: nums[i] / den is the
    coefficient of x^i, den > 0 and gcd(den, *nums) == 1. Immutable."""

    __slots__ = ("modulus", "nums", "den")
    __hash__ = None  # equal values may carry different moduli

    def __new__(cls, modulus: int, coeffs):
        """The scalar with these power-basis coefficients at modulus, at
        modulus 1 when its value is rational."""
        return _demoted(modulus, *_integral(modulus, coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"CycScalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CycScalar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _scalar, (self.modulus, self.nums, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients, in lowest terms."""
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(c, den) for c in self.nums)

    @staticmethod
    def from_powers(m: int, vec, den: int = 1) -> "CycScalar":
        """(sum of vec[t] * zeta_m^t) / den for integers vec[t] and den > 0,
        at modulus 1 when the value is rational."""
        return _demoted(m, _reduce_poly(m, vec), den)

    @staticmethod
    def from_rational(q) -> "CycScalar":
        q = Fraction(q)
        return _rational(q.numerator, q.denominator)

    @staticmethod
    def from_root(m: int, k: int) -> "CycScalar":
        """zeta_m ** k; _power_rows rejects m < 1."""
        return _demoted(m, _power_rows(m)[k % m])

    @staticmethod
    def zero() -> "CycScalar":
        return _rational(0)

    @staticmethod
    def one() -> "CycScalar":
        return _rational(1)

    def _promoted(self, m: int) -> "CycScalar":
        if m == self.modulus:
            return self
        if m % self.modulus:
            raise PreconditionError("can only promote to a multiple modulus")
        return _scalar(m, self._substituted(m, m // self.modulus), self.den)

    def _substituted(self, m: int, k: int) -> list[int]:
        """The numerators of self at x -> x^k, reduced to the power basis at m."""
        acc = [0] * m
        for i, c in enumerate(self.nums):
            acc[(i * k) % m] += c
        return _reduce_poly(m, acc)

    def _pair(self, other) -> tuple["CycScalar", "CycScalar"]:
        other = as_cyc(other)
        if self.modulus == other.modulus:
            return self, other
        m = lcm(self.modulus, other.modulus)
        return self._promoted(m), other._promoted(m)

    def __add__(self, other) -> "CycScalar":
        a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            nums = [x + y for x, y in zip(a.nums, b.nums)]
        else:
            nums = [x * db + y * da for x, y in zip(a.nums, b.nums)]
            da *= db
        return _demoted(a.modulus, nums, da)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return _scalar(self.modulus, [-c for c in self.nums], self.den)

    def __sub__(self, other) -> "CycScalar":
        return self + (-as_cyc(other))

    def __rsub__(self, other) -> "CycScalar":
        return as_cyc(other) + (-self)

    def __mul__(self, other) -> "CycScalar":
        a, b = self._pair(other)
        m = a.modulus
        if m == 1:
            return _rational(a.nums[0] * b.nums[0], a.den * b.den)
        return CycScalar.from_powers(m, _convolve(a.nums, b.nums), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """1 / self by the norm: with rest the product of the conjugates
        galois(j) over the units j != 1 mod m, self * rest = N(self) is
        rational and 1 / self = rest / N(self)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m = self.modulus
        if m == 1:
            v = self.nums[0]
            return _rational(-self.den if v < 0 else self.den, abs(v))
        rest = prod((self.galois(j) for j in range(2, m) if gcd(j, m) == 1),
                    start=CycScalar.one())
        norm = self * rest
        if not norm.is_rational():
            raise ArithmeticError("norm is not rational")
        inv = rest * (1 / norm)
        if not (self * inv).is_one():
            raise ArithmeticError("inverse verification failed")
        return inv

    def __truediv__(self, other) -> "CycScalar":
        return self * as_cyc(other).inverse()

    def __rtruediv__(self, other) -> "CycScalar":
        return as_cyc(other) * self.inverse()

    def __pow__(self, k: int) -> "CycScalar":
        if k < 0:
            return self.inverse() ** (-k)
        out, base = CycScalar.one(), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CycScalar, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.nums == b.nums

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.modulus == 1 and self.nums[0] == 1 and self.den == 1

    def is_rational(self) -> bool:
        return self.modulus == 1

    def as_rational(self) -> Fraction:
        if self.modulus != 1:
            raise PreconditionError("value is not rational")
        return Fraction(self.nums[0], self.den)

    def galois(self, j: int) -> "CycScalar":
        """Field automorphism zeta -> zeta^j; j must be a unit mod the modulus."""
        m = self.modulus
        if m == 1:
            return self
        if gcd(j, m) != 1:
            raise PreconditionError(f"galois exponent {j} is not a unit mod {m}")
        return _demoted(m, self._substituted(m, j), self.den)

    def conjugate(self) -> "CycScalar":
        return self.galois(self.modulus - 1) if self.modulus > 1 else self

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if self.modulus == 1:
            return f"Cyc({coeffs[0]})"
        terms = []
        for i, c in enumerate(coeffs):
            if c:
                base = "1" if i == 0 else (f"z{self.modulus}" if i == 1 else f"z{self.modulus}^{i}")
                terms.append(f"{c}*{base}" if i else f"{c}")
        return "Cyc(" + (" + ".join(terms) or "0") + ")"


# the slot setters bypass CycScalar.__setattr__, which refuses every write
_set_modulus = CycScalar.modulus.__set__
_set_nums = CycScalar.nums.__set__
_set_den = CycScalar.den.__set__


def as_cyc(x) -> CycScalar:
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar.from_rational(x)
    raise PreconditionError(f"cannot coerce {type(x).__name__} to a cyclotomic scalar")


@dataclass(frozen=True)
class SubfieldDescriptor:
    """Fixed field of Q(zeta_n) under the unit subgroup `units` of (Z/n)*.

    n = 1 denotes Q itself; its unit group is stored as (0,), the residue
    of 1 mod 1.
    """

    n: int
    units: tuple[int, ...]

    @staticmethod
    def from_generators(n: int, gens) -> "SubfieldDescriptor":
        if n < 1:
            raise PreconditionError("n must be positive")
        units = []
        for g in gens:
            g %= n
            if gcd(g, n) != 1:
                raise PreconditionError(f"{g} is not a unit mod {n}")
            units.append(g)
        # the words in the generators are the group they generate
        seen, frontier = {1 % n}, {1 % n}
        while frontier:
            frontier = {a * g % n for a in frontier for g in units} - seen
            seen |= frontier
        return SubfieldDescriptor(n, tuple(sorted(seen)))

    def contains(self, x) -> bool:
        x = as_cyc(x)
        big = lcm(x.modulus, self.n)
        y = x._promoted(big)
        for j in range(1, big + 1):
            if gcd(j, big) == 1 and (j % self.n) in self.units:
                if y.galois(j) != y:
                    return False
        return True

    def degree_over_q(self) -> int:
        return phi(self.n) // len(self.units)

    def is_rational(self) -> bool:
        return self.degree_over_q() == 1
