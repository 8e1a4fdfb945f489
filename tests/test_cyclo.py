import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gforge.cyclo import (CycScalar, SubfieldDescriptor, _rational, as_cyc,
                          cyclotomic_polynomial, divisors, phi)
from gforge.errors import PreconditionError

import helpers

rationals = st.fractions(
    min_value=-20, max_value=20,
    max_denominator=12)


def test_phi_and_divisors():
    assert [phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_relations():
    z3 = CycScalar.from_root(3, 1)
    assert z3 ** 3 == as_cyc(1)
    assert z3 * z3 == CycScalar.from_root(3, 2)
    # minimal polynomial kills 1 + z + z^2
    assert (as_cyc(1) + z3 + z3 ** 2).is_zero()
    z4 = CycScalar.from_root(4, 1)
    assert z4 * z4 == as_cyc(-1)
    # cross-modulus identification: zeta_6^3 = -1 = zeta_2
    assert CycScalar.from_root(6, 3) == CycScalar.from_root(2, 1)
    assert CycScalar.from_root(6, 2) == CycScalar.from_root(3, 1)


def test_rational_detection_and_extraction():
    x = CycScalar.from_root(5, 1)
    total = x + x ** 2 + x ** 3 + x ** 4
    assert total.is_rational() and total.as_rational() == -1
    assert not x.is_rational()
    with pytest.raises(PreconditionError):
        x.as_rational()


def test_inverse_and_division():
    z = CycScalar.from_root(8, 3)
    y = as_cyc(Fraction(3, 7)) - z
    assert (y * y.inverse()).is_one()
    assert (y / y).is_one()
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero().inverse()


def test_galois_action_and_conjugate():
    z = CycScalar.from_root(5, 1)
    assert z.galois(2) == CycScalar.from_root(5, 2)
    assert z.conjugate() == CycScalar.from_root(5, 4)
    with pytest.raises(PreconditionError):
        z.galois(5)
    x = as_cyc(1) + z
    y = as_cyc(2) - z ** 3
    for j in (1, 2, 3, 4):
        assert (x * y).galois(j) == x.galois(j) * y.galois(j)
        assert (x + y).galois(j) == x.galois(j) + y.galois(j)


@settings(deadline=None, max_examples=40)
@given(rationals, rationals)
def test_rational_embedding_matches_fractions(a, b):
    assert as_cyc(a) + as_cyc(b) == as_cyc(a + b)
    assert as_cyc(a) * as_cyc(b) == as_cyc(a * b)
    assert (as_cyc(a) - as_cyc(b)).is_rational()


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=24),
       st.integers(min_value=0, max_value=24))
def test_root_multiplicativity(m, i, j):
    zi, zj = CycScalar.from_root(m, i), CycScalar.from_root(m, j)
    assert zi * zj == CycScalar.from_root(m, i + j)


def test_subfield_descriptor():
    # fixed field of Q(zeta_3) under inversion is Q
    f = SubfieldDescriptor.from_generators(3, [2])
    assert f.units == (1, 2)
    assert f.degree_over_q() == 1 and f.is_rational()
    z3 = CycScalar.from_root(3, 1)
    assert f.contains(z3 + z3 ** 2)
    assert not f.contains(z3)
    # full field
    full = SubfieldDescriptor.from_generators(3, [])
    assert full.units == (1,)
    assert full.degree_over_q() == 2
    assert full.contains(z3)
    # Q itself
    q = SubfieldDescriptor.from_generators(1, [])
    assert q.is_rational() and q.contains(as_cyc(7))
    with pytest.raises(PreconditionError):
        SubfieldDescriptor.from_generators(6, [2])
    # the walk costs the size of the unit group it reaches, not n
    assert SubfieldDescriptor.from_generators(10 ** 12 + 1, [-1]).units == (1, 10 ** 12)


def test_subfield_closure_matches_pairwise_closure():
    # from_generators walks the words in the generators; the pairwise
    # closure multiplies every unit reached by every other
    for n in range(1, 61):
        units = [u for u in range(n) if gcd(u, n) == 1]
        for i, a in enumerate(units):
            for b in units[i:]:
                got = SubfieldDescriptor.from_generators(n, [a, b]).units
                assert got == helpers.unit_closure_pairwise(n, [a, b])


def test_subfield_closure_is_a_group():
    f = SubfieldDescriptor.from_generators(15, [2])
    units = set(f.units)
    assert 1 in units
    for a in units:
        for b in units:
            assert (a * b) % 15 in units


def test_quadratic_subfield_membership():
    # Gauss sum generates the quadratic subfield of Q(zeta_5)
    f = SubfieldDescriptor.from_generators(5, [4])
    z = CycScalar.from_root(5, 1)
    gauss = z + z ** 4
    assert f.contains(gauss)
    assert not f.contains(z)
    assert not gauss.is_rational()


# differential tests against the Fraction-coefficient reference scalars

MODULI = (1, 2, 3, 4, 5, 6, 8, 9, 12)


@st.composite
def scalars(draw, moduli=MODULI):
    """A scalar made by the constructor, by a root times a rational, or by promoting
    either (which can leave a rational value at a modulus above 1)."""
    m = draw(st.sampled_from(moduli))
    kind = draw(st.sampled_from(("make", "root", "promoted")))
    if kind == "root":
        x = CycScalar.from_root(m, draw(st.integers(0, 2 * m))) * draw(rationals)
    else:
        sparse = st.one_of(st.just(Fraction(0)), rationals)
        x = CycScalar(m, draw(st.lists(sparse, min_size=phi(m), max_size=phi(m))))
    if kind == "promoted":
        x = x._promoted(x.modulus * draw(st.sampled_from((1, 2, 3))))
    return x


def same(x, ref) -> bool:
    """Equal modulus, coefficients and repr: the reference's exact output."""
    return (isinstance(x, CycScalar) and x.modulus == ref.modulus
            and x.coeffs == ref.coeffs and repr(x) == repr(ref))


@settings(deadline=None, max_examples=150)
@given(scalars(), scalars())
def test_arithmetic_matches_reference(a, b):
    ra, rb = helpers.RefScalar.of(a), helpers.RefScalar.of(b)
    assert same(a * b, ra * rb)
    assert same(a + b, ra + rb)
    assert same(a - b, ra + (-rb))
    assert same(-a, -ra)
    pa, pb = ra._pair(rb)
    assert (a == b) == (pa.coeffs == pb.coeffs)
    assert all(type(c) is Fraction for c in (a * b).coeffs)


def _dense(m: int) -> CycScalar:
    """A seeded scalar at modulus m with every coefficient drawn."""
    rng = random.Random(m)
    return CycScalar(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         for _ in range(phi(m))])


@settings(deadline=None, max_examples=100)
@given(scalars(), st.integers(1, 40), st.sampled_from((1, 2, 3, 5)))
@example(_dense(105), 23, 1)
@example(_dense(120), 7, 2)
def test_inverse_galois_promotion_match_reference(a, j, step):
    ra = helpers.RefScalar.of(a)
    m = a.modulus
    if not a.is_zero():
        assert same(a.inverse(), ra.inverse())
    if gcd(j, m) == 1:
        assert same(a.galois(j), ra.galois(j))
    assert same(a._promoted(m * step), ra._promoted(m * step))


def test_representation_is_canonical():
    x = CycScalar(4, [Fraction(2, 6), Fraction(-4, 3)])
    assert (x.modulus, x.nums, x.den) == (4, (1, -4), 3)
    assert x.coeffs == (Fraction(1, 3), Fraction(-4, 3))
    y = CycScalar(3, [Fraction(4, 2), Fraction(6, 3)])
    assert (y.nums, y.den) == ((2, 2), 1)
    assert CycScalar.zero().nums == (0,) and CycScalar.zero().den == 1
    assert CycScalar(6, [Fraction(1, 2), 1]).coeffs == (Fraction(1, 2), Fraction(1))
    with pytest.raises(AttributeError):
        x.modulus = 8


def assert_canonical(x):
    """The form __eq__ compares: a tuple of phi(modulus) numerators over a
    positive denominator, with no common factor."""
    assert type(x) is CycScalar and type(x.nums) is tuple
    assert len(x.nums) == phi(x.modulus)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1


@settings(deadline=None, max_examples=150)
@given(scalars(), scalars(), st.integers(1, 40), st.sampled_from((1, 2, 3)), rationals,
       st.lists(st.integers(-12, 12), max_size=30), st.integers(1, 12))
@example(CycScalar.from_rational(Fraction(-2, 3)), CycScalar.from_rational(-6), 1, 1,
         Fraction(-4, 6), [2, 0, 4], 6)
def test_results_are_canonical(a, b, j, step, q, vec, den):
    m = a.modulus
    results = [a + b, a - b, a * b, -a, a._promoted(m * step), CycScalar.from_root(m, j),
               CycScalar.from_powers(m, vec, den), CycScalar.from_rational(q)]
    if not b.is_zero():
        results += [a / b, b.inverse()]
    if gcd(j, m) == 1:
        results.append(a.galois(j))
    for x in results:
        assert_canonical(x)


def _every_constructor() -> list[CycScalar]:
    z = CycScalar.from_root(12, 5)
    return [CycScalar(6, [Fraction(1, 2), 3]), CycScalar(4, [Fraction(-2, 4), 0]),
            CycScalar.from_powers(8, [1, 0, 2, 0, 0, 1], 4), CycScalar.from_rational(Fraction(-3, 9)),
            z, CycScalar.zero(), CycScalar.one(), _rational(-6, 4), _rational(5),
            z + 1, z * z, z.inverse(), z._promoted(24), (z + 1).galois(5)]


@pytest.mark.parametrize("index", range(len(_every_constructor())))
def test_pickle_round_trip_and_immutability(index):
    x = _every_constructor()[index]
    assert_canonical(x)
    slots = (x.modulus, x.nums, x.den)
    for y in (x, pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is CycScalar and y == x
        for name, value in (("modulus", 2), ("nums", (1,)), ("den", 3)):
            with pytest.raises(AttributeError):
                setattr(y, name, value)
            with pytest.raises(AttributeError, match=f"^CycScalar is immutable; cannot delete '{name}'$"):
                delattr(y, name)
        assert (y.modulus, y.nums, y.den) == slots
        assert y + 1 == x + 1


def test_rational_constructor_reduces_and_keeps_the_sign_on_the_numerator():
    assert [(x.modulus, x.nums, x.den) for x in (_rational(-6, 4), _rational(0, 5), _rational(7))] \
        == [(1, (-3,), 2), (1, (0,), 1), (1, (7,), 1)]
    inv = _rational(-2, 3).inverse()
    assert (inv.modulus, inv.nums, inv.den) == (1, (-3,), 2)


def test_constructor_demotes_a_rational_value():
    # is_one, is_rational and as_rational read the modulus
    one = CycScalar(4, [1, 0])
    assert (one.modulus, one.nums, one.den) == (1, (1,), 1)
    assert one.is_one() and one == 1
    assert CycScalar(4, [3, 0]).as_rational() == 3
    assert CycScalar(6, [Fraction(1, 2), 0]).coeffs == (Fraction(1, 2),)
    assert CycScalar(12, [0, 0, 0, 0]).is_zero()
    assert CycScalar(4, [0, 1]).modulus == 4


def test_constructors_check_modulus_and_length():
    # a short list would be truncated by the arithmetic: [1] at 4 plus z4
    # would read 1
    with pytest.raises(PreconditionError, match="^need 2 coefficients at modulus 4$"):
        CycScalar(4, [1])
    with pytest.raises(PreconditionError, match="^need 2 coefficients at modulus 4$"):
        CycScalar(4, [1, 0, 0])
    with pytest.raises(PreconditionError, match="^modulus must be positive$"):
        CycScalar(0, [1])
    assert CycScalar(4, [1, 0]) + CycScalar.from_root(4, 1) == CycScalar(4, [1, 1])
