import gc
import inspect
import random
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gforge import modlinalg, twisted
from gforge.algebra import twisted_group_algebra
from gforge.config import Caps
from gforge.cyclo import CycScalar
from gforge.errors import (BudgetExceeded, CapExceeded, CocycleError, InternalError,
                           PreconditionError)
from gforge.groups import SubgroupData, cyclic, dihedral, direct_product, generating_set
from gforge.presentation import compute_KNS
from gforge.twisted import (BinomialDatum, Cocycle, binomial_datum,
                            binomial_ratio, class_order, conjugate_cocycle,
                            conjugate_is_cohomologous, find_primitive_binomial,
                            galois_character, galois_twist, h2_classes,
                            is_binomial_identity, is_cohomologous, lift_unit,
                            make_cocycle, shift_by_coboundary,
                            trivial_cocycle, word_exponent)

import helpers


@pytest.fixture(scope="module")
def alpha_pauli():
    return helpers.build_pauli().alpha


@pytest.fixture(scope="module")
def alpha_inner():
    return helpers.build_inner().alpha


def test_cocycle_validation():
    g = cyclic(2)
    sub = SubgroupData(g, (0, 1))
    # normalized rows: alpha(e, h) = alpha(h, e) = 0
    with pytest.raises(CocycleError):
        make_cocycle(sub, 2, [[0, 1], [0, 0]])
    # cocycle identity violated on a cyclic 3 table
    sub3 = SubgroupData(cyclic(3), range(3))
    with pytest.raises(CocycleError):
        make_cocycle(sub3, 3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    ok = make_cocycle(sub, 2, [[0, 0], [0, 1]])
    assert ok.value(1, 1) == 1
    triv = trivial_cocycle(sub)
    assert triv.modulus == 1 and triv.value(1, 1) == 0


@pytest.mark.parametrize("modulus, exps, message", [
    (2, ((0, 0), (0, 1.5)), "^exponents must be integers$"),
    (2, ((0, 0), (0, "1")), "^exponents must be integers$"),
    (2, ((0, 0), (0, True)), "^exponents must be integers$"),
    (4, ((0, 0), (0, 2 ** 70)), r"^exponents must lie in \[0, modulus\)$"),
    (2 ** 70, ((0, 0), (0, 2 ** 65)), r"^modulus must be below 2\*\*62$"),
    (2 ** 62, ((0, 0), (0, 0)), r"^modulus must be below 2\*\*62$"),
    (2.0, ((0, 0), (0, 0)), "^modulus must be an integer$"),
])
def test_cocycle_entries_are_checked_as_python_ints(modulus, exps, message):
    sub = SubgroupData(cyclic(2), (0, 1))
    with pytest.raises(CocycleError, match=message):
        Cocycle(sub, modulus, exps)


def test_cocycle_modulus_just_below_the_int64_limit():
    sub = SubgroupData(cyclic(2), (0, 1))
    big = 2 ** 62 - 1
    alpha = Cocycle(sub, big, ((0, 0), (0, big - 1)))
    assert alpha.value(1, 1) == big - 1


@pytest.mark.parametrize("exps", [
    [[0, 0], [0, 1.5]],
    [[0, 0], [0, "1"]],
    [[0, 0], [0, True]],
], ids=["float", "str", "bool"])
def test_make_cocycle_does_not_coerce_exponents(exps):
    sub = SubgroupData(cyclic(2), (0, 1))
    with pytest.raises(CocycleError, match="^exponents must be integers$"):
        make_cocycle(sub, 2, exps)


@pytest.mark.parametrize("f", [
    [0, 1.5, 0, 0],
    [0, "1", 0, 0],
    [0, True, 0, 0],
], ids=["float", "str", "bool"])
def test_shift_by_coboundary_does_not_coerce_values(alpha_pauli, f):
    with pytest.raises(PreconditionError, match="^coboundary values must be integers$"):
        shift_by_coboundary(alpha_pauli, f)


def _random_coboundary(sub, m, seed):
    rng = random.Random(seed)
    f = [0] + [rng.randrange(m) for _ in range(sub.order - 1)]
    return shift_by_coboundary(trivial_cocycle(sub, m), f)


@pytest.mark.parametrize("query", [
    lambda alpha: is_cohomologous(alpha, trivial_cocycle(alpha.sub)),
    class_order,
], ids=["is_cohomologous", "class_order"])
def test_cohomology_modulus_above_the_echelon_limit(alpha_pauli, query):
    # M = 2 * (2**40 + 15) would overflow the int64 Howell echelon
    alpha = _random_coboundary(alpha_pauli.sub, 2 ** 40 + 15, 1)
    with pytest.raises(PreconditionError, match=r"^modulus must be below 2\*\*31$"):
        query(alpha)


def test_cohomology_modulus_just_below_the_echelon_limit(alpha_pauli):
    # M = 2 * (2**30 - 1) = 2**31 - 2, the largest the echelon takes here
    m = 2 ** 30 - 1
    sub = alpha_pauli.sub
    alpha, beta = (_random_coboundary(sub, m, seed) for seed in (1, 2))
    ok, f, M = is_cohomologous(alpha, trivial_cocycle(sub))
    assert ok and M == 2 ** 31 - 2
    assert shift_by_coboundary(alpha.embedded(M), f).exps == trivial_cocycle(sub, M).exps
    assert is_cohomologous(alpha, beta)[0]
    assert class_order(alpha) == 1


@pytest.mark.parametrize("call", [
    lambda alpha: lift_unit(1, 0, 4),
    lambda alpha: lift_unit(1, 2, 0),
    lambda alpha: alpha.embedded(0),
    lambda alpha: galois_character(0, alpha.embedded(4), 0),
    lambda alpha: galois_character(0, alpha.embedded(4), -1),
    lambda alpha: galois_character(0, alpha.embedded(4), 3),
], ids=["lift-n0", "lift-m0", "embed-0", "character-n0", "character-n-1", "character-n3"])
def test_bad_arguments_are_preconditions(alpha_pauli, call):
    # alpha_pauli embedded at modulus 4 is a class of order 2 there
    assert class_order(alpha_pauli.embedded(4)) == 2
    with pytest.raises(PreconditionError):
        call(alpha_pauli)


@pytest.mark.parametrize("query", [
    lambda alpha: is_cohomologous(alpha, alpha),
    class_order,
    lambda alpha: galois_character(0, alpha, 2),
    lambda alpha: conjugate_is_cohomologous(alpha, 3, alpha),
], ids=["is_cohomologous", "class_order", "galois_character", "conjugate_is_cohomologous"])
def test_a_corrupted_witness_is_caught(monkeypatch, query):
    # every query finds a witness here, so each must reach the one check
    solve = twisted.solve_in_image

    def corrupted(image, b, n_vars, M):
        x = solve(image, b, n_vars, M)
        return None if x is None else ((x[0] + 1) % M,) + x[1:]

    monkeypatch.setattr(twisted, "solve_in_image", corrupted)
    alpha = helpers.build_pauli().alpha.embedded(4)
    with pytest.raises(InternalError, match="^coboundary witness failed verification$"):
        query(alpha)


def test_cocycle_condition_holds(alpha_pauli, alpha_inner):
    for alpha in (alpha_pauli, alpha_inner):
        grp = alpha.sub.group
        m = alpha.modulus
        for a in alpha.sub.elements:
            for b in alpha.sub.elements:
                for c in alpha.sub.elements:
                    lhs = alpha.value(a, b) + alpha.value(grp.mul(a, b), c)
                    rhs = alpha.value(b, c) + alpha.value(a, grp.mul(b, c))
                    assert (lhs - rhs) % m == 0


def test_word_exponent_and_binomial_ratio(alpha_pauli):
    # u_1 u_2 = zeta * u_3, u_2 u_1 = u_3
    e, h = word_exponent(alpha_pauli, (1, 2))
    assert (h, e) == (3, 1)
    e2, h2 = word_exponent(alpha_pauli, (2, 1))
    assert (h2, e2) == (3, 0)
    assert binomial_ratio(alpha_pauli, (1, 2), (1, 0)) == 1
    # ratio is None when the reordered word has a different product
    d3 = dihedral(3)
    beta = trivial_cocycle(SubgroupData(d3, range(6)))
    assert binomial_ratio(beta, (1, 3), (1, 0)) is None
    assert binomial_ratio(alpha_pauli, (1, 1), (1, 0)) == 0  # same word both sides


def test_is_binomial_identity(alpha_pauli):
    # x1 x2 - zeta2 x2 x1 is an identity; with +1 it is not
    assert is_binomial_identity(alpha_pauli, (1, 2), (1, 0), 1)
    assert not is_binomial_identity(alpha_pauli, (1, 2), (1, 0), 0)


def test_binomial_datum(alpha_inner):
    d = binomial_datum(alpha_inner, (1, 3), (1, 0))
    assert d.ratio == 1 and d.ratio_order(3) == 3
    with pytest.raises(PreconditionError):
        binomial_datum(alpha_inner, (1, 3), (0, 0))  # not a permutation
    d3 = dihedral(3)
    beta = trivial_cocycle(SubgroupData(d3, range(6)))
    with pytest.raises(PreconditionError):
        binomial_datum(beta, (1, 3), (1, 0))  # products differ


def test_find_primitive_binomial(alpha_pauli, alpha_inner):
    w = find_primitive_binomial(alpha_inner, 3)
    assert w == BinomialDatum(word=(1, 3), perm=(1, 0), ratio=1)
    wp = find_primitive_binomial(alpha_pauli, 2)
    assert wp is not None and wp.ratio_order(2) == 2
    assert binomial_ratio(alpha_pauli, wp.word, wp.perm) == wp.ratio
    # n = 1 always has the trivial witness
    sub = SubgroupData(cyclic(2), (0,))
    triv = find_primitive_binomial(trivial_cocycle(sub), 1)
    assert triv is not None and triv.ratio == 0
    # no order-4 ratio exists over a modulus-2 cocycle
    assert find_primitive_binomial(alpha_pauli, 4) is None


def test_find_primitive_binomial_matches_the_all_lengths_scan():
    # one length at a time returns what the scan over every length at once
    # returns: the shortest word first, then lex order
    found = Counter()
    for grp in helpers.group_pool(16):
        for elems in helpers.all_subgroups(grp):
            sub = SubgroupData(grp, elems)
            for m in (2, 3, 4, 6):
                for alpha in h2_classes(sub, m):
                    orders = [class_order(alpha)]
                    if sub.order <= 4:
                        orders.append(2 * m)  # no ratio has this order
                    for n in orders:
                        for L in (2, 3, 4):
                            got = find_primitive_binomial(alpha, n, L)
                            assert got == helpers.find_primitive_binomial_all_lengths(
                                alpha, n, L)
                            found[None if got is None else len(got.word)] += 1
    assert found[None] and found[2] and sum(found.values()) > 3000


def test_word_scan_budget_counts_every_length(alpha_pauli, monkeypatch):
    # |H| = 4 and L = 3: 4 + 16 + 64 words, though the answer has length 2
    assert alpha_pauli.sub.order == 4
    monkeypatch.setattr(twisted, "CAPS", Caps(budget=83))
    for scan in (find_primitive_binomial, helpers.find_primitive_binomial_all_lengths):
        with pytest.raises(BudgetExceeded, match="^word scan needs 84 words, over budget 83$"):
            scan(alpha_pauli, 2, 3)
    monkeypatch.setattr(twisted, "CAPS", Caps(budget=84))
    assert len(find_primitive_binomial(alpha_pauli, 2, 3).word) == 2


def test_image_mu_n(alpha_pauli, alpha_inner):
    # the binomial ratios generate the roots of unity of the class order
    assert class_order(alpha_pauli) == 2
    assert class_order(alpha_inner) == 3
    sub = SubgroupData(cyclic(3), range(3))
    assert class_order(trivial_cocycle(sub)) == 1


def test_galois_character_on_swap():
    p = helpers.build_swap_raw()
    chars = {s: galois_character(s, p.alpha) for s in (0, 1)}
    assert chars[0] == 1
    # the swapping reflection inverts the root of unity
    assert chars[1] == 2
    # the character is constant on cosets of the subgroup
    assert all(galois_character(s, p.alpha) == 2 for s in range(1, 18, 2))
    with pytest.raises(PreconditionError):
        galois_character(1, helpers.build_related().alpha)  # does not normalize


def test_conjugate_and_twist(alpha_inner):
    # abelian inner case: conjugation fixes the cocycle
    for s in (0, 4, 8):
        conj = conjugate_cocycle(alpha_inner, s)
        assert conj.exps == alpha_inner.exps
    tw = galois_twist(alpha_inner, lift_unit(2, 3, 3))
    assert tw.exps != alpha_inner.exps
    # twisting doubles every exponent mod 3
    for a in alpha_inner.sub.elements:
        for b in alpha_inner.sub.elements:
            assert tw.value(a, b) == (2 * alpha_inner.value(a, b)) % 3


def test_lift_unit():
    j = lift_unit(2, 3, 6)
    assert j % 3 == 2 and j in (5,)  # unique unit mod 6 reducing to 2 mod 3
    assert lift_unit(1, 1, 4) % 4 in (1, 3)
    with pytest.raises(PreconditionError):
        lift_unit(3, 6, 12)  # not a unit mod 6


def test_coboundary_shift_is_cohomologous(alpha_pauli):
    f = [(h * 7) % 2 if h else 0 for h in alpha_pauli.sub.elements]
    shifted = shift_by_coboundary(alpha_pauli, f)
    ok, witness, _ = is_cohomologous(shifted, alpha_pauli)
    assert ok and witness is not None
    assert is_cohomologous(alpha_pauli, alpha_pauli)[0]


def test_is_cohomologous_needs_one_product_table():
    # C4 and C2 x C2 both list their elements as 0..3; only the product
    # tables tell the subgroups apart
    c4 = SubgroupData(cyclic(4), range(4))
    k4 = SubgroupData(direct_product(cyclic(2), cyclic(2)), range(4))
    assert c4.elements == k4.elements and c4.pmul != k4.pmul
    with pytest.raises(PreconditionError, match="cocycles live on different subgroups"):
        is_cohomologous(trivial_cocycle(c4), trivial_cocycle(k4))
    # a second SubgroupData of the same subgroup is accepted
    again = SubgroupData(cyclic(4), range(4))
    assert is_cohomologous(trivial_cocycle(c4, 2), trivial_cocycle(again, 2))[0]


def test_is_cohomologous_on_the_trivial_subgroup():
    # the echelon is empty; the witness still has one entry per element
    sub = SubgroupData(cyclic(3), (0,))
    assert is_cohomologous(trivial_cocycle(sub), trivial_cocycle(sub)) == (True, (0,), 1)
    assert is_cohomologous(trivial_cocycle(sub, 2), trivial_cocycle(sub, 3)) == (True, (0,), 6)
    assert sub.coboundary_echelons == {1: [], 6: []}


def test_not_cohomologous_nontrivial_class():
    g22 = direct_product(cyclic(2), cyclic(2))
    sub = SubgroupData(g22, range(4))
    classes = h2_classes(sub, 2)
    assert len(classes) == 2
    a, b = classes
    assert not is_cohomologous(a, b)[0]


def test_h2_counts():
    assert len(h2_classes(SubgroupData(cyclic(4), range(4)), 4)) == 1
    g33 = direct_product(cyclic(3), cyclic(3))
    assert len(h2_classes(SubgroupData(g33, range(9)), 3)) == 3


def test_cocycle_identity_failure_row(alpha_inner):
    sub, m = alpha_inner.sub, alpha_inner.modulus
    exps = [list(row) for row in alpha_inner.exps]
    exps[4][5] = (exps[4][5] + 1) % m
    with pytest.raises(CocycleError, match="cocycle identity fails at row 1$"):
        Cocycle(sub, m, tuple(map(tuple, exps)))
    # rows 0 and 1 hold, row 2 is the first to fail
    k4 = SubgroupData(direct_product(cyclic(2), cyclic(2)), range(4))
    table = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1))
    with pytest.raises(CocycleError, match="cocycle identity fails at row 2$"):
        Cocycle(k4, 2, table)
    # on C2 x C64 (elements 0..63 form C64), alpha(x, y) = h(y) when x lies
    # outside C64: the rows of C64 hold, row 64 fails
    grp = direct_product(cyclic(2), cyclic(64))
    rng = random.Random(3)
    h = [0] + [rng.randrange(2) for _ in range(127)]
    table = tuple(tuple(h[y] if x >= 64 else 0 for y in range(128)) for x in range(128))
    sub = SubgroupData(grp, range(128))
    assert helpers.cocycle_first_bad_row(sub, 2, table) == 64
    with pytest.raises(CocycleError, match="cocycle identity fails at row 64$"):
        Cocycle(sub, 2, table)


def _check_against_row_loop(sub, m, table):
    want = helpers.cocycle_first_bad_row(sub, m, table)
    if want is None:
        assert Cocycle(sub, m, table).exps == table
    else:
        with pytest.raises(CocycleError, match=f"fails at row {want}$"):
            Cocycle(sub, m, table)
    return want


def test_cocycle_identity_check_matches_row_loop():
    # every normalized table on C2 x C2 over Z/2, then corrupted cocycles
    k4 = SubgroupData(direct_product(cyclic(2), cyclic(2)), range(4))
    rows = set()
    for bits in range(2 ** 9):
        table = ((0, 0, 0, 0),) + tuple(
            (0,) + tuple((bits >> (3 * r + c)) & 1 for c in range(3)) for r in range(3))
        rows.add(_check_against_row_loop(k4, 2, table))
    assert rows == {None, 1, 2}
    rng = random.Random(41)
    cases = [(direct_product(cyclic(2), cyclic(2)), 2), (dihedral(4), 4),
             (direct_product(cyclic(2), cyclic(4)), 4), (direct_product(cyclic(3), cyclic(3)), 3),
             (direct_product(cyclic(2), dihedral(3)), 6)]
    seen = set()
    for grp, m in cases:
        sub = SubgroupData(grp, range(grp.order))
        reps = h2_classes(sub, m)
        for _ in range(60):
            exps = [list(row) for row in shift_by_coboundary(
                rng.choice(reps), [0] + [rng.randrange(m) for _ in range(sub.order - 1)]).exps]
            for _ in range(rng.randint(0, 3)):
                r, c = rng.randrange(1, sub.order), rng.randrange(1, sub.order)
                exps[r][c] = rng.randrange(m)
            seen.add(_check_against_row_loop(sub, m, tuple(map(tuple, exps))))
    assert None in seen and 1 in seen


def test_h2_subgroup_cap():
    p = helpers.build_swap_raw()
    big = SubgroupData(p.group, range(18))
    with pytest.raises(CapExceeded):
        h2_classes(big, 2)


H2_REFERENCE_CASES = {
    "C2^3": (lambda: direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
             (2, 6)),
    "C4xC4": (lambda: direct_product(cyclic(4), cyclic(4)), (2, 4)),
    "D4": (lambda: dihedral(4), (4,)),
    "C2xD3": (lambda: direct_product(cyclic(2), dihedral(3)), (6,)),
    "C3xC3": (lambda: direct_product(cyclic(3), cyclic(3)), (6,)),
}


@pytest.mark.parametrize("name,m", [(name, m) for name, (_, ms) in
                                    H2_REFERENCE_CASES.items() for m in ms])
def test_h2_classes_match_pairwise_merge(name, m):
    grp = H2_REFERENCE_CASES[name][0]()
    sub = SubgroupData(grp, range(grp.order))
    got = h2_classes(sub, m)
    want = helpers.h2_classes_pairwise(sub, m)
    assert [(c.modulus, c.exps) for c in got] == [(c.modulus, c.exps) for c in want]


SMALL_GROUPS = {
    "C2": lambda: cyclic(2), "C3": lambda: cyclic(3), "C4": lambda: cyclic(4),
    "C2xC2": lambda: direct_product(cyclic(2), cyclic(2)), "C5": lambda: cyclic(5),
    "C6": lambda: cyclic(6), "S3": lambda: dihedral(3),
}


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_h2_classes_are_lex_least_by_search(name, m):
    grp = SMALL_GROUPS[name]()
    sub = SubgroupData(grp, range(grp.order))
    for alpha in h2_classes(sub, m):
        assert alpha.exps == helpers.h2_lex_least_by_search(alpha)


FULL_SYSTEM_GROUPS = {
    **{name: build for name, (build, _) in H2_REFERENCE_CASES.items()},
    "C2^4": lambda: direct_product(H2_REFERENCE_CASES["C2^3"][0](), cyclic(2)),
    "C2xC4": lambda: direct_product(cyclic(2), cyclic(4)), "C6": lambda: cyclic(6),
}
FULL_SYSTEM_CASES = [(name, m) for name, (_, ms) in H2_REFERENCE_CASES.items()
                     for m in ms] + [("C2^4", 2), ("D4", 8), ("C2xC4", 8), ("C6", 8)]


@pytest.mark.parametrize("name,m", FULL_SYSTEM_CASES)
def test_h2_classes_match_the_full_system(name, m):
    # one class per class of the |H|^3-row system and its K0 merge; only the
    # representative may differ
    grp = FULL_SYSTEM_GROUPS[name]()
    sub = SubgroupData(grp, range(grp.order))
    got = h2_classes(sub, m)
    want = helpers.h2_classes_full_system(sub, m)
    assert len(got) == len(want)
    for alpha in got:
        assert sum(is_cohomologous(alpha, beta)[0] for beta in want) == 1


def test_h2_classes_match_the_snf_enumeration():
    # the Howell-echelon quotient gives the Smith-form enumeration's tables,
    # in its order, and caps where it caps
    for grp in helpers.group_pool(12) + [cyclic(18)]:
        sub = SubgroupData(grp, range(grp.order))
        for m in (2, 3, 4, 6, 12):
            assert (helpers.h2_outcome(h2_classes, sub, m)
                    == helpers.h2_outcome(helpers.h2_classes_by_snf, sub, m)), (grp.order, m)


def test_root_coboundaries_span_the_kernel_module():
    # L from B^2 and the Hom carries is the module that the kernel over Z/M
    # of the coboundary rows gives: each echelon's rows reduce to 0 against
    # the other, and the two spans have one size
    for grp in helpers.group_pool(16):
        sub = SubgroupData(grp, range(grp.order))
        for m in (2, 3, 4, 6, 12):
            ell = twisted._root_coboundaries(sub, m)
            ref = helpers.root_coboundaries_by_kernel(sub, m)
            for rows, ech in ((ell, ref), (ref, ell)):
                for row in rows:
                    red = modlinalg.reduce_mod(row, ech, m)
                    assert red is not None and not any(red[1]), (grp.name, m)
            assert twisted._span_order(ell, m) == twisted._span_order(ref, m), (grp.name, m)


def test_h2_classes_named_tables():
    k4 = SubgroupData(direct_product(cyclic(2), cyclic(2)), range(4))
    # the lex-least table of the class: the full system's K0 coset gave the
    # rows (0, 3, 2, 5)
    assert h2_classes(k4, 6)[1].exps == ((0, 0, 0, 0), (0, 0, 0, 0),
                                         (0, 3, 0, 3), (0, 3, 0, 3))
    # unchanged: the class of the descended k-form inputs on C2 x C2
    assert h2_classes(k4, 4)[1].exps == ((0, 0, 0, 0), (0, 0, 0, 0),
                                         (0, 2, 0, 2), (0, 2, 0, 2))
    assert h2_classes(k4, 6)[1].exps != helpers.h2_classes_full_system(k4, 6)[1].exps


@pytest.mark.parametrize("grp", helpers.group_pool(16), ids=lambda g: str(g.order))
def test_cocycle_system_shape(grp):
    # the system's S is a least generating set, no larger than sub.gens, and
    # it keeps no zero or repeated row; each relator is a closed walk and
    # gives at most |H| - 1 rows, so the system is never longer than the one
    # on sub.gens with one row per non-tree edge and h != e
    sub = SubgroupData(grp, range(grp.order))
    rows, gens = twisted._cocycle_system(sub, 4), sub.gens
    tree, relators = twisted._cayley(sub)
    size = sub.order
    assert grp.closure([sub.elements[s] for s in gens]) == sub.elements
    assert len(gens) == helpers.least_generating_size(sub.pmul) <= len(generating_set(sub.pmul))
    assert len(tree) == size - 1
    assert all(len(row) == len(gens) * (size - 1) for row in rows)
    assert all(any(row) for row in rows) and len(set(map(tuple, rows))) == len(rows)
    assert len(rows) <= (len(sub.gens) * size - size + 1) * (size - 1)
    assert len(rows) <= len(relators) * (size - 1)
    for cycle in relators:  # every vertex is entered as often as it is left
        balance = Counter()
        for i, y, d in cycle:
            balance[y] -= d
            balance[sub.pmul[gens[i]][y]] += d
        assert not any(balance.values()), cycle
    if any(grp.order_of(x) == size for x in range(size)):
        assert len(relators) == 1


@pytest.mark.parametrize("name,m,most", [("D5", 2, 20), ("C4xC4", 2, 21)])
def test_cocycle_system_rows_come_from_the_relators(name, m, most):
    # one row block per relator, not per non-tree edge: 50 rows on D5 and
    # 159 on C4 x C4 before
    grp = {"D5": lambda: dihedral(5),
           "C4xC4": lambda: direct_product(cyclic(4), cyclic(4))}[name]()
    sub = SubgroupData(grp, range(grp.order))
    rows = twisted._cocycle_system(sub, m)
    assert len(rows) <= most < len(helpers.cocycle_system_by_edges(sub, m))


def test_cocycle_system_has_the_kernel_of_the_edge_system():
    # the relator rows and the per-edge rows have one kernel: the generators
    # of each reduce to 0 against a Howell echelon of the other's
    for grp in helpers.group_pool(16):
        sub = SubgroupData(grp, range(grp.order))
        nvars = len(sub.gens) * (sub.order - 1)
        for m in (2, 3, 4, 6, 12):
            kernels = [modlinalg.kernel_mod(system(sub, m), nvars, m) for system in
                       (twisted._cocycle_system, helpers.cocycle_system_by_edges)]
            for gens, other in (kernels, kernels[::-1]):
                ech = modlinalg.howell_echelon(other, m)
                for g in gens:
                    red = modlinalg.reduce_mod(g, ech, m)
                    assert red is not None and not any(red[1]), (grp.name, m)


def test_h2_classes_on_the_edge_system_give_the_same_tables(monkeypatch):
    # h2_classes with the per-edge system in place of the relator system
    cases = [(SubgroupData(grp, range(grp.order)), m) for grp in helpers.group_pool(16)
             for m in (2, 3, 4, 6, 12)]
    want = [helpers.h2_outcome(h2_classes, sub, m) for sub, m in cases]
    monkeypatch.setattr(twisted, "_cocycle_system", helpers.cocycle_system_by_edges)
    fresh = [(SubgroupData(sub.group, sub.elements), m) for sub, m in cases]
    assert [helpers.h2_outcome(h2_classes, sub, m) for sub, m in fresh] == want


def test_generating_set_rows_decide_the_cocycle_identity():
    # normalized tables, cocycles and not: delta alpha on the rows s in S
    # vanishes exactly when the full check passes
    rng = random.Random(11)
    outcomes = []
    for grp in helpers.group_pool(12):
        sub = SubgroupData(grp, range(grp.order))
        gens = sub.gens
        for m in (2, 3, 4, 6):
            classes = h2_classes(sub, m)
            for _ in range(20):
                exps = [list(row) for row in shift_by_coboundary(
                    rng.choice(classes), [0] + [rng.randrange(m) for _ in range(sub.order - 1)]).exps]
                for _ in range(rng.choice((0, 1, 1, 2, 5))):
                    r, c = rng.randrange(1, sub.order), rng.randrange(1, sub.order)
                    exps[r][c] = rng.randrange(m)
                table = tuple(map(tuple, exps))
                bad = helpers.cocycle_first_bad_row(sub, m, table)
                if bad is None:
                    assert Cocycle(sub, m, table).exps == table
                else:
                    with pytest.raises(CocycleError, match=f"^cocycle identity fails at row {bad}$"):
                        Cocycle(sub, m, table)
                assert helpers.cocycle_rows_hold(sub, m, table, gens) == (bad is None)
                # the rows of S decide, and none fails before the first failing row
                assert bad is None or bad <= min(
                    s for s in gens if not helpers.cocycle_rows_hold(sub, m, table, (s,)))
                outcomes.append(bad is None)
    assert len(outcomes) >= 900 and outcomes.count(False) >= 300


def _wrong_coordinates(z, ech, M):  # reduce_mod, off by one in every coordinate
    c, rest = modlinalg.reduce_mod(z, ech, M)
    return [(x + 1) % M for x in c], rest


# on C2 x C2 a flat table has 16 entries and a coordinate vector 4
def _one_relation_too_many(rows, M):  # the quotient echelon spans one more vector
    return modlinalg.howell_echelon(rows + [[0, 0, 1, 0]] if len(rows[0]) < 16 else rows, M)


def _one_relation_too_few(rows, M):  # the quotient echelon misses the last row
    return modlinalg.howell_echelon(rows[:-1] if len(rows[0]) < 16 else rows, M)


def _every_table_zero(z, ech, M):  # coordinate vectors reduce as they should
    return modlinalg.reduce_least(z, ech, M) if len(z) < 16 else [0] * len(z)


def _every_vector(rows, n_vars, M):  # kernel_mod, ignoring the rows
    return [tuple(int(i == j) for j in range(n_vars)) for i in range(n_vars)]


@pytest.mark.parametrize("grp, target, fake, message", [
    # L from every chi on S, not only the homomorphisms H -> Z/exp(H): on
    # S3 the Hom solve then carries chi(s) = 1, which no homomorphism to
    # Z/6 takes (on C2 x C2 every chi mod 2 is one)
    (dihedral(3), "kernel_mod", _every_vector, "^coboundary is not in the cocycle module$"),
    (None, "reduce_mod", _wrong_coordinates, "^coboundary is not in the cocycle module$"),
    # every class on one table; the coordinates are checked first
    (None, "reduce_least", lambda z, ech, M: [0] * len(z), "^class coordinates are not reduced$"),
    (None, "howell_echelon", _one_relation_too_many, r"^class count is not \|Z\^2\| / \|L\|$"),
    (None, "howell_echelon", _one_relation_too_few,
     "^quotient echelon does not span the relations$"),
    (None, "reduce_least", _every_table_zero, "^class representative is not in its class$"),
], ids=["hom", "coordinates", "distinct", "count", "span", "representative"])
def test_h2_cross_checks_catch_a_corruption(monkeypatch, grp, target, fake, message):
    # on C2 x C2 unless a group is named
    grp = grp or direct_product(cyclic(2), cyclic(2))
    monkeypatch.setattr(twisted, target, fake)
    sub = SubgroupData(grp, range(grp.order))
    with pytest.raises(InternalError, match=message):
        h2_classes(sub, 2)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_h2_classes_are_valid_and_distinct(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    grp = rng.choice([cyclic(4), cyclic(6), direct_product(cyclic(2), cyclic(2)),
                      dihedral(3)])
    sub = SubgroupData(grp, grp.closure([rng.randrange(grp.order)]))
    m = rng.choice((2, 3))
    classes = h2_classes(sub, m)
    assert classes, "class list never empty (trivial class exists)"
    for i, a in enumerate(classes):
        Cocycle(a.sub, a.modulus, a.exps)  # revalidates the cocycle laws
        for b in classes[i + 1:]:
            assert not is_cohomologous(a, b)[0]


def test_binomial_ratio_move_invariance(alpha_inner):
    # the ratio is determined by the class, not the representative
    f = [(2 * (h % 3) + (h // 3)) % 3 if h else 0
         for h in alpha_inner.sub.elements]
    shifted = shift_by_coboundary(alpha_inner, f)
    for word, tau in (((1, 3), (1, 0)), ((3, 1), (1, 0))):
        assert (binomial_ratio(alpha_inner, word, tau)
                == binomial_ratio(shifted, word, tau))


DERIVED_GROUPS = {
    "C2xC2": lambda: direct_product(cyclic(2), cyclic(2)),
    "C2xC4": lambda: direct_product(cyclic(2), cyclic(4)),
    "D4": lambda: dihedral(4),
    "C3xC3": lambda: direct_product(cyclic(3), cyclic(3)),
    "C2xD3": lambda: direct_product(cyclic(2), dihedral(3)),
    "C4xC4": lambda: direct_product(cyclic(4), cyclic(4)),
}


@lru_cache(maxsize=None)
def _derived_group(name):
    return DERIVED_GROUPS[name]()


@lru_cache(maxsize=None)
def _derived_classes(name, gens, m):
    grp = _derived_group(name)
    sub = SubgroupData(grp, grp.closure(gens) if gens else range(grp.order))
    return sub, h2_classes(sub, m)


@contextmanager
def _recording_derived():
    """Every table built through Cocycle._derived while the block runs."""
    made = []
    original = vars(Cocycle)["_derived"]

    def spy(cls, sub, modulus, exps):
        alpha = original.__func__(cls, sub, modulus, exps)
        made.append(alpha)
        return alpha

    Cocycle._derived = classmethod(spy)
    try:
        yield made
    finally:
        Cocycle._derived = original


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_derived_tables_pass_the_full_check(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    name = rng.choice(sorted(set(DERIVED_GROUPS) - {"C4xC4"}))
    grp = _derived_group(name)
    gens = () if rng.random() < 0.5 else tuple(
        sorted(rng.randrange(grp.order) for _ in range(rng.randint(1, 2))))
    m = rng.choice((2, 3, 4, 6))
    sub, classes = _derived_classes(name, gens, m)
    with _recording_derived() as made:
        alpha = shift_by_coboundary(
            rng.choice(classes), [0] + [rng.randrange(m) for _ in range(sub.order - 1)])
        alpha.embedded(m * rng.choice((1, 2, sub.exponent())))
        alpha.embedded(m * sub.exponent())
        for j in range(1, m):
            if gcd(j, m) == 1:
                galois_twist(alpha, j)
        outside = [g for g in range(grp.order) if g not in sub.normalizer]
        for g in rng.sample(sub.normalizer, min(3, len(sub.normalizer))):
            conjugate_cocycle(alpha, g)
            galois_character(g, alpha)
        for g in rng.sample(outside, min(2, len(outside))):
            conjugate_cocycle(alpha, g, sub.conjugated(g))
        shift_by_coboundary(alpha, [0] + [rng.randrange(m) for _ in range(sub.order - 1)])
        class_order(alpha)
        trivial_cocycle(sub, m)
        twisted_group_algebra(alpha)
    moduli = {d.modulus for d in made}
    assert m in moduli and (alpha.is_trivial() or m * sub.exponent() in moduli)
    for d in made:
        assert Cocycle(d.sub, d.modulus, d.exps).exps == d.exps
        assert d.sub.pmul == tuple(map(tuple, helpers.gathered_pmul(d.sub).tolist()))


@lru_cache(maxsize=None)
def _pairwise_classes(name, gens, m):
    sub, _ = _derived_classes(name, gens, m)
    return helpers.h2_classes_pairwise(sub, m)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_cohomology_reductions_match_fresh_solves(data):
    # the cached-echelon reductions against the per-call solves they replaced
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    name = rng.choice(["C2xC2", "C2xC4", "D4", "C3xC3", "C4xC4"])
    grp = _derived_group(name)
    gens = () if rng.random() < 0.5 else (rng.randrange(grp.order),)
    m = rng.choice((2, 3, 4, 6))
    sub, classes = _derived_classes(name, gens, m)
    assert ([(c.modulus, c.exps) for c in classes]
            == [(c.modulus, c.exps) for c in _pairwise_classes(name, gens, m)])

    def shifted(alpha):
        return shift_by_coboundary(alpha, [0] + [rng.randrange(m) for _ in range(sub.order - 1)])

    a = shifted(rng.choice(classes))
    b = shifted(a if rng.random() < 0.5 else rng.choice(classes))
    ok, f, M = is_cohomologous(a, b)
    want = helpers.is_cohomologous_by_solve(a, b)
    assert (ok, M) == (want[0], want[2])
    if ok:
        assert len(f) == sub.order and f[0] == 0
        assert shift_by_coboundary(a.embedded(M), f).exps == b.embedded(M).exps
    else:
        assert f is None
    n = class_order(a)
    assert n == helpers.class_order_by_solve(a)
    for g in sub.normalizer:
        assert galois_character(g, a, n) == helpers.galois_character_by_solve(g, a, n)


def test_galois_character_matches_the_augmented_solve():
    # the swap reflection acts by the unit 2 on the class of order 3
    p = helpers.build_swap_raw()
    for alpha in (p.alpha, shift_by_coboundary(p.alpha, [0, 1, 2, 0, 1, 2, 0, 1, 2])):
        n = class_order(alpha)
        got = [galois_character(g, alpha, n) for g in alpha.sub.normalizer]
        assert got == [helpers.galois_character_by_solve(g, alpha, n)
                       for g in alpha.sub.normalizer]
        assert set(got) == {1, 2}


def test_one_coboundary_echelon_per_subgroup_and_modulus(monkeypatch):
    built = []
    real = twisted.coboundary_rows

    def spy(sub, M):
        rows = real(sub, M)
        built.append((sub, M, len(rows)))
        return rows

    monkeypatch.setattr(twisted, "coboundary_rows", spy)
    p = helpers.build_swap_raw()
    M = p.alpha.modulus * p.sub.exponent()
    compute_KNS(p)
    # only the rows (s, h), s in the generating set, are echeloned
    assert built == [(p.sub, M, len(p.sub.gens) * p.sub.order)]
    assert list(p.sub.coboundary_echelons) == [M]
    compute_KNS(p)
    assert len(built) == 1
    # a conjugate subgroup, equal as a set, keeps an echelon of its own
    conj = p.sub.conjugated(1)
    assert conj is not p.sub and conj.elements == p.sub.elements
    beta = conjugate_cocycle(p.alpha, 1, conj)
    assert is_cohomologous(beta, beta)[0]
    assert built[1:] == [(conj, M, len(conj.gens) * conj.order)] and list(conj.coboundary_echelons) == [M]
    assert conj.coboundary_echelons[M] is not p.sub.coboundary_echelons[M]

    def holders(obj):
        return [id(r) for r in gc.get_referrers(obj) if not inspect.isframe(r)]

    # each echelon is referenced by its subgroup's dict alone, and that dict
    # by the subgroup alone: no gforge module, cache or global holds one
    for sub in (p.sub, conj):
        cache = sub.coboundary_echelons
        assert holders(cache[M]) == [id(cache)]
        assert holders(cache) == [id(sub)]


@pytest.mark.parametrize("name, width", [
    ("C3xC3", 26), ("D4", 23), ("C2xC4", 23), ("C4xC4", 47)])
def test_coboundary_echelon_spans_the_generating_set_rows(name, width):
    # |S| * |H| + |H| - 1 columns (the rows (s, h) and the preimage), not
    # |H|^2 + |H| - 1
    sub, classes = _derived_classes(name, (), 2)
    assert width == len(sub.gens) * sub.order + sub.order - 1 < sub.order ** 2 + sub.order - 1
    alpha = classes[-1]
    class_order(alpha)
    for g in sub.normalizer:
        galois_character(g, alpha)
    assert is_cohomologous(alpha, trivial_cocycle(sub, 3))[2] in sub.coboundary_echelons
    assert all(len(row) == width for image in sub.coboundary_echelons.values() for row in image)


def _pool_subgroups(rng):
    """Every pool group of order <= 16 as a subgroup of itself, and one
    seeded cyclic subgroup of each."""
    for grp in helpers.group_pool(16):
        yield SubgroupData(grp, range(grp.order))
        yield SubgroupData(grp, grp.closure([rng.randrange(1, grp.order)]))


def test_cohomology_queries_match_the_full_table_reductions():
    # the queries reduce the rows s in S only; the full-table reductions
    # they replaced give the same witnesses, orders and characters
    rng = random.Random(13)
    pairs = 0
    for sub in _pool_subgroups(rng):
        grp = sub.group
        for m in (2, 3, 4, 6):
            classes = h2_classes(sub, m)

            def shifted(alpha):
                return shift_by_coboundary(
                    alpha, [0] + [rng.randrange(m) for _ in range(sub.order - 1)])

            for _ in range(3):
                a = shifted(rng.choice(classes))
                b = shifted(a if rng.random() < 0.5 else rng.choice(classes))
                ok, f, M = is_cohomologous(a, b)
                assert (ok, f, M) == helpers.is_cohomologous_full(a, b)
                if ok:  # delta f = b - a on the whole table, not only on S x H
                    assert shift_by_coboundary(a.embedded(M), f).exps == b.embedded(M).exps
                pairs += 1
                n = class_order(a)
                assert n == helpers.class_order_full(a)
                for g in rng.sample(sub.normalizer, min(4, len(sub.normalizer))):
                    assert galois_character(g, a, n) == helpers.galois_character_full(g, a, n)
                # the conjugate's rows read through its position map, as
                # classify and iso_witness read them
                g = rng.randrange(grp.order)
                target = sub if g in sub.normalizer else sub.conjugated(g)
                beta = conjugate_cocycle(shifted(rng.choice(classes)), g, target)
                assert (conjugate_is_cohomologous(a, g, beta)
                        == helpers.is_cohomologous_full(conjugate_cocycle(a, g, target), beta))
    assert pairs == 3 * 4 * 2 * len(helpers.group_pool(16))
