import random
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gforge.algebra import GradedAlgebra, twisted_group_algebra
from gforge import identities
from gforge.cyclo import CycScalar, as_cyc
from gforge.errors import (BudgetExceeded, CapExceeded, InternalError,
                           PreconditionError)
from gforge.identities import (GradedPolynomial, binomial_polynomial,
                               build_m_product, build_witness, evaluate,
                               identity_report, is_good_permutation,
                               is_identity, linearize, nonvanishing_set,
                               path_check, poly_mul, pure_split,
                               rename_variables)
from gforge.presentation import compute_KNS
from gforge.twisted import (binomial_datum, conjugate_cocycle, find_primitive_binomial,
                            galois_twist, is_binomial_identity, lift_unit)

import helpers


def test_polynomial_canonicalization():
    p = GradedPolynomial((("x", 1), ("y", 1)),
                         ((1, ("x", "y")), (1, ("y", "x"))))
    assert p.multilinear and p.multihomogeneous
    q = GradedPolynomial((("x", 1), ("y", 1)),
                         ((1, ("x", "y")), (-1, ("x", "y"))))
    assert q.is_zero
    assert GradedPolynomial((("x", 1),), ((1, ("x",)), (-1, ("x",)))).is_zero
    with pytest.raises(PreconditionError):
        GradedPolynomial((("x", 1), ("x", 2)), ())
    with pytest.raises(PreconditionError):
        GradedPolynomial((("x", 1),), ((1, ("x", "z")),))
    with pytest.raises(PreconditionError):
        GradedPolynomial((("x", 1),), ((1, ()),))
    sq = GradedPolynomial((("x", 1), ("y", 2)), ((1, ("x", "x", "y")),))
    assert not sq.multilinear and sq.multihomogeneous
    mixed = GradedPolynomial((("x", 1), ("y", 2)),
                             ((1, ("x", "y")), (1, ("x", "x"))))
    assert not mixed.multihomogeneous


def test_polynomial_helpers(p_mat3):
    p = GradedPolynomial((("x", 1), ("y", 1)), ((1, ("x", "y")),))
    assert p.degree_product(p_mat3.group) == 0
    r = rename_variables(p, {"x": "z"})
    assert ("z", 1) in r.variables and r.monomials[0][1] == ("z", "y")
    with pytest.raises(PreconditionError):
        rename_variables(p, {"x": "y"})
    prod = poly_mul(p, GradedPolynomial((("w", 0),), ((2, ("w",)),)))
    assert prod.monomials == ((as_cyc(2), ("x", "y", "w")),)
    assert p.scaled(0).is_zero


def test_evaluate_paths(algebras):
    a = algebras["mat3"]
    pp = GradedPolynomial((("x", 1), ("y", 1)), ((1, ("x", "y")),))
    val = evaluate(pp, a, {"x": (0, 0, 2), "y": (0, 2, 0)})
    assert val == a.basis_element(0, 0, 0)
    # mixed triple and element assignments agree
    val2 = evaluate(pp, a, {"x": a.basis_element(0, 0, 2), "y": (0, 2, 0)})
    assert val2 == val
    # mismatched columns kill the monomial
    assert evaluate(pp, a, {"x": (0, 0, 2), "y": (0, 1, 2)}).is_zero()
    with pytest.raises(PreconditionError):
        evaluate(pp, a, {"x": (0, 0, 2)})  # y unassigned
    with pytest.raises(PreconditionError):
        evaluate(pp, a, {"x": (0, 0, 0), "y": (0, 2, 0)})  # degree mismatch
    with pytest.raises(PreconditionError):
        evaluate(pp, a, {"x": "u", "y": (0, 2, 0)})


def test_pauli_identity_pair(algebras):
    a = algebras["pauli"]
    p_plus = GradedPolynomial((("x", 1), ("y", 2)),
                              ((1, ("x", "y")), (1, ("y", "x"))))
    p_minus = GradedPolynomial((("x", 1), ("y", 2)),
                               ((1, ("x", "y")), (-1, ("y", "x"))))
    assert is_identity(p_plus, a) is True
    rep = identity_report(p_minus, a)
    assert rep.identity is False and rep.search_space == 1
    assert rep.counterexample is not None and not rep.value.is_zero()
    with pytest.raises(BudgetExceeded):
        identity_report(p_minus, a, budget=0)


def test_zero_and_unused_variables(algebras):
    a = algebras["pauli"]
    zero = GradedPolynomial((("x", 1),), ())
    rep = identity_report(zero, a)
    assert rep.identity and rep.search_space == 0
    # unused variables do not inflate the search space
    p = GradedPolynomial((("x", 1), ("y", 2), ("u", 3)),
                         ((1, ("x", "y")), (1, ("y", "x"))))
    assert identity_report(p, a).search_space == 1


def test_linearize():
    sq = GradedPolynomial((("x", 1),), ((1, ("x", "x")),))
    lin = linearize(sq)
    expect = GradedPolynomial((("t1", 1), ("t2", 1)),
                              ((1, ("t1", "t2")), (1, ("t2", "t1"))))
    assert lin == expect
    sqy = GradedPolynomial((("x", 1), ("y", 0)), ((1, ("x", "x", "y")),))
    expect2 = GradedPolynomial((("t1", 1), ("t2", 1), ("y", 0)),
                               ((1, ("t1", "t2", "y")), (1, ("t2", "t1", "y"))))
    assert linearize(sqy) == expect2
    # multilinear input is a fixed point
    p = GradedPolynomial((("x", 1), ("y", 1)), ((1, ("x", "y")),))
    assert linearize(p) == p
    with pytest.raises(PreconditionError):
        linearize(GradedPolynomial((("x", 1), ("y", 1)),
                                   ((1, ("x", "x")), (1, ("x", "y")))))
    # collapsing the fresh variables recovers twice the square
    coll = GradedPolynomial(
        (("x", 1),), tuple((c, tuple("x" for _ in s)) for c, s in lin.monomials))
    assert coll == sq.scaled(2)


def test_identity_oracle_linearizes(algebras):
    rep = identity_report(
        GradedPolynomial((("x", 1),), ((1, ("x", "x")),)), algebras["pauli"])
    assert rep.linearized is True and rep.identity is False


def test_good_permutations(p_mat3, p_pauli):
    assert is_good_permutation(p_mat3, (1, 1), (0, 1)) is True
    assert is_good_permutation(p_mat3, (1, 1), (1, 0)) is False
    assert is_good_permutation(p_mat3, (1, 1, 1, 1), (2, 3, 0, 1)) is True
    # full subgroup grading: every permutation is good
    for sigma in permutations(range(3)):
        assert is_good_permutation(p_pauli, (1, 2, 3), sigma) is True
    with pytest.raises(PreconditionError):
        is_good_permutation(p_mat3, (1, 1), (0, 0))
    with pytest.raises(PreconditionError):
        is_good_permutation(p_mat3, (1, 9), (0, 1))


def test_pure_split(p_mat3, p_pauli):
    pm = GradedPolynomial((("x", 1), ("y", 1)),
                          ((1, ("x", "y")), (-1, ("y", "x"))))
    parts = pure_split(pm, p_mat3)
    assert len(parts) == 2 and all(len(x.monomials) == 1 for x in parts)
    parts_pauli = pure_split(
        GradedPolynomial((("x", 1), ("y", 2)),
                         ((1, ("x", "y")), (1, ("y", "x")))), p_pauli)
    assert len(parts_pauli) == 1
    with pytest.raises(PreconditionError):
        pure_split(GradedPolynomial((("x", 1),), ((1, ("x", "x")),)), p_mat3)


def test_path_check(algebras, p_pauli, p_swap):
    a = algebras["pauli"]
    chain = compute_KNS(p_pauli)
    p_plus = GradedPolynomial((("x", 1), ("y", 2)),
                              ((1, ("x", "y")), (1, ("y", "x"))))
    p_minus = GradedPolynomial((("x", 1), ("y", 2)),
                               ((1, ("x", "y")), (-1, ("y", "x"))))
    pr = path_check(p_plus, a, chain)
    assert pr.identity and all(pr.vanishes) and pr.equivalent
    pr2 = path_check(p_minus, a, chain)
    assert not pr2.identity and not any(pr2.vanishes) and pr2.equivalent
    assert pr2.coeffs_in_k
    # repeated coset entries are rejected
    pm = GradedPolynomial((("x", 1), ("y", 1)),
                          ((1, ("x", "y")), (-1, ("y", "x"))))
    with pytest.raises(PreconditionError):
        path_check(pm, algebras["mat3"])
    # matrix block case: forced paths agree with the brute-force verdict
    a_swap = algebras["swap"]
    grp = p_swap.group
    poly_sw = GradedPolynomial((("x", 2), ("y", grp.inv(2))),
                               ((1, ("x", "y")), (1, ("y", "x"))))
    pr3 = path_check(poly_sw, a_swap, compute_KNS(p_swap))
    assert pr3.equivalent


def test_witness_block_walk(algebras):
    wb = build_witness(algebras["mat3"])
    assert wb.e0 == ((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0),
                     (0, 0, 2), (0, 2, 2), (0, 2, 2))
    assert len(wb.e1) == 15
    seqv = wb.z1.monomials[0][1]
    assert [seqv[i] for i in wb.designated] == ["x1", "x2", "x3", "x4", "x5"]
    assert wb.basic["x1"] == (0, 0, 0) and wb.basic["x2"] == (0, 0, 1)
    assert wb.basic["x5"] == (0, 2, 2)
    # the block bridge leaves the subgroup grading
    assert wb.basic["w2"] == (0, 0, 2)
    assert algebras["mat3"].degree(*wb.basic["w2"]) == 1
    assert len(wb.p1.monomials) == 120
    # walk ends are non-designated frame-degree elements
    assert seqv[0].startswith("w") and seqv[-1].startswith("w")
    # every designated element sits between frame or bridge values
    for pos in wb.designated:
        assert pos - 1 in wb.frames or pos - 1 in wb.bridges
        assert pos + 1 in wb.frames or pos + 1 in wb.bridges
    # alternation: transposing two designated variables negates the polynomial
    swapped = rename_variables(wb.p1, {"x1": "x2", "x2": "x1"})
    assert swapped == wb.p1.scaled(-1)


def test_witness_nonvanishing(algebras):
    wb = build_witness(algebras["mat3"])
    nv = nonvanishing_set(wb)
    assert tuple(range(5)) in nv
    assert len(nv) == 24 and all(s[4] == 4 for s in nv)
    # exactly one monomial survives the basic evaluation
    v_p1 = evaluate(wb.p1, algebras["mat3"], wb.basic)
    v_z1 = evaluate(wb.z1, algebras["mat3"], wb.basic)
    assert v_p1 == v_z1 and not v_z1.is_zero()
    assert set(v_z1.support()) == {(0, 0, 2)}
    with pytest.raises(BudgetExceeded):
        nonvanishing_set(wb, budget=1)


def test_witness_other_shapes(algebras):
    with pytest.raises(CapExceeded):
        build_witness(algebras["d6"])
    wbp = build_witness(algebras["pauli"])
    assert len(wbp.designated) == 1 and len(wbp.p1.monomials) == 1
    assert nonvanishing_set(wbp) == frozenset({(0,)})
    wbs = build_witness(algebras["swap"])
    assert len(wbs.designated) == 2
    assert nonvanishing_set(wbs) == frozenset({(0, 1), (1, 0)})


def test_binomial_polynomial_cross_oracle(p_pauli):
    word, tau = (1, 2), (1, 0)
    tga = twisted_group_algebra(p_pauli.alpha)
    for zexp in range(2):
        bp = binomial_polynomial(p_pauli.alpha, word, tau, zexp)
        assert is_identity(bp, tga) == is_binomial_identity(
            p_pauli.alpha, word, tau, zexp)
    with pytest.raises(PreconditionError):
        binomial_polynomial(p_pauli.alpha, (1, 2), (0, 0), 1)


def test_m_product_inner(p_inner):
    chain = compute_KNS(p_inner)
    wit = find_primitive_binomial(p_inner.alpha, chain.n)
    m = build_m_product(p_inner.alpha, chain, wit)
    tga = twisted_group_algebra(p_inner.alpha)
    assert is_identity(m, tga) is True
    # conjugating by subgroup elements preserves the identity
    for s in chain.S[:4]:
        conj = conjugate_cocycle(p_inner.alpha, s)
        assert is_identity(m, twisted_group_algebra(conj)) is True
    # a unit outside the character image is detected
    tw = galois_twist(p_inner.alpha, lift_unit(2, chain.n, p_inner.alpha.modulus))
    assert is_identity(m, twisted_group_algebra(tw)) is False


def test_m_product_swap(p_swap):
    chain = compute_KNS(p_swap)
    wit = find_primitive_binomial(p_swap.alpha, chain.n)
    m = build_m_product(p_swap.alpha, chain, wit)
    assert chain.sbar_image == (1, 2)
    # expanded coefficients descend to the rational minimal field
    assert sorted(abs(int(c.as_rational())) for c, _ in m.monomials) == [1, 1, 2, 2]
    tga = twisted_group_algebra(p_swap.alpha)
    assert is_identity(m, tga) is True
    for s in chain.S[:3]:
        conj = conjugate_cocycle(p_swap.alpha, s)
        assert is_identity(m, twisted_group_algebra(conj)) is True


def test_m_product_small_orders(p_pauli, p_d6):
    chain = compute_KNS(p_pauli)
    wit = find_primitive_binomial(p_pauli.alpha, chain.n)
    m = build_m_product(p_pauli.alpha, chain, wit)
    assert is_identity(m, twisted_group_algebra(p_pauli.alpha)) is True
    chain_d6 = compute_KNS(p_d6)
    wit_d6 = find_primitive_binomial(p_d6.alpha, chain_d6.n)
    m_d6 = build_m_product(p_d6.alpha, chain_d6, wit_d6)
    assert is_identity(m_d6, twisted_group_algebra(p_d6.alpha)) is True


def test_m_product_rejects_false_witness(p_pauli):
    chain = compute_KNS(p_pauli)
    wit = find_primitive_binomial(p_pauli.alpha, chain.n)
    bad = type(wit)(wit.word, wit.perm, (wit.ratio + 1) % p_pauli.alpha.modulus)
    with pytest.raises(PreconditionError):
        build_m_product(p_pauli.alpha, chain, bad)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_identity_perm_always_good(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    p = helpers.random_presentation(rng, helpers.group_pool(10), max_len=4)
    r = data.draw(st.integers(1, 4))
    degrees = [rng.randrange(p.group.order) for _ in range(r)]
    assert is_good_permutation(p, degrees, tuple(range(r))) is True


# The walk enumeration of identity_report against the assignment scan it
# replaced (helpers.identity_report_scan), field by field.

def _assert_same_report(got, want):
    assert helpers.report_fields(got) == helpers.report_fields(want)


def _check_against_scan(p, algebra, budget=10 ** 7):
    got = identity_report(p, algebra, budget)
    _assert_same_report(got, helpers.identity_report_scan(p, algebra, budget))
    return got


def _random_coeff(rng, m):
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
    if kind == 1:
        return CycScalar.from_root(m, rng.randrange(m))
    n = rng.choice([n for n in (3, 4, 5, 8) if m % n])
    return CycScalar.from_root(n, rng.randrange(n)) * Fraction(1, rng.randint(1, 3))


def _random_polynomial(rng, algebra, max_space=3000):
    """1-4 variables of seeded degrees (mostly ones with basis elements,
    often nonzero ones), 1-5 monomials over all of them; sometimes one
    variable occurs twice in every monomial, which needs linearization."""
    grp = algebra.group
    present = sorted(algebra.dims)
    r = rng.randint(1, 4)
    degs = [0 if rng.random() < 0.4 else rng.choice(present) for _ in range(r)]
    if rng.random() < 0.05:
        degs[-1] = rng.randrange(grp.order)  # possibly an empty degree
    while r > 1 and prod(len(algebra.basis_of_degree(d)) for d in degs) > max_space:
        degs.pop()
        r -= 1
    ids = [f"x{t + 1}" for t in range(r)]
    word = ids + ids[:1] if r < 4 and rng.random() < 0.15 else ids
    monos = []
    for _ in range(rng.randint(1, 5)):
        seq = word[:]
        rng.shuffle(seq)
        monos.append((_random_coeff(rng, algebra.alpha.modulus), tuple(seq)))
    return GradedPolynomial(tuple(zip(ids, degs)), tuple(monos))


def _pattern_algebra(rng, mults=None):
    m = rng.choice((2, 3, 4, 6))
    if mults is None:
        mults = rng.choice(((1,), (2,), (3,), (1, 1), (2, 1), (3, 1), (2, 2),
                            (1, 1, 1)))
    return GradedAlgebra(helpers.pattern_presentation(rng, m, mults))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_identity_report_matches_scan(algebras, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    if rng.random() < 0.4:
        algebra = algebras[rng.choice(sorted(algebras))]
    else:
        algebra = _pattern_algebra(rng)
    _check_against_scan(_random_polynomial(rng, algebra), algebra)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_identity_report_matches_scan_on_small_slabs(algebras, data):
    # a small slab limit fixes several leading variables per slab
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    algebra = (algebras[rng.choice(sorted(algebras))] if rng.random() < 0.4
               else _pattern_algebra(rng))
    p = _random_polynomial(rng, algebra)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "SLAB_LIMIT", data.draw(st.sampled_from((1, 2, 8))))
        _check_against_scan(p, algebra)


def test_identity_report_past_first_slab(algebras):
    d6 = algebras["d6"]
    p = GradedPolynomial((("x1", 0), ("x2", 1)), ((1, ("x2", "x1")),))
    rep = _check_against_scan(p, d6)
    slab = len(d6.basis_of_degree(1))
    assert rep.identity is False and rep.checked > 4 * slab
    three = GradedPolynomial((("x1", 0), ("x2", 0), ("x3", 4)),
                             ((1, ("x1", "x3", "x2")), (-1, ("x1", "x2", "x3")),
                              (2, ("x2", "x3", "x1"))))
    rep = _check_against_scan(three, d6)
    assert rep.checked > len(d6.basis_of_degree(0)) * len(d6.basis_of_degree(4))


def test_identity_report_matches_scan_on_identities():
    rng = random.Random(5)
    # s_4 is an identity of the 2x2 diagonal blocks, s_3 is not
    for _ in range(3):
        algebra = _pattern_algebra(rng, (2, 2))
        assert _check_against_scan(helpers.standard_polynomial(4), algebra).identity is True
        assert _check_against_scan(helpers.standard_polynomial(3), algebra).identity is False
    # the Hall polynomial, linearized, on 2x2 blocks
    rep = _check_against_scan(helpers.hall_polynomial(), _pattern_algebra(rng, (2, 1)))
    assert rep.identity is True and rep.linearized is True


def test_identity_report_matches_scan_on_m_products(p_pauli, p_swap, p_inner):
    for pres in (p_pauli, p_swap, p_inner):
        alpha = pres.alpha
        chain = compute_KNS(pres)
        prod_poly = build_m_product(alpha, chain,
                                    find_primitive_binomial(alpha, chain.n))
        for s in chain.S[:3]:
            tga = twisted_group_algebra(conjugate_cocycle(alpha, s))
            assert _check_against_scan(prod_poly, tga).identity is True
        for j in range(2, chain.n):
            if gcd(j, chain.n) == 1 and j not in chain.sbar_image:
                tw = galois_twist(alpha, lift_unit(j, chain.n, alpha.modulus))
                rep = _check_against_scan(prod_poly, twisted_group_algebra(tw))
                assert rep.identity is False


# The scan over lex-least lead prefixes against the scan over every lead
# prefix (helpers.first_nonzero_all_leads), field by field.

LEAD_MULTS = ((2,), (3,), (2, 2), (3, 1), (2, 2, 1))


@pytest.mark.parametrize("slab_limit", (identities.SLAB_LIMIT, 1, 2, 8))
def test_identity_report_matches_all_leads(slab_limit, monkeypatch):
    monkeypatch.setattr(identities, "SLAB_LIMIT", slab_limit)
    # small slabs cost a walk set-up per slab; keep their spaces small
    max_space = 10 ** 5 if slab_limit > 8 else 4096
    rng = random.Random(slab_limit)
    verdicts = Counter()
    for mults in LEAD_MULTS:
        for m in (2, 3, 4, 6):
            algebra = GradedAlgebra(helpers.pattern_presentation(rng, m, mults))
            polys = [helpers.standard_polynomial(r) for r in range(2, 6)]
            polys.append(helpers.hall_polynomial())
            polys += [_random_polynomial(rng, algebra) for _ in range(3)]
            for p in polys:
                q = p if p.multilinear else linearize(p)
                if prod(len(algebra.basis_of_degree(d)) for _, d in q.variables) > max_space:
                    continue
                got = identity_report(p, algebra)
                _assert_same_report(got, helpers.identity_report_all_leads(p, algebra))
                verdicts[got.identity] += 1
    assert verdicts[True] and verdicts[False]


def _orbit_least_prefixes(algebra, degrees):
    """Brute force: the index tuples that no position permutation within the
    blocks makes lex-smaller, the permutations enumerated one by one."""
    cands = [algebra.basis_of_degree(g) for g in degrees]
    where = [{x: c for c, x in enumerate(cand)} for cand in cands]
    perms = []
    for images in iproduct(*(permutations(b) for b in algebra.blocks)):
        pi = list(range(algebra.size))
        for block, image in zip(algebra.blocks, images):
            for x, y in zip(block, image):
                pi[x] = y
        perms.append(pi)
    out = []
    for lead in iproduct(*(range(len(c)) for c in cands)):
        triples = [cands[t][c] for t, c in enumerate(lead)]
        if all(tuple(where[t][(h, pi[i], pi[j])] for t, (h, i, j) in enumerate(triples))
               >= lead for pi in perms):
            out.append(lead)
    return out


def test_lead_prefixes_are_the_orbit_least_ones():
    rng = random.Random(11)
    tried = 0
    for mults in ((2,), (3,), (2, 1), (3, 1), (2, 2), (2, 2, 1), (1, 1, 1)):
        for m in (2, 3, 4, 6):
            algebra = GradedAlgebra(helpers.pattern_presentation(rng, m, mults))
            present = sorted(algebra.dims)
            for r in (1, 2, 3):
                degrees = tuple(0 if rng.random() < 0.5 else rng.choice(present)
                                for _ in range(r))
                if prod(algebra.dims[g] for g in degrees) > 2000:
                    continue
                want = _orbit_least_prefixes(algebra, degrees)
                assert list(algebra.lead_prefixes(degrees)) == want
                # a second call reads the kept graph
                assert list(algebra.lead_prefixes(degrees)) == want
                tried += 1
    assert tried == 84


def test_lead_prefixes_without_symmetry_are_every_prefix():
    rng = random.Random(3)
    for mults in ((1,), (1, 1), (1, 1, 1)):
        algebra = GradedAlgebra(helpers.pattern_presentation(rng, 4, mults))
        assert len(algebra.blocks) == algebra.size
        for degrees in iproduct(sorted(algebra.dims), repeat=2):
            assert list(algebra.lead_prefixes(degrees)) == list(
                iproduct(*(range(algebra.dims[g]) for g in degrees)))


def test_lead_prefix_orderings():
    # the lex-least argument compares prefixes through these two orders
    rng = random.Random(2)
    for mults in LEAD_MULTS + ((1, 1, 1),):
        for m in (2, 3, 4, 6):
            algebra = GradedAlgebra(helpers.pattern_presentation(rng, m, mults))
            pos = algebra.sub.pos
            for g in algebra.dims:
                basis = algebra.basis_of_degree(g)
                keys = [(pos[h], i, j) for h, i, j in basis]
                assert keys == sorted(keys)
            assert all(list(b) == sorted(b) for b in algebra.blocks)
            assert sorted(x for b in algebra.blocks for x in b) == list(range(algebra.size))


def _count_scanned_prefixes(monkeypatch):
    counted = []
    scan = GradedAlgebra.lead_prefixes

    def lead_prefixes(algebra, degrees):
        for lead in scan(algebra, degrees):
            counted.append(lead)
            yield lead

    monkeypatch.setattr(GradedAlgebra, "lead_prefixes", lead_prefixes)
    return counted


def test_lead_prefix_counts_of_s4_and_hall(monkeypatch):
    rng = random.Random(5)
    two_two = _pattern_algebra(rng, (2, 2))
    two_one = _pattern_algebra(rng, (2, 1))
    counted = _count_scanned_prefixes(monkeypatch)
    # s4 on 8 degree-e triples: (i, j) within a block, i least of it
    rep = identity_report(helpers.standard_polynomial(4), two_two)
    assert rep.identity is True and rep.checked == 8 ** 4
    assert len(counted) == 4
    # the Hall polynomial on 5 degree-e triples: (a, a), (a, b), (c, c)
    counted.clear()
    rep = identity_report(helpers.hall_polynomial(), two_one)
    assert rep.identity is True and rep.checked == 5 ** 5
    assert len(counted) == 3
    # slabs of 8 fix three variables: 160 of the 512 prefixes
    monkeypatch.setattr(identities, "SLAB_LIMIT", 8)
    counted.clear()
    assert identity_report(helpers.standard_polynomial(4), two_two).identity is True
    assert len(counted) == 160
    assert counted == _orbit_least_prefixes(two_two, (0, 0, 0))


def test_identity_report_budget_edge(algebras):
    a = algebras["mat3"]
    p = helpers.standard_polynomial(3)
    rep = _check_against_scan(p, a, budget=125)
    assert rep.search_space == 125 and rep.checked == 8
    with pytest.raises(BudgetExceeded, match="needs 125 evaluations, over budget 124"):
        identity_report(p, a, budget=124)


def test_identity_report_cross_checks_the_witness(algebras, monkeypatch):
    # an enumeration that named a zero assignment is caught by evaluate
    p_plus = GradedPolynomial((("x", 1), ("y", 2)),
                              ((1, ("x", "y")), (1, ("y", "x"))))
    monkeypatch.setattr(identities, "_first_nonzero", lambda *args: 0)
    with pytest.raises(InternalError, match="evaluates to zero"):
        identity_report(p_plus, algebras["pauli"])


def test_linearize_budget(algebras):
    pauli = algebras["pauli"]
    x8 = GradedPolynomial((("x", 1),), ((1, ("x",) * 8),))
    with pytest.raises(BudgetExceeded,
                       match="linearization needs 40320 monomials, over budget 10"):
        identity_report(x8, pauli, budget=10)
    with pytest.raises(BudgetExceeded, match="over budget 10"):
        linearize(x8, budget=10)
    # 12! monomials would not fit in memory; the count is refused first
    x12 = GradedPolynomial((("x", 1),), ((1, ("x",) * 12),))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="linearization needs 479001600 monomials"):
        identity_report(x12, pauli)
    assert time.perf_counter() - start < 1.0
    # monomials times the factorial of every repeat count, at the edge
    sqy = GradedPolynomial((("x", 1), ("y", 0)),
                           ((1, ("x", "x", "y", "y", "y")), (2, ("y", "x", "x", "y", "y"))))
    assert len(linearize(sqy, budget=24).monomials) == 24
    with pytest.raises(BudgetExceeded):
        linearize(sqy, budget=23)


@pytest.mark.parametrize("bad", [1.7, "1", True], ids=["float", "str", "bool"])
def test_entry_points_refuse_non_integers(p_pauli, bad):
    # int() read each of these as 1, so every call below went through
    alpha = p_pauli.alpha
    cases = [
        (lambda: GradedPolynomial((("x", bad),), ((1, ("x",)),)),
         "variable degrees must be integers"),
        (lambda: is_good_permutation(p_pauli, (bad, 2), (1, 0)),
         "degrees and sigma must be integers"),
        (lambda: is_good_permutation(p_pauli, (1, 2), (bad, 0)),
         "degrees and sigma must be integers"),
        (lambda: binomial_polynomial(alpha, (bad, 2), (1, 0), 0), "word and tau must be integers"),
        (lambda: binomial_polynomial(alpha, (1, 2), (bad, 0), 0), "word and tau must be integers"),
        (lambda: binomial_datum(alpha, (bad, 2), (1, 0)), "word and perm must be integers"),
        (lambda: binomial_datum(alpha, (1, 2), (bad, 0)), "word and perm must be integers"),
    ]
    for call, message in cases:
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            call()
    # the same calls on ints
    GradedPolynomial((("x", 1),), ((1, ("x",)),))
    is_good_permutation(p_pauli, (1, 2), (1, 0))
    binomial_polynomial(alpha, (1, 2), (1, 0), 0)
    assert binomial_datum(alpha, (1, 2), (1, 0)).word == (1, 2)
