import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gforge import algebra as algebra_mod
from gforge import modlinalg, twisted
from gforge.algebra import (MODES, RELATED_DISTINCT, SAME_BLOCK, UNRELATED,
                            GradedAlgebra, bridge, build_k_form, multiply,
                            relate, twisted_group_algebra)
from gforge.cyclo import CycScalar, SubfieldDescriptor, as_cyc, phi
from gforge.errors import (CapExceeded, GForgeError, InternalError,
                           PreconditionError, PresentationError)
from gforge.groups import cyclic, dihedral, direct_product, SubgroupData
from gforge.twisted import h2_classes, shift_by_coboundary, trivial_cocycle
from gforge.presentation import Presentation, normalize, validate_presentation

import helpers
from helpers import dense_element as _dense


def test_dimensions(algebras):
    dims = {name: a.dim for name, a in algebras.items()}
    assert dims == {"pauli": 4, "swap": 36, "d6": 64, "mat3": 9, "inner": 9}
    for a in algebras.values():
        assert sum(a.dims.values()) == a.dim
        assert a.dims[0] == sum(m * m for _, m in a.presentation.lam.counts)


def test_degree_formula(algebras):
    for a in algebras.values():
        grp = a.group
        for (h, i, j) in list(a._deg)[:50]:
            want = grp.mul(grp.inv(a.entries[i]), grp.mul(h, a.entries[j]))
            assert a.degree(h, i, j) == want
        seen = 0
        for g in range(grp.order):
            part = a.basis_of_degree(g)
            seen += len(part)
            assert all(a.degree(*t) == g for t in part)
        assert seen == a.dim
    with pytest.raises(PreconditionError):
        algebras["pauli"].degree(1, 0, 1)


def test_multiply_rule(algebras):
    a = algebras["pauli"]
    m = a.alpha.modulus
    for x in a._deg:
        for y in a._deg:
            prod = multiply(a.basis_element(*x), a.basis_element(*y))
            if x[2] != y[1]:
                assert prod.is_zero()
                continue
            hh = a.sub.group.mul(x[0], y[0])
            key = (hh, x[1], y[2])
            ax = a.sub.pos[x[0]]
            ay = a.sub.pos[y[0]]
            want = CycScalar.from_root(m, a.alpha.exps[ax][ay])
            assert prod.terms == {key: want}


def test_associativity_small(algebras):
    for name in ("pauli", "mat3", "inner"):
        a = algebras[name]
        basis = [a.basis_element(*t) for t in a._deg]
        for x in basis:
            for y in basis:
                xy = x * y
                for z in basis:
                    assert (xy * z) == (x * (y * z))


def test_associativity_sampled(algebras):
    rng = random.Random(5)
    for name in ("swap", "d6"):
        a = algebras[name]
        triples = list(a._deg)
        for _ in range(300):
            x, y, z = (a.basis_element(*rng.choice(triples)) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_unit_and_linearity(algebras):
    rng = random.Random(6)
    for a in algebras.values():
        one = a.one()
        triples = list(a._deg)
        x = a.element({rng.choice(triples): 3, rng.choice(triples): -1})
        y = a.basis_element(*rng.choice(triples), coeff=2)
        z = a.basis_element(*rng.choice(triples))
        assert one * x == x and x * one == x
        assert (x + y) * z == x * z + y * z
        assert z * (x - y) == z * x - z * y
        assert x.scaled(5) * y == (x * y).scaled(5)
        assert (x - x).is_zero()


def test_homogeneous_degree(algebras):
    a = algebras["swap"]
    t = next(iter(a._deg))
    assert a.basis_element(*t).homogeneous_degree() == a.degree(*t)
    assert a.zero().homogeneous_degree() is None
    mixed = {}
    for u in a._deg:
        if a.degree(*u) != a.degree(*t):
            mixed = a.element({t: 1, u: 1})
            break
    assert mixed.homogeneous_degree() is None


def test_degree_multiplicativity(algebras):
    for a in algebras.values():
        grp = a.group
        triples = list(a._deg)
        rng = random.Random(7)
        for _ in range(100):
            x = rng.choice(triples)
            y = rng.choice(triples)
            prod = multiply(a.basis_element(*x), a.basis_element(*y))
            if not prod.is_zero():
                want = grp.mul(a.degree(*x), a.degree(*y))
                assert prod.homogeneous_degree() == want


def test_relate_trichotomy(algebras, p_related):
    mat3 = algebras["mat3"]
    assert relate(mat3, 0, 1) == SAME_BLOCK
    assert relate(mat3, 0, 2) == UNRELATED
    swap = algebras["swap"]
    assert relate(swap, 0, 1) == UNRELATED
    rel = GradedAlgebra(p_related)
    assert relate(rel, 0, 1) == RELATED_DISTINCT
    with pytest.raises(PreconditionError):
        relate(mat3, 0, 3)
    # two distinct representatives of one right H-coset are not comparable
    grp = dihedral(3)
    sub = SubgroupData(grp, (0, 3))
    dup = GradedAlgebra(Presentation(grp, sub, trivial_cocycle(sub), (1, 5)))
    with pytest.raises(PreconditionError):
        relate(dup, 0, 1)


def test_bridge_cases(algebras, p_related):
    mat3 = algebras["mat3"]
    c = bridge(mat3, (0, 0, 0), (0, 1, 1))
    assert c == (0, 0, 1) and mat3.degree(*c) == 0
    c = bridge(mat3, (0, 1, 0), (0, 2, 2))
    assert c[1:] == (0, 2) and mat3.degree(*c) not in mat3.sub.eset
    swap = algebras["swap"]
    c = bridge(swap, (0, 0, 0), (0, 1, 1))
    assert c == (0, 0, 1) and swap.degree(*c) not in swap.sub.eset
    rel = GradedAlgebra(p_related)
    c = bridge(rel, (0, 0, 0), (0, 1, 1))
    assert c == (3, 0, 1)
    d = rel.degree(*c)
    assert d in rel.sub.eset and d != 0
    # a bridge really bridges: the three-fold product is nonzero
    for a, z, w in ((mat3, (0, 0, 0), (0, 1, 1)),
                    (swap, (0, 0, 0), (0, 1, 1)),
                    (rel, (0, 0, 0), (0, 1, 1))):
        c = bridge(a, z, w)
        prod = a.basis_element(*z) * a.basis_element(*c) * a.basis_element(*w)
        assert not prod.is_zero()
    with pytest.raises(PreconditionError):
        bridge(mat3, (0, 0, 2), (0, 1, 1))  # left endpoint not degree e


def test_twisted_group_algebra(p_pauli):
    a = twisted_group_algebra(p_pauli.alpha)
    assert a.dim == 4 and a.size == 1
    # basis ids are subgroup positions; u_x u_y = zeta^alpha(x, y) u_(xy)
    m = p_pauli.alpha.modulus
    for x in range(a.group.order):
        for y in range(a.group.order):
            prod = a.basis_element(x, 0, 0) * a.basis_element(y, 0, 0)
            want = CycScalar.from_root(m, p_pauli.alpha.exps[x][y])
            assert prod.terms == {(a.group.mul(x, y), 0, 0): want}


def test_dimension_cap():
    grp = cyclic(5)
    sub = SubgroupData(grp, tuple(range(5)))
    with pytest.raises(CapExceeded):
        GradedAlgebra(Presentation(grp, sub, trivial_cocycle(sub), (0,) * 30))


def test_k_form_corpus(corpus):
    expected_gens = {"pauli": 8, "swap": 15, "d6": 23, "mat3": 13, "inner": 14}
    for name, p in corpus.items():
        res = build_k_form(p)
        rep = res.report
        assert rep.ok, name
        assert rep.mode == "corrected"
        assert rep.k_dim == rep.expected_dim == res.algebra.dim
        assert rep.f_span_full
        assert len(res.generators) == len(res.labels) == expected_gens[name]
        assert all(not g.is_zero() for g in res.generators)


def test_k_form_requires_factored_tuple(p_swap_raw):
    with pytest.raises(PresentationError):
        build_k_form(p_swap_raw)


def test_k_form_uncorrected_modes_overshoot(p_swap):
    for mode in ("conjugate", "galois"):
        res = build_k_form(p_swap, mode=mode)
        assert res.report.k_dim == 72
        assert not res.report.ok
    assert build_k_form(p_swap).report.descent_enforced
    with pytest.raises(PreconditionError):
        build_k_form(p_swap, mode="other")


class _SlotArgs(Exception):
    pass


def _slot_args(p, mode, monkeypatch):
    """The arguments build_k_form passes to _slot_witnesses, or None when it
    fails before the slot search."""
    def capture(*args):
        raise _SlotArgs(args)

    with monkeypatch.context() as mp:
        mp.setattr(algebra_mod, "_slot_witnesses", capture)
        try:
            build_k_form(p, mode)
        except _SlotArgs as found:
            return found.args[0]
        except GForgeError:
            return None
    raise AssertionError("build_k_form skipped the slot search")


def _slot_outcome(fn, args):
    try:
        return fn(*args)
    except GForgeError as e:
        return type(e), str(e)


def test_slot_witnesses_match_the_full_table_search(corpus, monkeypatch):
    # the witnesses from the cohomology queries and the S x H descent rows
    # against the per-try |H|^2 solves they replaced, on the semidirect
    # products (C_p x C_p) x| C_k and the corpus
    cases = list(helpers.semidirect_pair_presentations(random.Random("slots"), count=3))
    cases += [("swap_normal", corpus["swap"]), ("inner", corpus["inner"])]
    searched = set()
    for name, p in cases:
        try:
            p = normalize(p)
        except GForgeError:
            continue
        for mode in MODES:
            args = _slot_args(p, mode, monkeypatch)
            if args is None:
                continue
            got = _slot_outcome(algebra_mod._slot_witnesses, args)
            assert got == _slot_outcome(helpers.slot_witnesses_full, args), (name, mode)
            grp, _, g_slots, chars, n, _ = args
            if mode == "corrected" and not isinstance(got[0], type):
                for gc in g_slots[1:]:
                    involutive = chars[gc] ** 2 % n == 1 % n and grp.mul(gc, gc) == 0
                    searched.add((involutive, got[2]))
    # an enforced involutive slot, and a non-involutive one from the query
    assert {(True, True), (False, False)} <= searched


def test_k_form_solves_no_full_table_system(monkeypatch):
    # every coboundary system has the rows (s, h), s in S, plus at most the
    # 2 (|H| - 1) descent rows, never the |H|^2 rows of the whole table
    p = normalize(helpers.build_swap_raw())
    sizes = []
    real = modlinalg.split_echelon

    def spy(a_rows, n_vars, M):
        a_rows = list(a_rows)
        sizes.append(len(a_rows))
        return real(a_rows, n_vars, M)

    for mod in (modlinalg, twisted):
        monkeypatch.setattr(mod, "split_echelon", spy)
    assert build_k_form(p).report.ok
    bound = len(p.sub.gens) * p.sub.order + 2 * (p.sub.order - 1)
    assert bound == 34 and sizes and max(sizes) <= bound


def test_k_form_descent_falls_back_to_the_cohomology_query(p_swap, monkeypatch):
    # with no descent witness the involutive slot takes the query's witness
    monkeypatch.setattr(twisted, "_descent_witness", lambda *args: None)
    assert not build_k_form(p_swap).report.descent_enforced
    # and a Galois character the query cannot realize is an internal fault
    args = _slot_args(p_swap, "corrected", monkeypatch)
    monkeypatch.setattr(twisted, "_coboundary_witness", lambda sub, M, z: None)
    with pytest.raises(InternalError, match="^Galois character has no descent witness$"):
        twisted._slot_witnesses(*args)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_algebra_random_properties(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    p = helpers.random_presentation(rng, helpers.group_pool(10), max_len=4)
    a = GradedAlgebra(p)
    assert sum(a.dims.values()) == a.dim == p.sub.order * len(p.entries) ** 2
    triples = list(a._deg)
    for _ in range(20):
        x, y, z = (rng.choice(triples) for _ in range(3))
        bx, by, bz = (a.basis_element(*t) for t in (x, y, z))
        assert (bx * by) * bz == bx * (by * bz)
        prod = bx * by
        if not prod.is_zero():
            assert prod.homogeneous_degree() == a.group.mul(a.degree(*x), a.degree(*y))


# differential tests of multiply against the pairwise product on the
# Fraction-coefficient reference scalars

def _shifted_k4_algebra():
    """The C2 x C2 algebra with the m = 4 class shifted so zeta_4 occurs."""
    grp = direct_product(cyclic(2), cyclic(2))
    sub = SubgroupData(grp, range(4))
    alpha = shift_by_coboundary(h2_classes(sub, 4)[1], [0, 1, 0, 2])
    return GradedAlgebra(Presentation(grp, sub, alpha, (0,)))


def assert_matches_pairwise(x, y):
    got = multiply(x, y).terms
    want = helpers.multiply_pairwise(x, y)
    assert list(got) == list(want)
    for key, ref in want.items():
        c = got[key]
        assert (c.modulus, c.coeffs, repr(c)) == (ref.modulus, ref.coeffs, repr(ref)), key


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_multiply_matches_pairwise_reference(algebras, data):
    names = sorted(algebras) + ["k4_shifted"]
    name = data.draw(st.sampled_from(names))
    alg = _shifted_k4_algebra() if name == "k4_shifted" else algebras[name]
    m = alg.alpha.modulus
    # n does not divide m; a single modulus takes the vector path, a mix of
    # moduli the scalar one
    n = data.draw(st.sampled_from([k for k in (3, 4, 5, 8, 12) if m % k]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    mx = data.draw(st.sampled_from(((1,), (1, m), (m,), (n,), (1, n), (1, m, n))))
    my = data.draw(st.sampled_from(((1,), (1, m), (n,), (m, n))))
    x, y = _dense(rng, alg, mx), _dense(rng, alg, my)
    assert_matches_pairwise(x, y)
    assert_matches_pairwise(y, x)
    assert_matches_pairwise(x, alg.one())


def test_multiply_moduli_follow_partial_sums(algebras):
    """The partial sum at (0, 0, 0) is zeta_3, then rational, then gains
    zeta_4: the product carries modulus 4, not lcm(3, 4) = 12."""
    a = algebras["mat3"]
    z3, z4 = CycScalar.from_root(3, 1), CycScalar.from_root(4, 1)
    x = a.element({(0, 0, 0): z3, (0, 0, 1): 1 - z3, (0, 0, 2): z4})
    y = a.element({(0, 0, 0): 1, (0, 1, 0): 1, (0, 2, 0): 1})
    prod = multiply(x, y)
    assert prod.terms[(0, 0, 0)].modulus == 4
    assert prod.terms[(0, 0, 0)] == 1 + z4
    assert_matches_pairwise(x, y)
    x3 = a.element({(0, 0, 0): z3, (0, 0, 1): -z3})
    assert multiply(x3, y).is_zero()


def assert_same_product(got, want):
    """Equal keys in equal order, and equal (modulus, nums, den) per key."""
    assert list(got.terms) == list(want.terms)
    for key, c in want.terms.items():
        d = got.terms[key]
        assert (d.modulus, d.nums, d.den) == (c.modulus, c.nums, c.den), key


def _operand(data, rng, alg, moduli):
    kind = data.draw(st.sampled_from(("dense", "zero", "one", "single")))
    if kind == "zero":
        return alg.zero()
    if kind == "one":
        return alg.one()
    x = _dense(rng, alg, moduli)
    if kind == "single":
        x = alg.element(list(x.terms.items())[:1])
    return x


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_multiply_matches_the_row_kernel(algebras, data):
    # the flat integer kernel against the per-key vector kernel it replaced,
    # on dense, zero, unit and single-term operands, at one modulus or mixed
    names = sorted(algebras) + ["k4_shifted"]
    name = data.draw(st.sampled_from(names))
    alg = _shifted_k4_algebra() if name == "k4_shifted" else algebras[name]
    m = alg.alpha.modulus
    n = data.draw(st.sampled_from([k for k in (3, 4, 5, 8, 12) if m % k]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    mx = data.draw(st.sampled_from(((1,), (1, m), (m,), (n,), (1, n), (1, m, n))))
    my = data.draw(st.sampled_from(((1,), (1, m), (n,), (m, n))))
    x, y = _operand(data, rng, alg, mx), _operand(data, rng, alg, my)
    assert_same_product(multiply(x, y), helpers.multiply_by_rows(x, y))
    assert_same_product(multiply(y, x), helpers.multiply_by_rows(y, x))


def test_multiply_keeps_a_slot_whose_first_exponent_cancels(algebras):
    """(0, 0, 0) is reached first with zeta_3 and last with 1 - zeta_3, so
    its first exponent cancels; the key still comes first, before (0, 1, 0),
    as adding the terms one by one gives."""
    a = algebras["mat3"]
    z3 = CycScalar.from_root(3, 1)
    x = a.element({(0, 0, 0): z3, (0, 1, 1): 1, (0, 0, 1): 1 - z3})
    y = a.element({(0, 0, 0): 1, (0, 1, 0): 1})
    prod = multiply(x, y)
    assert list(prod.terms) == [(0, 0, 0), (0, 1, 0)]
    assert prod.terms[(0, 0, 0)].is_one()
    assert_same_product(prod, helpers.multiply_by_rows(x, y))
    assert_matches_pairwise(x, y)


def test_multiply_reduces_output_slots_to_lowest_terms(algebras):
    """At L = 4, slot (0, 0, 0) sums to -2 / 4 over the common denominator
    and is demoted to (1, (-1,), 2); at L = 1 it sums to -4 / 12 and reduces
    to (1, (-1,), 3)."""
    a = algebras["mat3"]
    z4 = CycScalar.from_root(4, 1)
    x = a.element({(0, 0, 0): z4, (0, 1, 0): Fraction(1, 2)})
    y = a.element({(0, 0, 0): z4 * Fraction(1, 2)})
    prod = multiply(x, y)
    assert helpers.scalar_slots(prod) == [((0, 0, 0), (1, (-1,), 2)),
                                          ((0, 1, 0), (4, (0, 1), 4))]
    assert_same_product(prod, helpers.multiply_by_rows(x, y))
    x = a.element({(0, 0, 0): Fraction(1, 2), (0, 0, 1): Fraction(1, 3)})
    y = a.element({(0, 0, 0): -1, (0, 1, 0): Fraction(1, 2)})
    prod = multiply(x, y)
    assert helpers.scalar_slots(prod) == [((0, 0, 0), (1, (-1,), 3))]
    assert_same_product(prod, helpers.multiply_by_rows(x, y))


def test_product_tables_stay_with_their_algebra():
    """Two algebras on one subgroup, with classes that differ or differ by a
    coboundary: products interleaved at L = 1 and at L = m each match the
    pairwise product, so no product table is shared between them."""
    grp = direct_product(cyclic(2), cyclic(2))
    sub = SubgroupData(grp, range(4))
    classes = h2_classes(sub, 4)
    alphas = [trivial_cocycle(sub).embedded(4), classes[1],
              shift_by_coboundary(classes[1], [0, 1, 0, 2]),
              shift_by_coboundary(classes[1], [0, 2, 0, 0])]
    algs = [GradedAlgebra(Presentation(grp, sub, alpha, (0, 0))) for alpha in alphas]
    assert len({a.alpha.exps for a in algs}) == len(algs)
    rng = random.Random("stale tables")
    for _ in range(3):
        for moduli in ((1,), (4,)):
            for alg in algs + algs[::-1]:
                x, y = _dense(rng, alg, moduli), _dense(rng, alg, moduli)
                assert_matches_pairwise(x, y)
    for L in (1, 4):
        tables = [a._products.get(L) for a in algs if L % a._root_modulus == 0]
        assert len(tables) > 1 and len({id(t) for t in tables}) == len(tables)


@pytest.mark.parametrize("index", range(len(helpers.group_pool(8))))
def test_small_case_product_sweep(index):
    # one seeded dense pair against the pairwise product, one seeded triple
    # for associativity and one homogeneous pair for the degree of a product
    grp = helpers.group_pool(8)[index]
    for k, p in enumerate(helpers.sweep_inputs(grp)):
        alg = GradedAlgebra(p)
        rng = random.Random(f"sweep:{index}:{k}")
        m = alg.alpha.modulus
        x, y, z = (_dense(rng, alg, (m,), 0.4) for _ in range(3))
        assert_matches_pairwise(x, y)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        da, db = (rng.choice(sorted(alg.dims)) for _ in range(2))
        a, b = (alg.element({t: CycScalar.from_root(m, rng.randrange(m))
                             for t in alg.basis_of_degree(d)}) for d in (da, db))
        ab = multiply(a, b)
        assert ab.is_zero() or ab.homogeneous_degree() == grp.mul(da, db)


# The k-form slice of the small-case sweep. The D4 inputs with the m = 4
# class (pool index 9, inputs 56-63) take alpha outside mu_n in normal form,
# so build_k_form closes them on a mu_n-valued representative.
KFORM_SWEEP_OK = (6, 10, 16, 18, 30, 26, 40, 28, 42, 104, 28, 80, 112)


@pytest.mark.parametrize("index", range(len(helpers.group_pool(8))))
def test_small_case_kform_sweep(index):
    # build_k_form in mode "corrected" closes at k-dimension dim_F A with
    # full F-span on every connected input: 540 of 540
    grp = helpers.group_pool(8)[index]
    passed = 0
    for p in helpers.sweep_inputs(grp):
        if not validate_presentation(p).connected:
            continue
        res = build_k_form(normalize(p), "corrected")
        assert res.report.ok and res.report.k_dim == res.algebra.dim
        passed += 1
    assert passed == KFORM_SWEEP_OK[index]


@pytest.mark.parametrize("name", ["pauli", "swap", "d6", "mat3", "inner", "k4_shifted"])
def test_span_operator_is_left_multiplication(algebras, name):
    # the compiled operator of x applied to the lifted y is multiply(x, y)
    # times both denominators, read back at L: roots of the cocycle as shifts,
    # or as signs when the cocycle modulus does not divide L
    alg = _shifted_k4_algebra() if name == "k4_shifted" else algebras[name]
    slot = {key: idx for idx, key in enumerate(sorted(alg._deg))}
    assert list(slot) == list(alg._triples)
    rng = random.Random(f"operator:{name}")
    for moduli in ((1,), (3,), (1, 4)):
        L = lcm(alg._root_modulus, *moduli)
        for _ in range(4):
            x, y = _dense(rng, alg, moduli), _dense(rng, alg, moduli)
            got = algebra_mod._apply(algebra_mod._operator(alg, x, L),
                                     algebra_mod._lift(y, L), L)
            vecs: dict = {}
            for k, v in got.items():
                s, e = divmod(k, L)
                vecs.setdefault(s, [0] * L)[e] = v
            scale = lcm(*(c.den for c in x.terms.values())) * lcm(*(c.den for c in y.terms.values()))
            want = {slot[key]: c * scale for key, c in multiply(x, y).terms.items()}
            read = {s: CycScalar.from_powers(L, vec) for s, vec in vecs.items()}
            assert {s: c for s, c in read.items() if not c.is_zero()}.keys() == want.keys()
            assert all(read[s] == c for s, c in want.items())


@pytest.mark.parametrize("name", ["pauli", "swap", "d6", "mat3", "inner", "k4_shifted"])
def test_span_operator_compiles_the_eager_slots(algebras, name):
    # the operator compiles a source slot on the first _apply that reaches
    # it, and only then; each compiled slot is the entry of the operator that
    # built every slot at once, at the L values of the test above
    alg = _shifted_k4_algebra() if name == "k4_shifted" else algebras[name]
    rng = random.Random(f"operator slots:{name}")
    for moduli in ((1,), (3,), (1, 4)):
        L = lcm(alg._root_modulus, *moduli)
        x = _dense(rng, alg, moduli)
        op, eager = algebra_mod._operator(alg, x, L), helpers.operator_all_slots(alg, x, L)
        assert not op
        for share in (0.2, 0.6):
            y = algebra_mod._lift(_dense(rng, alg, moduli, share), L)
            reached = set(op) | {k // L for k in y}
            algebra_mod._apply(op, y, L)
            assert set(op) == reached
            assert all(op[s] == list(eager[s]) for s in op)
        assert [op[s] for s in range(alg.dim)] == [list(t) for t in eager]


def _q_rank(scalars, n: int) -> int:
    """The Q-dimension of the span of scalars of Q(zeta_n), by Fraction
    elimination on their power-basis coefficients at n."""
    rows = [list(c._promoted(n).coeffs) for c in scalars]
    rank = 0
    for col in range(phi(n)):
        at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        piv = rows[rank]
        for r in rows[rank + 1:]:
            f = r[col] / piv[col]
            r[:] = [a - f * b for a, b in zip(r, piv)]
        rank += 1
    return rank


def _unit_subfields(n: int):
    """A SubfieldDescriptor of Q(zeta_n) per subgroup of (Z/n)*, each made
    by from_generators."""
    units = [u for u in range(n) if gcd(u, n) == 1]
    found = {}
    todo = [SubfieldDescriptor.from_generators(n, [])]
    while todo:
        f = todo.pop()
        if f.units not in found:
            found[f.units] = f
            todo += [SubfieldDescriptor.from_generators(n, f.units + (u,)) for u in units]
    return list(found.values())


def test_k_seeds_are_a_q_basis_of_the_traces():
    # the pruned seeds are [k:Q] traces with the Q-span of all nonzero traces
    for n in range(1, 25):
        for field in _unit_subfields(n):
            seeds = algebra_mod._k_seeds(field)
            traces = helpers._k_basis(field)
            assert len(seeds) == field.degree_over_q(), (n, field.units)
            assert (_q_rank(seeds, n) == _q_rank(traces, n) == _q_rank(seeds + traces, n)
                    == len(seeds)), (n, field.units)
    # Q(zeta_2) = Q seeds with 1, not also with -1; the trace 2 of Q(zeta_3)
    # over Q comes before the trace -1 of zeta_3
    assert algebra_mod._k_seeds(SubfieldDescriptor.from_generators(2, [1])) == [1]
    assert algebra_mod._k_seeds(SubfieldDescriptor.from_generators(3, [1, 2])) == [2]


# Some coboundary shifts of the m = 4 class on C2 x C2 take alpha outside
# mu_2 in normal form; build_k_form closes them on a mu_2-valued
# representative, the others directly.
def _k4_m4_normal_form(f):
    grp = direct_product(cyclic(2), cyclic(2))
    sub = SubgroupData(grp, range(4))
    alpha = shift_by_coboundary(h2_classes(sub, 4)[1], f)
    return normalize(Presentation(grp, sub, alpha, (0,)))


K4_M4_DESCENDED = ([0, 1, 0, 2], [0, 3, 1, 3], [0, 0, 1, 0])


@pytest.mark.parametrize("f", [[0, 2, 2, 0], [0, 3, 1, 0], [0, 1, 3, 2], *K4_M4_DESCENDED])
def test_k_form_shifted_m4_class(f):
    rep = build_k_form(_k4_m4_normal_form(f)).report
    assert rep.ok and rep.k_dim == 4


def _pattern_normal_form(seed, m):
    rng = random.Random(f"span:{seed}:{m}")
    mults = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
    return normalize(helpers.pattern_presentation(rng, m, mults))


# inputs whose cocycle roots leave Q(zeta_big) of the closure, so that
# build_k_form builds on a mu_n-valued representative
DESCENDED_CASES = {
    **{f"k4-m4-{f}": lambda f=f: _k4_m4_normal_form(f) for f in K4_M4_DESCENDED},
    "d4-m4-56": lambda: normalize(list(helpers.sweep_inputs(helpers.group_pool(8)[9]))[56]),
    **{f"pattern-6-{seed}": lambda seed=seed: _pattern_normal_form(seed, 6) for seed in range(3)},
    "pattern-3-1": lambda: _pattern_normal_form(1, 3),
}


@pytest.mark.parametrize("name", DESCENDED_CASES)
def test_k_form_generators_are_a_form_of_the_input_algebra(name, monkeypatch):
    # the generators are carried back to the algebra of p from the algebra
    # of the representative they were built on, and close there to the
    # same report; the representative is a coboundary shift of alpha at
    # modulus n
    p = DESCENDED_CASES[name]()
    real, reps = algebra_mod._mu_n_representative, []

    def spy(alpha, n):
        reps.append((n, real(alpha, n)))
        return reps[-1][1]

    monkeypatch.setattr(algebra_mod, "_mu_n_representative", spy)
    for mode in MODES:
        res = build_k_form(p, mode)
        rep = res.report
        assert res.presentation.alpha is p.alpha and res.algebra.alpha is p.alpha
        assert all(g.algebra is res.algebra for g in res.generators)
        assert algebra_mod._span_report(res.algebra, res.field, res.generators, mode,
                                        rep.slot_units, rep.descent_enforced) == rep
    assert len(reps) == len(MODES)
    n, (beta, f, big_m) = reps[0]
    assert beta.modulus == n < p.alpha.modulus == big_m // p.sub.exponent()
    assert (shift_by_coboundary(p.alpha.embedded(big_m), f).exps
            == beta.embedded(big_m).exps)


def test_span_report_skips_only_equal_candidates(monkeypatch):
    # over Q in M_2(Q), x = e00 + e01 and y = e00 + 2 e01 share a support
    # but span Q^2; every product of two of them is x or y again, so the
    # closure reduces the two seeds and skips the four repeated products
    # (_k_seeds reduces the one trace of Q before them)
    grp = cyclic(2)
    sub = SubgroupData(grp, (0,))
    alg = GradedAlgebra(Presentation(grp, sub, trivial_cocycle(sub), (0, 1)))
    x = alg.element({(0, 0, 0): 1, (0, 0, 1): 1})
    y = alg.element({(0, 0, 0): 1, (0, 0, 1): 2})
    args = (alg, SubfieldDescriptor.from_generators(1, []), (x, y), "corrected", (0,), False)
    real, inserted = algebra_mod._insert, []
    monkeypatch.setattr(algebra_mod, "_insert",
                        lambda ech, vec: inserted.append(vec) or real(ech, vec))
    rep = algebra_mod._span_report(*args)
    assert rep.k_dim == 2 and not rep.f_span_full and len(inserted) == 1 + 2
    assert rep == helpers.span_report_full_closure(*args)


def test_span_report_refuses_roots_outside_the_working_field():
    # alpha takes the values 0..3 at m = 4 while the field and the
    # generators live at modulus 2: the closure cannot work at big = 2
    alg = GradedAlgebra(_k4_m4_normal_form(K4_M4_DESCENDED[0]))
    field = SubfieldDescriptor.from_generators(2, [1])
    assert alg._root_modulus == 4
    with pytest.raises(InternalError, match=r"^the cocycle's roots do not lie in Q\(zeta_big\)$"):
        algebra_mod._span_report(alg, field, (alg.one(),), "corrected", (1,), True)


# differential tests of _span_report against the depth-first closure it
# replaced, which never stops early, the closure by multiply before that and
# the pairwise closure with the Fraction and cyclotomic echelons before that

SPAN_ORACLES = (helpers.span_report_full_closure, helpers.span_report_by_multiply,
                helpers.span_report_pairwise)


def _span_outcomes_agree(p) -> list:
    """The outcomes of _span_report in every mode, on the generators and on
    every other generator, each checked against every oracle."""
    outcomes = []
    for mode, which, got, wants in helpers.span_outcomes(p, SPAN_ORACLES):
        for oracle, want in zip(SPAN_ORACLES, wants):
            assert want == got, (mode, which, oracle.__name__)
        outcomes.append(got)
    return outcomes


def _span_cases():
    for name, build in sorted(helpers.CORPUS_BUILDERS.items()):
        yield name, lambda build=build: normalize(build())
    for f in (*K4_M4_DESCENDED, [0, 2, 2, 0]):
        yield f"k4-m4-{f}", lambda f=f: _k4_m4_normal_form(f)
    for seed in range(3):
        for m in sorted(helpers.PATTERN_SUBGROUPS):
            yield f"pattern-{m}-{seed}", lambda seed=seed, m=m: _pattern_normal_form(seed, m)


SPAN_CASES = dict(_span_cases())


@pytest.mark.parametrize("name", SPAN_CASES)
def test_span_report_matches_pairwise_closure(name):
    assert _span_outcomes_agree(SPAN_CASES[name]())


def test_span_report_matches_oracles_on_semidirect_pairs():
    # (C_p x C_p) x| C_k for p = 2, 3: closures that succeed and closures
    # that fall short, on inputs that descend to a mu_n-valued
    # representative and on inputs that do not
    outcomes = []
    for name, p in helpers.semidirect_pair_presentations(random.Random("span"), ps=(2, 3)):
        try:
            p = normalize(p)
        except GForgeError:
            continue
        outcomes += _span_outcomes_agree(p)
    assert PreconditionError not in outcomes
    assert any(not isinstance(o, type) and o[2] for o in outcomes)


# the generator applications of build_k_form on corpus cases and on one
# input that descends to a mu_n-valued representative: pauli fills
# Q^(dim * phi(big)) with its seeds, d6 and pattern-6-2 part way through
# the closure, and swap (k = Q inside Q(zeta_9)) never fills, so it makes
# all |gens| * k_dim * [k:Q]
SPAN_APPLICATIONS = {"pauli": 0, "swap": 540, "d6": 341, "pattern-6-2": 25}


@pytest.mark.parametrize("name", SPAN_APPLICATIONS)
def test_span_closure_multiplies_only_generator_by_new_element(corpus, name, monkeypatch):
    # at most one generator application per generator and new basis element,
    # on integer vectors, and multiply is never called. A closure that fills
    # Q^(dim * phi(big)) stops at the seed or application whose image fills
    # the echelon, so with the image of the last application replaced by 0
    # the span falls short; one that does not fill applies every generator
    # to every basis element.
    p = corpus[name] if name in corpus else DESCENDED_CASES[name]()
    real_apply, real_multiply = algebra_mod._apply, algebra_mod.multiply

    def run(limit=None):
        applied, multiplied = [], []

        def counted_apply(op, x, L):
            applied.append(1)
            return real_apply(op, x, L) if limit is None or len(applied) <= limit else {}

        def counted_multiply(x, y):
            multiplied.append(1)
            return real_multiply(x, y)

        with monkeypatch.context() as mp:
            mp.setattr(algebra_mod, "_apply", counted_apply)
            mp.setattr(algebra_mod, "multiply", counted_multiply)
            try:
                res = build_k_form(p)
            except InternalError:
                res = None
        assert not multiplied
        return res, len(applied)

    res, applied = run()
    assert res.report.ok
    # the closure ran on these, the generators before they were carried back
    work, field, gens = helpers.span_args(p, "corrected")[:3]
    assert (work.alpha is p.alpha) == (name in corpus)
    big = lcm(field.n, *(c.modulus for g in gens for c in g.terms.values()))
    assert big % work._root_modulus == 0
    k_deg = field.degree_over_q()
    bound = len(gens) * res.report.k_dim * k_deg
    filled = res.report.k_dim * k_deg == work.dim * phi(big)
    assert filled == (name != "swap")
    assert applied == SPAN_APPLICATIONS[name] <= bound
    if not filled:
        assert applied == bound
        return
    assert applied < bound
    if applied:
        short, _ = run(applied - 1)
        assert short is None or not short.report.ok
