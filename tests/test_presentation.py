import gc
import inspect
import json
import os
import random
from dataclasses import fields, replace
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gforge import presentation as presentation_mod
from gforge import twisted
from gforge.config import CAPS
from gforge.errors import InternalError, PreconditionError, PresentationError
from gforge.groups import CosetMultiset, Group, SubgroupData, cyclic, dihedral, direct_product
from gforge.presentation import (InvariantChain, Presentation, _conjugate_chain, apply_move,
                                 classify,
                                 compute_KNS, find_theta, full_derivative,
                                 iso_test, iso_witness, minimal_field,
                                 normalize, normalize_with_details,
                                 pointwise_derivative, validate_presentation)
from gforge.schemas import parse_presentation
from gforge.twisted import conjugate_cocycle, h2_classes, shift_by_coboundary, trivial_cocycle

import helpers
from conftest import DATA_DIR


def test_presentation_validation(p_pauli):
    rep = validate_presentation(p_pauli)
    assert rep.wellformed and rep.connected and rep.issues == ()
    # tuple entries must be group elements
    with pytest.raises(PresentationError):
        Presentation(p_pauli.group, p_pauli.sub, p_pauli.alpha, (9,))
    with pytest.raises(PresentationError):
        Presentation(p_pauli.group, p_pauli.sub, p_pauli.alpha, ())


@pytest.mark.parametrize("entries", [(0, 1.9, True), (0, 1.0), (0, "1")])
def test_tuple_entries_are_checked_as_python_ints(p_d6, entries):
    with pytest.raises(PresentationError, match="^tuple entries must be integers$"):
        Presentation(p_d6.group, p_d6.sub, p_d6.alpha, entries)


@pytest.mark.parametrize("move, message", [
    ({"type": "entry", "h": 0}, "move field 'pos' must be an integer"),
    ({"type": "entry", "pos": 1.2, "h": 0}, "move field 'pos' must be an integer"),
    ({"type": "entry", "pos": True, "h": 0}, "move field 'pos' must be an integer"),
    ({"type": "entry", "pos": 1, "h": 0.0}, "move field 'h' must be an integer"),
    ({"type": "permute"}, "move field 'perm' must be a list of integers"),
    ({"type": "permute", "perm": "10234567"},
     "move field 'perm' must be a list of integers"),
    ({"type": "permute", "perm": [1.0, 0, 2, 3, 4, 5, 6, 7]},
     "move field 'perm' must be a list of integers"),
    ({"type": "translate", "g": "x"}, "move field 'g' must be an integer"),
    ({"type": "translate"}, "move field 'g' must be an integer"),
])
def test_move_fields_are_checked_as_python_ints(p_d6, move, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        apply_move(p_d6, move)


@pytest.mark.parametrize("direction", [(0, 2.5), (0, 2.0), (0, False)])
def test_derivative_direction_is_checked_as_python_ints(p_swap_raw, direction):
    with pytest.raises(PreconditionError,
                       match="^derivative direction entries must be integers$"):
        pointwise_derivative(p_swap_raw, direction)


def _fresh(p):
    """An equal Presentation that has not computed its invariant chain yet."""
    return Presentation(p.group, p.sub, p.alpha, p.entries)


def test_invariant_chain_builds_no_subgroup_data(corpus, p_swap_raw, p_related,
                                                 monkeypatch):
    """compute_KNS factors the multiset with CosetMultiset.blocks_along, so
    it builds no SubgroupData, and normalize builds one only for a candidate
    translation outside N_G(H): none when H is normal."""
    built, conjugated = [], []
    init, conj = SubgroupData.__init__, SubgroupData.conjugated

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_conj(self, theta):
        conjugated.append(theta)
        return conj(self, theta)

    cases = [_fresh(p) for p in (*corpus.values(), p_swap_raw, p_related)]
    assert not p_related.sub.is_normal
    assert all(p.sub.is_normal for p in cases[:-1])
    monkeypatch.setattr(SubgroupData, "__init__", counting_init)
    monkeypatch.setattr(SubgroupData, "conjugated", counting_conj)
    for p in cases:
        compute_KNS(p)
        assert built == [] and conjugated == []
        nf = normalize_with_details(p)
        assert len(built) == len(conjugated)
        assert all(theta not in p.sub.normalizer for theta in conjugated)
        if p.sub.is_normal:
            assert built == [] and nf.presentation.sub is p.sub
        else:
            assert conjugated
        built.clear()
        conjugated.clear()


def test_maximality_scan_takes_one_element_per_coset_of_k(corpus, p_swap_raw, p_related,
                                                          monkeypatch):
    """<K, g> is one subgroup for all g in a coset gK, so compute_KNS closes
    K with one g per coset of K in N_G(H) outside K."""
    rng = random.Random(5)
    pool = helpers.group_pool(12)
    cases = [*corpus.values(), p_swap_raw, p_related]
    cases += [helpers.random_presentation(rng, pool) for _ in range(30)]
    scanned = 0
    for p in map(_fresh, cases):
        grp = p.group
        closed = []
        real = type(grp).closure

        def counting(self, elems):
            closed.append(tuple(elems))
            return real(self, elems)

        monkeypatch.setattr(type(grp), "closure", counting)
        chain = compute_KNS(p)
        monkeypatch.undo()
        k = set(chain.K)
        cosets = {frozenset(grp.mul(g, x) for x in k)
                  for g in p.sub.normalizer if g not in k}
        assert len(closed) == len(cosets)
        assert {frozenset(grp.mul(e[-1], x) for x in k) for e in closed} == cosets
        scanned += len(closed)
    assert scanned > len(cases)


def test_chain_translates_the_multiset_once_per_coset_of_h(p_swap_raw, p_inner, monkeypatch):
    """compute_KNS tests the stabilizer on one representative per right
    H-coset of N_G(H): on a normal subgroup of order 9, once per coset."""
    translated = []
    real = CosetMultiset.translated

    def counting(self, g):
        translated.append(g)
        return real(self, g)

    monkeypatch.setattr(CosetMultiset, "translated", counting)
    for p in map(_fresh, (p_swap_raw, p_inner)):
        assert p.sub.order == 9 and p.sub.is_normal
        chain = compute_KNS(p)
        assert translated == list(p.sub.transversal)
        assert chain == helpers.compute_kns_by_elements(p)
        translated.clear()


@pytest.mark.parametrize("case, name, corrupt, message", [
    # (0, 1) holds a rotation of order 3 of D3, but not its square
    ("d6", "_coset_stabilizer", lambda real: lambda q: (real(q)[0], (0, 1)),
     "the stabilizer K is not closed under multiplication"),
    # {e} is closed, but the frequency test finds K = (0, 3)
    ("d6", "_coset_stabilizer", lambda real: lambda q: (real(q)[0], (0,)),
     "stabilizer, frequency, and factoring disagree on K"),
    ("swap", "_galois_characters",
     lambda real: lambda alpha, n, gs: [None if g == 0 else 1 for g in gs],
     "the subgroup must be contained in S"),
    # 2 * 2 = 1 mod 3 is not the character 2 of the identity coset
    ("swap", "_galois_characters", lambda real: lambda alpha, n, gs: [2] * len(gs),
     "Galois characters are not multiplicative"),
    # sBar = (1, 2), but the field is built from no generator
    ("swap", "SubfieldDescriptor",
     lambda real: SimpleNamespace(from_generators=lambda n, gens: real.from_generators(n, ())),
     "character image is not closed under multiplication"),
], ids=["stabilizer not closed", "stabilizer too small", "no character at e",
        "characters not multiplicative", "field drops the image"])
def test_every_chain_cross_check_fires_on_corrupted_data(p_d6, p_swap_raw, monkeypatch,
                                                         case, name, corrupt, message):
    p = _fresh({"d6": p_d6, "swap": p_swap_raw}[case])
    monkeypatch.setattr(presentation_mod, name, corrupt(getattr(presentation_mod, name)))
    with pytest.raises(InternalError, match=f"^{message}$"):
        compute_KNS(p)
    assert p._chain is None


def test_disconnected_grading_detected():
    g = cyclic(4)
    sub = SubgroupData(g, (0, 2))
    p = Presentation(g, sub, trivial_cocycle(sub), (0,))
    rep = validate_presentation(p)
    assert rep.wellformed and not rep.connected


def test_validate_presentation_matches_the_closure_of_every_degree():
    # every subgroup of the pool with six seeded tuples of one to three entries
    rng = random.Random(31)
    verdicts = []
    for grp in helpers.group_pool():
        for elems in helpers.all_subgroups(grp):
            sub = SubgroupData(grp, elems)
            alpha = trivial_cocycle(sub)
            for _ in range(6):
                entries = tuple(rng.randrange(grp.order) for _ in range(rng.randint(1, 3)))
                p = Presentation(grp, sub, alpha, entries)
                got = validate_presentation(p).connected
                assert got == helpers.connected_by_every_degree(p), (grp.name, elems, entries)
                verdicts.append(got)
    assert len(verdicts) == 1134 and 0 < sum(verdicts) < len(verdicts)


def test_apply_move_shapes(p_d6):
    moved = apply_move(p_d6, {"type": "permute", "perm": [7, 6, 5, 4, 3, 2, 1, 0]})
    assert sorted(moved.entries) == sorted(p_d6.entries)
    moved2 = apply_move(p_d6, {"type": "entry", "pos": 0, "h": 0})
    assert moved2.entries == p_d6.entries
    moved3 = apply_move(p_d6, {"type": "translate", "g": 3})
    assert moved3.entries == tuple(p_d6.group.mul(3, x) for x in p_d6.entries)
    with pytest.raises(PreconditionError):
        apply_move(p_d6, {"type": "entry", "pos": 0, "h": 1})  # not in H
    with pytest.raises(PreconditionError):
        apply_move(p_d6, {"type": "permute", "perm": [0, 0, 1, 2, 3, 4, 5, 6]})
    with pytest.raises(PreconditionError):
        apply_move(p_d6, {"type": "rotate"})


def test_invariant_chain_frozen_values(corpus):
    chains = {name: compute_KNS(p) for name, p in corpus.items()}
    d6 = chains["d6"]
    assert d6.K == (0, 3) and d6.S == (0, 3) and d6.n == 1
    assert set(d6.N) == set(range(6))
    pauli = chains["pauli"]
    assert set(pauli.K) == set(pauli.N) == set(pauli.S) == set(range(4))
    assert pauli.n == 2 and pauli.sbar_image == (1,)
    assert pauli.field.is_rational()
    swap = chains["swap"]
    assert set(swap.S) == set(range(18)) and swap.n == 3
    assert swap.sbar_image == (1, 2) and swap.field.is_rational()
    inner = chains["inner"]
    assert set(inner.S) == set(range(9)) and inner.n == 3
    assert inner.sbar_image == (1,)
    assert inner.field.units == (1,) and inner.field.degree_over_q() == 2
    mat3 = chains["mat3"]
    assert mat3.K == (0,) and mat3.n == 1


def test_chain_inclusions(corpus):
    for p in corpus.values():
        chain = compute_KNS(p)
        nz = set(p.sub.normalizer)
        assert p.sub.eset <= set(chain.S)
        assert set(chain.S) == set(chain.K) & set(chain.N)
        assert set(chain.K) <= nz and set(chain.N) <= nz
        # S is a subgroup and characters are multiplicative into (Z/n)*
        assert p.group.is_subgroup(chain.S)
        chars = dict(chain.s_characters)
        for a in chain.S:
            for b in chain.S:
                assert (chars[a] * chars[b]) % max(chain.n, 1) == chars[p.group.mul(a, b)] % max(chain.n, 1)


def test_minimal_field_values(p_pauli, p_swap, p_inner):
    assert minimal_field(p_pauli).is_rational()
    assert minimal_field(p_swap).is_rational()
    f = minimal_field(p_inner)
    assert f.n == 3 and f.degree_over_q() == 2


def test_normalize_d6_factored_form(p_d6):
    nf = normalize_with_details(p_d6)
    grp = p_d6.group
    sub2 = nf.presentation.sub
    # transversal is the coset form of K = {e, tau}
    assert nf.transversal_factor == (0, 3)
    # the core matches (e, e, sigma, sigma^2 tau) K-coset-wise
    k_sub = SubgroupData(grp, (0, 3))
    expected = sorted(k_sub.coset_id_of[x] for x in (0, 0, 1, 5))
    got = sorted(k_sub.coset_id_of[x] for x in nf.core_factor)
    assert got == expected
    # the product of the two factors rebuilds the coset multiset exactly
    product = [grp.mul(u, c) for u in nf.transversal_factor for c in nf.core_factor]
    assert CosetMultiset.from_elements(sub2, product).matches(nf.presentation.lam)
    assert nf.presentation.lam.matches(
        CosetMultiset.from_elements(sub2, [grp.mul(nf.theta, x) for x in p_d6.entries]))


def test_normalize_idempotent(corpus):
    for p in corpus.values():
        n1 = normalize(p)
        assert normalize(n1) == n1


def test_normalize_constant_on_orbit_spot(p_swap_raw):
    n0 = normalize(p_swap_raw)
    moved = apply_move(p_swap_raw, {"type": "translate", "g": 7})
    moved = apply_move(moved, {"type": "permute", "perm": [1, 0]})
    assert normalize(moved) == n0
    assert iso_test(p_swap_raw, moved)


def test_classification_flags(corpus):
    flags = {name: classify(p) for name, p in corpus.items()}
    assert flags["pauli"].division_form and flags["pauli"].strongly_vp
    assert flags["pauli"].essentially_vp
    assert flags["swap"].division_form and not flags["swap"].strongly_vp
    assert flags["swap"].essentially_vp
    assert not flags["d6"].division_form and not flags["d6"].strongly_vp
    assert not flags["mat3"].division_form
    assert flags["inner"].division_form and flags["inner"].strongly_vp


def test_classify_requires_connected():
    g = cyclic(4)
    sub = SubgroupData(g, (0, 2))
    p = Presentation(g, sub, trivial_cocycle(sub), (0,))
    with pytest.raises(PreconditionError):
        classify(p)


def test_derivatives(p_d6):
    grp = p_d6.group
    d = pointwise_derivative(p_d6, (0,) * 8)
    expect = tuple(
        grp.mul(grp.inv(p_d6.entries[i]), p_d6.entries[(i + 1) % 8])
        for i in range(8))
    assert d == expect
    full = full_derivative(p_d6)
    assert len(full) == 8 and all(len(s) == 1 for s in full)
    with pytest.raises(PreconditionError):
        pointwise_derivative(p_d6, (0,) * 7)
    with pytest.raises(PreconditionError):
        pointwise_derivative(p_d6, (1,) * 8)  # direction outside H


def test_derivative_translation_invariance(p_d6):
    grp = p_d6.group
    for theta in p_d6.sub.normalizer:
        moved = Presentation(grp, p_d6.sub, p_d6.alpha,
                             tuple(grp.mul(theta, x) for x in p_d6.entries))
        assert full_derivative(moved) == full_derivative(p_d6)
        t = find_theta(p_d6, moved)
        assert t is not None
        # recovered element acts like theta on the multiset
        assert p_d6.lam.translated(t) == p_d6.lam.translated(theta)


def test_find_theta_matches_the_element_wise_stabilizer():
    """find_theta takes the least element of theta0 H r over the coset
    representatives r of the stabilizer; it is the least translation over
    the stabilizer's elements, on seeded presentations moved by a
    normalizing translation and by left factors in H."""
    rng = random.Random("find-theta-cosets")
    pool = helpers.group_pool(16)
    checked = lower = 0
    while checked < 150:
        p = helpers.random_presentation(rng, pool, max_len=6)
        if p.sub.order == 1:
            continue
        q = apply_move(p, {"type": "translate", "g": rng.choice(p.sub.normalizer)})
        for pos in range(len(q.entries)):
            q = apply_move(q, {"type": "entry", "pos": pos, "h": rng.choice(p.sub.elements)})
        t = find_theta(p, q)
        assert t is not None and t == helpers.find_theta_by_elements(p, q)
        theta0 = p.group.mul(q.entries[0], p.group.inv(p.entries[0]))
        lower += t != min(p.group.mul(theta0, r) for r in presentation_mod._coset_stabilizer(p)[1])
        checked += 1
    # the least element of a coset theta0 H r is often not theta0 r itself
    assert lower > 20


def test_find_theta_absent_on_unequal_derivative(p_d6):
    grp = p_d6.group
    entries = list(p_d6.entries)
    entries[3] = 2
    other = Presentation(grp, p_d6.sub, p_d6.alpha, tuple(entries))
    assert full_derivative(other) != full_derivative(p_d6)
    assert find_theta(p_d6, other) is None


def test_iso_witness_and_test(p_swap_raw, p_swap, p_pauli):
    g = iso_witness(p_swap_raw, p_swap)
    assert g is not None
    assert iso_test(p_swap, p_swap_raw)
    with pytest.raises(PreconditionError):
        iso_test(p_swap_raw, p_pauli)  # different ambient groups
    # different tuple lengths are never isomorphic
    shorter = Presentation(p_swap_raw.group, p_swap_raw.sub, p_swap_raw.alpha, (0,))
    assert iso_witness(p_swap_raw, shorter) is None


def _iso_inputs():
    """(label, group, subgroups, moduli) of the iso_witness comparison: every
    pool group at m = 2, the non-normal D8 subgroup of order 4 and the
    class-moving ambients of chain_ambients with their subgroup H."""
    cases = [(grp.name, grp, None, (2,)) for grp in helpers.group_pool(16)]
    d8 = next(grp for grp in helpers.group_pool(16) if grp.name == "D8")
    cases.append(("D8/4", d8, [(0, 4, 8, 12)], (2, 4)))
    cases += [(f"{grp.name} > {name}", grp, [elems], (2, 3, 4))
              for name, (grp, elems) in sorted(helpers.chain_ambients().items())]
    return cases


@pytest.mark.parametrize("label, grp, subs, moduli",
                         [pytest.param(*case, id=case[0]) for case in _iso_inputs()])
def test_iso_witness_matches_the_every_element_test(label, grp, subs, moduli):
    """iso_witness makes one class test per left coset of H1; it returns the
    same least witness, or None, as the class test for every g, on each
    sweep input against a seeded translate of itself and against every
    other class on its subgroup."""
    assert label != "D8/4" or not SubgroupData(grp, subs[0]).is_normal
    rng = random.Random(f"iso-witness:{label}")
    for p in helpers.sweep_inputs(grp, moduli, subs):
        for p1, p2 in helpers.iso_pairs(p, rng):
            assert iso_witness(p1, p2) == helpers.iso_witness_every_element(p1, p2), (p1, p2)


def test_iso_witness_tests_each_left_coset_once(monkeypatch):
    """On non-isomorphic class pairs with H1 = C3 x C3, iso_witness makes
    one class test per left coset of H1 among the elements that pass the
    multiset test, where the element-wise test made one per element."""
    calls = []
    real = presentation_mod.conjugate_is_cohomologous

    def spy(alpha, g, beta):
        calls.append(g)
        return real(alpha, g, beta)

    c3 = cyclic(3)
    c33 = direct_product(c3, c3)
    swap_grp, swap_elems = helpers.chain_ambients()["C3xC3"]
    for grp, elems, entries in ((c33, tuple(range(9)), (0,)),
                                (swap_grp, swap_elems, (0, 1))):
        sub = SubgroupData(grp, elems)
        alpha, beta = h2_classes(sub, 3)[:2]
        p1 = Presentation(grp, sub, alpha, entries)
        p2 = Presentation(grp, sub, beta, entries)
        assert helpers.iso_witness_every_element(p1, p2) is None
        passing = [g for g in range(grp.order)
                   if CosetMultiset.from_elements(sub, [grp.mul(g, x) for x in entries])
                   == p2.lam]
        cosets = {min(grp.mul(g, h) for h in elems) for g in passing}
        with monkeypatch.context() as mp:
            mp.setattr(presentation_mod, "conjugate_is_cohomologous", spy)
            assert iso_witness(p1, p2) is None
        assert len(calls) == len(cosets) < len(passing)
        assert {min(grp.mul(g, h) for h in elems) for g in calls} == cosets
        calls.clear()


def _s4():
    """S4 on its permutations in lexicographic order, the identity first, and
    the index of each permutation."""
    perms = sorted(permutations(range(4)))
    at = {q: i for i, q in enumerate(perms)}
    return Group([[at[tuple(a[x] for x in b)] for b in perms] for a in perms], name="S4"), at


def test_iso_witness_keys_the_class_test_by_left_coset():
    """In G = S4 x C2, H1 = <(12), (34)> x C2 is not normal, and with
    g = (23), h = (12)(34) lies in H1 and normalizes H2 = g H1 g^-1 without
    lying in it; it swaps the factors (13) and (24) of H2, so it moves the
    class of alpha1^g. g and hg share the right coset H1 g but not the left
    coset g H1, and alpha2 = alpha1^(hg): the class test fails at g and
    passes at hg, so a test keyed by the right coset would never reach hg
    and no other g passes. Pool groups of order <= 16 and the class-moving
    ambients hold no such input."""
    s4, at = _s4()
    grp = direct_product(s4, cyclic(2))

    def elem(*images):  # a permutation of S4 times the identity of C2
        return at[images] * 2

    z = 1  # the generator of the C2 factor
    sub1 = SubgroupData(grp, grp.closure([elem(1, 0, 2, 3), elem(0, 1, 3, 2), z]))
    g, h = elem(0, 2, 1, 3), elem(1, 0, 3, 2)
    sub2 = sub1.conjugated(g)
    assert not sub1.is_normal and sub2.elements != sub1.elements
    assert h in sub1.eset and h in sub2.normalizer and h not in sub2.eset
    hg = grp.mul(h, g)
    assert min(grp.mul(x, g) for x in sub1.elements) == min(grp.mul(x, hg) for x in sub1.elements)
    assert min(grp.mul(g, x) for x in sub1.elements) != min(grp.mul(hg, x) for x in sub1.elements)
    alpha1 = h2_classes(sub1, 2)[2]  # classes 2 to 5 are moved by h
    beta = conjugate_cocycle(alpha1, g, sub2)
    assert not twisted.conjugate_is_cohomologous(beta, h, beta)[0]
    p1 = Presentation(grp, sub1, alpha1, sub1.transversal)
    p2 = Presentation(grp, sub2, conjugate_cocycle(alpha1, hg, sub2),
                      tuple(grp.mul(hg, x) for x in sub1.transversal))
    assert not twisted.conjugate_is_cohomologous(alpha1, g, p2.alpha)[0]
    w = iso_witness(p1, p2)
    assert w is not None and w == helpers.iso_witness_every_element(p1, p2)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_moves_preserve_normal_form(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    pool = helpers.group_pool(12)
    p = helpers.random_presentation(rng, pool, max_len=5)
    base = normalize(p)
    q = p
    for _ in range(data.draw(st.integers(1, 4))):
        q = apply_move(q, helpers.random_move(rng, q))
    assert normalize(q) == base


def _corpus_presentations():
    """Every presentation in the data directory, including those embedded in
    identity inputs."""
    found = {}
    for name in sorted(os.listdir(DATA_DIR)):
        with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc = doc.get("presentation", doc)
        if "tuple" in doc:
            found[name] = doc
    return found


def _chain_fields(chain):
    return {"n": chain.n, "N": chain.N, "S": chain.S,
            "s_characters": chain.s_characters, "field": chain.field}


@pytest.mark.parametrize("name", sorted(_corpus_presentations()))
def test_chain_matches_word_scan_on_corpus(name):
    p = parse_presentation(_corpus_presentations()[name])
    assert _chain_fields(compute_KNS(p)) == helpers.scan_chain(p, 4)


@pytest.mark.parametrize("name", sorted(helpers.chain_ambients()))
@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_chain_matches_word_scan_on_shifted_classes(name, m):
    grp, elems = helpers.chain_ambients()[name]
    sub = SubgroupData(grp, elems)
    rng = random.Random(f"{name}/{m}")
    for alpha in h2_classes(sub, m):
        f = [0] + [rng.randrange(m) for _ in range(sub.order - 1)]
        p = Presentation(grp, sub, shift_by_coboundary(alpha, f), sub.transversal)
        chain = compute_KNS(p, 4)
        assert chain.image_stable and chain.word_bound == 4
        assert _chain_fields(chain) == helpers.scan_chain(p, 4)


def test_normal_form_matches_the_full_table_comparison(monkeypatch):
    """normalize_with_details compares the tied candidates' conjugate tables
    through their position maps and builds one table, the winner's; the
    normal forms are those of the comparison of full tables, on seeded move
    orbits with nontrivial cocycles."""
    built, compared = [], []
    real_table = presentation_mod.conjugate_cocycle
    real_positions = presentation_mod._conjugation_positions

    def counting_table(*args):
        built.append(args)
        return real_table(*args)

    def counting_positions(*args):
        compared.append(args)
        return real_positions(*args)

    rng = random.Random("normal-form-ties")
    starts = []
    for name, (grp, elems) in sorted(helpers.chain_ambients().items()):
        sub = SubgroupData(grp, elems)
        for m in (2, 3, 4):
            for alpha in h2_classes(sub, m)[1:3]:
                f = [0] + [rng.randrange(m) for _ in range(sub.order - 1)]
                entries = [rng.randrange(grp.order) for _ in range(rng.randint(1, 3))]
                starts.append(Presentation(grp, sub, shift_by_coboundary(alpha, f), entries))
    tied = 0
    for q in starts:
        for _ in range(3):
            q = apply_move(q, helpers.random_move(rng, q))
            want = helpers.normalize_with_details_by_tables(q)
            with monkeypatch.context() as mp:
                mp.setattr(presentation_mod, "conjugate_cocycle", counting_table)
                mp.setattr(presentation_mod, "_conjugation_positions", counting_positions)
                got = normalize_with_details(q)
            assert got == want
            assert len(built) == 1
            tied += len(compared) > 1 and not q.alpha.is_trivial()
            built.clear()
            compared.clear()
    assert tied >= 20


def _spy_class_order(monkeypatch):
    """Record the cocycle of every full chain computation: compute_KNS calls
    class_order once per chain it computes."""
    seen = []
    real = presentation_mod.class_order

    def spy(alpha):
        seen.append(alpha)
        return real(alpha)

    monkeypatch.setattr(presentation_mod, "class_order", spy)
    return seen


def test_chain_is_kept_on_its_presentation(p_swap_raw, p_related, monkeypatch):
    """normalize, compute_KNS and classify on one object compute its chain
    once; the covariance cross-check computes the chain of the new normal
    form from scratch; an equal but separately built object computes its
    own."""
    seen = _spy_class_order(monkeypatch)
    for source in (p_swap_raw, p_related):
        p = _fresh(source)
        nf = normalize_with_details(p)
        norm = nf.presentation
        assert norm is not p
        assert seen == [p.alpha, norm.alpha]
        chain = compute_KNS(p)
        flags = classify(p)
        assert compute_KNS(norm) == nf.chain == _conjugate_chain(p.group, chain, nf.theta)
        # a second normalize builds a new normal form and computes its chain
        again = normalize(p)
        assert again == norm and again is not norm and classify(p) == flags
        assert seen == [p.alpha, norm.alpha, again.alpha]
        q = _fresh(p)
        assert q == p and compute_KNS(q) == chain
        assert len(seen) == 4 and seen[-1] is p.alpha
        seen.clear()


def test_kept_chain_records_the_word_bound_asked_for(p_swap_raw, monkeypatch):
    seen = _spy_class_order(monkeypatch)
    p = _fresh(p_swap_raw)
    c3, c5 = compute_KNS(p, 3), compute_KNS(p, 5)
    assert (c3.word_bound, c5.word_bound) == (3, 5)
    assert replace(c5, word_bound=3) == c3 and compute_KNS(p, 3) is c3
    assert len(seen) == 1


@pytest.mark.parametrize("bad", [3.7, "3", True], ids=["float", "str", "bool"])
def test_word_bound_must_be_an_integer(p_swap_raw, bad):
    # int() read each of these as 3 (the bool as 1), so compute_KNS went on
    for call in (compute_KNS, normalize, classify):
        with pytest.raises(PreconditionError, match="^word_bound must be an integer$"):
            call(_fresh(p_swap_raw), bad)
    # also when the chain is kept; None still means the default bound
    p = _fresh(p_swap_raw)
    assert compute_KNS(p, None).word_bound == compute_KNS(p).word_bound == CAPS.word_bound
    with pytest.raises(PreconditionError, match="^word_bound must be an integer$"):
        compute_KNS(p, bad)
    assert compute_KNS(p, 3).word_bound == 3


def test_kept_chain_is_referenced_by_its_presentation_alone(p_swap_raw):
    def holders(obj):
        return [id(r) for r in gc.get_referrers(obj) if not inspect.isframe(r)]

    # no gforge module, cache or global holds a chain: only the attribute
    # dict of its presentation, and that dict only the presentation
    p = _fresh(p_swap_raw)
    chain = compute_KNS(p)
    attrs = vars(p)
    assert holders(chain) == [id(attrs)]
    assert holders(attrs) == [id(p)]


def test_orbit_op_computes_two_chains_and_one_echelon(monkeypatch):
    """One orbit-shaped sequence on a normal subgroup: the chains of q and of
    its normal form are the only full computations, and every coboundary
    echelon is built once for its (subgroup, M)."""
    grp = direct_product(cyclic(4), cyclic(4))
    sub = SubgroupData(grp, (0, 2, 8, 10))
    assert sub.is_normal and sub.index() == 4
    rng = random.Random("orbit-op")
    alpha = shift_by_coboundary(h2_classes(sub, 2)[1], [0, 1, 1, 0])
    base = Presentation(grp, sub, alpha, (0, 1, 4))
    for _ in range(6):
        base = apply_move(base, helpers.random_move(rng, base))
    seen = _spy_class_order(monkeypatch)
    echelons = []
    real_rows = twisted.coboundary_rows

    def spy_rows(s, M):
        echelons.append((s, M))
        return real_rows(s, M)

    monkeypatch.setattr(twisted, "coboundary_rows", spy_rows)
    q = base
    for _ in range(12):
        q = apply_move(q, helpers.random_move(rng, q))
    nf = normalize(q, 3)
    compute_KNS(q, 3)
    classify(q, 3)
    assert iso_test(base, q)
    assert seen == [q.alpha, nf.alpha]
    assert nf.sub is q.sub is sub
    assert echelons == [(sub, alpha.modulus * sub.exponent())]


def test_moved_chain_is_carried_and_is_the_fresh_chain(monkeypatch):
    """A move on a presentation that keeps its chain gives the moved one a
    chain without computing it: the same chain after an entry or permute
    move and the conjugated chain after a translate. On the inputs of the
    presentation sweep over the pool groups of order <= 8 and on the
    class-moving ambients, each carried chain equals, in every field, the
    chain computed from scratch on an equal presentation built directly."""
    seen = _spy_class_order(monkeypatch)
    rng = random.Random("carried-chains")
    cases = [(grp, (2, 4), None) for grp in helpers.group_pool(8)]
    cases += [(grp, (2, 3, 4), [elems])
              for _, (grp, elems) in sorted(helpers.chain_ambients().items())]
    kinds = set()
    for grp, moduli, subs in cases:
        for p in helpers.sweep_inputs(grp, moduli, subs):
            compute_KNS(p)
            q = p
            for _ in range(4):
                move = helpers.random_move(rng, q)
                q = apply_move(q, move)
                kinds.add(move["type"])
                seen.clear()
                carried = compute_KNS(q)
                assert not seen and q._chain is carried
                fresh = compute_KNS(_fresh(q))
                assert seen == [q.alpha]
                for field in fields(InvariantChain):
                    assert getattr(carried, field.name) == getattr(fresh, field.name), field.name
    assert kinds == {"entry", "permute", "translate"}


def test_normal_form_matches_the_full_table_comparison_on_the_sweep():
    """normalize_with_details compares one candidate per right coset of the
    stabilizer of alpha; on the inputs of the presentation sweep over the
    pool groups of order <= 8 and on the class-moving ambients, and on a
    seeded move of each, its normal form is that of the comparison of every
    candidate's full table."""
    rng = random.Random("sweep-tables")
    cases = [(grp, (2, 4), None) for grp in helpers.group_pool(8)]
    cases += [(grp, (2, 3, 4), [elems])
              for _, (grp, elems) in sorted(helpers.chain_ambients().items())]
    inputs = 0
    for grp, moduli, subs in cases:
        for p in helpers.sweep_inputs(grp, moduli, subs):
            for q in (p, apply_move(p, helpers.random_move(rng, p))):
                assert normalize_with_details(q) == helpers.normalize_with_details_by_tables(q)
                inputs += 1
    assert inputs > 1000


@pytest.mark.parametrize("normal", (True, False), ids=("normal", "not-normal"))
def test_orbit_op_on_a_kept_chain_computes_one_chain(monkeypatch, normal):
    """One orbit-shaped sequence from a base that keeps its chain, on a
    normal subgroup and on the non-normal D8 subgroup of order 4 (whose
    translates move H): normalize, compute_KNS and classify on the moved q
    make one full chain computation, the normal form's."""
    if normal:
        grp = direct_product(cyclic(4), cyclic(4))
        sub = SubgroupData(grp, (0, 2, 8, 10))
        alpha = shift_by_coboundary(h2_classes(sub, 2)[1], [0, 1, 1, 0])
        entries = (0, 1, 4)
    else:
        grp = dihedral(8)
        sub = SubgroupData(grp, (0, 4, 8, 12))
        alpha = shift_by_coboundary(h2_classes(sub, 2)[1], [0, 1, 0, 1])
        entries = (0, 1, 2, 3)
    assert sub.is_normal == normal
    rng = random.Random("orbit-op-kept")
    base = Presentation(grp, sub, alpha, entries)
    for _ in range(6):
        base = apply_move(base, helpers.random_move(rng, base))
    compute_KNS(base, 3)
    seen = _spy_class_order(monkeypatch)
    q = base
    for _ in range(12):
        q = apply_move(q, helpers.random_move(rng, q))
    nf = normalize(q, 3)
    chain = compute_KNS(q, 3)
    classify(q, 3)
    assert iso_test(base, q)
    assert seen == [nf.alpha]
    assert chain == compute_KNS(_fresh(q), 3)
    assert normal or q.sub is not sub


def test_normalize_finds_the_cocycle_stabilizer_by_closure(monkeypatch):
    """On D64 with H = D32, with the trivial cocycle and with a coboundary
    shift at m = 4: the normal form is that of the full-table comparison,
    and the candidates of one coset tie on a whole table at most
    ceil(log2 |H|) times, since each tie at least doubles the part of the
    stabilizer T found, after which one candidate per coset T c is
    compared."""
    results = []
    real = presentation_mod._conjugate_compare

    def spy(exps, back, other):
        results.append(real(exps, back, other))
        return results[-1]

    monkeypatch.setattr(presentation_mod, "_conjugate_compare", spy)
    grp = dihedral(64)
    sub = SubgroupData(grp, [x for a in range(0, 64, 2) for x in (a, 64 + a)])
    assert sub.order == 64
    rng = random.Random("stabilizer-closure")
    bound = (sub.order - 1).bit_length()  # ceil(log2 |H|)
    ties = []
    for m in (1, 4):
        alpha = shift_by_coboundary(trivial_cocycle(sub, m),
                                    [0] + [rng.randrange(m) for _ in range(sub.order - 1)])
        for x in rng.sample(range(grp.order), 8):
            for entries in ((0, 0, x), (0, x)):
                p = Presentation(grp, sub, alpha, entries)
                top = max(d for _, d in p.lam.counts)
                heads = sum(d == top for _, d in p.lam.counts)  # the candidate cosets
                results.clear()
                assert normalize_with_details(p) == helpers.normalize_with_details_by_tables(p)
                assert results.count(0) <= heads * bound
                if x not in sub.eset and len(entries) == 3:
                    assert heads == 1
                # the trivial cocycle is fixed by all of H, so once the
                # closure reaches T = H every other candidate is skipped
                assert m == 4 or len(results) <= heads * bound
                ties.append((m, results.count(0)))
    assert max(t for m, t in ties if m == 1) > 1


@pytest.mark.parametrize("m, r, f, entries", [
    (2, 2, "001000110001001110111111", (11,)),
    (4, 2, "012221320103003321311030", (0,)),
    (2, 14, "001110100101011000110010", (18, 22)),
    (3, 22, "022112201221122110211201", (13, 16, 16)),
])
def test_normalize_skips_the_right_cosets_of_the_stabilizer(m, r, f, entries):
    """Candidates c1 and c2 give equal tables exactly when c1 c2^-1 lies in
    T, the stabilizer of alpha in H, so the loop skips the right cosets T c.
    On H = G = S4 with alpha = delta f, f fixed by conjugation by r, T is
    not normal in H; on these inputs a loop that skipped the left cosets c T
    picks another normal form than the full-table comparison."""
    grp, _ = _s4()
    sub = SubgroupData(grp, range(24))
    f = [int(v) for v in f]
    assert all(f[grp.conj(x, r)] == f[x] for x in range(24))
    alpha = shift_by_coboundary(trivial_cocycle(sub, m), f)
    stab = [t for t in range(24) if conjugate_cocycle(alpha, t).exps == alpha.exps]
    assert r in stab and any(grp.conj(t, h) not in stab for t in stab for h in range(24))
    p = Presentation(grp, sub, alpha, entries)
    assert normalize_with_details(p) == helpers.normalize_with_details_by_tables(p)


def test_classify_matches_the_element_wise_test():
    """classify tests alpha^g ~ alpha for one g per coset of H; on ambients
    whose outer conjugations move classes of H it agrees with the test over
    every g in G."""
    rng = random.Random("classify-cosets")
    verdicts = []
    for name, (grp, elems) in sorted(helpers.chain_ambients().items()):
        sub = SubgroupData(grp, elems)
        for m in (2, 3, 4):
            for alpha in h2_classes(sub, m):
                f = [0] + [rng.randrange(m) for _ in range(sub.order - 1)]
                p = Presentation(grp, sub, shift_by_coboundary(alpha, f), sub.transversal)
                want = helpers.strongly_vp_by_elements(p)
                assert classify(p).strongly_vp == want
                verdicts.append(want)
    # uniform multisets on normal subgroups: a False comes from a g that
    # moves the class
    assert True in verdicts and False in verdicts


def test_classify_answers_a_trivial_cocycle_without_a_solve():
    """A zero table is fixed by every conjugation: on normal subgroups with a
    uniform multiset classify gives the element-wise verdict and builds no
    coboundary echelon."""
    for grp, elems in helpers.chain_ambients().values():
        for m in (1, 2, 6):
            p, oracle_p = [Presentation(grp, sub, trivial_cocycle(sub, m), sub.transversal)
                           for sub in (SubgroupData(grp, elems), SubgroupData(grp, elems))]
            assert p.sub.is_normal and p.lam.uniform_multiplicity() is not None
            assert classify(p).strongly_vp
            assert p.sub.coboundary_echelons == {}
            assert helpers.strongly_vp_by_elements(oracle_p)


@pytest.mark.parametrize("index", range(len(helpers.group_pool(8))))
def test_small_case_presentation_sweep(index):
    """The presentation slice of the small-case sweep: normalize is
    idempotent, constant on seeded moves and isomorphic to its source, the
    chain of the normal form is the conjugated chain, and classify agrees
    with the element-wise test of strong verbal primeness, which implies the
    division form."""
    grp = helpers.group_pool(8)[index]
    rng = random.Random(f"presentation-sweep:{index}")
    connected = 0
    for p in helpers.sweep_inputs(grp):
        failed, _, _ = helpers.presentation_checks(p, rng)
        assert not failed, (p.sub.elements, p.alpha.exps, p.entries, failed)
        connected += validate_presentation(p).connected
    assert connected
