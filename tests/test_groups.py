import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gforge.errors import CapExceeded, GroupError, PreconditionError
from gforge.groups import (CosetMultiset, Group, SubgroupData, _associative_at,
                           cyclic, dihedral, direct_product, element_orders, from_permutations,
                           generating_set, quotient_group, semidirect_product,
                           subgroup_group)

import helpers


def test_cyclic_structure():
    g = cyclic(6)
    assert g.order == 6
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.order_of(2) == 3
    assert g.exponent() == 6
    assert g.center() == tuple(range(6))


def test_dihedral_structure():
    g = dihedral(3)
    assert g.order == 6
    # reflection squares to the identity, rotation has order 3
    assert g.order_of(3) == 2
    assert g.order_of(1) == 3
    # tau * sigma = sigma^2 tau  (labels: r + 3f)
    assert g.mul(3, 1) == 5
    assert g.center() == (0,)


def test_table_validation():
    with pytest.raises(GroupError):
        Group([[0, 1], [1, 1]])
    with pytest.raises(GroupError):
        Group([[1, 0], [0, 1]])  # identity must be element 0
    with pytest.raises(GroupError, match="^multiplication table must be square$"):
        Group([[0, 1, 2], [1, 2, 0]])
    with pytest.raises(GroupError, match="^multiplication table must be square$"):
        Group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0], [3, 2, 1, 0]])  # ragged
    # Z2 is fine
    assert Group([[0, 1], [1, 0]]).order == 2


@pytest.mark.parametrize("entry, message", [
    (0.5, "^table entries must be integers$"),
    (True, "^table entries must be integers$"),
    ("0", "^table entries must be integers$"),
    (2 ** 70, "^table entries out of range$"),
])
def test_table_entries_are_checked_as_python_ints(entry, message):
    with pytest.raises(GroupError, match=message):
        Group([[0, 1], [1, entry]])


@pytest.mark.parametrize("elems", [(0, 2.7), (0, 2.0), (0, True), (0, "2")])
def test_subgroup_elements_are_checked_as_python_ints(elems):
    with pytest.raises(GroupError, match="^subgroup elements must be integers$"):
        SubgroupData(cyclic(4), elems)


def _group_tables(table):
    grp = Group(table)
    return grp._mul, grp._inv


def _table_outcome(check, table):
    try:
        return check(table)
    except GroupError as exc:
        return str(exc)


def test_group_check_matches_the_numpy_check(corpus):
    # Light's test on a generating set accepts exactly the tables the full
    # numpy check accepts, and rejects the others with the same message
    rng = random.Random(19)
    groups = helpers.group_pool(16) + [p.group for p in corpus.values()]
    tables = [[list(row) for row in grp._mul] for grp in groups]
    for grp in [g for g in groups if 4 <= g.order <= 12]:
        # loops; a group of odd order has no intercalate to switch
        loops = [helpers.random_loop_table(rng, grp, rng.randint(1, 4))
                 for _ in range(0 if grp.order % 2 else 6)]
        tables += loops + [helpers.product_table(loop, cyclic(k)._mul)
                           for loop, k in zip(loops[:2], rng.sample((2, 3, 4), 2))]
        r = rng.randrange(1, grp.order)
        shuffled, repeated, swapped = ([list(row) for row in grp._mul] for _ in range(3))
        shuffled[r][1:] = rng.sample(shuffled[r][1:], grp.order - 1)
        repeated[r][1] = repeated[r][2]
        swapped[0], swapped[r] = swapped[r], swapped[0]
        tables += [shuffled, repeated, swapped]
    outcomes = []
    for table in tables:
        got = _table_outcome(_group_tables, table)
        assert got == _table_outcome(helpers.group_tables_numpy, table)
        outcomes.append(got if isinstance(got, str) else "group")
        if outcomes[-1].startswith("associativity fails"):  # the rows of S decide
            assert not all(_associative_at(table, a) for a in generating_set(table))
    assert {o for o in outcomes if not o.startswith("associativity fails")} == {
        "group", "identity must be element 0", "rows are not permutations",
        "columns are not permutations"}
    assert len({o for o in outcomes if o.startswith("associativity fails")}) >= 4
    assert outcomes.count("group") >= len(groups)


@pytest.mark.parametrize("grp", helpers.group_pool(16), ids=lambda g: g.name)
def test_generating_set_is_small(grp):
    gens = generating_set(grp._mul)
    assert grp.closure(gens) == tuple(range(grp.order))
    assert 2 ** len(gens) <= grp.order


@pytest.mark.parametrize("grp", helpers.group_pool(16), ids=lambda g: g.name)
def test_closure_matches_pairwise_closure(grp):
    # closure walks the words in the elements; the pairwise closure
    # multiplies every element reached by every other, on both sides
    for a in range(grp.order):
        for b in range(a, grp.order):
            assert grp.closure((a, b)) == helpers.closure_pairwise(grp, (a, b))
    assert grp.closure(()) == (0,)


@pytest.mark.parametrize("elems, message", [
    ((-1,), "out of range: [-1]"),  # it would index the table from its end
    ((7,), "out of range: [7]"),
    ((1, 4), "out of range: [4]"),
    ((1.0,), "must be integers"),
])
def test_closure_rejects_elements_outside_the_group(elems, message):
    with pytest.raises(GroupError) as err:
        cyclic(4).closure(elems)
    assert str(err.value) == f"closure elements {message}"


def test_covering_generating_set_is_least():
    # on every subgroup of every pool group, the coverage pick generates it
    # with as few elements as any set does, never more than generating_set
    subs = 0
    for grp in helpers.group_pool(16):
        for elems in helpers.all_subgroups(grp):
            pmul = SubgroupData(grp, elems).pmul
            gens = helpers.covering_generating_set(pmul)
            assert grp.closure([elems[s] for s in gens]) == elems
            assert len(gens) == helpers.least_generating_size(pmul) <= len(generating_set(pmul))
            subs += 1
    assert subs == 189


def test_generating_set_is_least():
    # on every subgroup of every pool group, the one pick of a generating
    # set, which every reader of the subgroup uses, is as small as any set
    subs = 0
    for grp in helpers.group_pool(16):
        for elems in helpers.all_subgroups(grp):
            sub = SubgroupData(grp, elems)
            assert sub.gens == generating_set(sub.pmul)
            assert grp.closure([elems[s] for s in sub.gens]) == elems
            assert len(sub.gens) == helpers.least_generating_size(sub.pmul) == len(
                helpers.covering_generating_set(sub.pmul))
            subs += 1
    assert subs == 189


@pytest.mark.parametrize("grp", helpers.group_pool(16), ids=lambda g: g.name)
def test_element_orders_match_the_power_walk_of_each_element(grp):
    # the walks of element_orders set the orders of every power on them
    for a in range(grp.order):
        k, x = 1, a
        while x:
            x, k = grp.mul(x, a), k + 1
        assert grp.order_of(a) == element_orders(grp._mul)[a] == k
    assert grp.exponent() == lcm(*map(grp.order_of, range(grp.order)))


def test_generating_set_takes_larger_orders_first():
    # C2 x C4: (0, 1) has order 4 and (1, 0) only 2, so after (0, 1) the
    # pick is (1, 1) of order 4; the least-first pick took (1, 0)
    assert generating_set(direct_product(cyclic(2), cyclic(4))._mul) == (1, 5)
    # on a cyclic group one element of full order generates it
    assert generating_set(cyclic(512)._mul) == (1,)
    assert generating_set(cyclic(1)._mul) == ()


def test_from_permutations():
    s3 = from_permutations([(1, 0, 2), (0, 2, 1)])
    assert s3.order == 6
    with pytest.raises(GroupError):
        from_permutations([(0, 0, 1)])
    with pytest.raises(GroupError):
        from_permutations([])


def test_products():
    a = direct_product(cyclic(2), cyclic(3))
    assert a.order == 6 and a.exponent() == 6
    d3 = semidirect_product(cyclic(3), cyclic(2),
                            lambda h, x: x if h == 0 else (-x) % 3)
    assert d3.order == 6
    assert d3.center() == (0,)


def test_subgroup_data():
    g = dihedral(3)
    sub = SubgroupData(g, (0, 3))
    assert sub.order == 2 and sub.index() == 3
    # right cosets partition the group
    seen = set()
    for rep, coset in sub.cosets.items():
        assert rep == min(coset)
        seen.update(coset)
    assert seen == set(range(6))
    assert sub.coset_id_of[3] == 0
    # normalizer of a non-normal reflection subgroup is itself
    assert set(sub.normalizer) == {0, 3}
    assert not sub.is_normal
    rot = SubgroupData(g, (0, 1, 2))
    assert rot.is_normal
    with pytest.raises(GroupError):
        SubgroupData(g, (0, 1))  # not closed


def test_normalizer_matches_the_element_wise_normalizer():
    # the normalizer tests g^-1 s g in H for the generators s of H; on every
    # subgroup of every pool group and on the class-moving ambients it is
    # the set of g with g^-1 H g = H, tested element by element
    cases = [(grp, elems) for grp in helpers.group_pool(16)
             for elems in helpers.all_subgroups(grp)]
    cases += sorted(helpers.chain_ambients().values(), key=lambda c: c[0].name)
    normal = 0
    for grp, elems in cases:
        sub = SubgroupData(grp, elems)
        want = helpers.normalizer_by_elements(grp, elems)
        assert sub.normalizer == want, (grp.name, elems)
        assert sub.is_normal == (len(want) == grp.order)
        normal += sub.is_normal
    assert len(cases) == 196 and 0 < normal < len(cases)


def test_subgroup_product_table():
    rng = random.Random(7)
    for grp in helpers.group_pool(16):
        for _ in range(3):
            sub = helpers.random_subgroup(rng, grp)
            assert sub.pmul == tuple(map(tuple, helpers.gathered_pmul(sub).tolist()))
            assert sub.pmul is sub.pmul  # built once, kept on the subgroup


def test_subgroup_group_and_quotient():
    g = dihedral(3)
    rot, elems, index_of = subgroup_group(g, (0, 1, 2))
    assert rot.order == 3 and elems == (0, 1, 2)
    for a in range(3):
        for b in range(3):
            assert elems[rot.mul(a, b)] == g.mul(elems[a], elems[b])
    q, proj = quotient_group(g, (0, 1, 2))
    assert q.order == 2
    assert proj[0] == 0 and proj[3] == proj[4] == proj[5]
    with pytest.raises(PreconditionError):
        quotient_group(g, (0, 3))  # not normal


def test_coset_multiset():
    g = dihedral(3)
    sub = SubgroupData(g, (0,))
    lam = CosetMultiset.from_elements(sub, (0, 0, 1, 1, 3, 3, 5, 5))
    assert lam.total() == 8
    assert lam.multiplicity(1) == 2 and lam.multiplicity(2) == 0
    # uniform multiplicity needs full coset support
    assert lam.uniform_multiplicity() is None
    full = CosetMultiset.from_elements(sub, tuple(range(6)) * 2)
    assert full.uniform_multiplicity() == 2
    moved = lam.translated(3)
    assert moved.multiplicity(3) == 2
    assert lam.matches(moved)
    assert lam != CosetMultiset.from_elements(sub, (0, 1))


def test_blocks_along():
    g = dihedral(3)
    lam = CosetMultiset.from_elements(SubgroupData(g, (0,)), (0, 0, 1, 1, 3, 3, 5, 5))
    # right cosets of {e, t} are {0, 3}, {1, 5}, {2, 4}, keyed by least element
    assert lam.blocks_along((0, 3)) == {0: 2, 1: 2}
    assert lam.blocks_along((0,)) == {0: 2, 1: 2, 3: 2, 5: 2}
    assert lam.blocks_along((0, 1, 2)) is None  # the rotations miss 2
    assert lam.blocks_along(range(6)) is None
    one_each = CosetMultiset.from_elements(SubgroupData(g, (0, 3)), (0, 1, 2))
    assert one_each.blocks_along(range(6)) == {0: 1}
    assert one_each.blocks_along((0, 1, 2)) is None  # does not contain H


def test_group_order_cap():
    with pytest.raises(CapExceeded):
        cyclic(513)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_subgroup_closure_properties(data):
    pool = helpers.group_pool(12)
    grp = data.draw(st.sampled_from(pool))
    gens = data.draw(st.lists(st.integers(0, grp.order - 1), max_size=2))
    sub = SubgroupData(grp, grp.closure(gens))
    assert 0 in sub.eset
    assert grp.order % sub.order == 0
    for a in sub.elements:
        assert grp.inv(a) in sub.eset
        for b in sub.elements:
            assert grp.mul(a, b) in sub.eset
    # normalizer contains the subgroup and is closed
    nz = set(sub.normalizer)
    assert sub.eset <= nz
    assert grp.is_subgroup(nz)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_translated_multiset_is_action(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    pool = helpers.group_pool(12)
    p = helpers.random_presentation(rng, pool, max_len=6)
    lam, grp = p.lam, p.group
    nz = p.sub.normalizer
    a = data.draw(st.sampled_from(nz))
    b = data.draw(st.sampled_from(nz))
    assert lam.translated(0) == lam
    assert lam.translated(grp.mul(a, b)) == lam.translated(b).translated(a)
