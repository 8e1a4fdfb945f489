"""Linear algebra over Z/M checked against brute force over (Z/M)^n, n <= 3."""

import random
from itertools import combinations, product as iproduct
from math import gcd, prod

import pytest

from gforge import twisted
from gforge.errors import PreconditionError
from gforge.groups import SubgroupData
from gforge.modlinalg import (howell_echelon, kernel_mod, reduce_least, reduce_mod,
                              solve_mod, split_echelon)

import helpers

MODULI = (1, 2, 4, 6, 8, 12)


def _apply(rows, x, M):
    return tuple(sum(c * xi for c, xi in zip(row, x)) % M for row in rows)


def _span(gens, n, M):
    """Every Z/M-combination of gens, as a set of tuples."""
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % M for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _systems(M):
    """Random systems A (k rows of width n) over Z/M with k, n in 0..3, the
    empty system and zero rows included."""
    rng = random.Random(M)
    for n in range(4):
        for k in range(4):
            for _ in range(4):
                yield [[rng.randrange(M) for _ in range(n)] for _ in range(k)], n
            yield [[0] * n for _ in range(k)], n


@pytest.mark.parametrize("M", MODULI)
def test_kernel_mod_spans_the_brute_force_kernel(M):
    for rows, n in _systems(M):
        space = list(iproduct(range(M), repeat=n))
        want = {x for x in space if not any(_apply(rows, x, M))}
        gens = kernel_mod(rows, n, M)
        assert all(len(g) == n for g in gens)
        assert _span(gens, n, M) == want, (rows, n)


@pytest.mark.parametrize("M", MODULI)
def test_solve_mod_finds_a_solution_exactly_when_one_exists(M):
    rng = random.Random(100 + M)
    for rows, n in _systems(M):
        k = len(rows)
        image = {_apply(rows, x, M) for x in iproduct(range(M), repeat=n)}
        rhs = list(iproduct(range(M), repeat=k))
        for b in rng.sample(rhs, min(len(rhs), 12)) + rng.sample(sorted(image), 1):
            x = solve_mod(rows, b, M)
            if not rows:
                assert x == ()
                continue
            assert (x is not None) == (b in image), (rows, b)
            assert (helpers.solve_mod_by_kernel(rows, b, M) is not None) == (b in image)
            if x is not None:
                assert len(x) == n and all(0 <= xi < M for xi in x)
                assert _apply(rows, x, M) == tuple(bi % M for bi in b)


@pytest.mark.parametrize("M", MODULI)
def test_split_echelon_parts(M):
    # image rows are (A x | x) with A x != 0 and span the image of A
    for rows, n in _systems(M):
        k = len(rows)
        image, kernel = split_echelon(rows, n, M)
        assert kernel == kernel_mod(rows, n, M)
        for row in image:
            assert any(row[:k]) and row[:k] == _apply(rows, row[k:], M)
        want = {_apply(rows, x, M) for x in iproduct(range(M), repeat=n)}
        assert _span([row[:k] for row in image], k, M) == want


@pytest.mark.parametrize("M", MODULI)
def test_reduce_mod_decides_membership(M):
    rng = random.Random(200 + M)
    for _ in range(30):
        n = rng.randint(0, 3)
        rows = [[rng.randrange(M) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        ech = howell_echelon(rows, M)
        span = _span(ech, n, M)
        assert span == _span(rows, n, M)
        for z in iproduct(range(M), repeat=n):
            red = reduce_mod(z, ech, M)
            inside = red is not None and not any(red[1])
            assert inside == (z in span), (rows, z)
            if red is not None:
                c, rem = red
                combo = [sum(ci * g[t] for ci, g in zip(c, ech)) for t in range(n)]
                assert tuple((zt - ct) % M for zt, ct in zip(z, combo)) == tuple(rem)


def _echelon_and_vectors(rng, M):
    """A seeded Howell echelon over Z/M whose rows lead with units and non-units
    alike, and vectors to reduce: members of its span with and without a
    random vector added."""
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    n = rng.randint(1, 6)
    rows = [[rng.randrange(M) * rng.choice(divisors) % M for _ in range(n)]
            for _ in range(rng.randint(1, 4))]
    ech = howell_echelon(rows, M)
    vectors = []
    for _ in range(8):
        z = [sum(rng.randrange(M) * r[t] for r in rows) % M for t in range(n)]
        if rng.random() < 0.5:
            z = [(x + rng.randrange(M)) % M for x in z]
        vectors.append(z)
    return ech, vectors


@pytest.mark.parametrize("M", (2, 4, 6, 8, 12, 36, 48))
def test_reductions_match_the_per_call_reduction(M):
    """reduce_mod and reduce_least read the pivot data kept on the Echelon
    and give what finding each pivot's gcd, index and inverse on every call
    gives, None included."""
    rng = random.Random(300 + M)
    outcomes = set()
    for _ in range(40):
        ech, vectors = _echelon_and_vectors(rng, M)
        for z in vectors:
            want = helpers.reduce_per_call(z, ech, M, least=False)
            assert reduce_mod(z, ech, M) == want, (ech, z)
            assert reduce_least(z, ech, M) == helpers.reduce_per_call(z, ech, M, least=True)[1]
            outcomes.add(want is None)
    # over a field every lead is a unit, and no reduction stops
    assert outcomes == ({False} if M == 2 else {True, False})


def test_kept_echelon_reduces_at_two_moduli():
    """One echelon reduced at 12 and 36 in turn: the pivot data of each
    modulus is its own, found once, and the rows are unchanged."""
    rng = random.Random(12)
    ech, vectors = _echelon_and_vectors(rng, 12)
    while len(ech) < 2:
        ech, vectors = _echelon_and_vectors(rng, 12)
    rows, leads = list(ech), list(ech.leads)
    for M in (12, 36, 12, 36):
        for z in vectors:
            assert reduce_mod(z, ech, M) == helpers.reduce_per_call(z, ech, M, least=False)
            assert reduce_least(z, ech, M) == helpers.reduce_per_call(z, ech, M, least=True)[1]
        assert ech.pivots(M) is ech.pivots(M)
    assert list(ech) == rows and ech.leads == leads


def test_degenerate_shapes():
    assert kernel_mod([], 0, 6) == [] and kernel_mod([[], []], 0, 6) == []
    assert solve_mod([[], []], [0, 6], 6) == ()
    assert solve_mod([[], []], [0, 1], 6) is None
    assert solve_mod([], [], 4) == ()
    assert solve_mod([[3, 5]], [7], 1) == (0, 0)
    assert split_echelon([], 2, 4) == ([], [(1, 0), (0, 1)])
    with pytest.raises(PreconditionError, match="width"):
        kernel_mod([[1, 2], [3]], 2, 4)
    with pytest.raises(PreconditionError, match="rhs length"):
        solve_mod([[1, 2]], [1, 2], 4)
    with pytest.raises(PreconditionError, match="modulus"):
        solve_mod([[1, 2]], [1], 0)


def test_howell_echelon_modulus_limit():
    M = 2 ** 31 - 1
    assert howell_echelon([[M - 1, 1], [1, M - 1]], M) == [(1, M - 1)]
    with pytest.raises(PreconditionError, match=r"^modulus must be below 2\*\*31$"):
        howell_echelon([[1, 1]], 2 ** 31)


@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_howell_echelon_matches_the_numpy_echelon(m):
    # the same steps on Python ints as on int64 arrays: the same tuples, on
    # the cocycle systems and the coboundary maps h2_classes and the
    # cohomology queries echelon
    for grp in helpers.group_pool(16):
        sub = SubgroupData(grp, range(grp.order))
        M = m * sub.exponent()
        for rows, mod in ((twisted._cocycle_system(sub, m), m),
                          (helpers.coboundary_rows_full(sub, M), M),
                          (twisted.coboundary_rows(sub, M), M)):
            assert howell_echelon(rows, mod) == helpers.howell_echelon_numpy(rows, mod)


def _det(a):
    """Determinant by expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_snf_contract():
    # U A V = diag(d) for a unimodular V exactly when the columns of U A span
    # the lattice of the d_i e_i: they lie in it, and the k x k minors of A,
    # whose gcd U keeps, pin its index down to d_1 ... d_k
    rng = random.Random(5)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.choice((0, rng.randint(-6, 6))) for _ in range(c)] for _ in range(r)]
        diag, u, uinv = helpers.snf(a)
        assert _matmul(u, uinv) == [[int(i == j) for j in range(r)] for i in range(r)]
        assert len(diag) == min(r, c) and all(d >= 0 for d in diag)
        assert all(d2 % d1 == 0 if d1 else d2 == 0 for d1, d2 in zip(diag, diag[1:]))
        for i, row in enumerate(_matmul(u, a)):
            d = diag[i] if i < len(diag) else 0
            assert all(x % d == 0 if d else x == 0 for x in row)
        for k in range(1, min(r, c) + 1):
            minors = (_det([[a[i][j] for j in cols] for i in rows])
                      for rows in combinations(range(r), k) for cols in combinations(range(c), k))
            assert prod(diag[:k]) == gcd(*minors)
