"""Checks of gforge outputs that the benchmark computes on its own.

Nothing here calls a gforge algorithm. The functions read only group tables
(through Group.mul), subgroup element lists and cocycle exponent tables, and
derive what the program must return from mathematics: the stabilizer of a
coset multiset, the order of the commutator pairing of an abelian cocycle,
the m-torsion of the Schur multiplier, and the value of a polynomial at a
basis assignment folded with complex roots of unity.
"""

from __future__ import annotations

import cmath
from math import gcd


class CheckError(AssertionError):
    """A program output disagrees with what the benchmark expects."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# groups


def normalizer(grp, elems) -> tuple[int, ...]:
    """Elements g with g^-1 H g = H, from the multiplication table alone."""
    hset = frozenset(elems)
    out = []
    for g in range(grp.order):
        gi = next(x for x in range(grp.order) if grp.mul(g, x) == 0)
        if all(grp.mul(grp.mul(gi, h), g) in hset for h in hset):
            out.append(g)
    return tuple(out)


def coset_key(grp, elems, x: int) -> frozenset:
    """The right coset H*x as a set of elements."""
    return frozenset(grp.mul(h, x) for h in elems)


def coset_multiset(grp, elems, entries) -> dict:
    acc: dict = {}
    for x in entries:
        key = coset_key(grp, elems, x)
        acc[key] = acc.get(key, 0) + 1
    return acc


def multiset_stabilizer(grp, elems, entries) -> tuple[int, ...]:
    """K: normalizer elements g with g*(H x) = H (g x) fixing the multiset."""
    lam = coset_multiset(grp, elems, entries)
    keep = []
    for g in normalizer(grp, elems):
        moved: dict = {}
        for key, mult in lam.items():
            rep = min(key)
            nkey = coset_key(grp, elems, grp.mul(g, rep))
            moved[nkey] = moved.get(nkey, 0) + mult
        if moved == lam:
            keep.append(g)
    return tuple(keep)


def is_abelian(grp, elems) -> bool:
    return all(grp.mul(a, b) == grp.mul(b, a) for a in elems for b in elems)


def element_order(grp, x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = grp.mul(y, x)
        k += 1
    return k


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def abelian_invariants(grp, elems) -> list[int]:
    """Prime-power cyclic factors of an abelian subgroup.

    For a prime p, c_k = log_p #{x : x^(p^k) = e} is the sum of min(k, e_i)
    over the factors Z_{p^e_i}, so c_k - c_(k-1) counts the factors of
    exponent at least k.
    """
    orders = [element_order(grp, x) for x in elems]
    out = []
    for p in _prime_factors(len(elems)):
        full = _p_part(len(elems), p)
        c = [0]
        while p ** c[-1] < full:
            k = len(c)
            c.append(_exact_log(sum(1 for o in orders if (p ** k) % o == 0), p))
        at_least = [c[k] - c[k - 1] for k in range(1, len(c))] + [0]
        for k in range(1, len(c)):
            out += [p ** k] * (at_least[k - 1] - at_least[k])
    return sorted(out)


def _exact_log(x: int, p: int) -> int:
    e = 0
    while x > 1:
        if x % p:
            raise CheckError(f"{x} is not a power of {p}")
        x //= p
        e += 1
    return e


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def dihedral_half(grp, elems) -> int | None:
    """n when the subgroup is dihedral of order 2n (n >= 3), else None."""
    size = len(elems)
    if size % 2 or size < 6:
        return None
    half = size // 2
    rot = next((x for x in elems if element_order(grp, x) == half), None)
    if rot is None:
        return None
    cyc = set()
    y = 0
    for _ in range(half):
        cyc.add(y)
        y = grp.mul(y, rot)
    outside = [x for x in elems if x not in cyc]
    if all(element_order(grp, x) == 2 for x in outside):
        return half
    return None


def schur_torsion_count(grp, elems, m: int) -> int:
    """Elements of order dividing m in the Schur multiplier of H.

    Abelian H = sum of Z_{n_i}: prod_{i<j} gcd(n_i, n_j, m). Dihedral of
    order 2n: gcd(2, m) for even n and 1 for odd n. Other types are not used
    by the benchmark.
    """
    if is_abelian(grp, elems):
        inv = abelian_invariants(grp, elems)
        out = 1
        for i in range(len(inv)):
            for j in range(i + 1, len(inv)):
                out *= gcd(inv[i], inv[j], m)
        return out
    n = dihedral_half(grp, elems)
    if n is None:
        raise CheckError("subgroup is neither abelian nor dihedral")
    return gcd(2, m) if n % 2 == 0 else 1


# cocycles


def commutator_order(alpha) -> int:
    """m / gcd(m, alpha(a,b) - alpha(b,a) over all a, b), abelian H only."""
    m = alpha.modulus
    d = m
    for row, col in zip(alpha.exps, zip(*alpha.exps)):
        for x, y in zip(row, col):
            d = gcd(d, (x - y) % m)
    return m // d


# polynomial evaluation


def root(m: int, e: int) -> complex:
    return cmath.exp(2j * cmath.pi * (e % m) / m)


def scalar_value(c) -> complex:
    """A cyclotomic scalar on the power basis, as a complex number."""
    return sum(float(q) * root(c.modulus, t) for t, q in enumerate(c.coeffs))


def fold_value(poly, algebra, assignment) -> dict:
    """Evaluate poly at basis triples by folding (h, i, j) left to right.

    Returns {triple: complex value}; the exponent of each product is summed
    from the cocycle table of the algebra.
    """
    grp = algebra.group
    alpha = algebra.alpha
    pos = {h: t for t, h in enumerate(alpha.sub.elements)}
    m = alpha.modulus
    acc: dict = {}
    for coeff, seq in poly.monomials:
        h, i, j = assignment[seq[0]]
        e = 0
        live = True
        for v in seq[1:]:
            h2, i2, j2 = assignment[v]
            if j != i2:
                live = False
                break
            e += alpha.exps[pos[h]][pos[h2]]
            h = grp.mul(h, h2)
            j = j2
        if live:
            key = (h, i, j)
            acc[key] = acc.get(key, 0) + scalar_value(coeff) * root(m, e)
    return acc


def is_nonzero(values: dict, tol: float = 1e-9) -> bool:
    return any(abs(v) > tol for v in values.values())
