"""Exact linear algebra over Z/M and Z.

howell_echelon returns an echelon generating set of a row module over Z/M
with Howell saturation, so rows of the span with leading zeros are reachable
from rows below; that property is what makes kernel extraction by block
columns and greedy reduction sound over a non-field. One echelon of (A^T | I)
answers kernel and solve queries for A alike (split_echelon), and its image
part can be kept and reduced against for every right-hand side. The same
greedy reduction tests membership (reduce_mod) or finds the lex-least member
of a coset of the span (reduce_least). An Echelon finds the leading column
of each row once, and at each modulus it is reduced at, the ideal, index and
unit inverse of each pivot once, so a kept echelon is neither rescanned nor
re-solved on every reduction. The vectors that reduce_least fixes are one
per coset of the span, so they enumerate the quotient (Z/M)^n / span.
Everything runs on Python ints.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, count
from math import gcd

from .errors import InternalError, PreconditionError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class Echelon(list):
    """Echelon rows sorted by leading column, with those columns (leads),
    found once when it is built, and the pivot data of each modulus it is
    reduced at (pivots), found on the first reduction at that modulus; the
    rows are not to be changed after, so neither can go stale."""

    __slots__ = ("leads", "_pivots")

    def __init__(self, rows=(), leads=None):
        """leads, when given, are the rows' leading columns, found before."""
        super().__init__(rows)
        if leads is None:
            leads = []
            for g in self:
                lead = next(compress(count(), g), None)
                if lead is None:
                    raise InternalError("zero generator in echelon basis")
                leads.append(lead)
        self.leads = leads
        self._pivots = {}

    def pivots(self, M: int) -> list[tuple[int, int, int, int, tuple[int, ...]]]:
        """Per row at modulus M: (lead, g, M // g, the inverse of v / g mod
        M // g, the row from its lead on), v the leading entry and
        g = gcd(v, M); the row's multiples reach exactly the multiples of g
        at the lead."""
        data = self._pivots.get(M)
        if data is None:
            data = []
            for lead, row in zip(self.leads, self):
                v = row[lead]
                g = gcd(v, M)
                mi = M // g
                data.append((lead, g, mi, pow(v // g, -1, mi), tuple(row[lead:])))
            self._pivots[M] = data
        return data


def howell_echelon(rows, M: int) -> Echelon:
    """Echelon generating set of the Z/M row module spanned by `rows`."""
    if M < 1:
        raise PreconditionError("modulus must be positive")
    if M >= 2 ** 31:  # kept so that out-of-range input keeps its error and exit code
        raise PreconditionError("modulus must be below 2**31")
    if M == 1:
        return Echelon()
    try:  # a queued (c, r) is the row that vanishes before column c and is r from there
        queue = [(0, [int(x) % M for x in r]) for r in rows]
    except TypeError:
        raise PreconditionError("rows must be one-dimensional") from None
    pivots: dict[int, list[int]] = {}  # lead column -> the pivot row from there
    while queue:
        c, r = queue.pop()
        lead = next(compress(count(), r), None)
        if lead is None:
            continue
        if lead:  # both rows vanish before column c, so each step starts there
            c, r = c + lead, r[lead:]
        p = pivots.get(c)
        if p is not None:
            if r[0] % p[0] == 0:  # p reaches r's lead: one subtraction clears it
                b = r[0] // p[0]
                queue.append((c, [(v - b * u) % M for u, v in zip(p, r)]))
                continue
            g, x, y = xgcd(p[0], r[0])
            a, b = p[0] // g, r[0] // g
            # [[x, y], [-b, a]] is unimodular, so the span is unchanged
            queue.append((c, [(a * v - b * u) % M for u, v in zip(p, r)]))
            r = [(x * u + y * v) % M for u, v in zip(p, r)]
        pivots[c] = r
        g = gcd(r[0], M)
        if g > 1:  # for a unit lead the saturation row M * r is zero
            queue.append((c, [M // g * v % M for v in r]))
    return Echelon((0,) * c + tuple(pivots[c]) for c in sorted(pivots))


def _augmented_echelon(a_rows, n_vars: int, M: int) -> tuple[Echelon, int, int]:
    """(ech, k, cut): the Howell echelon of the rows (column i of A | e_i),
    A given as k rows of length n_vars, and the index of its first row that
    vanishes on the A part. The rows are sorted by leading column, so they
    are the rows from the first lead >= k on."""
    a_rows = [list(r) for r in a_rows]
    for r in a_rows:
        if len(r) != n_vars:
            raise PreconditionError("equation width mismatch")
    k = len(a_rows)
    aug = [[r[i] for r in a_rows] + [int(i == t) for t in range(n_vars)]
           for i in range(n_vars)]
    ech = howell_echelon(aug, M)
    return ech, k, bisect_left(ech.leads, k)


def split_echelon(a_rows, n_vars: int, M: int):
    """Howell echelon of the rows (column i of A | e_i), A given as rows of
    length n_vars, split into the rows (A x | x) with A x != 0, a Howell basis
    of the image carrying preimages, and the kernel generators x of the rest."""
    ech, k, cut = _augmented_echelon(a_rows, n_vars, M)
    return Echelon(ech[:cut], ech.leads[:cut]), [row[k:] for row in ech[cut:]]


def _reduce(z, ech, M: int, least: bool):
    """Subtract multiples of the rows of ech from z, left to right, taking
    each pivot entry of z to its least residue modulo the pivot's ideal;
    None when that residue is not 0 unless `least` is set."""
    if not isinstance(ech, Echelon):
        ech = Echelon(ech)
    z = [int(x) % M for x in z]
    coeffs = []
    for lead, gg, mi, inv, tail in ech.pivots(M):
        zl = z[lead]
        if not zl:
            coeffs.append(0)
            continue
        rest = zl % gg
        if rest and not least:
            return None
        ai = (zl - rest) // gg * inv % mi
        if ai:
            z[lead:] = [(zz - ai * gi) % M for zz, gi in zip(z[lead:], tail)]
        coeffs.append(ai)
    return coeffs, z


def reduce_mod(z, ech, M: int):
    """(c, z - sum c_i ech_i) with every pivot entry of z cleared, or None if
    one lies outside its pivot's ideal; ech is a Howell echelon sorted by
    leading column, so z lies in its span exactly when the remainder is 0."""
    return _reduce(z, ech, M, least=False)


def reduce_least(z, ech, M: int) -> list[int]:
    """The lex-least member of z + span(ech) over Z/M, for ech a Howell
    echelon sorted by leading column: the span's members that vanish before
    a column are combinations of the rows that lead at or after it, so each
    pivot entry in turn can only move within its pivot's ideal, and no
    other entry can move at all."""
    return _reduce(z, ech, M, least=True)[1]


def kernel_mod(a_rows, n_vars: int, M: int) -> list[tuple[int, ...]]:
    """Generators of {x in (Z/M)^n : A x = 0 mod M}; A given as rows of length n."""
    ech, k, cut = _augmented_echelon(a_rows, n_vars, M)
    return [row[k:] for row in ech[cut:]]


def solve_in_image(image, b, n_vars: int, M: int) -> tuple[int, ...] | None:
    """One x with A x = b over Z/M, or None; `image` is the image part of
    split_echelon(A, n_vars, M). Reducing (b | 0) to (0 | -x) finds it."""
    b = list(b)
    red = reduce_mod(b + [0] * n_vars, image, M)
    if red is None or any(red[1][:len(b)]):
        return None
    return tuple(-t % M for t in red[1][len(b):])


def solve_mod(a_rows, b, M: int) -> tuple[int, ...] | None:
    """One solution of A x = b over Z/M, or None."""
    a_rows = [list(r) for r in a_rows]
    b = list(b)
    if len(a_rows) != len(b):
        raise PreconditionError("rhs length mismatch")
    if not a_rows:
        return ()
    n = len(a_rows[0])
    x = solve_in_image(split_echelon(a_rows, n, M)[0], b, n, M)
    if x is None:
        return None
    for row, bi in zip(a_rows, b):
        if sum(c * xi for c, xi in zip(row, x)) % M != bi % M:
            raise InternalError("solver produced a non-solution")
    return x
