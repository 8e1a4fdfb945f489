"""Two-cocycles on a finite subgroup, valued in roots of unity as exponent tables.

A Cocycle stores exponents e(h1, h2) with scalar value zeta_modulus^e; tables
are normalized (identity row and column zero) and indexed by position in the
sorted subgroup element list. A table is checked in full once, where it
enters: the Cocycle constructor, make_cocycle (every parsed input) and the
classes h2_classes returns; the rows of a generating set of H decide the
cocycle identity. Embedding, Galois twists, conjugation, coboundary shifts
and scaling keep the cocycle laws, so their tables skip the check.

Cohomology is tested over Z/M with M = modulus * exp(H), on the rows of a
generating set S of H: every cocycle a query reduces is normalized (b - a,
d * alpha or alpha^g - j * alpha), and a normalized cocycle is fixed by its
values on S x H (see h2_classes), so z = delta f exactly when the two agree
there. coboundary_rows is the coboundary map on those rows (s, h); no
|H|^2-row system is built. A Howell basis of it, each row carrying its
preimage f, is built on the first query for (H, M) and kept on the
SubgroupData; it has |S| * |H| + |H| - 1 columns. A query reads the rows s
in S of its cocycles as flat Z/M vectors (exponents scaled by M / modulus;
a conjugate's through its position map), builds no Cocycle for them, and
answers each question by one reduction of such a vector z in
_coboundary_witness, which verifies delta f = z on those rows for every
witness f it returns. is_cohomologous is conjugate_is_cohomologous by the
identity, so there is one query body. The binomial ratios of F^alpha H
depend only on the class of alpha, so the data the invariant chain needs
comes from such reductions: the order n of the class (the ratios generate
the n-th roots of unity), and for g normalizing H the unit j with
alpha^g ~ j * alpha, which is the Galois character of g. The k-form descent
systems of gforge.algebra live here too, so no other module knows the row
format: _slot_witnesses reduces u * alpha - alpha^g on the same echelons (or
adds the descent rows), and _mu_n_representative asks one query over Z/(M/n):
f with delta f = -(M/m) * alpha.

h2_classes works on the same S = sub.gens as the validation and the
queries above: groups.generating_set, the one pick of a generating set. A
normalized alpha with delta alpha(s, g, h) = 0 for every s in S is a
cocycle, and then its values on S x H fix it by alpha(sg, h) = alpha(g, h)
+ alpha(s, gh) - alpha(s, g); so Z^2(H, Z/m) is the kernel of a system in
|S| * (|H| - 1) unknowns. Its rows say that this expansion closes up on
each relator of H, a cycle of the Cayley graph of (H, S) (|H| - 1 rows per
relator, kept without zero or repeated rows): the expansion along a word is
a crossed homomorphism on the free group F(S), a homomorphism on the
relation subgroup N that commutes with conjugation, and N is the normal
closure of the relators. The BFS tree and relators are found once per
subgroup (_cayley) and kept on the SubgroupData. The classes
over Z/M are the quotient Z^2 / L, with L the coboundaries over Z/M whose
values are m-th roots of unity: L is B^2(H, Z/m) plus one carry row
delta chi~ / exp(H) for each generator chi of Hom(H, Z/exp(H)), chi~ its
lift to [0, exp(H)), and Hom is a kernel in |S| unknowns with one row per
relator. Z^2 / L is read off one Howell echelon over Z/m of the relations
of the cocycle generators and the coordinates of L, and each class is
represented by its lex-least such table, found by one reduction against a
Howell basis of L.
The word calculus (folding a word to its accumulated exponent, bucketing
words by multiset and product) only serves to exhibit explicit binomial
identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product as iproduct
from math import gcd, lcm, prod

from .config import CAPS
from .errors import (
    BudgetExceeded,
    CapExceeded,
    CocycleError,
    InternalError,
    PreconditionError,
)
from .groups import SubgroupData, all_ints
from .modlinalg import (Echelon, howell_echelon, kernel_mod, reduce_least, reduce_mod,
                        solve_in_image, solve_mod, split_echelon)


def _check_modulus(m: int) -> None:
    if type(m) is not int:  # so not a bool either, as for the exponents
        raise CocycleError("modulus must be an integer")
    if m < 1:
        raise CocycleError("modulus must be positive")
    if m >= 2 ** 62:  # kept so that out-of-range input keeps its error and exit code
        raise CocycleError("modulus must be below 2**62")


@dataclass(frozen=True, eq=False)
class Cocycle:
    sub: SubgroupData
    modulus: int
    exps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m, sub = self.modulus, self.sub
        _check_modulus(m)
        size = sub.order
        if len(self.exps) != size or any(len(r) != size for r in self.exps):
            raise CocycleError("exponent table shape must match the subgroup")
        if not all_ints(self.exps):
            raise CocycleError("exponents must be integers")
        if min(map(min, self.exps)) < 0 or max(map(max, self.exps)) >= m:
            raise CocycleError("exponents must lie in [0, modulus)")
        if any(self.exps[0]) or any(row[0] for row in self.exps):
            raise CocycleError("table must be normalized at the identity")
        # the rows where the identity holds are closed under products (see
        # h2_classes), so S decides; the message names the least failing row
        if not all(_identity_holds_at(self, i) for i in sub.gens):
            i = next(i for i in range(size) if not _identity_holds_at(self, i))
            raise CocycleError(f"cocycle identity fails at row {i}")

    @classmethod
    def _derived(cls, sub: SubgroupData, modulus: int, exps) -> "Cocycle":
        """A table derived from checked cocycles by an operation that keeps
        the cocycle laws; it is not checked again."""
        alpha = object.__new__(cls)
        alpha.__dict__.update(sub=sub, modulus=modulus, exps=exps)
        return alpha

    def value(self, h1: int, h2: int) -> int:
        return self.exps[self.sub.pos[h1]][self.sub.pos[h2]]

    def is_trivial(self) -> bool:
        return not any(any(row) for row in self.exps)

    def embedded(self, m_new: int) -> "Cocycle":
        if m_new < 1 or m_new % self.modulus:
            raise PreconditionError("can only embed into a positive multiple modulus")
        return _scaled(self, m_new // self.modulus, m_new)


def _identity_holds_at(alpha: Cocycle, i: int) -> bool:
    """Whether alpha(i,j) + alpha(ij,k) = alpha(j,k) + alpha(i,jk) mod m for all j, k."""
    m, tab, pmul = alpha.modulus, alpha.exps, alpha.sub.pmul
    ti = tab[i]
    return not any((a + x - y - ti[p]) % m for a, ij, tj, pj in zip(ti, pmul[i], tab, pmul)
                   for x, y, p in zip(tab[ij], tj, pj))


def _scaled(alpha: Cocycle, k: int, m: int) -> Cocycle:
    """k * alpha read mod m; m divides k * alpha.modulus, so the cocycle laws
    carry over."""
    return Cocycle._derived(alpha.sub, m,
                            tuple(tuple((k * e) % m for e in row) for row in alpha.exps))


def make_cocycle(sub: SubgroupData, modulus: int, exps) -> Cocycle:
    _check_modulus(modulus)
    rows = [tuple(row) for row in exps]
    if not all_ints(rows):
        raise CocycleError("exponents must be integers")
    return Cocycle(sub, modulus, tuple(tuple(e % modulus for e in row) for row in rows))


def trivial_cocycle(sub: SubgroupData, modulus: int = 1) -> Cocycle:
    _check_modulus(modulus)
    zero = tuple(tuple(0 for _ in range(sub.order)) for _ in range(sub.order))
    return Cocycle._derived(sub, modulus, zero)


def word_exponent(alpha: Cocycle, word) -> tuple[int, int]:
    """Fold a word of subgroup elements; returns (exponent mod m, product)."""
    word = list(word)
    for h in word:
        if h not in alpha.sub.eset:
            raise PreconditionError(f"word letter {h} is not in the subgroup")
    if not word:
        return 0, 0
    grp = alpha.sub.group
    e, acc = 0, word[0]
    for h in word[1:]:
        e += alpha.value(acc, h)
        acc = grp.mul(acc, h)
    return e % alpha.modulus, acc


def binomial_ratio(alpha: Cocycle, word, tau) -> int | None:
    """Exponent r with x_1..x_L = zeta^r * x_tau(1)..x_tau(L) an identity, else None.

    tau permutes positions: the compared word is w' with w'[i] = word[tau[i]].
    """
    word = tuple(word)
    permuted = tuple(word[t] for t in tau)
    e1, p1 = word_exponent(alpha, word)
    e2, p2 = word_exponent(alpha, permuted)
    if p1 != p2:
        return None
    return (e1 - e2) % alpha.modulus


def is_binomial_identity(alpha: Cocycle, word, tau, zeta_exp: int) -> bool:
    r = binomial_ratio(alpha, word, tau)
    return r is not None and (zeta_exp - r) % alpha.modulus == 0


@dataclass(frozen=True)
class BinomialDatum:
    """A relation u_w = zeta_m^ratio * u_{w o perm} holding in F^alpha H.

    word holds subgroup elements by parent id; perm permutes positions so the
    compared word is word[perm[0]], word[perm[1]], ...; ratio is mod the
    cocycle modulus of the algebra the datum was read from.
    """

    word: tuple[int, ...]
    perm: tuple[int, ...]
    ratio: int

    def ratio_order(self, m: int) -> int:
        return m // gcd(m, self.ratio)


def binomial_datum(alpha: Cocycle, word, tau) -> BinomialDatum:
    word, tau = tuple(word), tuple(tau)
    if not all_ints([word, tau]):
        raise PreconditionError("word and perm must be integers")
    if sorted(tau) != list(range(len(word))):
        raise PreconditionError("perm must be a permutation of the word positions")
    r = binomial_ratio(alpha, word, tau)
    if r is None:
        raise PreconditionError("word and permuted word have different products")
    return BinomialDatum(word, tau, r)


def _match_perm(base: tuple[int, ...], other: tuple[int, ...]) -> tuple[int, ...]:
    """Lex-least tau with other[i] == base[tau[i]]; words share a multiset."""
    used = [False] * len(base)
    tau = []
    for x in other:
        for t, y in enumerate(base):
            if not used[t] and y == x:
                used[t] = True
                tau.append(t)
                break
    return tuple(tau)


def find_primitive_binomial(alpha: Cocycle, n: int,
                            L: int | None = None) -> BinomialDatum | None:
    """Shortest binomial identity whose ratio has exact order n, if any.

    Scans words of length <= L (default CAPS.word_bound) bucketed by
    (multiset, product); deterministic: shortest word first, then lex order.
    The words are built and scanned one length at a time, so the scan stops
    at the first length that holds an answer.
    """
    if n == 1:
        e = alpha.sub.elements[0]
        return binomial_datum(alpha, (e, e), (1, 0))
    if L is None:
        L = CAPS.word_bound
    size = alpha.sub.order
    total = sum(size ** ell for ell in range(1, L + 1))
    if total > CAPS.budget:
        raise BudgetExceeded(
            f"word scan needs {total} words, over budget {CAPS.budget}")
    m = alpha.modulus
    layer = None
    for _ in range(L):
        layer, buckets = _word_data(alpha, layer)
        for key in sorted(buckets):
            words = sorted(buckets[key])
            for w0 in words:
                for w in words:
                    r = (layer[w0][0] - layer[w][0]) % m
                    if r and m // gcd(m, r) == n:
                        return BinomialDatum(w0, _match_perm(w0, w), r)
    return None


def _word_data(alpha: Cocycle, layer: dict | None):
    """The words one letter longer than those of layer (the one-letter words
    when layer is None) as word -> (exponent, product), and their
    (multiset, product) buckets."""
    grp = alpha.sub.group
    m = alpha.modulus
    if layer is None:
        nxt = {(h,): (0, h) for h in alpha.sub.elements}
    else:
        nxt = {}
        for w, (e, p) in layer.items():
            for h in alpha.sub.elements:
                nxt[w + (h,)] = ((e + alpha.value(p, h)) % m, grp.mul(p, h))
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for w, (_, p) in nxt.items():
        buckets.setdefault((tuple(sorted(w)), p), []).append(w)
    return nxt, buckets


def conjugate_cocycle(alpha: Cocycle, theta: int,
                      new_sub: SubgroupData | None = None) -> Cocycle:
    """beta(x, y) = alpha(theta^-1 x theta, theta^-1 y theta) on theta H theta^-1."""
    new_sub, back = _conjugation_positions(alpha, theta, new_sub)
    exps = tuple(tuple(alpha.exps[p][q] for q in back) for p in back)
    return Cocycle._derived(new_sub, alpha.modulus, exps)


def _conjugation_positions(alpha: Cocycle, theta: int, new_sub: SubgroupData | None):
    """(target, back) for conjugate_cocycle: back[p] is the position in
    alpha's subgroup of theta^-1 x theta, x the element at position p of the
    target, so the conjugate's (p, q) entry is alpha's (back[p], back[q])."""
    grp = alpha.sub.group
    if new_sub is None:
        if theta not in alpha.sub.normalizer:
            raise PreconditionError(
                "conjugator must normalize the subgroup unless a target is given")
        new_sub = alpha.sub
    back = [alpha.sub.pos.get(grp.conj(x, theta), -1) for x in new_sub.elements]
    if sorted(back) != list(range(alpha.sub.order)):
        raise PreconditionError("target subgroup is not the conjugate of the source")
    return new_sub, back


def galois_twist(alpha: Cocycle, j: int) -> Cocycle:
    if gcd(j, alpha.modulus) != 1:
        raise PreconditionError(f"{j} is not a unit mod {alpha.modulus}")
    return _scaled(alpha, j, alpha.modulus)


def unit_lifts(j: int, n: int, m: int) -> list[int]:
    """Every unit mod m congruent to j mod n, least first; requires n | m and
    gcd(j, n) = 1."""
    if n < 1 or m < 1:
        raise PreconditionError("n and m must be positive")
    if m % n:
        raise PreconditionError("n must divide m")
    if gcd(j, n) != 1:
        raise PreconditionError(f"{j % n} is not a unit mod {n}")
    lifts = [u for u in range(1, m + 1) if u % n == j % n and gcd(u, m) == 1]
    if not lifts:
        raise InternalError("unit lifting failed")
    return lifts


def lift_unit(j: int, n: int, m: int) -> int:
    """The least unit mod m congruent to j mod n (see unit_lifts)."""
    return unit_lifts(j, n, m)[0]


def shift_by_coboundary(alpha: Cocycle, f) -> Cocycle:
    """beta(h1, h2) = alpha(h1, h2) + f(h1) + f(h2) - f(h1 h2)."""
    m, sub = alpha.modulus, alpha.sub
    f = list(f)
    if not all_ints([f]):
        raise PreconditionError("coboundary values must be integers")
    f = [x % m for x in f]
    if len(f) != sub.order:
        raise PreconditionError("coboundary vector length must match the subgroup")
    if f[0]:
        raise PreconditionError("coboundary must vanish at the identity")
    exps = tuple(
        tuple((e + fi + fj - f[p]) % m for e, fj, p in zip(row, f, prow))
        for row, fi, prow in zip(alpha.exps, f, sub.pmul)
    )
    return Cocycle._derived(sub, m, exps)


def coboundary_rows(sub: SubgroupData, M: int) -> list[list[int]]:
    """The coboundary map over Z/M on the rows of S = sub.gens: row (s, j),
    for s in S and then j in order, sends f (f[identity] = 0 dropped, one
    column per other element) to f(s) + f(h_j) - f(s h_j). On normalized
    cocycles these rows decide delta f (see h2_classes)."""
    nvars = sub.order - 1
    rows = []
    for i in sub.gens:
        for j, ij in enumerate(sub.pmul[i]):
            row = [0] * nvars
            for p, sign in ((i, 1), (j, 1), (ij, -1)):
                if p:
                    row[p - 1] = (row[p - 1] + sign) % M
            rows.append(row)
    return rows


def _gen_rows(alpha: Cocycle, M: int, conj=None) -> list[int]:
    """The rows s in S = sub.gens of alpha read over Z/M (M a multiple of its
    modulus), flat; with conj = (target, back) from _conjugation_positions,
    those of the conjugate on the target, read through back without
    building it."""
    k, tab = M // alpha.modulus, alpha.exps
    if conj is None:
        return [k * e for s in alpha.sub.gens for e in tab[s]]
    sub, back = conj
    return [k * tab[back[s]][q] for s in sub.gens for q in back]


def _delta(sub: SubgroupData, f, firsts=None):
    """delta f(h_i, h_j) = f(h_i) + f(h_j) - f(h_i h_j), unreduced, for i in
    firsts (every position by default) and then j in order."""
    pmul = sub.pmul
    return (f[i] + fj - f[p] for i in (range(sub.order) if firsts is None else firsts)
            for fj, p in zip(f, pmul[i]))


def _coboundary_witness(sub: SubgroupData, M: int, z) -> tuple[int, ...] | None:
    """f with f[identity] = 0 and delta f = z over Z/M, or None; z is a
    normalized cocycle over Z/M given by its rows s in S = sub.gens, flat
    (_gen_rows). A normalized cocycle that vanishes on S x H is 0 (see
    h2_classes), so z - delta f = 0 on those rows decides delta f = z.
    Reduces against the image echelon of the coboundary map on the rows
    (s, h), built on the first query for (sub, M) and kept on the subgroup;
    every witness is checked against z before it is returned."""
    image = sub.coboundary_echelons.get(M)
    if image is None:
        image = split_echelon(coboundary_rows(sub, M), sub.order - 1, M)[0]
        sub.coboundary_echelons[M] = image
    x = solve_in_image(image, z, sub.order - 1, M)
    if x is None:
        return None
    f = (0,) + x
    if any((d - zz) % M for d, zz in zip(_delta(sub, f, sub.gens), z)):
        raise InternalError("coboundary witness failed verification")
    return f


def is_cohomologous(a: Cocycle, b: Cocycle) -> tuple[bool, tuple[int, ...] | None, int]:
    """Do a and b differ by a coboundary valued in the extended roots of unity?

    Works over Z/M with M = lcm(moduli) * exp(H), by one reduction of the
    rows s in S of b - a (see _coboundary_witness): conjugate_is_cohomologous
    by the identity, so the echelon is the one kept on b.sub.
    Returns (ok, witness f with f[identity] = 0, M).
    """
    if a.sub is not b.sub and (a.sub.elements != b.sub.elements
                               or a.sub.pmul != b.sub.pmul):
        raise PreconditionError("cocycles live on different subgroups")
    return conjugate_is_cohomologous(a, 0, b)


def conjugate_is_cohomologous(alpha: Cocycle, theta: int, beta: Cocycle
                              ) -> tuple[bool, tuple[int, ...] | None, int]:
    """is_cohomologous(conjugate_cocycle(alpha, theta, beta.sub), beta), with
    the conjugate's rows s in S read through the conjugation positions
    instead of building its table."""
    conj = _conjugation_positions(alpha, theta, beta.sub)
    M = lcm(alpha.modulus, beta.modulus) * beta.sub.exponent()
    z = [y - x for x, y in zip(_gen_rows(alpha, M, conj), _gen_rows(beta, M))]
    f = _coboundary_witness(beta.sub, M, z)
    return f is not None, f, M


def class_order(alpha: Cocycle) -> int:
    """The order n of the class of alpha over Z/M, M = modulus * exp(H): the
    least d dividing the modulus with d * alpha ~ 0, each d tried by one
    reduction of the rows s in S of d * alpha. The binomial ratios of
    F^alpha H generate exactly the n-th roots of unity."""
    m = alpha.modulus
    if alpha.is_trivial():
        return 1
    M = m * alpha.sub.exponent()
    z = _gen_rows(alpha, M)
    return next((d for d in range(1, m) if m % d == 0 and _coboundary_witness(
        alpha.sub, M, [d * e for e in z]) is not None), m)


def galois_character(g: int, alpha: Cocycle, n: int | None = None) -> int | None:
    """The unit j mod n with alpha^g ~ j * alpha over Z/M, or None if there is none.

    n is the class order of alpha, computed when not given, and must divide
    the modulus; g must normalize the subgroup. j exists exactly when
    conjugation by g rescales every binomial ratio by one Galois unit. Since
    n * alpha ~ 0, j * alpha depends only on j mod n, so each j < n is tried
    by one reduction of the rows s in S of alpha^g - j * alpha against the
    coboundary echelon of (H, M); the rows of alpha^g are read through the
    conjugation positions, and no conjugate table is built. Conjugation by a
    subgroup element fixes every class, so j is constant on H-cosets.
    """
    sub = alpha.sub
    if g not in sub.normalizer:
        raise PreconditionError("element must normalize the subgroup")
    if n is None:
        n = class_order(alpha)
    if n < 1 or alpha.modulus % n:
        raise PreconditionError("n must be a positive divisor of the modulus")
    return _galois_characters(alpha, n, (g,))[0]


def _galois_characters(alpha: Cocycle, n: int, gs) -> list[int | None]:
    """galois_character(g, alpha, n) for each g in gs, unchecked: every g
    normalizes the subgroup and n is the class order of alpha. The rows of
    alpha are built once for all of gs."""
    if n == 1:
        return [0] * len(gs)
    sub = alpha.sub
    M = alpha.modulus * sub.exponent()
    flat_a = _gen_rows(alpha, M)
    chars: list[int | None] = []
    for g in gs:
        flat_b = _gen_rows(alpha, M, _conjugation_positions(alpha, g, sub))
        j = next((j for j in range(n) if _coboundary_witness(
            sub, M, [y - j * x for x, y in zip(flat_a, flat_b)]) is not None), None)
        if j is not None and gcd(j, n) != 1:
            raise InternalError("Galois character is not a unit mod the class order")
        chars.append(j)
    return chars


def _mu_n_representative(alpha: Cocycle, n: int) -> tuple[Cocycle, tuple, int]:
    """(beta, f, M) with beta at modulus n and (M/m) * alpha + delta f =
    (M/n) * beta over Z/M, M = m * exp(H), for alpha of class order n; so
    u_h -> zeta_M^f(h) u_h maps the algebra of beta onto that of alpha.
    f is one coboundary query over Z/(M/n) on the rows of -(M/m) * alpha."""
    sub, big_m = alpha.sub, alpha.modulus * alpha.sub.exponent()
    q = big_m // n
    f = _coboundary_witness(sub, q, [-e % q for e in _gen_rows(alpha, big_m)])
    if f is None:
        raise InternalError("class of order n has no mu_n-valued representative")
    exps = shift_by_coboundary(alpha.embedded(big_m), f).exps
    if any(e % q for row in exps for e in row):
        raise InternalError("coboundary shift is not mu_n-valued")
    return Cocycle._derived(sub, n, tuple(tuple(e // q for e in row) for row in exps)), f, big_m


def _slot_witnesses(grp, alpha: Cocycle, g_slots, chars, n_root: int, mode: str):
    """(slot_units, per-slot (f, big_m) or None, descent_enforced) for the
    Galois slots g_c of gforge.algebra.build_k_form; each unit is j^-1 mod n,
    j = chars[g_c].

    In mode "corrected" each slot but e gets f over Z/big_m, big_m = m * exp(H),
    with delta f = u * alpha - alpha^(g_c^-1) for a unit u = j^-1 mod n. The
    rows s in S of alpha are read once per call, and those of alpha^(g_c^-1)
    once per slot, through one position map; every try below reduces
    u * alpha - alpha^(g_c^-1) on them. An involutive slot (j^2 = 1,
    g_c^2 = e) first tries every lift u with the descent rows
    (_descent_witness). Otherwise the least lift u is one reduction
    (_coboundary_witness): alpha^(g_c^-1) ~ j^-1 * alpha by the Galois
    character, and u * alpha depends only on u mod n, so a witness must exist.
    """
    units = tuple(pow(chars[gc], -1, n_root) if n_root > 1 else 0 for gc in g_slots)
    if mode != "corrected":
        return units, [None] * len(g_slots), len(g_slots) == 1
    sub = alpha.sub
    big_m = alpha.modulus * sub.exponent()
    flat_a = _gen_rows(alpha, big_m)
    scalars: list = []
    enforced = True
    for gc, u_n in zip(g_slots, units):
        if gc == 0:
            scalars.append(None)
            continue
        conj = _conjugation_positions(alpha, grp.inv(gc), None)
        flat_c = _gen_rows(alpha, big_m, conj)
        lifts = unit_lifts(u_n, n_root, alpha.modulus)
        f = None
        if chars[gc] ** 2 % n_root == 1 % n_root and grp.mul(gc, gc) == 0:
            f = next(filter(None, (
                _descent_witness(sub, conj[1], [u * a - c for a, c in zip(flat_a, flat_c)],
                                 u, n_root, big_m) for u in lifts)), None)
        if f is None:
            enforced = False
            f = _coboundary_witness(sub, big_m,
                                    [lifts[0] * a - c for a, c in zip(flat_a, flat_c)])
            if f is None:
                raise InternalError("Galois character has no descent witness")
        scalars.append((f, big_m))
    return units, scalars, enforced


def _descent_witness(sub: SubgroupData, back, z, u: int, n_root: int, big_m: int):
    """f (mod big_m, by subgroup position, f[e] = 0) with delta f = z on the
    rows (s, h) of coboundary_rows and the descent rows, or None; z is
    u * alpha - alpha^(gc^-1) on the rows s in S, flat, and back the
    positions of its conjugation by gc^-1 (_conjugation_positions).

    Both sides are normalized, so those rows decide delta f. The descent
    rows keep the Galois permutation conjugates of the twisted diagonals
    inside the span: zeta^f lies in Q(mu_n), and u * f(x) + f(gc x gc^-1) = 0,
    gc x gc^-1 at position back[pos x].
    """
    nv = sub.order - 1
    rows = coboundary_rows(sub, big_m)
    for p in range(1, sub.order):
        if n_root > 1:
            rows.append([n_root * (t == p - 1) for t in range(nv)])
        row = [u * (t == p - 1) for t in range(nv)]
        if back[p]:
            row[back[p] - 1] += 1
        rows.append(row)
    sol = solve_mod(rows, list(z) + [0] * (len(rows) - len(z)), big_m)
    return None if sol is None else (0,) + sol


def _cocycle_system(sub: SubgroupData, m: int):
    """The normalized cocycles over Z/m as the solutions of a linear system
    in the values alpha(s, x), s in S = sub.gens and x != e; variable (i, x)
    is column i * (|H| - 1) + x - 1.

    Along an edge y -> sy of the Cayley graph of (H, S) the cocycle identity
    reads alpha(sy, h) - alpha(y, h) = alpha(s, yh) - alpha(s, y). So along
    a walk w of edges (s, y), each traversed in direction d = +-1, the sum
    A_w(h) of d * (alpha(s, yh) - alpha(s, y)) is the change of alpha(., h),
    and on a closed walk it must vanish: each relator r of _cayley gives the
    |H| - 1 rows A_r(h), h != e. Zero rows are dropped, and of equal rows
    the first is kept. These rows span those of every closed walk, one block
    per non-tree edge included: w -> A_w is a crossed homomorphism on the
    free group F(S), acted on by (T_g f)(h) = f(gh) - f(g), so on the
    relation subgroup N it is a homomorphism, and the loop r conjugated by a
    walk to g gives A_r(gh) - A_r(g). N is the normal closure of the
    relators, so the kernel is Z^2 all the same. The deduction that picks
    the relators marks each of the |S| * |H| edges known at most once, so
    it ends after at most |S| * |H| steps (see _cayley). Returns the rows."""
    size, pmul = sub.order, sub.pmul
    nvars = len(sub.gens) * (size - 1)
    rows, mod = {}, m.__rmod__
    for cycle in _cayley(sub)[1]:
        start, edges = [0] * nvars, []  # start: -sum d * alpha(s, y)
        for i, y, d in cycle:
            base = i * (size - 1) - 1
            if y:
                start[base + y] -= d
            edges.append((base, pmul[y], d))
        for h in range(1, size):
            row = start[:]
            for base, py, d in edges:
                if py[h]:
                    row[base + py[h]] += d
            rows[tuple(map(mod, row))] = None
    return [list(row) for row in rows if any(row)]


def _cayley(sub: SubgroupData):
    """(tree, relators) of the Cayley graph of (H, S), edges y -> sy, with
    S = sub.gens; built on first use and kept on the SubgroupData. tree
    lists the BFS tree edges (s, g, sg) in BFS order (each g in turn, each s
    in S in turn), and each relator is a cycle of edges (i, y, d), the edge
    y -> s_i y traversed in direction d = +-1, such that N, the relations of
    H in the free group F(S), is the normal closure of the relators.

    A non-tree edge (s, g) closes the cycle of the tree paths from g and sg
    to where they meet. The right translates y -> yh of a cycle are cycles
    too, and an edge is known once its cycle lies in the normal closure of
    the relators so far. The non-tree edges are taken in BFS order, and one
    that is not known makes its cycle a relator. Then comes deduction, as in
    coset enumeration: a translate of a relator with exactly one edge that
    is neither a tree edge nor known makes that edge known, as its cycle is
    the translate times the cycles of the others. Each translate counts its
    unknown edges, and an edge is marked known at most once, so the
    deduction takes at most |S| * |H| steps in all, each over the
    translates that held the edge while it was unknown."""
    if sub.cayley is not None:
        return sub.cayley
    size, pmul, gens = sub.order, sub.pmul, sub.gens
    unknown = bytearray([1]) * (len(gens) * size)  # edge (i, y) is i * size + y
    tree, order, up, depth = [], [0], [None] * size, [0] * size
    for g in order:  # grows as the BFS reaches new elements
        for i, s in enumerate(gens):
            sg = pmul[s][g]
            if sg and up[sg] is None:
                tree.append((s, g, sg))
                order.append(sg)
                up[sg], depth[sg] = (i, g), depth[g] + 1
                unknown[i * size + g] = 0
    relators = []
    members, counts = [], []  # per translate: its edges, how many are unknown
    holding = {}  # edge -> the translates it is unknown in
    stack, remaining = [], len(unknown) - len(tree)
    for g in order:
        for i, s in enumerate(gens):
            if not unknown[i * size + g]:
                continue
            a, b, cycle = g, pmul[s][g], [(i, g, 1)]
            while a != b:
                if depth[a] >= depth[b]:
                    j, a = up[a]
                    cycle.append((j, a, 1))
                else:
                    j, b = up[b]
                    cycle.append((j, b, -1))
            relators.append(cycle)
            stack.append(i * size + g)
            if remaining == 1:  # no other edge is left to deduce
                edge_lists = ()
            else:  # the edges of each translate, h = e first
                edge_lists = zip(*[[j * size + x for x in pmul[y]] for j, y, _ in cycle])
            for edges in edge_lists:
                left = list(compress(edges, map(unknown.__getitem__, edges)))
                if len(left) == 1:
                    stack.append(left[0])
                elif left:
                    for e in left:
                        holding.setdefault(e, []).append(len(members))
                    members.append(edges)
                    counts.append(len(left))
            while stack:
                e = stack.pop()
                if not unknown[e]:
                    continue
                unknown[e] = 0
                remaining -= 1
                for t in holding.get(e, ()):
                    counts[t] -= 1
                    if counts[t] == 1:
                        stack.extend(compress(members[t], map(unknown.__getitem__, members[t])))
    sub.cayley = (tuple(tree), tuple(map(tuple, relators)))
    return sub.cayley


def _expand(sub: SubgroupData, x, m: int) -> list[int]:
    """The flat table (row-major in subgroup positions) that the cocycle
    expansion of _cocycle_system gives the values x of alpha on S x H,
    along the BFS tree of _cayley."""
    size, pmul = sub.order, sub.pmul
    on_gen = {s: (0, *x[i * (size - 1):(i + 1) * (size - 1)])
              for i, s in enumerate(sub.gens)}
    rows = {0: [0] * size}
    for s, g, sg in _cayley(sub)[0]:
        a, back = on_gen[s], on_gen[s][g]
        rows[sg] = [(e + a[p] - back) % m for e, p in zip(rows[g], pmul[g])]
    return [e for i in range(size) for e in rows[i]]


def _root_coboundaries(sub: SubgroupData, m: int) -> Echelon:
    """A Howell basis over Z/m, in flat table coordinates, of L: the
    coboundaries delta f over Z/M, M = m * exp(H), whose values lie in
    (M/m) Z/M, divided by M/m. With k = M/m, such an f is chi~ + k * g for
    a homomorphism chi: H -> Z/k, chi~ its lift to values in [0, k), and
    any g: H -> Z/m; a sum of lifts is the lift of the sum plus k times a
    function. So L is spanned by B^2(H, Z/m), the rows delta e_h for
    h != e, and one row delta chi~ / k for each generator chi of
    Hom(H, Z/k). chi(g) is read along the BFS tree of _cayley as a form in
    the values chi(s), s in S = sub.gens. A map F(S) -> Z/k factors through H when it vanishes
    on the relation subgroup N, and as Z/k is abelian it is enough that it
    vanish on the relators of _cayley, whose normal closure is N: so
    Hom(H, Z/k) is the kernel of one row per relator, the sum of d * e_s
    over its edges (s, y, d)."""
    size, pmul, k, gens = sub.order, sub.pmul, sub.exponent(), sub.gens
    tree, relators = _cayley(sub)
    at = [[] for _ in range(size)]  # h -> the flat indices of (a, b) with ab = h
    for t, p in enumerate(x for row in pmul for x in row):
        at[p].append(t)
    ell = []
    for h in range(1, size):  # delta e_h(a, b) = [a = h] + [b = h] - [ab = h]
        row = [0] * (size * size)
        for a in range(size):
            row[h * size + a] += 1
            row[a * size + h] += 1
        for t in at[h]:
            row[t] -= 1
        ell.append([v % m for v in row])
    col = {s: i for i, s in enumerate(gens)}
    forms = {0: (0,) * len(gens)}
    for s, g, sg in tree:
        forms[sg] = tuple(v + (i == col[s]) for i, v in enumerate(forms[g]))
    relations = []
    for cycle in relators:
        row = [0] * len(gens)
        for i, _, d in cycle:
            row[i] += d
        row = [v % k for v in row]
        if any(row):
            relations.append(row)
    for chi in kernel_mod(relations, len(gens), k):
        lift = [sum(c * v for c, v in zip(chi, forms[g])) % k for g in range(size)]
        delta = list(_delta(sub, lift))
        if any(d % k for d in delta):
            raise InternalError("coboundary is not in the cocycle module")
        ell.append([d // k % m for d in delta])
    return howell_echelon(ell, m)


def _span_order(ech: Echelon, m: int) -> int:
    """The number of elements of the span of a Howell echelon over Z/m."""
    return prod(m // gcd(g[lead], m) for lead, g in zip(ech.leads, ech))


def h2_classes(sub: SubgroupData, m: int) -> list[Cocycle]:
    """One representative of each class of normalized cocycles over Z/m
    modulo the coboundaries over Z/M, M = m * exp(H): the classes alpha in
    H^2(H, F*) with alpha^m ~ 1.

    Each class is represented by the lex-least table, over Z/m, of all its
    members with values in the m-th roots of unity; result sorted, so the
    trivial class comes first. Those members are alpha + L, with L the
    coboundaries delta f over Z/M whose values lie in (M/m) Z/M, divided by
    M/m; L is B^2(H, Z/m) plus the Hom carries of _root_coboundaries, and
    the output is Z^2 / L.

    Z^2 comes from the generating-set system of _cocycle_system, on
    S = sub.gens: a normalized alpha with delta alpha(s, g, h) = 0 for all s
    in S is a cocycle (beta = delta alpha is a 3-cocycle, so
    delta beta(s, g, h, k) = 0 gives beta(sg, h, k) = beta(g, h, k), and S
    generates H as a monoid), so its |S| * (|H| - 1) values on S x H
    determine it. The system has
    |H| - 1 rows per relator of H: the expansion of alpha along a word in S
    is a crossed homomorphism on the free group F(S), so it vanishes on the
    relation subgroup exactly when it vanishes on the relators, and the
    kernel, Z^2, is that of one row block per non-tree edge. With r cocycle
    generators, their relations and L's coordinates span a lattice that
    holds m * Z^r, so Z^2 / L is (Z/m)^r modulo one Howell echelon over Z/m
    of those rows. Its elements are the vectors that reduce_least fixes
    against that echelon: each pivot coordinate below the gcd of its pivot
    entry and m, every other coordinate below m. Each is expanded to a full
    table and reduced to its lex-least member against a Howell basis of L.
    """
    if sub.order > CAPS.h2_subgroup:
        raise CapExceeded(
            f"cohomology enumeration capped at subgroup order {CAPS.h2_subgroup}")
    _check_modulus(m)
    if m == 1:
        return [trivial_cocycle(sub, 1)]
    size, gens = sub.order, sub.gens
    z2 = Echelon(kernel_mod(_cocycle_system(sub, m), len(gens) * (size - 1), m))
    if not z2:
        return [trivial_cocycle(sub, m)]
    ell = _root_coboundaries(sub, m)

    def on_gens(flat):
        return [flat[s * size + x] for s in gens for x in range(1, size)]

    def combined(coeffs):
        acc = [0] * len(z2[0])
        for c, g in zip(coeffs, z2):
            if c % m:
                acc = [a + c * v for a, v in zip(acc, g)]
        return [a % m for a in acc]

    # each row of L as a combination of the cocycle generators, which must
    # expand back to the row: L lies in Z^2
    l_coords = []
    for row in ell:
        red = reduce_mod(on_gens(row), z2, m)
        if red is None or _expand(sub, combined(red[0]), m) != list(row):
            raise InternalError("coboundary is not in the cocycle module")
        l_coords.append(red[0])
    # the relations of the generators: (m / gcd(lead, m)) * z2_i reduces
    # against the generators after it, as z2 is a Howell echelon
    relations = []
    for i, g in enumerate(z2):
        order = m // gcd(next(v for v in g if v), m)
        red = reduce_mod([order * v for v in g], z2, m)
        if red is None or any(red[1]):
            raise InternalError("cocycle generators are not a Howell echelon")
        relations.append([(order if t == i else 0) - c for t, c in enumerate(red[0])])
    # m * e_i is a relation, so Z^2 / L is (Z/m)^r modulo these rows, and
    # the reduce_least-canonical vectors of their Howell echelon represent it
    quot = howell_echelon(relations + l_coords, m)
    for row in relations + l_coords:
        red = reduce_mod(row, quot, m)
        if red is None or any(red[1]):
            raise InternalError("quotient echelon does not span the relations")
    sizes = [m] * len(z2)
    for lead, g in zip(quot.leads, quot):
        sizes[lead] = gcd(g[lead], m)
    total = prod(sizes)
    if total > 4096:
        raise CapExceeded(f"{total} classes exceed the enumeration cap")
    if _span_order(z2, m) != total * _span_order(ell, m):
        raise InternalError("class count is not |Z^2| / |L|")
    tables = set()
    for x in iproduct(*map(range, sizes)):
        x = list(x)
        if reduce_least(x, quot, m) != x:
            raise InternalError("class coordinates are not reduced")
        flat = reduce_least(_expand(sub, combined(x), m), ell, m)
        red = reduce_mod(on_gens(flat), z2, m)
        if red is None or any(red[1]) or reduce_least(red[0], quot, m) != x:
            raise InternalError("class representative is not in its class")
        tables.add(tuple(tuple(flat[i * size:(i + 1) * size]) for i in range(size)))
    if len(tables) != total:
        raise InternalError("class representatives are not distinct")
    return [Cocycle(sub, m, table) for table in sorted(tables)]
