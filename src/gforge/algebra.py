"""Graded matrix algebras over cyclotomic scalars.

A presentation (G, H, alpha, tuple) realizes the algebra F^alpha H (x) M_n(F)
with basis u_h (x) e_ij and the elementary grading deg(u_h (x) e_ij) =
g_i^-1 h g_j.  This module builds the algebra, multiplies sparse elements
exactly, answers block-relation queries with explicit bridge elements, and
emits subfield-rational generating sets together with a span verification:
the k-span of the generators, closed under left multiplication by them, is
measured in one echelon of integer rows over Q, which also decides whether
it spans the algebra over the cyclotomic field.

Products work on integer vectors, one block in Z[x]/(x^L - 1) per basis
slot, at the flat index slot * L + exponent, where the triple (h, i, j)
has slot pos[h] * n^2 + i * n + j. Each algebra keeps one product table
per L (GradedAlgebra.product_table), which gives the target block and the
root of every pair of subgroup positions. `multiply` adds its term pairs
into such a vector and makes one scalar per output slot at the end; the
span closure compiles each generator from the same table into a sparse
index map.

The closure works at one modulus, big, the lcm of the field modulus and
the generator coefficient moduli, and reduces a vector mod the big-th
cyclotomic polynomial only when it enters the echelon. When the cocycle's
roots leave Q(zeta_big), build_k_form builds on a mu_n-valued representative
of its class and carries the generators back. The coboundary systems of the
descent (slot witnesses, that representative) are solved in gforge.twisted.
"""

from dataclasses import dataclass
from math import gcd, lcm

from .config import CAPS
from .cyclo import (CycScalar, SubfieldDescriptor, _demoted, _power_rows, _rational,
                    as_cyc, phi)
from .errors import CapExceeded, InternalError, PreconditionError, PresentationError
from .groups import SubgroupData, subgroup_group
from .presentation import Presentation, normalize_with_details, related_reps
from .twisted import Cocycle, _mu_n_representative, _slot_witnesses


class GradedAlgebra:
    """F^alpha H (x) M_n(F) with basis triples (h, i, j).

    h is a subgroup element by parent id; i, j are tuple positions.  Blocks
    are the position classes with equal tuple entries.
    """

    __slots__ = ("presentation", "group", "sub", "alpha", "entries", "size",
                 "dim", "dims", "blocks", "block_of", "_deg", "_by_degree",
                 "_triples", "_root_modulus", "_products", "_walks", "_leads")

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        grp = presentation.group
        sub = presentation.sub
        self.group = grp
        self.sub = sub
        self.alpha = presentation.alpha
        self.entries = presentation.entries
        n = len(self.entries)
        self.size = n
        dim = sub.order * n * n
        if dim > CAPS.algebra_dim:
            raise CapExceeded(f"algebra dimension {dim} exceeds cap {CAPS.algebra_dim}")
        self.dim = dim

        deg = {}
        dims: dict[int, int] = {}
        by_degree: dict[int, list] = {}
        inv_entries = [grp.inv(g) for g in self.entries]
        for h in sub.elements:
            for i in range(n):
                left = grp.mul(inv_entries[i], h)
                for j in range(n):
                    g = grp.mul(left, self.entries[j])
                    deg[(h, i, j)] = g
                    dims[g] = dims.get(g, 0) + 1
                    by_degree.setdefault(g, []).append((h, i, j))
        self._deg = deg
        self.dims = dims
        self._by_degree = {g: tuple(v) for g, v in by_degree.items()}

        by_value: dict[int, list[int]] = {}
        for i, g in enumerate(self.entries):
            by_value.setdefault(g, []).append(i)
        blocks = tuple(tuple(v) for v in by_value.values())
        self.blocks = blocks
        block_of = [0] * n
        for b, members in enumerate(blocks):
            for i in members:
                block_of[i] = b
        self.block_of = tuple(block_of)

        # _triples[s] is the triple at slot s = pos[h] * n^2 + i * n + j,
        # the order _deg was filled in, as sub.elements is sorted.
        # _root_modulus is 1 when every zeta^alpha(a, b) is +-1, else the
        # cocycle modulus
        self._triples = tuple(deg)
        m = self.alpha.modulus
        self._root_modulus = m if any((2 * e) % m for row in self.alpha.exps for e in row) else 1
        # product_table; the table at the root modulus, where products of
        # rational elements run, is built with the algebra
        self._products = {}
        self.product_table(self._root_modulus)
        self._walks = None  # walk_index, filled on use by the identity oracle
        self._leads = None  # lead_prefixes, likewise

        if sum(dims.values()) != dim:
            raise InternalError("degree dimensions do not sum to the total dimension")
        e_dim = sum(m * m for _, m in presentation.lam.counts)
        if dims.get(0, 0) != e_dim:
            raise InternalError("identity component does not match coset multiplicities")

    def degree(self, h: int, i: int, j: int) -> int:
        key = (h, i, j)
        if key not in self._deg:
            raise PreconditionError(f"not a basis triple: {key}")
        return self._deg[key]

    def basis_of_degree(self, g: int):
        return self._by_degree.get(g, ())

    def walk_index(self, g: int) -> tuple:
        """(by_row, by_col) for the degree-g basis triples (h, i, j), built on
        first use and kept: by_row[i] lists (index in basis_of_degree(g),
        pos h, j) for row i, by_col[j] lists (index, pos h, i) for column j."""
        walks = self._walks
        if walks is None:
            walks = self._walks = {}
        hit = walks.get(g)
        if hit is None:
            pos = self.sub.pos
            by_row: dict = {}
            by_col: dict = {}
            for c, (h, i, j) in enumerate(self.basis_of_degree(g)):
                by_row.setdefault(i, []).append((c, pos[h], j))
                by_col.setdefault(j, []).append((c, pos[h], i))
            hit = walks[g] = (by_row, by_col)
        return hit

    def lead_prefixes(self, degrees: tuple):
        """Index tuples into basis_of_degree(g) for g in degrees, in
        itertools.product order, that are lex-least in their orbit under S,
        the permutations of positions within each block, which act by
        (h, i, j) -> (h, pi i, pi j) and keep degrees.

        Each basis_of_degree list is sorted by (h, i, j) and pi fixes h, so a
        tuple is lex-least exactly when, along its rows and columns
        i1, j1, i2, j2, ..., each position met for the first time is the
        least unmet one of its block; with one position per block that is
        every tuple. The tuples are the paths of a graph, built on first use
        and kept per degrees, whose node at depth t is the count of met
        positions per block after t entries."""
        leads = self._leads
        if leads is None:
            leads = self._leads = {}
        root = leads.get(degrees)
        if root is None:
            rank = [0] * self.size
            for members in self.blocks:
                for r, x in enumerate(members):
                    rank[x] = r
            block_of, last = self.block_of, len(degrees) - 1
            nodes: dict = {}

            def node(t: int, met: tuple) -> tuple:
                hit = nodes.get((t, met))
                if hit is None:
                    out = []
                    for c, (_, i, j) in enumerate(self.basis_of_degree(degrees[t])):
                        nxt = list(met)
                        for x in (i, j):
                            b = block_of[x]
                            if rank[x] > nxt[b]:
                                break
                            if rank[x] == nxt[b]:
                                nxt[b] += 1
                        else:
                            out.append((c, node(t + 1, tuple(nxt)) if t < last else None))
                    hit = nodes[(t, met)] = tuple(out)
                return hit

            root = leads[degrees] = node(0, (0,) * len(self.blocks))
        return _paths(root, ())

    def product_table(self, L: int) -> tuple:
        """The products of basis triples as flat indices into integer vectors,
        one Z[x]/(x^L - 1) block per slot, built once per L and kept.

        Entry [pos a][pos b] is (pos[ab] * n^2 * L, shift, sign) with
        zeta_m^alpha(a, b) = sign * x^shift (_root_shifts), so x^t u_a e_ij
        times x^t' u_b e_jl lands at flat index
        base + (i * n + l) * L + (t + t' + shift) % L, with the sign. L must be
        a multiple of _root_modulus."""
        table = self._products.get(L)
        if table is None:
            rot = _root_shifts(self.alpha.modulus, L)
            stride = self.size * self.size * L
            table = self._products[L] = tuple(
                tuple((p * stride, *rot[e]) for p, e in zip(prow, erow))
                for prow, erow in zip(self.sub.pmul, self.alpha.exps))
        return table

    def basis_element(self, h: int, i: int, j: int, coeff=1) -> "AlgElement":
        self.degree(h, i, j)
        return AlgElement(self, {(h, i, j): as_cyc(coeff)})

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def one(self) -> "AlgElement":
        one = CycScalar.one()
        return AlgElement(self, {(0, i, i): one for i in range(self.size)})

    def element(self, terms) -> "AlgElement":
        out = {}
        for (h, i, j), c in dict(terms).items():
            self.degree(h, i, j)
            out[(h, i, j)] = as_cyc(c)
        return AlgElement(self, out)

    def __repr__(self) -> str:
        return f"GradedAlgebra(|H|={self.sub.order}, n={self.size}, dim={self.dim})"


def _paths(node: tuple, prefix: tuple):
    """The root-to-leaf index tuples of a lead_prefixes graph, in order."""
    for c, child in node:
        if child is None:
            yield prefix + (c,)
        else:
            yield from _paths(child, prefix + (c,))


class AlgElement:
    """Sparse algebra element: basis triple -> cyclotomic coefficient."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return frozenset(self.terms)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if mixed or zero."""
        degs = {self.algebra._deg[k] for k in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other: "AlgElement") -> "AlgElement":
        _same_algebra(self, other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return AlgElement(self.algebra, out)

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return self + (-other)

    def scaled(self, c) -> "AlgElement":
        c = as_cyc(c)
        return AlgElement(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return (self.algebra is other.algebra
                and self.terms.keys() == other.terms.keys()
                and all(self.terms[k] == other.terms[k] for k in self.terms))

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgElement(0)"
        bits = [f"{v!r}*u[{h}]e[{i},{j}]" for (h, i, j), v in sorted(self.terms.items())]
        return "AlgElement(" + " + ".join(bits) + ")"


def twisted_group_algebra(alpha: Cocycle) -> GradedAlgebra:
    """F^alpha H as a standalone H-graded algebra (tuple (e,)).

    The subgroup is relabeled as its own group; element i is
    alpha.sub.elements[i], so the exponent table carries over unchanged and
    polynomial degrees are subgroup positions.
    """
    h_grp, _, _ = subgroup_group(alpha.sub.group, alpha.sub.elements)
    full = SubgroupData(h_grp, range(h_grp.order))
    beta = Cocycle._derived(full, alpha.modulus, alpha.exps)
    return GradedAlgebra(Presentation(h_grp, full, beta, (0,)))


def _same_algebra(x: AlgElement, y: AlgElement) -> None:
    if x.algebra is not y.algebra:
        raise PreconditionError("elements live in different algebras")


def _root_shifts(m: int, L: int) -> list[tuple[int, int]]:
    """zeta_m^e as (shift, sign), meaning sign * x^shift in Z[x]/(x^L - 1),
    for e < m; when m does not divide L every root must be +1 or -1."""
    if L % m:
        return [(0, -1 if e else 1) for e in range(m)]
    return [(e * (L // m), 1) for e in range(m)]


def multiply(x: AlgElement, y: AlgElement) -> AlgElement:
    """(u_a e_ij)(u_b e_kl) = [j == k] zeta_m^alpha(a,b) u_ab e_il.

    y's terms are grouped by row, so only pairs with j == k are visited.
    When the coefficients and the nonrational roots zeta_m^alpha(a,b) all
    live at one modulus L (or all are rational, L = 1), each operand is
    cleared of its denominators and expanded into monomials (exponent at L,
    integer). Each pair of monomials adds sign * v1 * v2 at one flat index
    slot * L + exponent, read off the algebra's product table at L, and each
    output slot is reduced to a scalar once, by cyclo._rational at L = 1 and
    by cyclo._demoted at L > 1: at modulus L, or at 1 when rational, which is
    the modulus that adding the terms one by one gives.
    Output keys come in the order their slots are first reached. With mixed
    moduli that modulus depends on the partial sums, so each pair is added
    as a scalar product instead.
    """
    _same_algebra(x, y)
    alg = x.algebra
    pos = alg.sub.pos
    by_row: dict = {}
    moduli = {alg._root_modulus}
    for (b, k, l), cb in y.terms.items():
        by_row.setdefault(k, []).append((pos[b], l, cb))
        moduli.add(cb.modulus)
    xs = [(pos[a], i, j, ca) for (a, i, j), ca in x.terms.items() if j in by_row]
    if not xs:
        return _element(alg, {})
    moduli.update(ca.modulus for _, _, _, ca in xs)
    moduli.discard(1)
    if len(moduli) > 1:
        pmul, exps, elements = alg.sub.pmul, alg.alpha.exps, alg.sub.elements
        m = alg.alpha.modulus
        roots = [CycScalar.from_root(m, e) for e in range(m)]
        acc: dict = {}
        for pa, i, j, ca in xs:
            prow, erow = pmul[pa], exps[pa]
            for pb, l, cb in by_row[j]:
                key = (elements[prow[pb]], i, l)
                c = ca * cb * roots[erow[pb]]
                acc[key] = acc[key] + c if key in acc else c
        return AlgElement(alg, acc)

    L = moduli.pop() if moduli else 1
    table, n = alg.product_table(L), alg.size
    dx = lcm(*(ca.den for _, _, _, ca in xs))
    dy = lcm(*(c.den for c in y.terms.values()))
    den, triples = dx * dy, alg._triples
    acc = {}
    get = acc.get
    if L == 1:
        # every coefficient is one integer and every flat index a slot
        ys = {k: [(pb, l, cb.nums[0] * (dy // cb.den)) for pb, l, cb in terms]
              for k, terms in by_row.items()}
        for pa, i, j, ca in xs:
            row, at_i, v1 = table[pa], i * n, ca.nums[0] * (dx // ca.den)
            for pb, l, v2 in ys[j]:
                base, _, sign = row[pb]
                k = base + at_i + l
                acc[k] = get(k, 0) + sign * v1 * v2
        return _element(alg, {triples[k]: _rational(v, den) for k, v in acc.items() if v})

    ys = {k: [(pb, l * L, t, v) for pb, l, cb in terms for t, v in _monomials(cb, L, dy)]
          for k, terms in by_row.items()}
    for pa, i, j, ca in xs:
        row, at_i, ysj = table[pa], i * n * L, ys[j]
        for t1, v1 in _monomials(ca, L, dx):
            for pb, at_l, t2, v2 in ysj:
                base, s, sign = row[pb]
                k = base + at_i + at_l + (t1 + t2 + s) % L
                acc[k] = get(k, 0) + sign * v1 * v2
    # a slot's vector is made on the first pair that reaches it, zero or not,
    # so the keys keep the order of first visits
    powers = _power_rows(L)
    width = len(powers[0])
    vecs: dict = {}
    for k, v in acc.items():
        s, e = divmod(k, L)
        vec = vecs.get(s)
        if vec is None:
            vec = vecs[s] = [0] * width
        if e < width:
            vec[e] += v
        elif v:
            for t, r in enumerate(powers[e]):
                vec[t] += r * v
    return _element(alg, {triples[s]: _demoted(L, vec, den)
                          for s, vec in vecs.items() if any(vec)})


def _monomials(c: CycScalar, L: int, den: int) -> list[tuple[int, int]]:
    """c * den as (exponent at L, integer) pairs, nonzero integers only; L
    is a multiple of c's modulus and den of its denominator."""
    step, f = L // c.modulus, den // c.den
    return [(t * step, v * f) for t, v in enumerate(c.nums) if v]


def _element(alg: GradedAlgebra, terms: dict) -> AlgElement:
    """An AlgElement on terms whose coefficients are all nonzero."""
    x = object.__new__(AlgElement)
    x.algebra = alg
    x.terms = terms
    return x


SAME_BLOCK = "sameBlock"
RELATED_DISTINCT = "relatedDistinct"
UNRELATED = "unrelated"


def relate(algebra: GradedAlgebra, i: int, j: int) -> str:
    """Relation of two tuple positions: equal entries, same (H,H) double
    coset with distinct entries, or different double cosets."""
    n = algebra.size
    if not (0 <= i < n and 0 <= j < n):
        raise PreconditionError("position out of range")
    gi, gj = algebra.entries[i], algebra.entries[j]
    if gi == gj:
        return SAME_BLOCK
    if algebra.sub.coset_id_of[gi] == algebra.sub.coset_id_of[gj]:
        raise PreconditionError("tuple uses two representatives of one coset")
    if related_reps(algebra.group, algebra.sub, gi, gj):
        return RELATED_DISTINCT
    return UNRELATED


def bridge(algebra: GradedAlgebra, z: tuple, w: tuple) -> tuple:
    """A basis triple c with z * c * w != 0, of the least degree class the
    positions allow: degree e for equal entries, a nonidentity subgroup
    degree for related distinct entries, a degree outside H otherwise."""
    grp, sub = algebra.group, algebra.sub
    for t in (z, w):
        if algebra.degree(*t) != 0:
            raise PreconditionError(f"bridge endpoints must have degree e, got {t}")
    _, _, j = z
    _, k, _ = w
    verdict = relate(algebra, j, k)
    gj, gk = algebra.entries[j], algebra.entries[k]
    best = None
    for h in sub.elements:
        d = grp.mul(grp.inv(gj), grp.mul(h, gk))
        if d == 0:
            if verdict != SAME_BLOCK:
                raise InternalError("identity bridge between distinct blocks")
            return (h, j, k)
        if best is None and d in sub.eset:
            best = (h, j, k)
    if best is not None:
        if verdict != RELATED_DISTINCT:
            raise InternalError("subgroup bridge between unrelated blocks")
        return best
    if verdict != UNRELATED:
        raise InternalError(f"no subgroup bridge for {verdict} positions")
    return (0, j, k)


@dataclass(frozen=True)
class KFormReport:
    """Span verification for a generating set over the minimal field."""

    mode: str
    k_dim: int
    expected_dim: int
    f_span_full: bool
    slot_units: tuple[int, ...]
    descent_enforced: bool
    ok: bool


@dataclass(frozen=True)
class KFormResult:
    presentation: Presentation
    algebra: GradedAlgebra
    field: SubfieldDescriptor
    generators: tuple
    labels: tuple
    report: KFormReport


MODES = ("corrected", "conjugate", "galois")


def build_k_form(p: Presentation, mode: str = "corrected",
                 word_bound: int | None = None) -> KFormResult:
    """Generators of a form of A over the minimal field k.

    The algebra is laid out with the tuple factored along S: positions
    (i, c, d) carry entry g_c * tau_d * b_i where g_c runs over one
    representative per Galois character of S, tau_d over the H-cosets of
    the character kernel T, and b_i over the S-coset factor of the tuple.

    Generator families: matrix units of the outer factor, matrix units of
    the T-factor, one twisted diagonal per subgroup element, scalar
    diagonals for a power basis of Q(mu_n), and one Galois permutation per
    character value.  The twisted diagonal relabels u_h by conjugation and,
    in mode "corrected", carries the coboundary scalar that makes the
    relabeling multiplicative, its witness from the cohomology queries
    (_slot_witnesses); mode "conjugate" drops the scalar and mode
    "galois" drops the relabeling.  The report records whether the k-span
    closes at k-dimension dim_F A with full F-span.
    """
    if mode not in MODES:
        raise PreconditionError(f"unknown k-form mode {mode!r}")
    nf = normalize_with_details(p, word_bound)
    if nf.presentation != p:
        raise PresentationError("k-form construction needs the presentation in normal form")
    chain = nf.chain
    grp, sub, alpha = p.group, p.sub, p.alpha
    n_root = chain.n
    field = chain.field
    chars = dict(chain.s_characters)

    slot_chars = sorted(set(chars.values()))
    g_slots = tuple(min(s for s in chain.S if chars[s] == c) for c in slot_chars)
    m_slots = len(slot_chars)
    t_elems = tuple(s for s in chain.S if chars[s] == 1 % n_root)
    t_sub = SubgroupData(grp, t_elems)
    if not sub.eset <= t_sub.eset:
        raise InternalError("subgroup does not lie in the character kernel")
    if len(chain.S) != m_slots * t_sub.order:
        raise InternalError("characters do not split S over their kernel")
    tau = tuple(sorted({sub.coset_id_of[x] for x in t_elems}))
    t_len = len(tau)

    s_blocks = p.lam.blocks_along(chain.S)
    if s_blocks is None:
        raise InternalError("tuple does not factor along S")
    b_seq = [sid for sid in sorted(s_blocks) for _ in range(s_blocks[sid])]
    r = len(b_seq)

    def pos(i: int, c: int, d: int) -> int:
        return (i * m_slots + c) * t_len + d

    entries = []
    for b in b_seq:
        for gc in g_slots:
            for td in tau:
                entries.append(sub.coset_id_of[grp.mul(grp.mul(gc, td), b)])
    p_s = Presentation(grp, sub, alpha, tuple(entries))
    if p_s.lam.counts != p.lam.counts:
        raise InternalError("factored layout changed the coset multiset")
    algebra = work = GradedAlgebra(p_s)
    slot_units, slot_scalars, descent_enforced = _slot_witnesses(
        grp, alpha, g_slots, chars, n_root, mode)
    # big of _span_report; where alpha's roots leave Q(zeta_big), build on a
    # mu_n-valued beta and carry the generators back by u_h -> zeta_M^f(h) u_h
    big = lcm(n_root, *(CycScalar.from_root(bm, x).modulus
                        for f, bm in filter(None, slot_scalars) for x in f))
    if big % algebra._root_modulus:
        beta, shift, big_m = _mu_n_representative(alpha, n_root)
        work = GradedAlgebra(Presentation(grp, sub, beta, p_s.entries))
        slot_units, slot_scalars, descent_enforced = _slot_witnesses(
            grp, beta, g_slots, chars, n_root, mode)

    one = CycScalar.one()
    gens: list[AlgElement] = []
    labels: list[str] = []

    for i1 in range(r):
        for i2 in range(r):
            terms = {(0, pos(i1, c, d), pos(i2, c, d)): one
                     for c in range(m_slots) for d in range(t_len)}
            gens.append(AlgElement(work, terms))
            labels.append(f"unit_r[{i1},{i2}]")

    for d1 in range(t_len):
        for d2 in range(t_len):
            terms = {(0, pos(i, c, d1), pos(i, c, d2)): one
                     for i in range(r) for c in range(m_slots)}
            gens.append(AlgElement(work, terms))
            labels.append(f"unit_t[{d1},{d2}]")

    for h in sub.elements:
        terms = {}
        for c, gc in enumerate(g_slots):
            hc = h if mode == "galois" else grp.conj(h, grp.inv(gc))
            if slot_scalars[c] is None:
                coeff = one
            else:
                f, big = slot_scalars[c]
                coeff = CycScalar.from_root(big, f[sub.pos[h]])
            for i in range(r):
                for d in range(t_len):
                    key = (hc, pos(i, c, d), pos(i, c, d))
                    terms[key] = coeff
        gens.append(AlgElement(work, terms))
        labels.append(f"twisted_diag[{h}]")

    for a in range(phi(n_root)):
        z = CycScalar.from_root(n_root, a)
        terms = {}
        for c in range(m_slots):
            zc = z.galois(slot_units[c]) if n_root > 1 else z
            if zc.is_zero():
                continue
            for i in range(r):
                for d in range(t_len):
                    terms[(0, pos(i, c, d), pos(i, c, d))] = zc
        gens.append(AlgElement(work, terms))
        labels.append(f"scalar_diag[{a}]")

    slot_of_char = {ch: c for c, ch in enumerate(slot_chars)}
    for sigma in chain.sbar_image:
        terms = {}
        for c, ch in enumerate(slot_chars):
            c2 = slot_of_char[(sigma * ch) % n_root]
            for i in range(r):
                for d in range(t_len):
                    terms[(0, pos(i, c2, d), pos(i, c, d))] = one
        gens.append(AlgElement(work, terms))
        labels.append(f"galois_perm[{sigma}]")

    report = _span_report(work, field, tuple(gens), mode, slot_units, descent_enforced)
    if work is not algebra:
        roots = [CycScalar.from_root(big_m, x) for x in shift]
        gens = [AlgElement(algebra, {t: c * roots[sub.pos[t[0]]] for t, c in g.terms.items()})
                for g in gens]
    return KFormResult(p_s, algebra, field, tuple(gens), tuple(labels), report)


def _operator(algebra: GradedAlgebra, g: AlgElement, L: int) -> list:
    """Left multiplication by g on integer vectors, one Z[x]/(x^L - 1) block
    per basis slot: entry s lists (target slot * L, exponent shift, integer
    coefficient) for the source slot s = (b, j, l), one per power of each term
    u_a e_ij of g, whose product lands in (ab, i, l), read off the algebra's
    product table at L. L must be a multiple of every coefficient modulus of
    g and of algebra._root_modulus. The coefficients are cleared of their
    common denominator, so the operator is g times a positive integer."""
    pos, n = algebra.sub.pos, algebra.size
    table = algebra.product_table(L)
    den = lcm(*(c.den for c in g.terms.values()))
    by_col: dict = {}
    for (a, i, j), c in g.terms.items():
        by_col.setdefault(j, []).append((table[pos[a]], i * n * L, _monomials(c, L, den)))
    op: list = [()] * algebra.dim
    for pb in range(algebra.sub.order):
        for j, terms in by_col.items():
            for l in range(n):
                out = []
                for row, at_i, poly in terms:
                    base, s, sign = row[pb]
                    base += at_i + l * L
                    out += [(base, (t + s) % L, v * sign) for t, v in poly]
                op[(pb * n + j) * n + l] = out
    return op


def _lift(x: AlgElement, L: int) -> dict[int, int]:
    """x as an integer vector, flat index slot * L + exponent -> nonzero int,
    times the common denominator of its coefficients; L must be a multiple
    of every coefficient modulus of x."""
    alg = x.algebra
    pos, n = alg.sub.pos, alg.size
    den = lcm(*(c.den for c in x.terms.values()))
    return {((pos[h] * n + i) * n + j) * L + t: v
            for (h, i, j), c in x.terms.items() for t, v in _monomials(c, L, den)}


def _apply(op: list, x: dict, L: int) -> dict:
    """The image of the vector x of _lift under the operator op of _operator,
    zeros dropped."""
    out: dict = {}
    get = out.get
    for k, v in x.items():
        targets = op[k // L]
        if targets:
            e = k % L
            for base, t, c in targets:
                key = base + (e + t) % L
                out[key] = get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _span_report(algebra: GradedAlgebra, field: SubfieldDescriptor,
                 gens: tuple, mode: str, slot_units: tuple,
                 descent_enforced: bool) -> KFormReport:
    """Close the k-span of the generators under multiplication and measure it.

    The k-span V of all words in the generators is closed under left
    multiplication by the generators, so the closure walks its basis in
    insertion order, after the seeds g * kb for kb in a basis of k, and
    makes g * x for g in gens only when it reaches x: breadth first, as the
    MeatAxe spins a submodule (Parker 1984). Elements are integer vectors, one in
    Z[x]/(x^big - 1) per basis slot, with big the lcm of the field modulus
    and the generator coefficient moduli; the modulus of the cocycle's roots
    must divide big (build_k_form descends to a mu_n-valued representative
    where it would not). Each generator is compiled once into a sparse
    index map (_operator). A vector is reduced mod the big-th cyclotomic
    polynomial (_power_rows) only when it enters one echelon over Q, reduced
    fraction-free as in Bareiss (1968). V is a k-subspace, so its
    Q-dimension is a multiple of [k:Q]. F V = A exactly when the multiples
    zeta_big^t x (t < phi(big)), shifts by t, of the basis of V reach
    Q-dimension dim_F A * phi(big) in the same echelon. Every row lies in
    that Q^(dim_F A * phi(big)), so once the echelon reaches this rank the
    closure stops, and the multiples are not needed: V = A already. Rank
    does not depend on the order of insertion, so the report does not either.
    """
    big = lcm(field.n, *(c.modulus for g in gens for c in g.terms.values()))
    if big % algebra._root_modulus:
        raise InternalError("the cocycle's roots do not lie in Q(zeta_big)")
    width = phi(big)
    powers = [[(i, r) for i, r in enumerate(p) if r] for p in _power_rows(big)]

    def row(x: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for k, v in x.items():
            s, e = divmod(k, big)
            base = s * width
            for i, r in powers[e]:
                out[base + i] = out.get(base + i, 0) + r * v
        return {i: v for i, v in out.items() if v}

    ech: dict[int, dict[int, int]] = {}

    def insert(vec: dict[int, int]) -> bool:
        """Reduce vec against ech (vec := a * vec - b * row, over the content
        of the result); a nonzero remainder becomes a primitive pivot row."""
        while vec:
            piv = min(vec)
            prow = ech.get(piv)
            if prow is None:
                g = gcd(*vec.values())
                ech[piv] = {i: v // g for i, v in vec.items()}
                return True
            a, b = prow[piv], vec[piv]
            vec = {i: a * vec.get(i, 0) - b * prow.get(i, 0) for i in vec.keys() | prow.keys()}
            g = gcd(*vec.values())
            vec = {i: v // g for i, v in vec.items() if v}
        return False

    traces = (sum((CycScalar.from_root(field.n, a * u) for u in field.units), CycScalar.zero())
              for a in range(field.n))
    k_basis = [t for t in traces if not t.is_zero()]

    ops = [_operator(algebra, g, big) for g in gens]
    basis: list[dict[int, int]] = []

    def candidates():
        yield from (_lift(g.scaled(kb), big) for kb in k_basis for g in gens)
        for x in basis:  # basis grows while it is walked: breadth first
            for op in ops:
                yield _apply(op, x, big)

    full = algebra.dim * width
    for x in candidates():
        if x and insert(row(x)):
            basis.append(x)
            if len(ech) == full:
                break

    k_deg = field.degree_over_q()
    if len(basis) % k_deg:
        raise InternalError("closure is not a module over the subfield")
    k_dim = len(basis) // k_deg

    if len(ech) != full:
        for x in basis:
            for t in range(1, width):
                insert(row({k - k % big + (k % big + t) % big: v for k, v in x.items()}))

    f_full = len(ech) == full
    return KFormReport(mode, k_dim, algebra.dim, f_full, tuple(slot_units),
                       descent_enforced, k_dim == algebra.dim and f_full)
