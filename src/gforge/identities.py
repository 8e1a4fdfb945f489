"""Multilinear graded polynomials over a graded matrix algebra.

The polynomial IR stores variables with homogeneous degrees and monomials as
coefficient/sequence pairs.  Evaluation runs on basis triples with a fast
scalar-accumulation path.  The identity oracle decides a polynomial over
every degree-respecting basis assignment, within a budget, without visiting
them one by one: a monomial is nonzero on basis triples only along a walk
whose rows continue the previous columns, so it enumerates those walks and
sums them per assignment.  The walks start only from lead prefixes that are
lex-least under the permutations of equal tuple entries, which
GradedAlgebra.lead_prefixes grows depth first: those permutations act as
graded automorphisms, and graded identities are invariant under graded
automorphisms (Bahturin-Drensky, Graded polynomial identities of matrices,
2002; Aljadeff-Haile, Simple G-graded algebras and their polynomial
identities, 2014).  The first nonzero assignment has a lex-least prefix, so
`checked` is exact.  Linearization polarizes repeated variables into
fresh ones, within the same budget.  Good-permutation and path machinery
compare H-coset prefixes of monomials; the witness constructions walk the
diagonal e-blocks of an algebra (Euler circuit per block, lemma-compliant
bridges between blocks) and alternate the designated variables, and
nonvanishing_set decides each permutation of them by one entry test per
frame and per bridge, with no bridge value enumerated.  The m-product
multiplies one binomial factor per Galois character value of the invariant
subgroup and checks its coefficients against the minimal subfield.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from math import factorial, lcm, prod

from .algebra import AlgElement, GradedAlgebra, _monomials, _root_shifts, bridge, multiply
from .config import CAPS
from .cyclo import CycScalar, _reduce_poly, as_cyc
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InternalError,
    PreconditionError,
)
from .groups import all_ints
from .presentation import InvariantChain, Presentation, compute_KNS
from .twisted import BinomialDatum, Cocycle, binomial_ratio


@dataclass(frozen=True, eq=False)
class GradedPolynomial:
    """variables: ((id, degree), ...); monomials: ((coeff, id sequence), ...).

    Like sequences are combined and zero terms dropped on construction, so an
    empty monomial tuple is the zero polynomial.
    """

    variables: tuple
    monomials: tuple

    def __post_init__(self):
        seen = set()
        vs = []
        for v, d in self.variables:
            if not isinstance(v, str):
                raise PreconditionError(f"variable id must be a string: {v!r}")
            if v in seen:
                raise PreconditionError(f"duplicate variable id: {v}")
            seen.add(v)
            vs.append((v, d))
        if not all_ints([[d for _, d in vs]]):
            raise PreconditionError("variable degrees must be integers")
        vdeg = dict(vs)
        acc: dict = {}
        order = []
        for coeff, seq in self.monomials:
            seq = tuple(seq)
            if not seq:
                raise PreconditionError("empty monomial")
            for v in seq:
                if v not in vdeg:
                    raise PreconditionError(f"monomial uses undeclared variable {v}")
            c = as_cyc(coeff)
            if seq in acc:
                acc[seq] = acc[seq] + c
            else:
                acc[seq] = c
                order.append(seq)
        canon = tuple((acc[s], s) for s in order if not acc[s].is_zero())
        object.__setattr__(self, "variables", tuple(vs))
        object.__setattr__(self, "monomials", canon)
        object.__setattr__(self, "vdeg", vdeg)
        sets = {frozenset(s) for _, s in canon}
        object.__setattr__(
            self, "multilinear",
            all(len(set(s)) == len(s) for _, s in canon) and len(sets) <= 1)
        counts = {tuple(sorted(Counter(s).items())) for _, s in canon}
        object.__setattr__(self, "multihomogeneous", len(counts) <= 1)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return (dict(self.variables) == dict(other.variables)
                and dict((s, c) for c, s in self.monomials)
                == dict((s, c) for c, s in other.monomials))

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def degree_of(self, v: str) -> int:
        if v not in self.vdeg:
            raise PreconditionError(f"unknown variable {v}")
        return self.vdeg[v]

    def scaled(self, c) -> "GradedPolynomial":
        c = as_cyc(c)
        return GradedPolynomial(
            self.variables, tuple((c * k, s) for k, s in self.monomials))

    def degree_product(self, grp) -> int | None:
        """Common product of monomial degrees in grp, or None if mixed."""
        out = None
        for _, seq in self.monomials:
            acc = 0
            for v in seq:
                acc = grp.mul(acc, self.vdeg[v])
            if out is None:
                out = acc
            elif out != acc:
                return None
        return out

    def __repr__(self):
        return (f"GradedPolynomial({len(self.variables)} vars, "
                f"{len(self.monomials)} monomials)")


def rename_variables(p: GradedPolynomial, mapping: dict) -> GradedPolynomial:
    """Rename ids by the mapping (missing ids stay); must stay injective."""
    new = {v: mapping.get(v, v) for v, _ in p.variables}
    if len(set(new.values())) != len(new):
        raise PreconditionError("renaming collides variable ids")
    return GradedPolynomial(
        tuple((new[v], d) for v, d in p.variables),
        tuple((c, tuple(new[v] for v in s)) for c, s in p.monomials))


def poly_mul(p: GradedPolynomial, q: GradedPolynomial) -> GradedPolynomial:
    """Product over disjoint variable sets; monomials concatenate."""
    clash = set(p.vdeg) & set(q.vdeg)
    if clash:
        raise PreconditionError(f"variable sets overlap: {sorted(clash)}")
    monos = tuple((cp * cq, sp + sq)
                  for cp, sp in p.monomials for cq, sq in q.monomials)
    return GradedPolynomial(p.variables + q.variables, monos)


def _as_triple(value):
    if isinstance(value, tuple) and len(value) == 3:
        return value
    return None


def _check_assignment(p: GradedPolynomial, algebra: GradedAlgebra,
                      assignment: dict) -> dict:
    used = {v for _, seq in p.monomials for v in seq}
    vals = {}
    for v, d in p.variables:
        if v not in assignment:
            if v in used:
                raise PreconditionError(f"unassigned variable {v}")
            continue
        val = assignment[v]
        t = _as_triple(val)
        if t is not None:
            if algebra.degree(*t) != d:
                raise PreconditionError(
                    f"degree mismatch for {v}: wanted {d}, got basis triple {t}")
            vals[v] = t
        elif isinstance(val, AlgElement):
            if val.algebra is not algebra:
                raise PreconditionError(f"value of {v} lives in another algebra")
            if val.homogeneous_degree() != d:
                raise PreconditionError(f"degree mismatch for {v}")
            vals[v] = val
        else:
            raise PreconditionError(f"value of {v} is not a basis triple")
    return vals


def _chain_triples(algebra: GradedAlgebra, vals) -> tuple | None:
    """Fold basis triples left to right; (zeta exponent, triple) or None."""
    grp, alpha = algebra.group, algebra.alpha
    h, i, j = vals[0]
    e = 0
    for h2, i2, j2 in vals[1:]:
        if j != i2:
            return None
        e += alpha.value(h, h2)
        h = grp.mul(h, h2)
        j = j2
    return e, (h, i, j)


def evaluate(p: GradedPolynomial, algebra: GradedAlgebra,
             assignment: dict) -> AlgElement:
    """Substitute basis elements for variables and expand.

    Assignment values are basis triples (h, i, j) or homogeneous AlgElements
    of the variable's degree.
    """
    vals = _check_assignment(p, algebra, assignment)
    if all(isinstance(v, tuple) for v in vals.values()):
        m = algebra.alpha.modulus
        acc: dict = {}
        for coeff, seq in p.monomials:
            folded = _chain_triples(algebra, [vals[v] for v in seq])
            if folded is None:
                continue
            e, key = folded
            c = coeff * CycScalar.from_root(m, e % m)
            acc[key] = acc[key] + c if key in acc else c
        return AlgElement(algebra, acc)
    out = algebra.zero()
    for coeff, seq in p.monomials:
        term = None
        for v in seq:
            val = vals[v]
            if isinstance(val, tuple):
                val = algebra.basis_element(*val)
            term = val if term is None else multiply(term, val)
        out = out + term.scaled(coeff)
    return out


@dataclass(frozen=True)
class IdentityReport:
    identity: bool
    search_space: int
    checked: int
    linearized: bool
    counterexample: dict | None
    value: AlgElement | None


# Largest slab of assignments whose walks are enumerated at once; more
# leading variables are fixed while a slab would be larger, so the walks and
# sums kept in memory stay bounded for every search space within the budget.
SLAB_LIMIT = 4096


def identity_report(p: GradedPolynomial, algebra: GradedAlgebra,
                    budget: int | None = None) -> IdentityReport:
    """Identity test over every degree-respecting basis assignment.

    Multihomogeneous input is linearized first; the verdicts agree in
    characteristic zero.  `checked` counts the assignments up to and
    including the first one, in itertools.product order over the variables'
    `basis_of_degree` lists, on which p is nonzero.
    """
    for _, d in p.variables:
        if not 0 <= d < algebra.group.order:
            raise PreconditionError(f"degree out of range: {d}")
    if budget is None:
        budget = CAPS.budget
    linearized = False
    if not p.multilinear:
        p = linearize(p, budget)
        linearized = True
    if not p.monomials:
        return IdentityReport(True, 0, 0, linearized, None, None)
    # multilinear: every monomial uses each used variable exactly once
    in_use = set(p.monomials[0][1])
    used = tuple(v for v, _ in p.variables if v in in_use)
    cand = [algebra.basis_of_degree(p.vdeg[v]) for v in used]
    space = prod(len(c) for c in cand)
    if space == 0:
        return IdentityReport(True, 0, 0, linearized, None, None)
    if space > budget:
        raise BudgetExceeded(
            f"identity search needs {space} evaluations, over budget {budget}")
    first = _first_nonzero(p, algebra, used, cand)
    if first is None:
        return IdentityReport(True, space, space, linearized, None, None)
    combo, rest = [], first
    for c in reversed(cand):
        rest, k = divmod(rest, len(c))
        combo.append(c[k])
    witness = dict(zip(used, reversed(combo)))
    value = evaluate(p, algebra, witness)
    if value.is_zero():
        raise InternalError("walk sums found a nonzero assignment that evaluates to zero")
    return IdentityReport(False, space, first + 1, linearized, witness, value)


def _first_nonzero(p: GradedPolynomial, algebra: GradedAlgebra, used,
                   cand) -> int | None:
    """Index, in itertools.product order over cand, of the first assignment
    on which the multilinear p is nonzero, or None.

    On basis triples a monomial is nonzero only along a walk
    (h1, i1, j1)(h2, j1, j2)..., so its nonzero assignments are found by
    growing walks from the leading variable one position at a time: to the
    right through the candidates whose row is the current column, to the
    left through those whose column is the current row (by the cocycle
    identity, multiplying on the left gives the exponent of the
    left-to-right fold, mod m).  Each finished walk
    adds coeff * zeta_m^e to the sum of its (assignment, output key), an
    integer vector in Z[x]/(x^L - 1) over one common denominator, with the
    root a rotation (or a sign, when every root in the cocycle is +-1, as in
    `multiply`).  Slabs of assignments with the leading variables fixed are
    enumerated in order, so the first slab with a nonzero sum holds the
    answer.

    Only slabs whose lead prefix is lex-least under the position symmetry S
    of the tuple are enumerated (GradedAlgebra.lead_prefixes; with no two
    equal entries that is every prefix).  Each pi in S
    gives the graded automorphism (h, i, j) -> (h, pi i, pi j), and graded
    identities are invariant under graded automorphisms (Bahturin-Drensky,
    Graded polynomial identities of matrices, 2002; Aljadeff-Haile, Simple
    G-graded algebras and their polynomial identities, 2014), so p is
    nonzero at a exactly when it is nonzero at pi.a.  If the first nonzero
    assignment a had a prefix that is not lex-least, some pi.a would come
    before it in product order.  So the first nonzero assignment has a
    lex-least prefix, and the index returned, hence `checked`, is exact,
    with no second ordered scan for a non-identity.
    """
    pmul, exps = algebra.sub.pmul, algebra.alpha.exps
    pos = algebra.sub.pos
    m = algebra.alpha.modulus
    L = lcm(algebra._root_modulus, *(c.modulus for c, _ in p.monomials))
    den = lcm(*(c.den for c, _ in p.monomials))
    rot = _root_shifts(m, L)
    sizes = [len(c) for c in cand]
    strides = [prod(sizes[t + 1:]) for t in range(len(sizes))]
    fixed = 1
    while fixed < len(sizes) and strides[fixed - 1] > SLAB_LIMIT:
        fixed += 1
    degrees = [p.vdeg[v] for v in used]
    index = [algebra.walk_index(g) for g in degrees]
    right = [by_row for by_row, _ in index]
    left = [by_col for _, by_col in index]
    var_of = {v: t for t, v in enumerate(used)}
    monos = []
    for c, seq in p.monomials:
        vec = _monomials(c, L, den)
        seq = [var_of[v] for v in seq]
        k = seq.index(0)
        monos.append((vec, [(t, strides[t]) for t in seq[k + 1:]],
                      [(t, strides[t]) for t in reversed(seq[:k])]))
    for lead in algebra.lead_prefixes(tuple(degrees[:fixed])):
        for t, c in enumerate(lead):
            h, i, j = cand[t][c]
            right[t] = {i: ((0, pos[h], j),)}
            left[t] = {j: ((0, pos[h], i),)}
        h, i, j = cand[0][lead[0]]
        start = [(0, pos[h], i, j, 0)]
        acc: dict = {}
        for vec, after, before in monos:
            walks = start
            for t, st in after:
                by_row = right[t]
                nxt = []
                for idx, ph, i, j, e in walks:
                    prow, erow = pmul[ph], exps[ph]
                    for c, pb, j2 in by_row.get(j, ()):
                        nxt.append((idx + c * st, prow[pb], i, j2, e + erow[pb]))
                walks = nxt
            for t, st in before:
                by_col = left[t]
                nxt = []
                for idx, ph, i, j, e in walks:
                    for c, pa, i2 in by_col.get(i, ()):
                        nxt.append((idx + c * st, pmul[pa][ph], i2, j, e + exps[pa][ph]))
                walks = nxt
            for idx, ph, i, j, e in walks:
                key = (idx, ph, i, j)
                sums = acc.get(key)
                if sums is None:
                    sums = acc[key] = [0] * L
                r, sign = rot[e % m]
                for t, x in vec:
                    sums[(t + r) % L] += sign * x
        best = None
        for (idx, _, _, _), sums in acc.items():
            if ((best is None or idx < best) and any(sums)
                    and any(_reduce_poly(L, sums))):
                best = idx
        if best is not None:
            return best + sum(c * st for c, st in zip(lead, strides))
    return None


def is_identity(p: GradedPolynomial, algebra: GradedAlgebra,
                budget: int | None = None) -> bool:
    return identity_report(p, algebra, budget).identity


def linearize(p: GradedPolynomial, budget: int | None = None) -> GradedPolynomial:
    """Polarize repeated variables: k occurrences become all k! orderings of
    fresh variables, iterated until the polynomial is multilinear.

    Collapsing the fresh variables back to the original one recovers each
    original monomial k! times, so the output stays in the T-ideal of p.
    The expansion makes up to len(monomials) * prod(count_v!) monomials;
    more than the budget raises BudgetExceeded before any is made.
    """
    if not p.multihomogeneous:
        raise PreconditionError("linearize needs a multihomogeneous polynomial")
    if budget is None:
        budget = CAPS.budget
    if p.monomials:
        count = len(p.monomials) * prod(
            factorial(k) for k in Counter(p.monomials[0][1]).values())
        if count > budget:
            raise BudgetExceeded(
                f"linearization needs {count} monomials, over budget {budget}")
    fresh = 0
    while not p.multilinear:
        counts = Counter(p.monomials[0][1])
        # the first declared variable with the largest count
        target = max((v for v, _ in p.variables), key=counts.__getitem__)
        k = counts[target]
        ids = set(p.vdeg)
        tids = []
        while len(tids) < k:
            fresh += 1
            t = f"t{fresh}"
            if t not in ids:
                tids.append(t)
        deg = p.vdeg[target]
        new_vars = []
        for v, d in p.variables:
            if v == target:
                new_vars.extend((t, deg) for t in tids)
            else:
                new_vars.append((v, d))
        monos = []
        for coeff, seq in p.monomials:
            slots = [t for t, v in enumerate(seq) if v == target]
            for ordering in permutations(tids):
                new_seq = list(seq)
                for slot, t in zip(slots, ordering):
                    new_seq[slot] = t
                monos.append((coeff, tuple(new_seq)))
        p = GradedPolynomial(tuple(new_vars), tuple(monos))
    return p


def is_good_permutation(pres: Presentation, degrees, sigma) -> bool:
    """Does permuting Z = x_1...x_n by sigma preserve the total degree and
    every H-coset prefix?  Position p of the permuted word holds variable
    sigma[p]; its prefix must match the base prefix ending at that variable.
    """
    grp, sub = pres.group, pres.sub
    degrees, sigma = tuple(degrees), tuple(sigma)
    if not all_ints([degrees, sigma]):
        raise PreconditionError("degrees and sigma must be integers")
    n = len(degrees)
    if sorted(sigma) != list(range(n)):
        raise PreconditionError("sigma must be a permutation of the positions")
    for t in degrees:
        if not 0 <= t < grp.order:
            raise PreconditionError(f"degree out of range: {t}")
    cid = sub.coset_id_of
    base = []
    acc = 0
    for t in degrees:
        acc = grp.mul(acc, t)
        base.append(acc)
    acc = 0
    for pos in range(n):
        acc = grp.mul(acc, degrees[sigma[pos]])
        if cid[acc] != cid[base[sigma[pos]]]:
            return False
    return acc == base[-1]


def pure_split(p: GradedPolynomial, pres: Presentation) -> tuple:
    """Partition monomials into good-permutation classes (pure components)."""
    if not p.multilinear:
        raise PreconditionError("pure split needs a multilinear polynomial")
    classes: list[tuple[dict, list]] = []
    for coeff, seq in p.monomials:
        placed = False
        for rep_pos, members in classes:
            if set(rep_pos) != set(seq):
                raise PreconditionError("monomials use mixed variable sets")
            rep_seq = members[0][1]
            degrees = [p.vdeg[v] for v in rep_seq]
            sigma = tuple(rep_pos[v] for v in seq)
            if is_good_permutation(pres, degrees, sigma):
                members.append((coeff, seq))
                placed = True
                break
        if not placed:
            classes.append(({v: t for t, v in enumerate(seq)}, [(coeff, seq)]))
    return tuple(GradedPolynomial(p.variables, tuple(members))
                 for _, members in classes)


@dataclass(frozen=True)
class PathReport:
    values: tuple
    assignments: tuple
    vanishes: tuple
    identity: bool
    coeffs_in_k: bool
    equivalent: bool


def path_check(p: GradedPolynomial, algebra: GradedAlgebra,
               chain: InvariantChain | None = None) -> PathReport:
    """Evaluate a pure polynomial along every start-row path.

    Needs every H-coset at most once in the tuple; then each path's
    assignment is forced position by position along the base monomial.  For
    subfield coefficients the verdicts must agree: vanishing on path one,
    vanishing on every path, and the identity oracle.
    """
    pres = algebra.presentation
    if max(mult for _, mult in pres.lam.counts) > 1:
        raise PreconditionError("path check needs a multiplicity-one tuple")
    components = pure_split(p, pres)
    if len(components) > 1:
        raise PreconditionError("path check needs a pure polynomial")
    if chain is None:
        chain = compute_KNS(pres)
    size = algebra.size
    if not p.monomials:
        zero = algebra.zero()
        return PathReport(tuple(zero for _ in range(size)),
                          tuple(None for _ in range(size)),
                          tuple(True for _ in range(size)), True, True, True)
    base_seq = p.monomials[0][1]
    values = []
    assignments = []
    for start in range(size):
        row = start
        asg: dict | None = {}
        for v in base_seq:
            cands = [b for b in algebra.basis_of_degree(p.vdeg[v])
                     if b[1] == row]
            if len(cands) > 1:
                raise InternalError("path continuation is not unique")
            if not cands:
                asg = None
                break
            asg[v] = cands[0]
            row = cands[0][2]
        if asg is None:
            values.append(algebra.zero())
        else:
            values.append(evaluate(p, algebra, asg))
        assignments.append(asg)
    report = identity_report(p, algebra)
    vanishes = tuple(v.is_zero() for v in values)
    coeffs_in_k = all(chain.field.contains(c) for c, _ in p.monomials)
    equivalent = (vanishes[0] == report.identity == all(vanishes))
    if (coeffs_in_k and not equivalent
            and set(chain.S) == set(range(algebra.group.order))):
        raise InternalError("path equivalence violated on conforming input")
    return PathReport(tuple(values), tuple(assignments), vanishes,
                      report.identity, coeffs_in_k, equivalent)


def _euler_walk(verts) -> list:
    """Closed walk covering every edge of the complete digraph with loops on
    verts exactly once, starting at the least vertex, least target first."""
    verts = list(verts)
    pending = {v: list(verts) for v in verts}
    stack = [verts[0]]
    trail = []
    while stack:
        v = stack[-1]
        if pending[v]:
            stack.append(pending[v].pop(0))
        else:
            trail.append(stack.pop())
    trail.reverse()
    return list(zip(trail, trail[1:]))


@dataclass(frozen=True)
class WitnessBundle:
    """Block-walk product and its alternated polynomial.

    e1 is the framed sequence and z1 its monomial template; positions index
    both.  basic maps every variable to its e1 value.  e0 is e1 without the
    frames.  p1 alternates the designated variables.
    """

    algebra: GradedAlgebra
    e0: tuple
    e1: tuple
    z1: GradedPolynomial
    p1: GradedPolynomial
    designated: tuple
    frames: tuple
    bridges: tuple
    basic: dict


def _perm_sign(sig) -> int:
    sign = 1
    seen = [False] * len(sig)
    for i in range(len(sig)):
        if seen[i]:
            continue
        j = i
        size = 0
        while not seen[j]:
            seen[j] = True
            j = sig[j]
            size += 1
        if size % 2 == 0:
            sign = -sign
    return sign


def build_witness(algebra: GradedAlgebra) -> WitnessBundle:
    """Walk the diagonal e-blocks and alternate the designated variables.

    Per block: an Euler circuit over its positions covers each e-basis
    element once (all of them designated), frames border every designated
    element, and blocks are joined by least-index lemma-compliant bridges.
    The product starts and ends with an extra non-designated e-element.
    """
    # a block walk covers the e-basis only when each coset has one entry
    if len(set(algebra.entries)) != len(algebra.presentation.lam.counts):
        raise PreconditionError("tuple uses two representatives of one coset")
    d_e = algebra.dims.get(0, 0)
    if d_e > CAPS.designated:
        raise CapExceeded(
            f"designated set of size {d_e} exceeds cap {CAPS.designated}")
    blocks = algebra.blocks
    first = blocks[0][0]
    items = [("w", (0, first, first))]
    prev_end = None
    for b, block in enumerate(blocks):
        start = block[0]
        if b:
            items.append(("w", bridge(algebra, (0, prev_end, prev_end),
                                      (0, start, start))))
        items.append(("y", (0, start, start)))
        for i, j in _euler_walk(block):
            items.append(("x", (0, i, j)))
            items.append(("y", (0, j, j)))
        prev_end = start
    items.append(("w", (0, prev_end, prev_end)))

    counters = {"x": 0, "y": 0, "w": 0}
    variables = []
    seq = []
    basic = {}
    designated, frames, bridges = [], [], []
    for pos, (fam, triple) in enumerate(items):
        counters[fam] += 1
        vid = f"{fam}{counters[fam]}"
        variables.append((vid, algebra.degree(*triple)))
        seq.append(vid)
        basic[vid] = triple
        (designated if fam == "x" else frames if fam == "y" else bridges
         ).append(pos)
    e1 = tuple(t for _, t in items)
    e0 = tuple(t for fam, t in items if fam != "y")
    if {items[p][1] for p in designated} != set(algebra.basis_of_degree(0)):
        raise InternalError("designated walk misses part of the e-basis")
    z1 = GradedPolynomial(tuple(variables), ((as_cyc(1), tuple(seq)),))
    if evaluate(z1, algebra, basic).is_zero():
        raise InternalError("block walk product vanished")
    x_ids = [seq[p] for p in designated]
    monos = []
    for sig in permutations(range(d_e)):
        new_seq = list(seq)
        for t, pos in enumerate(designated):
            new_seq[pos] = x_ids[sig[t]]
        monos.append((as_cyc(_perm_sign(sig)), tuple(new_seq)))
    p1 = GradedPolynomial(tuple(variables), tuple(monos))
    return WitnessBundle(algebra, e0, e1, z1, p1, tuple(designated),
                         tuple(frames), tuple(bridges), basic)


def nonvanishing_set(bundle: WitnessBundle,
                     budget: int | None = None) -> frozenset:
    """Permutations sigma of the designated variables whose monomial admits a
    nonzero value at the basic designated evaluation, for some values of
    the bridges.

    In a build_witness walk every frame sits between two non-frames and is
    forced to (0, c, r), c the column on its left and r the row on its
    right, a degree-e basis element exactly when entries[c] == entries[r];
    the walk then runs through it. So the product is nonzero exactly when
    that holds at every frame. At a frame between two designated variables
    sigma alone decides it. Each bridge borders only its own frames, at most
    two, whose other neighbours are designated, so it needs one candidate
    whose (entries[row], entries[col]) matches them. The budget bounds the
    d_e! * prod(bridge candidates) products of a scan over every value.
    """
    if budget is None:
        budget = CAPS.budget
    algebra = bundle.algebra
    seq = bundle.z1.monomials[0][1]
    vdeg = bundle.z1.vdeg
    cands = [algebra.basis_of_degree(vdeg[seq[p]]) for p in bundle.bridges]
    d_e = len(bundle.designated)
    space = factorial(d_e) * prod(len(c) for c in cands)
    if space > budget:
        raise BudgetExceeded(
            f"permutation search needs {space} products, over budget {budget}")
    entries = algebra.entries
    slot = {pos: t for t, pos in enumerate(bundle.designated)}
    # the entries at the row and at the column of each basic designated value
    ends = [(entries[bundle.basic[seq[p]][1]], entries[bundle.basic[seq[p]][2]])
            for p in bundle.designated]
    inner = [(slot[p - 1], slot[p + 1]) for p in bundle.frames
             if p - 1 in slot and p + 1 in slot]
    # per bridge: the designated slots two to its left and right, or None
    # at a walk end, and the entry pairs of its candidates
    sides = [(slot.get(pos - 2), slot.get(pos + 2), {(entries[i], entries[j]) for _, i, j in c})
             for pos, c in zip(bundle.bridges, cands)]
    out = set()
    for sig in permutations(range(d_e)):
        row = [ends[s][0] for s in sig]
        col = [ends[s][1] for s in sig]
        if all(col[a] == row[b] for a, b in inner) and all(
                any((a is None or x == col[a]) and (b is None or y == row[b])
                    for x, y in pairs)
                for a, b, pairs in sides):
            out.add(sig)
    return frozenset(out)


def binomial_polynomial(alpha: Cocycle, word, tau,
                        zeta_exp: int) -> GradedPolynomial:
    """x_1...x_r - zeta_m^zeta_exp x_tau(1)...x_tau(r) as a polynomial.

    Degrees are subgroup positions, matching twisted_group_algebra.
    """
    word, tau = tuple(word), tuple(tau)
    if not all_ints([word, tau]):
        raise PreconditionError("word and tau must be integers")
    if sorted(tau) != list(range(len(word))):
        raise PreconditionError("tau must be a permutation of the positions")
    sub = alpha.sub
    for h in word:
        if h not in sub.eset:
            raise PreconditionError(f"word letter {h} is not in the subgroup")
    ids = [f"x{p + 1}" for p in range(len(word))]
    degs = [sub.pos[h] for h in word]
    zeta = CycScalar.from_root(alpha.modulus, zeta_exp % alpha.modulus)
    return GradedPolynomial(
        tuple(zip(ids, degs)),
        ((as_cyc(1), tuple(ids)),
         (-zeta, tuple(ids[t] for t in tau))))


def build_m_product(alpha: Cocycle, chain: InvariantChain,
                    witness: BinomialDatum) -> GradedPolynomial:
    """Witness binomial multiplied over the Galois character values.

    One factor per character value on its own variable copy, with scalar
    zeta_n^(j*a) where zeta_n^a is the witness ratio, summed over the
    character group acting on the scalars.  The sum makes every expanded
    coefficient an orbit sum, hence an element of the minimal subfield;
    each summand keeps a factor matching every s in S, so the result stays
    an identity of each conjugate twisted algebra, while for a unit outside
    the character image all factors of all summands are nonzero at the
    basis evaluation.
    """
    m = alpha.modulus
    n = chain.n
    r = binomial_ratio(alpha, witness.word, witness.perm)
    if r is None or r != witness.ratio % m:
        raise PreconditionError("witness binomial does not hold in the algebra")
    if witness.ratio_order(m) != n:
        raise PreconditionError("witness ratio is not a primitive root")
    a = witness.ratio // (m // n) if n > 1 else 0
    sub = alpha.sub
    degs = [sub.pos[h] for h in witness.word]
    sbar = chain.sbar_image
    out = None
    for sigma in sbar:
        term = None
        for fi, j in enumerate(sbar, start=1):
            ids = [f"x{fi}_{p + 1}" for p in range(len(degs))]
            zeta = CycScalar.from_root(n, (a * sigma * j) % n)
            factor = GradedPolynomial(
                tuple(zip(ids, degs)),
                ((as_cyc(1), tuple(ids)),
                 (-zeta, tuple(ids[t] for t in witness.perm))))
            term = factor if term is None else poly_mul(term, factor)
        out = term if out is None else GradedPolynomial(
            out.variables, out.monomials + term.monomials)
    for c, _ in out.monomials:
        if not chain.field.contains(c):
            raise InternalError("product coefficient escapes the subfield")
    return out
