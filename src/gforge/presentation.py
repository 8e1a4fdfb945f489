"""Presentations of graded simple algebras and their invariants.

A presentation (G, H, alpha, entries) fixes an elementary grading on a
matrix algebra twisted by the cocycle alpha on H: entry g_i labels row i,
and the (h, i, j) basis vector sits in degree g_i^-1 h g_j. Three moves
preserve the graded isomorphism class: left-multiplying one entry by a
subgroup element, permuting entries, and translating everything by g in G
(which conjugates H and alpha). This module provides validation, the moves,
a canonical normal form, the invariant chain H <= S <= K <= N_G(H) with its
Galois data and minimal field, tuple derivatives, and isomorphism testing.

K is computed three independent ways (multiset stabilizer, coset-frequency
preservation, literal factoring of the multiset) and the results are cross
checked at runtime; a mismatch raises InternalError rather than guessing.
K, N and S are unions of right H-cosets in N_G(H), so the chain is computed
on one representative per coset and every check runs on the representatives;
find_theta reads the same coset-level stabilizer.
The factoring check and the K blocks of the normal form go through
CosetMultiset.blocks_along, which reads the group table and builds no subgroup.
The root-of-unity data comes from cohomology solves over Z/M with
M = modulus * exp(H): n is the order of the class of alpha, N collects the
normalizer elements g with alpha^g ~ j * alpha for a unit j mod n, and that
j is the Galois character of g. None of it depends on a word bound; the
chain only records the one it was given.

A Presentation is immutable, so compute_KNS keeps its chain on the object
(the way lam is kept) and later calls on the same object read it back; an
equal but separately built Presentation computes its own. A move carries the
kept chain to the moved presentation: the same chain after an entry or
permute move, the conjugated chain after a translate (apply_move). The normal
form is always a new object, so the covariance cross-check of normalize
computes the chain of the normal form from scratch; a carried chain is thus
checked whenever its presentation is normalized. When the normal form's
translation normalizes H, the normal form sits on the same SubgroupData as
its source and shares its caches (products, generators, exponent, coboundary
echelons). normalize compares one conjugate table per right coset of the
stabilizer of alpha in H (normalize_with_details).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import CAPS
from .cyclo import SubfieldDescriptor
from .errors import InternalError, PreconditionError, PresentationError
from .groups import CosetMultiset, Group, SubgroupData, all_ints
from .twisted import (
    Cocycle,
    _conjugation_positions,
    _galois_characters,
    class_order,
    conjugate_cocycle,
    conjugate_is_cohomologous,
)


def same_group(a: Group, b: Group) -> bool:
    return a is b or a._mul == b._mul


@dataclass(frozen=True, eq=False)
class Presentation:
    group: Group
    sub: SubgroupData
    alpha: Cocycle
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not all_ints([self.entries]):
            raise PresentationError("tuple entries must be integers")
        if self.sub.group is not self.group:
            raise PresentationError("subgroup must live in the ambient group")
        if self.alpha.sub is not self.sub:
            raise PresentationError("cocycle must live on the presentation subgroup")
        if not self.entries:
            raise PresentationError("tuple must be nonempty")
        bad = [x for x in self.entries if not 0 <= x < self.group.order]
        if bad:
            raise PresentationError(f"tuple entries out of range: {bad}")
        # derived attributes, not fields: the coset multiset of the entries,
        # and the invariant chain once compute_KNS has computed it
        object.__setattr__(
            self, "lam", CosetMultiset.from_elements(self.sub, self.entries))
        object.__setattr__(self, "_chain", None)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            same_group(self.group, other.group)
            and self.sub.elements == other.sub.elements
            and self.alpha.modulus == other.alpha.modulus
            and self.alpha.exps == other.alpha.exps
            and self.entries == other.entries
        )

    __hash__ = None


@dataclass(frozen=True)
class ValidationReport:
    wellformed: bool
    connected: bool
    issues: tuple[str, ...] = ()


@dataclass(frozen=True)
class InvariantChain:
    K: tuple[int, ...]
    N: tuple[int, ...]
    S: tuple[int, ...]
    n: int
    image_stable: bool
    word_bound: int
    s_characters: tuple[tuple[int, int], ...]
    sbar_image: tuple[int, ...]
    field: SubfieldDescriptor


@dataclass(frozen=True)
class ClassificationFlags:
    division_form: bool
    strongly_vp: bool
    essentially_vp: bool


@dataclass(frozen=True)
class NormalForm:
    presentation: Presentation
    theta: int
    transversal_factor: tuple[int, ...]
    core_factor: tuple[int, ...]
    chain: InvariantChain


def validate_presentation(p: Presentation) -> ValidationReport:
    """Is the grading connected, that is, do the degrees a^-1 h b (a, b coset
    representatives of the tuple, h in H) generate G? They generate the
    same subgroup as a0^-1 S a0 and the a0^-1 b, with a0 the first
    representative and S = sub.gens, since
    a^-1 h b = (a0^-1 a)^-1 (a0^-1 h a0) (a0^-1 b). A Presentation is well
    formed by construction, so the report always has wellformed=True and no
    issues."""
    grp, sub = p.group, p.sub
    reps = [cid for cid, _ in p.lam.counts]
    a0, a0_inv = reps[0], grp.inv(reps[0])
    gens = [grp.conj(sub.elements[s], a0) for s in sub.gens]
    gens += [grp.mul(a0_inv, b) for b in reps]
    connected = len(grp.closure(gens)) == grp.order
    return ValidationReport(wellformed=True, connected=connected)


def apply_move(p: Presentation, move: dict) -> Presentation:
    """One admissible move given as a dict.

    {"type": "entry", "pos": i, "h": h}  left-multiplies entry i by h in H;
    {"type": "permute", "perm": [...]}   places old entry perm[i] at slot i;
    {"type": "translate", "g": g}        maps entries to g*entries, H to
                                         gHg^-1 and alpha accordingly.

    When p keeps its chain (compute_KNS), the moved presentation keeps one
    too. The chain depends on H, alpha and lam alone: an entry or permute
    move changes none of them, so the chain is the same; a translate by g
    conjugates all three, so it is _conjugate_chain(G, chain, g), the
    covariance that normalize_with_details checks on every call. A moved
    presentation whose source keeps no chain computes its own.
    """
    q = _moved(p, move)
    kept = p._chain
    if kept is not None:
        if move["type"] == "translate":
            kept = _conjugate_chain(p.group, kept, move["g"])
        object.__setattr__(q, "_chain", kept)
    return q


def _moved(p: Presentation, move: dict) -> Presentation:
    """The presentation of apply_move, without a chain."""
    kind = move.get("type")
    for key in ("pos", "h") if kind == "entry" else ("g",) if kind == "translate" else ():
        if type(move.get(key)) is not int:
            raise PreconditionError(f"move field {key!r} must be an integer")
    if kind == "entry":
        pos, h = move["pos"], move["h"]
        if not 0 <= pos < len(p.entries):
            raise PreconditionError(f"position {pos} out of range")
        if not p.sub.contains(h):
            raise PreconditionError("left factor must lie in the subgroup")
        entries = list(p.entries)
        entries[pos] = p.group.mul(h, entries[pos])
        return Presentation(p.group, p.sub, p.alpha, tuple(entries))
    if kind == "permute":
        perm = move.get("perm")
        if not isinstance(perm, (list, tuple)) or not all_ints([perm]):
            raise PreconditionError("move field 'perm' must be a list of integers")
        if sorted(perm) != list(range(len(p.entries))):
            raise PreconditionError("not a permutation of the tuple positions")
        return Presentation(p.group, p.sub, p.alpha,
                            tuple(p.entries[i] for i in perm))
    if kind == "translate":
        g = move["g"]
        if not 0 <= g < p.group.order:
            raise PreconditionError(f"element {g} out of range")
        entries = tuple(p.group.mul(g, x) for x in p.entries)
        if g in p.sub.normalizer:
            return Presentation(p.group, p.sub, conjugate_cocycle(p.alpha, g), entries)
        sub2 = p.sub.conjugated(g)
        return Presentation(p.group, sub2, conjugate_cocycle(p.alpha, g, sub2), entries)
    raise PreconditionError(f"unknown move type: {kind!r}")


def related_reps(grp: Group, sub: SubgroupData, a: int, b: int) -> bool:
    """Same (H, H)-double coset: a^-1 H b meets H."""
    ai = grp.inv(a)
    return any(grp.mul(grp.mul(ai, h), b) in sub.eset for h in sub.elements)


def _coset_stabilizer(p: Presentation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(reps, stab): reps holds one element per right H-coset of N_G(H),
    the least, so sub.transversal meets N_G(H) in reps; stab holds the r in
    reps with r lam = lam. For g in N_G(H) the translation Hb -> Hgb of lam
    depends only on the coset Hg, since H(hg)b = Hgb, so the stabilizer of
    lam in N_G(H) is the union of the cosets H r, r in stab."""
    sub, lam = p.sub, p.lam
    ngh = set(sub.normalizer)
    reps = tuple(r for r in sub.transversal if r in ngh)
    return reps, tuple(r for r in reps if lam.translated(r) == lam)


def _union(sub: SubgroupData, reps) -> tuple[int, ...]:
    """The elements of the H-cosets keyed by reps, sorted."""
    return tuple(sorted(x for r in reps for x in sub.cosets[r]))


def compute_KNS(p: Presentation, word_bound: int | None = None) -> InvariantChain:
    """The invariant chain H <= S <= K <= N_G(H) of p, with n, the Galois
    characters of S and the minimal field.

    K, N and S are unions of right H-cosets of N_G(H), and the Galois
    character is constant on each, so the chain is computed on one
    representative per coset, its least element (_coset_stabilizer), and
    expanded to sorted elements at the end. Every check holds on the
    representatives exactly when it holds on the elements: for r1 in
    N_G(H), (H r1)(H r2) = H r1 r2, so a union of cosets is closed, and the
    characters are multiplicative, when the coset ids of the products of
    representatives say so.

    The first call on p computes the chain, with every cross-check, and
    keeps it on p; later calls return it, with word_bound set to the bound
    asked for (the chain does not depend on it). word_bound is an int, or
    None for CAPS.word_bound.
    """
    if word_bound is not None and not all_ints([[word_bound]]):
        raise PreconditionError("word_bound must be an integer")
    L = CAPS.word_bound if word_bound is None else word_bound
    kept = p._chain
    if kept is not None:
        return kept if kept.word_bound == L else replace(kept, word_bound=L)
    grp, sub, lam = p.group, p.sub, p.lam
    cid, mul = sub.coset_id_of, grp._mul

    reps, k_reps = _coset_stabilizer(p)
    k_freq = tuple(
        r for r in reps
        if all(lam.multiplicity(mul[r][b]) == lam.multiplicity(b)
               for b in sub.transversal)
    )
    k_ids = set(k_reps)
    if 0 not in k_ids or any(cid[mul[a][b]] not in k_ids for a in k_reps for b in k_reps):
        raise InternalError("the stabilizer K is not closed under multiplication")
    k_elems = _union(sub, k_reps)
    factored = lam.blocks_along(k_elems) is not None
    # <K, r> is the same subgroup for every r in one coset rK, the union of
    # the H-cosets H r k, so the scan takes one r per coset of K in N_G(H)
    # outside K
    scanned = set(k_ids)
    maximal = True
    for r in reps:
        if r in scanned:
            continue
        scanned.update(cid[mul[r][k]] for k in k_reps)
        if lam.blocks_along(grp.closure(k_elems + (r,))) is not None:
            maximal = False
            break
    if not (k_reps == k_freq and factored and maximal):
        raise InternalError("stabilizer, frequency, and factoring disagree on K")

    n = class_order(p.alpha)
    char_of = dict(zip(reps, _galois_characters(p.alpha, n, reps)))
    s_reps = [r for r in k_reps if char_of[r] is not None]
    if 0 not in s_reps:
        raise InternalError("the subgroup must be contained in S")
    for a in s_reps:
        for b in s_reps:
            ab = char_of[cid[mul[a][b]]]
            if ab is None or (char_of[a] * char_of[b] - ab) % n:
                raise InternalError("Galois characters are not multiplicative")
    sbar = tuple(sorted({char_of[r] for r in s_reps}))
    field = SubfieldDescriptor.from_generators(n, sbar)
    if set(field.units) != set(sbar):
        raise InternalError("character image is not closed under multiplication")
    s_part = _union(sub, s_reps)
    chain = InvariantChain(
        K=k_elems, N=_union(sub, (r for r in reps if char_of[r] is not None)),
        S=s_part, n=n, image_stable=True, word_bound=L,
        s_characters=tuple((s, char_of[cid[s]]) for s in s_part),
        sbar_image=sbar, field=field,
    )
    object.__setattr__(p, "_chain", chain)
    return chain


def minimal_field(p: Presentation, word_bound: int | None = None) -> SubfieldDescriptor:
    return compute_KNS(p, word_bound).field


def _factored_form(grp: Group, sub: SubgroupData, lam: CosetMultiset,
                   k_set, s_set):
    """Factor lam as (transversal inside K) x (core of K-coset blocks).

    Returns (ufactor, core): ufactor lists coset representatives of the
    subgroup inside K with the identity first and S-cosets leading; core is
    a tuple of (representative, multiplicity) pairs, identity block first,
    then blocks whose K-coset normalizes the subgroup, then singleton
    classes, then nonsingletons; within a category larger multiplicities
    first and ties by element index.
    """
    ucosets = sorted({sub.coset_id_of[k] for k in k_set})
    u_s = [c for c in ucosets if c in s_set and c != 0]
    u_rest = [c for c in ucosets if c not in s_set]
    ufactor = (0, *u_s, *u_rest)

    blocks = lam.blocks_along(k_set)
    if blocks is None:
        raise InternalError("multiset does not factor along K")
    if 0 not in blocks:
        raise InternalError("identity coset missing from a normalized multiset")
    ngh_set = set(sub.normalizer)
    tail = []
    for kc, d in blocks.items():
        if kc == 0:
            continue
        class_size = sum(1 for c, _ in lam.counts if related_reps(grp, sub, kc, c))
        if kc in ngh_set:
            if class_size != 1:
                raise InternalError("normalizing representative in a wide class")
            cat = 0
        else:
            cat = 1 if class_size == 1 else 2
        tail.append((cat, -d, kc))
    tail.sort()
    core = ((0, blocks[0]),) + tuple((kc, -negd) for _, negd, kc in tail)
    return ufactor, core


def _conjugate_chain(grp: Group, chain: InvariantChain, theta: int) -> InvariantChain:
    ti = grp.inv(theta)

    def cset(xs):
        return tuple(sorted(grp.conj(x, ti) for x in xs))

    chars = tuple(sorted((grp.conj(s, ti), j) for s, j in chain.s_characters))
    return InvariantChain(
        K=cset(chain.K), N=cset(chain.N), S=cset(chain.S),
        n=chain.n, image_stable=chain.image_stable, word_bound=chain.word_bound,
        s_characters=chars, sbar_image=chain.sbar_image, field=chain.field,
    )


def normalize_with_details(p: Presentation,
                           word_bound: int | None = None) -> NormalForm:
    """Canonical representative of the move orbit, with its factorization.

    Candidate translations are the inverses of elements of maximal
    multiplicity cosets (the ones that put the identity coset first with
    maximal multiplicity); the winner minimizes (subgroup elements, flat
    tuple, cocycle table) lexicographically, which makes the result
    constant on move orbits.

    Only the least cosets, whose subgroup and flat tuple are least, compare
    their candidates' conjugate tables, through the position maps of
    twisted._conjugation_positions. The candidates of the coset H c0 are its
    elements c, with theta = c^-1; for c1, c2 in it, t = c1 c2^-1 lies in H,
    and the table of theta1 equals that of theta2 exactly when
    alpha(t x t^-1, t y t^-1) = alpha(x, y) for all x, y in H, that is when t
    lies in the stabilizer T of alpha in H. So the candidates with equal
    tables are those of one right coset T c, on the left of c. T is found by
    closure: a candidate whose position map repeats an earlier one's, or
    whose table ties with the best candidate of its coset, gives a new
    element c c'^-1 of T, so the part of T found at least doubles, and at
    most log2 |H| ties inside the cosets read a whole table. Each candidate
    in a right coset of the part found, after the first, is skipped. T does
    not depend on the coset, so it carries over to the next least coset.
    The winner is the first candidate, in the order of the cosets and of
    their elements, whose table is least, as when every candidate is
    compared.

    The chain of p is the one kept on p (compute_KNS). A candidate
    translation that normalizes H keeps p.sub, so the normal form shares its
    subgroup's caches; otherwise it gets the conjugated subgroup. The normal
    form is a new Presentation, and its chain is computed from scratch and
    checked against the conjugated chain of p.
    """
    chain = compute_KNS(p, word_bound)
    grp = p.group
    maxmult = max(m for _, m in p.lam.counts)
    heads = []
    for cid, mult in p.lam.counts:
        if mult != maxmult:
            continue
        theta0 = grp.inv(cid)
        ti0 = grp.inv(theta0)
        sub2 = p.sub if theta0 in p.sub.normalizer else p.sub.conjugated(theta0)
        k2 = frozenset(grp.conj(k, ti0) for k in chain.K)
        s2 = frozenset(grp.conj(s, ti0) for s in chain.S)
        lam2 = CosetMultiset.from_elements(
            sub2, [grp.mul(theta0, x) for x in p.entries])
        ufactor, core = _factored_form(grp, sub2, lam2, k2, s2)
        flat = tuple(
            sub2.coset_id_of[grp.mul(u, rep)]
            for u in ufactor for rep, d in core for _ in range(d)
        )
        heads.append((cid, sub2, flat, ufactor, core))
    # every candidate of a coset shares the first two key parts, so only the
    # least cosets compare their conjugate tables, and only the winner's
    # table is built; stab is the part of T found so far, and seen the
    # right cosets stab r of the candidates r of this coset read so far
    least = min((sub2.elements, flat) for _, sub2, flat, _, _ in heads)
    exps, mul = p.alpha.exps, grp._mul
    stab, stab_gens = (0,), []
    best = None
    for head in heads:
        cid, sub2, flat, _, _ = head
        if (sub2.elements, flat) != least:
            continue
        reps, seen, maps = [], set(), {}
        for c in p.sub.cosets[cid]:
            if c in seen:
                continue
            _, back = _conjugation_positions(p.alpha, grp.inv(c), sub2)
            # a candidate with the map of an earlier one, or one whose table
            # ties with the best of its coset, brings a new element of T
            key = tuple(back)
            tie = maps.get(key)
            if tie is None:
                maps[key] = c
                order = -1 if best is None else _conjugate_compare(exps, back, best[1])
                if order < 0:
                    best = (c, back, head)
                elif order == 0 and p.sub.coset_id_of[best[0]] == cid:
                    tie = best[0]
            reps.append(c)
            if tie is None:
                seen.update(mul[t][c] for t in stab)
            else:
                stab_gens.append(mul[c][grp.inv(tie)])
                stab = grp.closure(stab_gens)
                seen = {mul[t][r] for t in stab for r in reps}
    c, _, (_, sub2, flat, ufactor, core) = best
    theta = grp.inv(c)
    norm = Presentation(grp, sub2, conjugate_cocycle(p.alpha, theta, sub2), flat)
    moved = CosetMultiset.from_elements(sub2, [grp.mul(theta, x) for x in p.entries])
    if norm.lam.counts != moved.counts:
        raise InternalError("normalization changed the coset multiset")
    chain2 = _conjugate_chain(grp, chain, theta)
    if compute_KNS(norm, word_bound) != chain2:
        raise InternalError("invariant chain is not conjugation covariant")
    return NormalForm(
        presentation=norm, theta=theta, transversal_factor=ufactor,
        core_factor=tuple(rep for rep, d in core for _ in range(d)),
        chain=chain2,
    )


def _conjugate_compare(exps, back, other) -> int:
    """-1, 0 or 1 as the conjugate table with position map back (see
    twisted._conjugation_positions) is lexicographically less than, equal to
    or greater than the one with position map other, read row by row up to
    the first difference."""
    for p, q in zip(back, other):
        row, row2 = exps[p], exps[q]
        a, b = [row[k] for k in back], [row2[k] for k in other]
        if a != b:
            return -1 if a < b else 1
    return 0


def normalize(p: Presentation, word_bound: int | None = None) -> Presentation:
    return normalize_with_details(p, word_bound).presentation


def classify(p: Presentation, word_bound: int | None = None) -> ClassificationFlags:
    """Division form (S = G), strong and essential verbal primeness.

    Strong verbal primeness needs H normal, a uniform multiset and
    alpha^g ~ alpha for every g in G. Conjugation by an element of H fixes
    every class, so alpha^(hr) ~ alpha^r and one g per coset of H (the
    transversal) decides it; a zero table is fixed by every conjugation, so
    it needs no solve.
    """
    if not validate_presentation(p).connected:
        raise PreconditionError("classification requires a connected grading")
    chain = compute_KNS(p, word_bound)
    division = len(chain.S) == p.group.order
    strongly = False
    if p.sub.is_normal and p.lam.uniform_multiplicity() is not None:
        strongly = p.alpha.is_trivial() or all(
            conjugate_is_cohomologous(p.alpha, g, p.alpha)[0]
            for g in p.sub.transversal
        )
    if strongly and not division:
        raise InternalError("strong verbal primeness must force the division form")
    return ClassificationFlags(division_form=division, strongly_vp=strongly,
                               essentially_vp=division)


def pointwise_derivative(p: Presentation, h_tuple) -> tuple[int, ...]:
    """(g_1^-1 h_1 g_2, g_2^-1 h_2 g_3, ..., g_n^-1 h_n g_1)."""
    h_tuple = tuple(h_tuple)
    if not all_ints([h_tuple]):
        raise PreconditionError("derivative direction entries must be integers")
    if len(h_tuple) != len(p.entries):
        raise PreconditionError("derivative direction must match the tuple length")
    for h in h_tuple:
        if not p.sub.contains(h):
            raise PreconditionError(f"direction entry {h} is not in the subgroup")
    grp = p.group
    n = len(p.entries)
    return tuple(
        grp.mul(grp.mul(grp.inv(p.entries[i]), h_tuple[i]), p.entries[(i + 1) % n])
        for i in range(n)
    )


def full_derivative(p: Presentation) -> tuple[frozenset[int], ...]:
    """Cyclic tuple of sets g_i^-1 H g_{i+1}, wrapping around at the end."""
    grp = p.group
    n = len(p.entries)
    return tuple(
        frozenset(
            grp.mul(grp.mul(grp.inv(p.entries[i]), h), p.entries[(i + 1) % n])
            for h in p.sub.elements
        )
        for i in range(n)
    )


def find_theta(p1: Presentation, p2: Presentation) -> int | None:
    """Minimal translation carrying the first coset tuple onto the second.

    Present exactly when the full derivatives coincide; the returned element
    normalizes the subgroup and its translation action is verified.
    """
    if not same_group(p1.group, p2.group):
        raise PreconditionError("presentations live in different ambient groups")
    if p1.sub.elements != p2.sub.elements:
        raise PreconditionError("presentations carry different subgroups")
    if len(p1.entries) != len(p2.entries):
        return None
    if full_derivative(p1) != full_derivative(p2):
        return None
    grp = p1.group
    theta0 = grp.mul(p2.entries[0], grp.inv(p1.entries[0]))
    if theta0 not in p1.sub.normalizer:
        raise InternalError("equal derivatives must give a normalizing translation")
    if not p1.lam.translated(theta0).matches(p2.lam):
        raise InternalError("translation witness does not carry the multiset")
    # theta0 normalizes H, so theta0 H r = H theta0 r, whose least element
    # is its coset id
    _, stab = _coset_stabilizer(p1)
    return min(p1.sub.coset_id_of[grp.mul(theta0, r)] for r in stab)


def iso_witness(p1: Presentation, p2: Presentation) -> int | None:
    """The least g with H2 = g H1 g^-1, lam2 = g lam1 and alpha2 ~ alpha1^g,
    or None.

    The subgroup and multiset tests are made for every g. The class of
    alpha1^g depends only on the left coset g H1: with alpha^g(x, y) =
    alpha(g^-1 x g, g^-1 y g) as in conjugate_cocycle, alpha^(gh) =
    (alpha^h)^g, and for h in H1 alpha^h ~ alpha, since conjugation by an
    element of the subgroup fixes every class (classify uses the same
    argument). So the cohomology test is made once per coset, keyed by its
    least element; a coset that passes returns at once, and one that fails
    is not tested again.
    """
    if not same_group(p1.group, p2.group):
        raise PreconditionError("presentations live in different ambient groups")
    grp = p1.group
    if p1.sub.order != p2.sub.order or len(p1.entries) != len(p2.entries):
        return None
    h2 = p2.sub.eset
    failed = set()
    for g in range(grp.order):
        gi = grp.inv(g)
        if {grp.conj(h, gi) for h in p1.sub.elements} != h2:
            continue
        moved = CosetMultiset.from_elements(
            p2.sub, [grp.mul(g, x) for x in p1.entries])
        if moved.counts != p2.lam.counts:
            continue
        coset = min(grp.mul(g, h) for h in p1.sub.elements)
        if coset in failed:
            continue
        if conjugate_is_cohomologous(p1.alpha, g, p2.alpha)[0]:
            return g
        failed.add(coset)
    return None


def iso_test(p1: Presentation, p2: Presentation) -> bool:
    return iso_witness(p1, p2) is not None
