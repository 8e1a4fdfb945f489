"""Finite groups as explicit multiplication tables, with subgroup and coset machinery.

Elements are integers 0..order-1; the identity is always index 0. mul(a, b)
is the product a*b, conj(h, g) = g^-1 * h * g, and right cosets H*g are keyed
by their minimal element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm

from .config import CAPS
from .errors import CapExceeded, GroupError, PreconditionError


def all_ints(rows) -> bool:
    """Whether every entry of the rows is exactly an int (so not a bool)."""
    return set(map(type, chain.from_iterable(rows))) <= {int}


def element_orders(table) -> list[int]:
    """The order of each element of a group table (table[a][b] = a * b): one
    power walk a, a^2, ... back to 0 per element not yet assigned, which
    also sets the order of every power on the walk."""
    order = [1] + [0] * (len(table) - 1)
    for a in range(1, len(table)):
        if not order[a]:
            row, walk, x = table[a], [], a
            while x:  # row a is a permutation, so the walk comes back to 0
                walk.append(x)
                x = row[x]
            k = len(walk) + 1
            for j, x in enumerate(walk, 1):
                order[x] = k // gcd(j, k)
    return order


def generating_set(table, orders=None) -> tuple[int, ...]:
    """Elements S reaching every element from 0 by left multiplication in the
    table: the elements in order of decreasing order (orders, by default
    element_orders(table)), the least first on a tie, each kept when it is
    not reached yet. On a group each pick outside the subgroup reached so
    far at least doubles it, so |S| <= log2 |G|."""
    if orders is None:
        orders = element_orders(table)
    gens: list[int] = []
    reached = {0}
    for x in sorted(range(len(table)), key=orders.__getitem__, reverse=True):
        if x not in reached:
            gens.append(x)
            _reach(table, gens, reached)
    return tuple(gens)


def _reach(table, gens, reached: set[int]) -> set[int]:
    """Grow reached (holding 0) by left multiplication by gens until closed;
    returns it."""
    stack = list(reached)
    while stack:
        g = stack.pop()
        for s in gens:
            sg = table[s][g]
            if sg not in reached:
                reached.add(sg)
                stack.append(sg)
    return reached


def _associative_at(rows, a: int) -> bool:
    """Whether (ab)c = a(bc) for every b and c in the table."""
    at = rows[a].__getitem__
    return all(rows[ab] == list(map(at, rb)) for ab, rb in zip(rows[a], rows))


class Group:
    __slots__ = ("order", "name", "names", "_mul", "_inv", "_orders")

    def __init__(self, table, names=None, name="G"):
        try:
            rows = [list(row) for row in table]
        except TypeError:  # a row that is not a sequence
            raise GroupError("multiplication table must be square") from None
        order = len(rows)
        if order == 0 or any(len(row) != order for row in rows):
            raise GroupError("multiplication table must be square")
        if order > CAPS.group_order:
            raise CapExceeded(f"group order {order} exceeds cap {CAPS.group_order}")
        if not all_ints(rows):
            raise GroupError("table entries must be integers")
        if min(map(min, rows)) < 0 or max(map(max, rows)) >= order:
            raise GroupError("table entries out of range")
        rng = list(range(order))
        if rows[0] != rng or [row[0] for row in rows] != rng:
            raise GroupError("identity must be element 0")
        if any(len(set(row)) != order for row in rows):
            raise GroupError("rows are not permutations")
        if any(len(set(col)) != order for col in zip(*rows)):
            raise GroupError("columns are not permutations")
        orders = element_orders(rows)
        # Light's test: the a with (ab)c = a(bc) are closed under products, so
        # S decides; the message names the least element that fails
        if not all(_associative_at(rows, a) for a in generating_set(rows, orders)):
            a = next(a for a in range(order) if not _associative_at(rows, a))
            raise GroupError(f"associativity fails at element {a}")
        inv = [row.index(0) for row in rows]
        if any(rows[b][a] for a, b in enumerate(inv)):
            raise GroupError("one-sided inverses only")
        self.order = order
        self._mul = tuple(map(tuple, rows))
        self._inv = tuple(inv)
        self._orders = tuple(orders)
        if names is None:
            names = ["e"] + [f"g{i}" for i in range(1, order)]
        if len(names) != order:
            raise GroupError("names length must equal group order")
        self.names = tuple(str(x) for x in names)
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, h: int, g: int) -> int:
        return self._mul[self._mul[self._inv[g]][h]][g]

    def order_of(self, a: int) -> int:
        return self._orders[a]

    def exponent(self) -> int:
        return lcm(*self._orders)

    def closure(self, elems) -> tuple[int, ...]:
        """The subgroup generated by elems: the words in them, sorted."""
        gens = set(elems)
        if not all_ints([gens]):
            raise GroupError("closure elements must be integers")
        bad = sorted(gens.difference(range(self.order)))
        if bad:
            raise GroupError(f"closure elements out of range: {bad}")
        return tuple(sorted(_reach(self._mul, list(gens), {0})))

    def is_subgroup(self, elems) -> bool:
        eset = set(elems)
        if 0 not in eset:
            return False
        return all(self._mul[a][b] in eset for a in eset for b in eset)

    def subgroup(self, elems) -> "SubgroupData":
        return SubgroupData(self, elems)

    def center(self) -> tuple[int, ...]:
        return tuple(
            a for a in range(self.order)
            if all(self._mul[a][b] == self._mul[b][a] for b in range(self.order))
        )


class SubgroupData:
    """A subgroup together with its right-coset decomposition and normalizer."""

    __slots__ = ("group", "elements", "eset", "order", "pos",
                 "coset_id_of", "cosets", "transversal", "normalizer", "is_normal",
                 "pmul", "gens", "_exponent", "coboundary_echelons", "cayley")

    def __init__(self, group: Group, elems):
        elements = tuple(elems)
        if not all_ints([elements]):
            raise GroupError("subgroup elements must be integers")
        elements = tuple(sorted(set(elements)))
        bad = [x for x in elements if not 0 <= x < group.order]
        if bad:
            raise GroupError(f"subgroup elements out of range: {bad}")
        if not group.is_subgroup(elements):
            raise GroupError("not closed under multiplication")
        self.group = group
        self.elements = elements
        self.eset = frozenset(elements)
        self.order = len(elements)
        self.pos = {h: i for i, h in enumerate(elements)}
        cid = [-1] * group.order
        cosets: dict[int, tuple[int, ...]] = {}
        for g in range(group.order):
            if cid[g] != -1:
                continue
            coset = tuple(sorted(group.mul(h, g) for h in elements))
            for x in coset:
                cid[x] = coset[0]
            cosets[coset[0]] = coset
        self.coset_id_of = tuple(cid)
        self.cosets = cosets
        self.transversal = tuple(sorted(cosets))
        # pmul[i][j] is the position of h_i * h_j (positions index the
        # sorted elements); gens is the generating set S of H, as positions,
        # that every reader of the subgroup uses, picked by the element
        # orders the group keeps
        mul = group._mul
        self.pmul = tuple(tuple(self.pos[mul[a][b]] for b in elements) for a in elements)
        self.gens = generating_set(self.pmul, [group._orders[h] for h in elements])
        self._exponent = None
        # conjugation by g is an automorphism, so g^-1 H g = H exactly when
        # it maps each generator into H
        gens = [elements[s] for s in self.gens]
        nz = tuple(
            g for g in range(group.order)
            if all(group.conj(s, g) in self.eset for s in gens)
        )
        self.normalizer = nz
        self.is_normal = len(nz) == group.order
        # M -> image echelon over Z/M of the coboundary map on the rows of
        # gens (gforge.twisted)
        self.coboundary_echelons: dict[int, list] = {}
        # the BFS tree and relators of gforge.twisted._cayley
        self.cayley = None

    def exponent(self) -> int:
        """exp(H), the lcm of the element orders; computed on first use and kept."""
        if self._exponent is None:
            self._exponent = lcm(*(self.group.order_of(h) for h in self.elements))
        return self._exponent

    def index(self) -> int:
        return self.group.order // self.order

    def contains(self, g: int) -> bool:
        return g in self.eset

    def conjugated(self, theta: int) -> "SubgroupData":
        """The subgroup theta * H * theta^-1."""
        g = self.group
        ti = g.inv(theta)
        return SubgroupData(g, (g.conj(h, ti) for h in self.elements))


@dataclass(frozen=True)
class CosetMultiset:
    """Multiset of right cosets H*g, stored as sorted (coset_id, multiplicity) pairs."""

    sub: SubgroupData
    counts: tuple[tuple[int, int], ...]

    @staticmethod
    def from_elements(sub: SubgroupData, elems) -> "CosetMultiset":
        acc: dict[int, int] = {}
        for g in elems:
            cid = sub.coset_id_of[g]
            acc[cid] = acc.get(cid, 0) + 1
        return CosetMultiset(sub, tuple(sorted(acc.items())))

    def total(self) -> int:
        return sum(m for _, m in self.counts)

    def multiplicity(self, g: int) -> int:
        cid = self.sub.coset_id_of[g]
        for c, m in self.counts:
            if c == cid:
                return m
        return 0

    def translated(self, g: int) -> "CosetMultiset":
        """Apply Hb -> Hgb; requires g in the normalizer of H."""
        if g not in self.sub.normalizer:
            raise PreconditionError("translation element must normalize the subgroup")
        grp = self.sub.group
        acc: dict[int, int] = {}
        for cid, m in self.counts:
            nid = self.sub.coset_id_of[grp.mul(g, cid)]
            acc[nid] = acc.get(nid, 0) + m
        return CosetMultiset(self.sub, tuple(sorted(acc.items())))

    def matches(self, other: "CosetMultiset") -> bool:
        """Equality across distinct SubgroupData objects with the same elements."""
        return self.sub.elements == other.sub.elements and self.counts == other.counts

    def blocks_along(self, u_elems) -> dict[int, int] | None:
        """{U-coset id: d} when each U-coset the multiset meets holds all [U:H]
        of its H-cosets with one multiplicity d, ids being least elements as in
        SubgroupData; None otherwise, also when the subgroup U does not contain H."""
        sub = self.sub
        u_set = set(u_elems)
        if not sub.eset <= u_set:
            return None
        cid, mul = sub.coset_id_of, sub.group._mul
        # U*c is the union of the H-cosets H*r*c over one r per H-coset in U
        reps = {cid[u] for u in u_set}
        counts = dict(self.counts)
        blocks: dict[int, int] = {}
        for c, d in self.counts:
            hits = [cid[mul[r][c]] for r in reps]
            if any(counts.get(x) != d for x in hits):
                return None
            blocks[min(hits)] = d
        return blocks

    def uniform_multiplicity(self) -> int | None:
        """Common multiplicity if every H-coset of the parent group appears equally."""
        if len(self.counts) != len(self.sub.transversal):
            return None
        mults = {m for _, m in self.counts}
        return mults.pop() if len(mults) == 1 else None


def subgroup_group(group: Group, elems) -> tuple[Group, tuple[int, ...], dict[int, int]]:
    """Relabel a subgroup as a standalone Group.

    Returns (S, to_parent, from_parent); element i of S is to_parent[i] in the parent.
    """
    elements = tuple(sorted(set(elems)))
    if not group.is_subgroup(elements):
        raise GroupError("not a subgroup")
    from_parent = {g: i for i, g in enumerate(elements)}
    table = [[from_parent[group.mul(a, b)] for b in elements] for a in elements]
    names = [group.names[g] for g in elements]
    s = Group(table, names=names, name=f"{group.name}_sub{len(elements)}")
    return s, elements, from_parent


def quotient_group(group: Group, normal_elems) -> tuple[Group, tuple[int, ...]]:
    """Quotient by a normal subgroup.

    Returns (Q, proj) with proj[g] the quotient index of g's coset; coset of the
    identity is index 0 and cosets are indexed by ascending minimal element.
    """
    sub = group.subgroup(normal_elems)
    if not sub.is_normal:
        raise PreconditionError("quotient requires a normal subgroup")
    reps = sub.transversal
    qidx = {cid: i for i, cid in enumerate(reps)}
    proj = tuple(qidx[sub.coset_id_of[g]] for g in range(group.order))
    table = [[proj[group.mul(a, b)] for b in reps] for a in reps]
    names = [f"[{group.names[r]}]" for r in reps]
    q = Group(table, names=names, name=f"{group.name}_mod{sub.order}")
    return q, proj


def cyclic(n: int) -> Group:
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = ["e"] + ["g" if a == 1 else f"g{a}" for a in range(1, n)]
    return Group(table, names=names, name=f"C{n}")


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n: rotations s^a at 0..n-1, reflections s^a t at n..2n-1."""
    if n < 1:
        raise GroupError("dihedral group needs n >= 1")

    def mul_pair(x, y):
        a, i = x % n, x // n
        b, j = y % n, y // n
        c = (a + b) % n if i == 0 else (a - b) % n
        return ((i + j) % 2) * n + c

    table = [[mul_pair(x, y) for y in range(2 * n)] for x in range(2 * n)]
    rot = ["e"] + ["s" if a == 1 else f"s{a}" for a in range(1, n)]
    ref = ["t"] + [("s" if a == 1 else f"s{a}") + "t" for a in range(1, n)]
    return Group(table, names=rot + ref, name=f"D{n}")


def direct_product(a: Group, b: Group) -> Group:
    """A x B: semidirect_product with the trivial action, named AxB."""
    grp = semidirect_product(a, b, lambda h, x: x)
    grp.name = f"{a.name}x{b.name}"
    return grp


def semidirect_product(n_grp: Group, h_grp: Group, action) -> Group:
    """Semidirect product N x| H; action(h, x) is the automorphism of N attached to h.

    Product rule: (x1, h1) * (x2, h2) = (x1 * action(h1, x2), h1 * h2).
    Element (x, h) gets index x * |H| + h, so the table validation also
    certifies that the action is a homomorphism into Aut(N).
    """
    order = n_grp.order * h_grp.order
    if order > CAPS.group_order:
        raise CapExceeded(f"product order {order} exceeds cap {CAPS.group_order}")

    def idx(x, h):
        return x * h_grp.order + h

    table = [
        [
            idx(n_grp.mul(x1, action(h1, x2)), h_grp.mul(h1, h2))
            for x2 in range(n_grp.order) for h2 in range(h_grp.order)
        ]
        for x1 in range(n_grp.order) for h1 in range(h_grp.order)
    ]
    names = [
        f"({n_grp.names[x]},{h_grp.names[h]})"
        for x in range(n_grp.order) for h in range(h_grp.order)
    ]
    return Group(table, names=names, name=f"{n_grp.name}x|{h_grp.name}")


def from_permutations(gens, names=None, name="G") -> Group:
    """Group generated by permutations (tuples over range(degree)).

    Elements are indexed by BFS discovery order from the identity, multiplying
    on the right by the generators in the given order; composition is
    (p * q)(i) = q[p[i]].
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise GroupError("need at least one generator")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise GroupError(f"not a permutation of range({degree}): {g}")
    ident = tuple(range(degree))
    index = {ident: 0}
    elems = [ident]
    queue = [ident]
    while queue:
        nxt = []
        for p in queue:
            for g in gens:
                q = tuple(g[p[i]] for i in range(degree))
                if q not in index:
                    if len(elems) >= CAPS.group_order:
                        raise CapExceeded(
                            f"generated group exceeds cap {CAPS.group_order}")
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        queue = nxt
    table = [
        [index[tuple(q[p[i]] for i in range(degree))] for q in elems]
        for p in elems
    ]
    return Group(table, names=names, name=name)
