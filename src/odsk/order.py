"""Finite ordered sets: posets, quasi-orders, linear extensions, Pareto machinery.

Relations are stored as dense bitset rows (one Python int per element),
so pair queries and closure sweeps are O(1) word operations. All types
are immutable values; every operation returns fresh objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import AntisymmetryViolation, BudgetExceeded, OdskError, ParseError

DEFAULT_COUNT_BUDGET = 20  # max element count for exact extension counting


def _bits(mask: int):
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_elements(elements: Sequence[str]) -> tuple[str, ...]:
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        dupes = sorted({e for e in elems if list(elems).count(e) > 1})
        raise OdskError(f"duplicate element names: {dupes}")
    return elems


def _check_preorder(elements: Sequence[str], rows: Sequence[int], what: str,
                    antisymmetric: bool) -> None:
    """Validate bitset rows as a reflexive, transitive relation on
    ``elements`` (``what`` names it in messages), and antisymmetric too
    if asked, all in one pass over the set bits."""
    _check_elements(elements)
    n = len(elements)
    if len(rows) != n:
        raise OdskError("row count does not match element count")
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise OdskError(f"{what} not reflexive at {elements[i]}")
        if row >> n:
            raise OdskError(f"{what} row wider than element count")
    for i, row in enumerate(rows):
        bit, missing = 1 << i, ~row
        for j in _bits(row ^ bit):
            if rows[j] & missing:
                raise OdskError(f"{what} not transitive")
            if antisymmetric and rows[j] & bit:
                raise AntisymmetryViolation((frozenset({elements[i], elements[j]}),))


@dataclass(frozen=True)
class Relation:
    """A named finite binary relation, pairs stored by element index."""

    elements: tuple[str, ...]
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        _check_elements(self.elements)
        n = len(self.elements)
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise OdskError(f"pair index out of range: {(a, b)}")

    @classmethod
    def from_named_pairs(cls, elements: Sequence[str],
                         pairs: Iterable[tuple[str, str]]) -> "Relation":
        elems = _check_elements(elements)
        idx = {e: i for i, e in enumerate(elems)}
        try:
            ipairs = frozenset((idx[a], idx[b]) for a, b in pairs)
        except KeyError as exc:
            raise OdskError(f"unknown element in pair: {exc}") from exc
        return cls(elems, ipairs)

    def rows(self) -> list[int]:
        out = [0] * len(self.elements)
        for a, b in self.pairs:
            out[a] |= 1 << b
        return out

    def reflexive_closure(self) -> "Relation":
        extra = frozenset((a, a) for a in range(len(self.elements)))
        return Relation(self.elements, self.pairs | extra)


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Column masks of bitset rows: out[j] bit i set iff rows[i] bit j."""
    cols = [0] * width
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= 1 << i
    return cols


def _close(rows: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """Reflexive-transitive closure of bitset rows (row[i] bit j means
    i -> j) and its strong components, in one iterative Tarjan pass.

    A component finishes after every component it reaches, so its closed
    row is its members' bits OR the closed rows its arcs lead to; an arc
    into a bit already in that row adds nothing and is skipped, so a node
    takes low[w], not w's stack position, from each w whose row it merges.
    Members come in index order, components ordered by their least member.
    """
    n = len(rows)
    reach = [1 << i for i in range(n)]  # the closed row once finished
    number, low = [-1] * n, [n] * n  # stack positions, -1 unvisited; low n once finished
    stack, comps = [], []
    for root in range(n):
        path = [root] if number[root] < 0 else []
        while path:
            v = path[-1]
            if number[v] < 0:
                number[v] = low[v] = len(stack)
                stack.append(v)
            todo = rows[v] & ~reach[v]
            if todo:  # a child whose search has ended is met again here
                w = (todo & -todo).bit_length() - 1
                if number[w] < 0:
                    path.append(w)
                else:  # finished, or on the stack in v's component
                    reach[v] |= reach[w]
                    low[v] = min(low[v], low[w])
                continue
            path.pop()
            if low[v] == number[v]:
                comp = sorted(stack[low[v]:])
                del stack[low[v]:]
                for m in comp:
                    reach[m], low[m] = reach[v], n
                comps.append(comp)
    return reach, sorted(comps)


@dataclass(frozen=True)
class Poset:
    """Finite ordered set; ``up[i]`` bit j set iff elements[i] <= elements[j].

    The stored relation is the dense (reflexive-transitive) closure;
    construction validates reflexivity, transitivity and antisymmetry.
    """

    elements: tuple[str, ...]
    up: tuple[int, ...]

    def __post_init__(self):
        _check_preorder(self.elements, self.up, "relation", antisymmetric=True)

    # -- construction -------------------------------------------------

    @classmethod
    def from_pairs(cls, elements: Sequence[str],
                   pairs: Iterable[tuple[str, str]]) -> "Poset":
        """Close a pair list reflexively and transitively; may raise
        AntisymmetryViolation with the offending classes."""
        return close_relation(Relation.from_named_pairs(elements, pairs))

    @classmethod
    def chain(cls, elements: Sequence[str]) -> "Poset":
        elems = _check_elements(elements)
        n = len(elems)
        rows = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
        return cls(elems, rows)

    @classmethod
    def antichain(cls, elements: Sequence[str]) -> "Poset":
        elems = _check_elements(elements)
        return cls(elems, tuple(1 << i for i in range(len(elems))))

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError as exc:
            raise OdskError(f"unknown element: {name!r}") from exc

    @cached_property
    def _index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def leq(self, a: str, b: str) -> bool:
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Column masks: down[j] bit i set iff i <= j."""
        return tuple(_transpose(self.up, len(self)))

    @cached_property
    def cover_rows(self) -> tuple[int, ...]:
        """cover_rows[i] bit j iff j covers i (the neighboring relation)."""
        n = len(self)
        out = []
        for i in range(n):
            above = self.up[i] & ~(1 << i)
            indirect = 0
            for k in _bits(above):
                indirect |= self.up[k] & ~(1 << k)
            out.append(above & ~indirect)
        return tuple(out)

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        e = self.elements
        return tuple((e[i], e[j]) for i in range(len(self))
                     for j in _bits(self.cover_rows[i]))

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in range(len(self))
                     if self.up[i] == 1 << i)

    def incomparable_pairs(self) -> tuple[tuple[str, str], ...]:
        """Unordered incomparable pairs, in element order."""
        n, e = len(self), self.elements
        return tuple((e[i], e[j]) for i in range(n)
                     for j in _bits((1 << n) - (2 << i) & ~(self.up[i] | self.down[i])))

    # -- filters and ideals -------------------------------------------

    def order_filter(self, names: Iterable[str]) -> frozenset[str]:
        """Up-set of ``names``: everything above-or-equal some member."""
        mask = 0
        for name in names:
            mask |= self.up[self.index(name)]
        return frozenset(self.elements[j] for j in _bits(mask))

    def order_ideal(self, names: Iterable[str]) -> frozenset[str]:
        """Down-set of ``names``."""
        mask = 0
        for name in names:
            mask |= self.down[self.index(name)]
        return frozenset(self.elements[i] for i in _bits(mask))

    # -- width / height -----------------------------------------------

    def width_height(self) -> tuple[int, int]:
        """(max antichain size, max chain size).

        Width by Dilworth: n minus a maximum matching of the strict
        comparability graph (left i to right j when i < j), grown by one
        breadth-first augmenting path per left vertex. Each search keeps
        the right vertices it has reached as one bitset, so a neighbour
        row costs one AND, and no path length limits it. The width does
        not depend on which maximum matching is found. Height by longest
        path over the cover relation.
        """
        n = len(self)
        strict = [self.up[i] & ~(1 << i) for i in range(n)]
        match_of = [-1] * n  # right vertex -> matched left vertex
        right_of = [-1] * n  # left vertex -> matched right vertex
        matching = 0
        for root in range(n):
            seen, frontier, reached_from, free = 0, [root], {}, -1
            while frontier and free < 0:
                grown = []
                for i in frontier:
                    fresh = strict[i] & ~seen
                    seen |= fresh
                    for j in _bits(fresh):
                        reached_from[j] = i
                        if match_of[j] < 0:
                            free = j
                            break
                        grown.append(match_of[j])
                    if free >= 0:
                        break
                frontier = grown
            if free >= 0:
                matching += 1
                j = free
                while j >= 0:
                    i = reached_from[j]
                    match_of[j], right_of[i], j = i, j, right_of[i]
        return (n - matching, len(self.height_levels()))

    def height_levels(self) -> tuple[tuple[str, ...], ...]:
        """Partition into antichain levels by longest chain below."""
        n = len(self)
        depth = [0] * n
        order = sorted(range(n), key=lambda i: self.down[i].bit_count())
        for i in order:
            below = self.down[i] & ~(1 << i)
            depth[i] = max((depth[k] + 1 for k in _bits(below)), default=0)
        levels: list[list[str]] = [[] for _ in range(max(depth, default=-1) + 1)]
        for i in range(n):
            levels[depth[i]].append(self.elements[i])
        return tuple(tuple(lv) for lv in levels)

    # -- linear extensions --------------------------------------------

    def is_linear_extension(self, order: "LinearExtension | Sequence[str]") -> bool:
        names = order.order if isinstance(order, LinearExtension) else tuple(order)
        if sorted(names) != sorted(self.elements):
            return False
        pos = {name: k for k, name in enumerate(names)}
        for i in range(len(self)):
            pi = pos[self.elements[i]]
            for j in _bits(self.up[i] & ~(1 << i)):
                if pi > pos[self.elements[j]]:
                    return False
        return True

    @cached_property
    def _downset_memo(self) -> dict[int, int]:
        """Linear-extension count of every down-set D, keyed by its mask.

        A forward DP over the down-sets, one size at a time: each count
        is added to count(D | i) for every element i minimal outside D,
        so a layer is complete before it is extended.
        """
        full = (1 << len(self)) - 1
        memo = layer = {0: 1}
        for _ in range(len(self)):
            grown: dict[int, int] = {}
            for dset, count in layer.items():
                for i in _bits(full & ~dset):
                    if self.down[i] & ~dset == 1 << i:
                        grown[dset | 1 << i] = grown.get(dset | 1 << i, 0) + count
            memo.update(grown)
            layer = grown
        return memo

    def _downset_counts(self, budget: int) -> dict[int, int]:
        n = len(self)
        if n > budget:
            raise BudgetExceeded(
                f"{n} elements exceed the exact-count budget of {budget}")
        return self._downset_memo

    def linear_extension_count(self, budget: int = DEFAULT_COUNT_BUDGET) -> int:
        """Exact count via dynamic programming over down-sets."""
        if len(self) == 0:
            return 1
        return self._downset_counts(budget)[(1 << len(self)) - 1]

    def sample_linear_extension(self, seed: int = 0,
                                budget: int = DEFAULT_COUNT_BUDGET) -> "LinearExtension":
        """Sample a linear extension uniformly with the down-set counting
        DP, deterministic for a given seed."""
        n = len(self)
        if n == 0:
            return LinearExtension(())
        rng = random.Random(seed)
        memo = self._downset_counts(budget)
        dset = (1 << n) - 1
        rev: list[str] = []
        while dset:
            maxima = [i for i in _bits(dset) if self.up[i] & dset == 1 << i]
            weights = [memo[dset & ~(1 << i)] for i in maxima]
            total = sum(weights)
            pick = rng.randrange(total)
            for i, w in zip(maxima, weights):
                if pick < w:
                    rev.append(self.elements[i])
                    dset &= ~(1 << i)
                    break
                pick -= w
        return LinearExtension(tuple(reversed(rev)))

    def greedy_linear_extension(self) -> "LinearExtension":
        """Deterministic extension: repeatedly take the lexicographically
        smallest minimal element."""
        remaining = (1 << len(self)) - 1
        out: list[str] = []
        while remaining:
            minima = [i for i in _bits(remaining)
                      if self.down[i] & remaining == 1 << i]
            pick = min(minima, key=lambda i: self.elements[i])
            out.append(self.elements[pick])
            remaining &= ~(1 << pick)
        return LinearExtension(tuple(out))

    # -- edge-list file format ----------------------------------------

    def to_tsv(self) -> str:
        """Cover pairs as "a<TAB>b" lines plus lone isolated elements."""
        lines = []
        used = set()
        for a, b in self.covers:
            lines.append(f"{a}\t{b}")
            used.add(a)
            used.add(b)
        for e in self.elements:
            if e not in used:
                lines.append(e)
        return "\n".join(lines) + "\n"


def poset_from_tsv(text: str) -> Poset:
    """Parse the edge-list format: "a<TAB>b" per line means a < b,
    lone names declare isolated elements, '#' starts a comment line.
    Reflexive-transitive closure is applied."""
    elements: list[str] = []
    seen: set[str] = set()
    pairs: list[tuple[str, str]] = []

    def add(name: str):
        if name not in seen:
            seen.add(name)
            elements.append(name)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 1:
            add(parts[0].strip())
        elif len(parts) == 2:
            a, b = parts[0].strip(), parts[1].strip()
            if not a or not b:
                raise ParseError(f"line {lineno}: empty element name")
            add(a)
            add(b)
            pairs.append((a, b))
        else:
            raise ParseError(f"line {lineno}: expected 'a<TAB>b'")
    return Poset.from_pairs(elements, pairs)


def close_relation(rel: Relation) -> Poset:
    """Reflexive-transitive closure; raises AntisymmetryViolation with the
    strongly-equivalent classes when the result is not a poset."""
    rows, comps = _close(rel.rows())
    bad = tuple(frozenset(rel.elements[i] for i in comp)
                for comp in comps if len(comp) > 1)
    if bad:
        raise AntisymmetryViolation(bad)
    return Poset(rel.elements, tuple(rows))


def close_quasiorder(rel: Relation) -> "QuasiOrder":
    """Reflexive-transitive closure kept as a quasi-order (ties allowed)."""
    return QuasiOrder(rel.elements, tuple(_close(rel.rows())[0]))


@dataclass(frozen=True)
class QuasiOrder:
    """Reflexive transitive relation; antisymmetry not required."""

    elements: tuple[str, ...]
    rel: tuple[int, ...]

    def __post_init__(self):
        _check_preorder(self.elements, self.rel, "quasi-order", antisymmetric=False)

    @classmethod
    def from_values(cls, elements: Sequence[str], values: Sequence,
                    descending: bool = False) -> "QuasiOrder":
        """x <= y iff value(x) <= value(y) (reversed for descending)."""
        elems = _check_elements(elements)
        rows = []
        for vi in values:
            mask = 0
            for j, vj in enumerate(values):
                ok = vj <= vi if descending else vi <= vj
                if ok:
                    mask |= 1 << j
            rows.append(mask)
        return cls(elems, tuple(rows))

    def leq(self, a: str, b: str) -> bool:
        ia = self.elements.index(a)
        ib = self.elements.index(b)
        return bool(self.rel[ia] >> ib & 1)

    def quotient(self) -> tuple[Poset, dict[str, str]]:
        """Merge mutually comparable elements; returns the induced poset
        and the element -> class-name map ('+'-joined member names)."""
        comps = _close(self.rel)[1]
        names = ["+".join(self.elements[i] for i in comp) for comp in comps]
        class_of = {}
        for cname, comp in zip(names, comps):
            for i in comp:
                class_of[self.elements[i]] = cname
        # a row holds whole classes: keep the bit of each class's least member
        class_bit = {comp[0]: 1 << b for b, comp in enumerate(comps)}
        rows = tuple(sum(class_bit.get(j, 0) for j in _bits(self.rel[comp[0]]))
                     for comp in comps)
        return Poset(tuple(names), rows), class_of


@dataclass(frozen=True)
class OrdinalStructure:
    """A shared element list equipped with named quasi-orders (criteria)."""

    elements: tuple[str, ...]
    orders: tuple[tuple[str, QuasiOrder], ...]

    def __post_init__(self):
        if not self.orders:
            raise OdskError("ordinal structure needs at least one order")
        for name, qo in self.orders:
            if qo.elements != self.elements:
                raise OdskError(f"order {name!r} is over different elements")


def product_quasiorder(s: OrdinalStructure) -> QuasiOrder:
    """p <= q iff p <=_i q in every component order (weak domination)."""
    n = len(s.elements)
    rows = [(1 << n) - 1] * n
    for _, qo in s.orders:
        rows = [rows[i] & qo.rel[i] for i in range(n)]
    return QuasiOrder(s.elements, tuple(rows))


def product_order(s: OrdinalStructure,
                  ties: str = "quotient") -> tuple[Poset, dict[str, str]]:
    """Domination order of an ordinal structure.

    ties="quotient" (default): p <= q iff p <=_i q everywhere; elements
    tied in every criterion are merged, and the class map records the
    merge. ties="incomparable": comparability requires strict domination
    in every criterion, so tied elements stay incomparable and the class
    map is the identity.
    """
    n = len(s.elements)
    if ties == "quotient":
        return product_quasiorder(s).quotient()
    if ties == "incomparable":
        strict = [(1 << n) - 1] * n
        for _, qo in s.orders:
            cols = _transpose(qo.rel, n)
            strict = [strict[i] & qo.rel[i] & ~cols[i] for i in range(n)]
        poset = Poset(s.elements, tuple(row | 1 << i for i, row in enumerate(strict)))
        return poset, {e: e for e in s.elements}
    raise OdskError(f"unknown tie policy: {ties!r}")


def pareto_maxima(s: OrdinalStructure) -> frozenset[str]:
    """Elements not strictly dominated in the product of the criteria."""
    rel = product_quasiorder(s).rel
    cols = _transpose(rel, len(rel))
    return frozenset(e for e, row, col in zip(s.elements, rel, cols) if row & ~col == 0)


@dataclass(frozen=True)
class LinearExtension:
    """A total ordering of a poset's elements, smallest first."""

    order: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise OdskError("linear extension repeats elements")

    @cached_property
    def position(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.order)}

    def __len__(self) -> int:
        return len(self.order)


def intersect_linear_orders(orders: Sequence[LinearExtension]) -> Poset:
    """p <= q iff p comes before-or-equal q in every given order."""
    if not orders:
        raise OdskError("need at least one linear order")
    base = orders[0].order
    for o in orders[1:]:
        if sorted(o.order) != sorted(base):
            raise OdskError("linear orders are over different elements")
    elements = tuple(sorted(base))
    index = {e: i for i, e in enumerate(elements)}
    rows = [(1 << len(elements)) - 1] * len(elements)
    for o in orders:
        after = 0  # elements at or after the current one in o
        for name in reversed(o.order):
            after |= 1 << index[name]
            rows[index[name]] &= after
    return Poset(elements, tuple(rows))
