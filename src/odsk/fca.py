"""Formal concept analysis: contexts, concept lattices, implications,
Guttman/Ferrers recognition, and the Burmeister CXT file format.

``concepts`` builds the closed sets of the smaller side as intersections
of its generators (Ganter & Wille 1999) and sorts them lectically by
intent. Pseudo-intents are not closed under intersection, so
``canonical_base`` lists them with NextClosure, ``_next_closure``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

from .errors import ConceptBudgetExceeded, OdskError, ParseError, UnknownAttribute
from .order import Poset, _bits, _check_elements, _transpose

DEFAULT_CONCEPT_BUDGET = 1_000_000


@dataclass(frozen=True)
class FormalContext:
    """Objects x attributes with a binary incidence, stored as bit rows."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]  # rows[g] bit m set iff object g has attribute m

    def __post_init__(self):
        _check_elements(self.objects)
        _check_elements(self.attributes)
        if len(self.rows) != len(self.objects):
            raise OdskError("row count does not match object count")
        full = (1 << len(self.attributes)) - 1
        for r in self.rows:
            if r & ~full:
                raise OdskError("incidence row wider than attribute count")

    @cached_property
    def cols(self) -> tuple[int, ...]:
        return tuple(_transpose(self.rows, len(self.attributes)))

    def has(self, obj: str, attr: str) -> bool:
        return bool(self.rows[self.objects.index(obj)]
                    >> self.attributes.index(attr) & 1)

    def incidences(self) -> frozenset[tuple[str, str]]:
        return frozenset((self.objects[g], self.attributes[m])
                         for g, r in enumerate(self.rows) for m in _bits(r))

    # -- derivation ----------------------------------------------------

    def _extent_of(self, intent_mask: int) -> int:
        ext = (1 << len(self.objects)) - 1
        for j in _bits(intent_mask):
            ext &= self.cols[j]
        return ext

    def _intent_of(self, extent_mask: int) -> int:
        itt = (1 << len(self.attributes)) - 1
        for i in _bits(extent_mask):
            itt &= self.rows[i]
        return itt

    def derive(self, side: str, subset: Iterable[str]) -> frozenset[str]:
        """Prime operator: common attributes of an object set, or dually.
        The empty subset derives to the full opposite side."""
        names = tuple(subset)
        if side == "objects":
            mask = 0
            for g in names:
                mask |= 1 << self.objects.index(g)
            return frozenset(self.attributes[j] for j in _bits(self._intent_of(mask)))
        if side == "attributes":
            mask = 0
            for m in names:
                mask |= 1 << self.attributes.index(m)
            return frozenset(self.objects[i] for i in _bits(self._extent_of(mask)))
        raise OdskError(f"side must be 'objects' or 'attributes', got {side!r}")


@dataclass(frozen=True)
class FormalConcept:
    """Maximal extent/intent pair; A' = B and B' = A."""

    extent: tuple[str, ...]
    intent: tuple[str, ...]


def _lectic_key(mask: int, width: int) -> int:
    """Sort key realizing lectic order: earlier attributes weigh more."""
    key = 0
    for j in _bits(mask):
        key |= 1 << (width - 1 - j)
    return key


def _next_closure(width: int, close: Callable[[int], int], budget: int):
    """Yield every ``close``-closed subset of ``range(width)`` as a
    bitmask, in lectic order (Ganter's NextClosure); bit 0 weighs most.

    The successor of A is close(A below j, plus j) for the largest j
    whose closure agrees with A below j. ``close`` is called afresh for
    each candidate, so it may grow between yields, as the canonical
    base's implication closure does. Raises ConceptBudgetExceeded once
    more than ``budget`` closed sets exist.
    """
    A = close(0)
    for _ in range(budget):
        yield A
        for j in reversed(range(width)):
            bit = 1 << j
            if A & bit:
                A ^= bit
            else:
                B = close(A | bit)
                if B & (bit - 1) == A & (bit - 1):
                    A = B
                    break
        else:
            return
    raise ConceptBudgetExceeded(f"more than {budget} closed sets")


@dataclass(frozen=True, eq=False)
class ConceptLattice:
    """All concepts of a context in lectic order of intents, with the
    containment order on extents."""

    context: FormalContext
    extent_masks: tuple[int, ...]
    intent_masks: tuple[int, ...]

    @cached_property
    def concepts(self) -> tuple[FormalConcept, ...]:
        objs, attrs = self.context.objects, self.context.attributes
        return tuple(
            FormalConcept(tuple(objs[i] for i in _bits(e)),
                          tuple(attrs[j] for j in _bits(b)))
            for e, b in zip(self.extent_masks, self.intent_masks))

    def __len__(self) -> int:
        return len(self.extent_masks)

    def leq(self, i: int, j: int) -> bool:
        """Concept i is a subconcept of j (extent containment)."""
        return self.extent_masks[i] | self.extent_masks[j] == self.extent_masks[j]

    @cached_property
    def extent_index(self) -> dict[int, int]:
        """Concept index of each extent mask."""
        return {e: i for i, e in enumerate(self.extent_masks)}

    # Extents and intents are each closed under intersection, so the
    # meet's extent and the join's intent need no further closure.
    def meet(self, i: int, j: int) -> int:
        return self.extent_index[self.extent_masks[i] & self.extent_masks[j]]

    def join(self, i: int, j: int) -> int:
        itt = self.intent_masks[i] & self.intent_masks[j]
        return self.extent_index[self.context._extent_of(itt)]

    def top(self) -> int:
        return self.extent_index[(1 << len(self.context.objects)) - 1]

    def is_chain(self) -> bool:
        exts = sorted(self.extent_masks, key=int.bit_count)
        return all(a & ~b == 0 for a, b in zip(exts, exts[1:]))

    def to_poset(self) -> Poset:
        """Containment order as a Poset on c0..cN, in lectic order."""
        n = len(self)
        # holders[g]: the concepts whose extent holds object g
        holders = _transpose(self.extent_masks, len(self.context.objects))
        rows = []
        for e in self.extent_masks:
            row = (1 << n) - 1
            for g in _bits(e):
                row &= holders[g]
            rows.append(row)
        return Poset(tuple(f"c{i}" for i in range(n)), tuple(rows))


def concepts(ctx: FormalContext, budget: int = DEFAULT_CONCEPT_BUDGET) -> ConceptLattice:
    """Enumerate all formal concepts, emitted in lectic order of intents.
    Extents are the object set and all intersections of columns, intents
    likewise of rows: one pass over the smaller side builds them. Raises
    ConceptBudgetExceeded once more than ``budget`` closed sets exist."""
    m, n = len(ctx.attributes), len(ctx.objects)
    gens, full = (ctx.cols, (1 << n) - 1) if m <= n else (ctx.rows, (1 << m) - 1)
    closed = {full}
    # widest first: a generator that is the meet of wider ones is then
    # already in ``closed``, which is closed under intersection
    for x in sorted(gens, key=int.bit_count, reverse=True):
        if x in closed:
            continue
        closed |= {c & x for c in closed}
        if len(closed) > budget:
            break
    if len(closed) > budget:
        raise ConceptBudgetExceeded(f"more than {budget} closed sets")
    pairs = ([(ctx._intent_of(e), e) for e in closed] if m <= n
             else [(b, ctx._extent_of(b)) for b in closed])
    pairs.sort(key=lambda p: _lectic_key(p[0], m))
    return ConceptLattice(ctx, tuple(e for _, e in pairs), tuple(b for b, _ in pairs))


# -- implications ------------------------------------------------------


@dataclass(frozen=True)
class Implication:
    """Attribute implication; the stored conclusion excludes the premise."""

    premise: frozenset[str]
    conclusion: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "conclusion", self.conclusion - self.premise)

    def __str__(self) -> str:
        lhs = ", ".join(sorted(self.premise)) or "{}"
        rhs = ", ".join(sorted(self.conclusion)) or "{}"
        return f"{lhs} -> {rhs}"


def holds(ctx: FormalContext, imp: Implication) -> bool:
    """True iff every object with all premise attributes has all
    conclusion attributes."""
    for name in sorted(imp.premise | imp.conclusion):
        if name not in ctx.attributes:
            raise UnknownAttribute(name)
    have = ctx.derive("attributes", imp.premise)
    need = imp.conclusion
    return all(need <= ctx.derive("objects", [g]) for g in have)


def _close_under(base: Sequence[tuple[int, int]], mask: int) -> int:
    """Close a bitmask under implications given as (premise, conclusion)
    mask pairs: apply every implication whose premise holds until none
    adds a bit."""
    changed = True
    while changed:
        changed = False
        for prem, concl in base:
            if prem & ~mask == 0 and concl & ~mask:
                mask |= concl
                changed = True
    return mask


def implication_closure(attrs: Iterable[str],
                        base: Sequence[Implication]) -> frozenset[str]:
    """Close an attribute set under a set of implications (Armstrong)."""
    attrs = frozenset(attrs)
    names = list(attrs.union(*(imp.premise | imp.conclusion for imp in base)))
    bit = {name: 1 << k for k, name in enumerate(names)}

    def mask(group: frozenset[str]) -> int:
        return sum(bit[name] for name in group)

    closed = _close_under([(mask(imp.premise), mask(imp.conclusion)) for imp in base],
                          mask(attrs))
    return frozenset(names[k] for k in _bits(closed))


def entails(base: Sequence[Implication], imp: Implication) -> bool:
    return imp.conclusion <= implication_closure(imp.premise, base)


def canonical_base(ctx: FormalContext,
                   budget: int = DEFAULT_CONCEPT_BUDGET) -> tuple[Implication, ...]:
    """Duquenne-Guigues stem base via NextClosure over pseudo-intents.

    Enumerates, in lectic order, the sets closed under the implications
    found so far; every such set that is not context-closed is a
    pseudo-intent and contributes one implication. ``budget`` bounds the
    closed sets, intents plus pseudo-intents.
    """
    base_masks: list[tuple[int, int]] = []  # (premise mask, closure mask)
    for A in _next_closure(len(ctx.attributes), partial(_close_under, base_masks), budget):
        closed = ctx._intent_of(ctx._extent_of(A))
        if closed != A:
            base_masks.append((A, closed))
    attrs = ctx.attributes
    return tuple(
        Implication(frozenset(attrs[j] for j in _bits(prem)),
                    frozenset(attrs[j] for j in _bits(concl & ~prem)))
        for prem, concl in base_masks)


# -- Guttman / Ferrers -------------------------------------------------


@dataclass(frozen=True)
class GuttmanWitness:
    """Integer ranks with (g,m) incident iff s(g) <= e(m)."""

    s: tuple[tuple[str, int], ...]
    e: tuple[tuple[str, int], ...]

    def s_map(self) -> dict[str, int]:
        return dict(self.s)

    def e_map(self) -> dict[str, int]:
        return dict(self.e)


@dataclass(frozen=True)
class GuttmanResult:
    is_guttman: bool
    witness: GuttmanWitness | None

    def __bool__(self) -> bool:
        return self.is_guttman


def is_guttman(ctx: FormalContext) -> GuttmanResult:
    """Ferrers test: rows must form a chain under inclusion. The witness
    ranks rows by that chain, largest row first."""
    order = sorted(range(len(ctx.objects)),
                   key=lambda i: (-ctx.rows[i].bit_count(), i))
    distinct: list[int] = []
    for i in order:
        prev = distinct[-1] if distinct else None
        if prev is not None and ctx.rows[i] == prev:
            continue
        if prev is not None and ctx.rows[i] & ~prev:
            return GuttmanResult(False, None)
        distinct.append(ctx.rows[i])
    rank_of_row = {row: r + 1 for r, row in enumerate(distinct)}
    s = tuple((g, rank_of_row[ctx.rows[i]]) for i, g in enumerate(ctx.objects))
    e = []
    for j, m in enumerate(ctx.attributes):
        ranks = [rank_of_row[row] for row in distinct if row >> j & 1]
        e.append((m, max(ranks, default=0)))
    return GuttmanResult(True, GuttmanWitness(s, tuple(e)))


# -- clarification -----------------------------------------------------


@dataclass(frozen=True)
class ClarifyResult:
    context: FormalContext
    object_groups: tuple[tuple[str, ...], ...]
    attribute_groups: tuple[tuple[str, ...], ...]


def _group_equal(masks: Iterable[int], names: Sequence[str]
                 ) -> tuple[tuple[int, ...], tuple[tuple[str, ...], ...]]:
    """The distinct masks in first-seen order, and the names sharing each."""
    groups: dict[int, list[str]] = {}
    for mask, name in zip(masks, names):
        groups.setdefault(mask, []).append(name)
    return tuple(groups), tuple(map(tuple, groups.values()))


def clarify(ctx: FormalContext) -> ClarifyResult:
    """Merge identical rows, then identical columns; merged names are
    joined with '+' in original order."""
    rows, obj_groups = _group_equal(ctx.rows, ctx.objects)
    cols, att_groups = _group_equal(_transpose(rows, len(ctx.attributes)), ctx.attributes)
    merged = FormalContext(tuple(map("+".join, obj_groups)), tuple(map("+".join, att_groups)),
                           tuple(_transpose(cols, len(rows))))
    return ClarifyResult(merged, obj_groups, att_groups)


# -- Burmeister CXT format ---------------------------------------------


def write_cxt(ctx: FormalContext) -> str:
    """Serialize in the Burmeister format, bit-exact."""
    lines = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    lines += list(ctx.objects)
    lines += list(ctx.attributes)
    for r in ctx.rows:
        lines.append("".join("X" if r >> j & 1 else "."
                             for j in range(len(ctx.attributes))))
    return "\n".join(lines) + "\n"


def read_cxt(text: str) -> FormalContext:
    lines = [ln.rstrip("\r") for ln in text.split("\n")]
    if not lines or lines[0] != "B":
        raise ParseError("CXT must start with a 'B' line")
    try:
        n_obj = int(lines[2])
        n_att = int(lines[3])
    except (IndexError, ValueError) as exc:
        raise ParseError("CXT header: expected object/attribute counts") from exc
    if n_obj < 0 or n_att < 0:
        raise ParseError("CXT header: negative object/attribute count")
    if lines[1] != "" or lines[4] != "":
        raise ParseError("CXT header: lines 2 and 5 must be empty")
    need = 5 + n_obj + n_att + n_obj
    if len(lines) < need:
        raise ParseError("CXT truncated")
    objects = tuple(lines[5:5 + n_obj])
    attributes = tuple(lines[5 + n_obj:5 + n_obj + n_att])
    rows = []
    for k in range(n_obj):
        row = lines[5 + n_obj + n_att + k]
        if len(row) != n_att or any(c not in "X." for c in row):
            raise ParseError(f"CXT incidence row {k + 1} malformed: {row!r}")
        rows.append(sum(1 << j for j, c in enumerate(row) if c == "X"))
    return FormalContext(objects, attributes, tuple(rows))
