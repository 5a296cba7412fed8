"""Boolean and ordinal (chain) factorization of formal contexts.

A factor chain covers an incidence (g,m) when some chain concept has g
in its extent and m in its intent, so chains are Ferrers subrelations of
the incidence. "Largest" always means most newly covered incidences;
ties prefer shorter chains, then lectic order. Small contexts (at most
12 concepts, probed by ``concepts`` with that budget) are solved exactly
by a longest-path DP over the lattice (chain coverage adds up along
consecutive concepts); larger ones use a greedy best-first chain descent
through the lattice, adding one threshold attribute at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConceptBudgetExceeded, OdskError, WrongFactorCount
from .fca import (DEFAULT_CONCEPT_BUDGET, ConceptLattice, FormalConcept,
                  FormalContext, concepts)
from .order import _bits

EXACT_CONCEPT_LIMIT = 12

BooleanFactor = FormalConcept


@dataclass(frozen=True)
class OrdinalFactor:
    """Concept chain, listed by strictly increasing extent."""

    chain: tuple[FormalConcept, ...]

    def __len__(self) -> int:
        return len(self.chain)


@dataclass(frozen=True)
class Factorization:
    factors: tuple[OrdinalFactor, ...]
    covered: frozenset[tuple[str, str]]
    uncovered: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class BooleanGreedyResult:
    factors: tuple[FormalConcept, ...]
    covered: frozenset[tuple[str, str]]
    uncovered: frozenset[tuple[str, str]]


def boolean_greedy(ctx: FormalContext, k: int | None = None,
                   budget: int = DEFAULT_CONCEPT_BUDGET) -> BooleanGreedyResult:
    """Greedy Boolean factors: repeatedly take the concept covering the
    most uncovered incidences (lectic-first on ties) until everything is
    covered or k factors were chosen."""
    lat = concepts(ctx, budget=budget)
    unc = list(ctx.rows)
    chosen: list[int] = []
    while any(unc) and (k is None or len(chosen) < k):
        best = None
        for idx, (ext, itt) in enumerate(zip(lat.extent_masks, lat.intent_masks)):
            gain = sum((unc[g] & itt).bit_count() for g in _bits(ext))
            key = (-gain, idx)
            if best is None or key < best[0]:
                best = (key, idx, ext, itt)
        if best is None or -best[0][0] == 0:
            break
        _, idx, ext, itt = best
        chosen.append(idx)
        for g in _bits(ext):
            unc[g] &= ~itt
    uncovered = frozenset((ctx.objects[g], ctx.attributes[m])
                          for g, row in enumerate(unc) for m in _bits(row))
    return BooleanGreedyResult(
        tuple(lat.concepts[i] for i in chosen), ctx.incidences() - uncovered, uncovered)


def _chain_best_dp(lat: ConceptLattice, unc_cols: list[int]) -> tuple[int, ...]:
    """Exact best chain by a longest-path DP over the lattice.

    Chains are walked top-down, which is strictly increasing lectic
    index, so the concepts are visited in reverse lectic order. best[i]
    is the least key (-coverage below i, length, index tuple) over the
    chains starting at i. Keys compose by prefix, so the whole chain
    keeps the (cov desc, len asc, index tuple asc) tie-break.
    """
    n = len(lat)
    exts, itts = lat.extent_masks, lat.intent_masks

    def marginal(i: int, prev_intent: int) -> int:
        return sum((unc_cols[m] & exts[i]).bit_count()
                   for m in _bits(itts[i] & ~prev_intent))

    best: list = [None] * n
    for i in reversed(range(n)):
        best[i] = min([(0, 1, (i,))] + [
            (best[j][0] - marginal(j, itts[i]), best[j][1] + 1, (i,) + best[j][2])
            for j in range(i + 1, n) if exts[j] & ~exts[i] == 0])
    return min((cov - marginal(i, 0), length, chain)
               for i, (cov, length, chain) in enumerate(best))[2]


def _chain_best_descent(ctx: FormalContext, unc_cols: list[int]) -> list[tuple[int, int]]:
    """Greedy best-first chain descent for large lattices.

    Starting at the top concept, repeatedly tightens the extent by the
    attribute whose threshold covers the most uncovered incidences in
    its own column (ties: larger extent, then lectic-smaller extent).
    Returns (extent, intent) mask pairs, top-down.
    """
    full_g = (1 << len(ctx.objects)) - 1
    ext = full_g
    itt = ctx._intent_of(ext)
    chain = [(ext, itt)]
    while True:
        best = None
        for m in range(len(ctx.attributes)):
            if itt >> m & 1:
                continue
            ext2 = ext & ctx.cols[m]
            gain = (ext2 & unc_cols[m]).bit_count()
            if gain == 0:
                continue
            key = (-gain, -ext2.bit_count(), tuple(_bits(ext2)))
            if best is None or key < best[0]:
                best = (key, ext2)
        if best is None:
            break
        ext = best[1]
        itt = ctx._intent_of(ext)
        chain.append((ext, itt))
    return chain


def largest_ordinal_factor(ctx: FormalContext,
                           uncovered: frozenset[tuple[str, str]] | None = None
                           ) -> OrdinalFactor:
    """The concept chain covering the most of ``uncovered`` (defaults to
    the whole incidence relation); exact for small lattices, greedy
    descent otherwise. Degenerate empty-tile chain members are pruned."""
    incidences = ctx.incidences()
    if uncovered is None:
        uncovered = incidences
    elif not uncovered <= incidences:
        raise OdskError("uncovered pairs must be incidences of the context")
    obj_bit = {g: 1 << i for i, g in enumerate(ctx.objects)}
    att_index = {m: j for j, m in enumerate(ctx.attributes)}
    unc_cols = [0] * len(ctx.attributes)
    for g, m in uncovered:
        unc_cols[att_index[m]] |= obj_bit[g]

    try:
        lat = concepts(ctx, budget=EXACT_CONCEPT_LIMIT)
    except ConceptBudgetExceeded:
        masks = _chain_best_descent(ctx, unc_cols)
    else:
        idxs = _chain_best_dp(lat, unc_cols)
        masks = [(lat.extent_masks[i], lat.intent_masks[i]) for i in idxs]

    masks = [(e, b) for e, b in masks if e and b]  # prune empty tiles
    masks.sort(key=lambda p: p[0].bit_count())  # increasing extent
    objs, attrs = ctx.objects, ctx.attributes
    chain = tuple(
        FormalConcept(tuple(objs[i] for i in _bits(e)),
                      tuple(attrs[j] for j in _bits(b)))
        for e, b in masks)
    return OrdinalFactor(chain)


def factor_tiles(ctx: FormalContext, factor: OrdinalFactor) -> frozenset[tuple[str, str]]:
    """All incidence pairs covered by a factor's concept tiles."""
    return frozenset((g, m) for c in factor.chain for g in c.extent for m in c.intent)


def ordinal_factorization(ctx: FormalContext, k: int) -> Factorization:
    """k successive largest ordinal factors on a shrinking uncovered set."""
    if k < 1:
        raise OdskError("need k >= 1 factors")
    incidences = ctx.incidences()
    uncovered = incidences
    factors = []
    for _ in range(k):
        factor = largest_ordinal_factor(ctx, uncovered)
        factors.append(factor)
        uncovered = uncovered - factor_tiles(ctx, factor)
    covered = incidences - uncovered
    return Factorization(tuple(factors), covered, uncovered)


# -- biplot ---------------------------------------------------------------


@dataclass(frozen=True)
class BiplotAxis:
    """Coordinates along one factor: an object covers exactly the
    attributes with coordinate at most its own."""

    length: int
    object_coord: tuple[tuple[str, int], ...]
    attribute_coord: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Biplot:
    axes: tuple[BiplotAxis, BiplotAxis]

    def decode(self) -> frozenset[tuple[str, str]]:
        """Incidences reconstructable from the coordinates."""
        out = set()
        for axis in self.axes:
            attr = dict(axis.attribute_coord)
            for g, cg in axis.object_coord:
                for m, cm in attr.items():
                    if cg >= cm:
                        out.add((g, m))
        return frozenset(out)


def biplot(ctx: FormalContext, fz: Factorization) -> Biplot:
    """Coordinates for a two-factor factorization: object coordinate
    k+1-a(g) with a(g) the first chain level containing it, attribute
    coordinate k+1-t(m) with t(m) the last level still claiming it."""
    if len(fz.factors) != 2:
        raise WrongFactorCount(f"biplot needs exactly 2 factors, got {len(fz.factors)}")
    axes = []
    for factor in fz.factors:
        k = len(factor.chain)
        obj_coord = []
        for g in ctx.objects:
            a = next((i for i, c in enumerate(factor.chain, 1) if g in c.extent),
                     k + 1)
            obj_coord.append((g, k + 1 - a))
        att_coord = []
        for m in ctx.attributes:
            t = max((i for i, c in enumerate(factor.chain, 1) if m in c.intent),
                    default=0)
            att_coord.append((m, k + 1 - t))
        axes.append(BiplotAxis(k, tuple(obj_coord), tuple(att_coord)))
    return Biplot((axes[0], axes[1]))
