"""Dedekind-MacNeille completion and order dimension with realizers.

The completion is computed as the concept lattice of the context
(P, P, <=). Dimension search partitions the critical pairs into
reversible classes: a class is reversible iff the strict order plus the
reversed pairs stays acyclic, in which case a topological sort yields a
linear extension reversing exactly that class. One iterative first-fit
search with backtracking fills the classes in lexicographic
critical-pair order, so results are deterministic. With no cap on the
number of classes its first descent never backtracks (a fresh class
takes any critical pair), and the class count it reaches is the upper
bound. Capped at that count or more, first-fit retraces the descent, so
the descent's classes are the realizer there and are not searched
again. The search starts at a certified lower bound: 3 when the
conflict graph of the critical pairs (two pairs conflict when they form
an alternating 2-cycle, so no linear extension reverses both) has an
odd cycle, else 2. After the width (a width of 1 is a chain, with
no critical pairs), the critical pairs, the bounds and the search all
run under the deadline of `order_dimension`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceeded, OdskError
from .fca import ConceptLattice, FormalContext, concepts
from .order import LinearExtension, Poset, _bits, intersect_linear_orders

DEFAULT_BUDGET_MS = 60_000


# -- Dedekind-MacNeille completion ---------------------------------------


@dataclass(frozen=True, eq=False)
class Completion:
    """Concept lattice of (P,P,<=) with the canonical embedding
    x -> (down(x), up(x)); new_nodes lists concepts without preimage."""

    lattice: ConceptLattice
    embedding: tuple[tuple[str, int], ...]
    new_nodes: tuple[int, ...]

    def embedding_map(self) -> dict[str, int]:
        return dict(self.embedding)

    def __len__(self) -> int:
        return len(self.lattice)


def dedekind_macneille(p: Poset) -> Completion:
    ctx = FormalContext(p.elements, p.elements, p.up)
    lat = concepts(ctx)
    embedding = tuple(
        (name, lat.extent_index[p.down[i]]) for i, name in enumerate(p.elements))
    image = {idx for _, idx in embedding}
    new_nodes = tuple(i for i in range(len(lat)) if i not in image)
    return Completion(lat, embedding, new_nodes)


# -- critical pairs -------------------------------------------------------


class _Timeout(Exception):
    pass


def _check(deadline: float | None):
    if deadline is not None and time.monotonic() > deadline:
        raise _Timeout


def _critical_pair_indices(p: Poset,
                           deadline: float | None = None) -> list[tuple[int, int]]:
    """From the cover rows: b lies above every lower cover of a, and
    every upper cover of b lies above a. The deadline is checked once
    per a."""
    n = len(p)
    below_a = [(1 << n) - 1] * n  # meet of up(c) over a's lower covers c
    for c in range(n):
        for a in _bits(p.cover_rows[c]):
            below_a[a] &= p.up[c]
    out = []
    for a in range(n):
        _check(deadline)
        cand = below_a[a] & ~(p.up[a] | p.down[a])
        out.extend((a, b) for b in _bits(cand)
                   if p.cover_rows[b] & ~p.up[a] == 0)
    return out


def critical_pairs(p: Poset) -> tuple[tuple[str, str], ...]:
    """All incomparable (a,b) with every predecessor of a below b and
    every successor of b above a."""
    return tuple((p.elements[a], p.elements[b])
                 for a, b in _critical_pair_indices(p))


# -- dimension search ------------------------------------------------------


@dataclass(frozen=True)
class Realizer:
    extensions: tuple[LinearExtension, ...]

    def serialize(self) -> str:
        """One permutation per line, elements comma-separated."""
        return "\n".join(",".join(ext.order) for ext in self.extensions) + "\n"


@dataclass(frozen=True)
class DimensionResult:
    dim: int
    realizer: Realizer


def _closure_add(rows: list[int], n: int, u: int, v: int):
    """Add arc u->v to a transitively closed digraph.

    Returns an undo list, or None if the arc would close a cycle.
    """
    if rows[v] >> u & 1:
        return None
    if rows[u] >> v & 1:
        return []
    undo = []
    target = rows[v] | (1 << v)
    for x in range(n):
        if x == u or (rows[x] >> u & 1):
            merged = rows[x] | target
            if merged != rows[x]:
                undo.append((x, rows[x]))
                rows[x] = merged
    return undo


def _search_partition(p: Poset, crit: list[tuple[int, int]], k: int | None,
                      deadline: float | None):
    """First-fit backtracking partition of the critical pairs into at most
    k reversible classes (as many as first-fit opens when k is None);
    returns the class digraphs or None. Classes open lazily, so every
    open class holds a pair. The deadline is checked on the first node
    and on every 256th after it."""
    n = len(p)
    strict = [p.up[i] & ~(1 << i) for i in range(n)]
    cap = len(crit) if k is None else k
    classes: list[list[int]] = []
    trail = []  # (class, undo) of each placed pair, in crit order
    c = 0       # the first class to try for crit[len(trail)]
    nodes = 0
    while len(trail) < len(crit):
        if nodes % 256 == 0:
            _check(deadline)
        nodes += 1
        a, b = crit[len(trail)]
        while c < min(len(classes) + 1, cap):
            if c == len(classes):
                classes.append(strict[:])
            undo = _closure_add(classes[c], n, b, a)
            if undo is not None:
                trail.append((c, undo))
                c = 0
                break
            c += 1
        else:  # no class may take the pair: backtrack
            if not trail:
                return None
            c, undo = trail.pop()
            for x, old in undo:
                classes[c][x] = old
            if classes[-1] == strict:  # its opener was just taken out
                classes.pop()
            c += 1
    return classes


def _odd_conflict_cycle(p: Poset, crit: list[tuple[int, int]],
                        deadline: float | None = None) -> bool:
    """True iff the conflict graph of the critical pairs has an odd cycle.

    (a,b) and (c,d) conflict iff c <= b and a <= d: reversing both in one
    linear extension would close the cycle b < a <= d < c <= b. So every
    realizer properly colours this graph, and an odd cycle certifies
    dimension >= 3. Two-colours each component by BFS over bitsets. The
    deadline is checked once per pair, as the tables are built and as
    the search visits it.
    """
    # firsts_below[x] bit j iff crit[j][0] <= x; seconds_above[x] iff x <= crit[j][1]
    firsts_below = [0] * len(p)
    seconds_above = [0] * len(p)
    for j, (a, b) in enumerate(crit):
        _check(deadline)
        for x in _bits(p.up[a]):
            firsts_below[x] |= 1 << j
        for x in _bits(p.down[b]):
            seconds_above[x] |= 1 << j
    unseen = (1 << len(crit)) - 1
    while unseen:
        frontier = unseen & -unseen
        unseen ^= frontier
        sides = [frontier, 0]
        parity = 0
        while frontier:
            nbrs = 0
            for i in _bits(frontier):
                _check(deadline)
                a, b = crit[i]
                nbrs |= firsts_below[b] & seconds_above[a]
            if nbrs & sides[parity]:
                return True
            parity ^= 1
            frontier = nbrs & unseen
            sides[parity] |= frontier
            unseen &= ~frontier
    return False


def _bounds(p: Poset, width: int, deadline: float | None = None
            ) -> tuple[int, int, list[tuple[int, int]], list[list[int]]]:
    """(lower, upper, the critical pairs, the classes of the uncapped
    first-fit descent) of a poset of the given width >= 2. Out of time,
    raises BudgetExceeded with the bounds proven so far: 2 or the
    odd-cycle bound, and the width (Dilworth)."""
    lower = 2
    try:
        crit = _critical_pair_indices(p, deadline)
        if _odd_conflict_cycle(p, crit, deadline):
            lower = 3
        peel = _search_partition(p, crit, None, deadline)
    except _Timeout:
        raise BudgetExceeded("dimension bounds timed out",
                             lower=lower, upper=max(lower, width)) from None
    return lower, max(lower, min(width, len(peel))), crit, peel


def dimension_bounds(p: Poset) -> tuple[int, int]:
    """Certified (lower, upper) dimension bounds.

    Upper: min of the width and the number of reversible classes that
    first-fit opens with no cap on their number.
    Lower: 1 for chains, else 2, raised to 3 when the conflict graph of
    the critical pairs (pairs forming an alternating 2-cycle) has an odd
    cycle, so that no two linear extensions can reverse them all.
    """
    width, _ = p.width_height()
    if width <= 1:  # a chain has no critical pairs
        return (1, 1)
    return _bounds(p, width)[:2]


def order_dimension(p: Poset, max_k: int | None = None,
                    budget_ms: int | None = None) -> DimensionResult:
    """Exact order dimension with a verified realizer.

    Searches k = lower..max_k (default: up to the certified upper bound);
    raises BudgetExceeded carrying certified bounds when the time budget
    runs out or max_k is exhausted.
    """
    if max_k is not None and max_k < 1:
        raise OdskError("max_k must be >= 1")
    budget = DEFAULT_BUDGET_MS if budget_ms is None else budget_ms
    deadline = time.monotonic() + budget / 1000.0

    width, _ = p.width_height()
    if width <= 1:  # a chain has no critical pairs
        return DimensionResult(1, Realizer((p.greedy_linear_extension(),)))

    lower, upper, crit, peel = _bounds(p, width, deadline)
    k_cap = upper if max_k is None else max_k
    for k in range(lower, k_cap + 1):
        try:
            # capped at k >= len(peel), first-fit retraces the descent
            found = peel if k >= len(peel) \
                else _search_partition(p, crit, k, deadline)
        except _Timeout:
            raise BudgetExceeded(f"dimension search timed out at k={k}",
                                 lower=k, upper=upper) from None
        if found is not None:
            # each class digraph plus the diagonal is an order whose
            # greedy extension reverses exactly that class
            exts = tuple(
                Poset(p.elements, tuple(row | 1 << i for i, row in enumerate(rows)))
                .greedy_linear_extension() for rows in found)
            verify = intersect_linear_orders(exts)
            if sorted(verify.covers) != sorted(p.covers):  # pragma: no cover
                raise OdskError("realizer verification failed")
            return DimensionResult(k, Realizer(exts))
    raise BudgetExceeded(f"no realizer with at most {k_cap} extensions",
                         lower=max(lower, k_cap + 1), upper=upper)
