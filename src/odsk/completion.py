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
bound. The search starts at a certified lower bound: 3 when the
conflict graph of the critical pairs (two pairs conflict when they form
an alternating 2-cycle, so no linear extension reverses both) has an
odd cycle, else 2. The bound and the search both run under the
deadline of `order_dimension`.
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


def _critical_pair_indices(p: Poset) -> list[tuple[int, int]]:
    n = len(p)
    out = []
    for a in range(n):
        up_a = p.up[a] & ~(1 << a)
        dn_a = p.down[a] & ~(1 << a)
        for b in range(n):
            if a == b or (p.up[a] >> b & 1) or (p.up[b] >> a & 1):
                continue
            dn_b = p.down[b] & ~(1 << b)
            up_b = p.up[b] & ~(1 << b)
            if dn_a & ~dn_b == 0 and up_b & ~up_a == 0:
                out.append((a, b))
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


class _Timeout(Exception):
    pass


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
        if nodes % 256 == 0 and deadline is not None \
                and time.monotonic() > deadline:
            raise _Timeout
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


def _odd_conflict_cycle(p: Poset, crit: list[tuple[int, int]]) -> bool:
    """True iff the conflict graph of the critical pairs has an odd cycle.

    (a,b) and (c,d) conflict iff c <= b and a <= d: reversing both in one
    linear extension would close the cycle b < a <= d < c <= b. So every
    realizer properly colours this graph, and an odd cycle certifies
    dimension >= 3. Two-colours each component by BFS over bitsets.
    """
    firsts_below = [0] * len(p)   # bit j iff crit[j][0] <= x
    seconds_above = [0] * len(p)  # bit j iff x <= crit[j][1]
    for j, (c, d) in enumerate(crit):
        for x in _bits(p.up[c]):
            firsts_below[x] |= 1 << j
        for x in _bits(p.down[d]):
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
                a, b = crit[i]
                nbrs |= firsts_below[b] & seconds_above[a]
            if nbrs & sides[parity]:
                return True
            parity ^= 1
            frontier = nbrs & unseen
            sides[parity] |= frontier
            unseen &= ~frontier
    return False


def _bounds(p: Poset, crit: list[tuple[int, int]],
            deadline: float | None = None) -> tuple[int, int]:
    lower = 3 if _odd_conflict_cycle(p, crit) else 2
    width, _ = p.width_height()
    try:
        peel = _search_partition(p, crit, None, deadline)
    except _Timeout:
        raise BudgetExceeded("dimension upper bound timed out",
                             lower=lower, upper=max(lower, width)) from None
    return (lower, max(lower, min(width, len(peel))))


def dimension_bounds(p: Poset) -> tuple[int, int]:
    """Certified (lower, upper) dimension bounds.

    Upper: min of the width and the number of reversible classes that
    first-fit opens with no cap on their number.
    Lower: 1 for chains, else 2, raised to 3 when the conflict graph of
    the critical pairs (pairs forming an alternating 2-cycle) has an odd
    cycle, so that no two linear extensions can reverse them all.
    """
    crit = _critical_pair_indices(p)
    if not crit:
        return (1, 1)
    return _bounds(p, crit)


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

    if len(p) == 0:
        return DimensionResult(1, Realizer((LinearExtension(()),)))
    crit = _critical_pair_indices(p)
    if not crit:
        ext = p.greedy_linear_extension()
        return DimensionResult(1, Realizer((ext,)))

    lower, upper = _bounds(p, crit, deadline)
    k_cap = upper if max_k is None else max_k
    k = max(lower, 2)
    proven_lower = k
    while k <= k_cap:
        try:
            found = _search_partition(p, crit, k, deadline)
        except _Timeout:
            raise BudgetExceeded(
                f"dimension search timed out at k={k}",
                lower=proven_lower, upper=upper) from None
        if found is not None:
            # each class digraph plus the diagonal is an order whose
            # greedy extension reverses exactly that class
            exts = tuple(
                Poset(p.elements, tuple(row | 1 << i for i, row in enumerate(rows)))
                .greedy_linear_extension() for rows in found)
            realizer = Realizer(exts)
            verify = intersect_linear_orders(exts)
            if sorted(verify.covers) != sorted(p.covers):  # pragma: no cover
                raise OdskError("realizer verification failed")
            return DimensionResult(k, realizer)
        proven_lower = k + 1
        k += 1
    raise BudgetExceeded(
        f"no realizer with at most {k_cap} extensions",
        lower=proven_lower, upper=upper)
