import random
import time
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import assume, given, strategies as st

import odsk.completion as completion
from odsk import (BudgetExceeded, LinearExtension, Poset, concepts,
                  critical_pairs, dedekind_macneille, dimension_bounds,
                  intersect_linear_orders, order_dimension)
from odsk.fixtures import airlines, bundesliga_domination, rembrandt, socialnet
from odsk.order import _bits

from conftest import (boolean_cube, brute_cut_count, fence, random_poset,
                      shuffled_posets, standard_example)


def same_order(a: Poset, b: Poset) -> bool:
    if sorted(a.elements) != sorted(b.elements):
        return False
    return all(a.leq(x, y) == b.leq(x, y) for x in a.elements for y in a.elements)


def all_extensions(p: Poset) -> list[LinearExtension]:
    return [LinearExtension(perm) for perm in permutations(p.elements)
            if p.is_linear_extension(perm)]


# -- Dedekind-MacNeille ----------------------------------------------------


def test_completion_two_antichain():
    comp = dedekind_macneille(Poset.antichain("ab"))
    assert len(comp) == 4
    assert len(comp.new_nodes) == 2  # added top and bottom


def test_completion_chain_fixed_point():
    chain = Poset.chain("abcd")
    comp = dedekind_macneille(chain)
    assert len(comp) == 4
    assert comp.new_nodes == ()
    lattice_poset = comp.lattice.to_poset()
    assert lattice_poset.width_height() == (1, 4)


def test_completion_family_example():
    # two parents above two children: one new node in between, plus top
    # and bottom; seven cuts in total
    p = Poset.from_pairs(
        ["c1", "c2", "p1", "p2"],
        [("c1", "p1"), ("c1", "p2"), ("c2", "p1"), ("c2", "p2")])
    comp = dedekind_macneille(p)
    assert len(comp) == brute_cut_count(p) == 7
    assert len(comp.new_nodes) == 3
    extents = [frozenset(comp.lattice.concepts[i].extent) for i in comp.new_nodes]
    assert frozenset({"c1", "c2"}) in extents  # the family node


def _is_lattice(comp) -> bool:
    lat = comp.lattice
    exts = lat.extent_masks
    for i in range(len(lat)):
        for j in range(len(lat)):
            lowers = [k for k in range(len(lat))
                      if exts[k] | exts[i] == exts[i] and exts[k] | exts[j] == exts[j]]
            best = max(lowers, key=lambda k: bin(exts[k]).count("1"))
            if not all(exts[k] | exts[best] == exts[best] for k in lowers):
                return False
            uppers = [k for k in range(len(lat))
                      if exts[i] | exts[k] == exts[k] and exts[j] | exts[k] == exts[k]]
            top = min(uppers, key=lambda k: bin(exts[k]).count("1"))
            if not all(exts[top] | exts[k] == exts[k] for k in uppers):
                return False
    return True


def test_completion_properties_random(rng):
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 7))
        comp = dedekind_macneille(p)
        assert len(comp) == brute_cut_count(p)
        assert _is_lattice(comp)
        emb = comp.embedding_map()
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == comp.lattice.leq(emb[x], emb[y])


# -- critical pairs -----------------------------------------------------------


def test_critical_pairs_chain_empty():
    assert critical_pairs(Poset.chain("abc")) == ()


def test_critical_pairs_two_antichain_both():
    assert set(critical_pairs(Poset.antichain("ab"))) == {("a", "b"), ("b", "a")}


def test_critical_pairs_standard_example():
    s3 = standard_example(3)
    assert set(critical_pairs(s3)) == {("a0", "b0"), ("a1", "b1"), ("a2", "b2")}


def test_critical_pairs_brute_force(rng):
    for _ in range(20):
        p = random_poset(rng, rng.randint(2, 7))
        brute = set()
        for a in p.elements:
            for b in p.elements:
                if a == b or p.leq(a, b) or p.leq(b, a):
                    continue
                preds_ok = all(p.leq(x, b) for x in p.elements
                               if x != a and p.leq(x, a))
                succs_ok = all(p.leq(a, y) for y in p.elements
                               if y != b and p.leq(b, y))
                if preds_ok and succs_ok:
                    brute.add((a, b))
        assert set(critical_pairs(p)) == brute


# -- order dimension -----------------------------------------------------------


def test_dimension_chain():
    res = order_dimension(Poset.chain("abcde"))
    assert res.dim == 1
    assert res.realizer.extensions[0].order == ("a", "b", "c", "d", "e")


@pytest.mark.parametrize("n", [0, 1, 5])
def test_chain_dimension_is_one_with_the_greedy_extension(n):
    p = Poset.chain([f"c{n - i}" for i in range(n)])  # names against the order
    assert dimension_bounds(p) == (1, 1)
    res = order_dimension(p)
    assert res.dim == 1
    assert res.realizer.extensions == (p.greedy_linear_extension(),)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dimension_antichain(n):
    p = Poset.antichain([f"x{i}" for i in range(n)])
    res = order_dimension(p)
    assert res.dim == 2
    assert same_order(intersect_linear_orders(res.realizer.extensions), p)


def test_dimension_boolean_cube():
    p = boolean_cube(3)
    res = order_dimension(p)
    assert res.dim == 3
    assert same_order(intersect_linear_orders(res.realizer.extensions), p)


def test_dimension_standard_example():
    p = standard_example(3)
    res = order_dimension(p)
    assert res.dim == 3
    assert same_order(intersect_linear_orders(res.realizer.extensions), p)


def test_no_smaller_realizer_exhaustive():
    # exhaustive permutation-tuple oracle at tiny scale
    for p, dim in ((Poset.antichain("abcd"), 2), (standard_example(3), 3)):
        exts = all_extensions(p)
        for combo in combinations_with_replacement(exts, dim - 1):
            assert not same_order(intersect_linear_orders(list(combo)), p)


def test_dimension_matches_tuple_oracle(rng):
    for _ in range(10):
        p = random_poset(rng, rng.randint(2, 6), p=0.35)
        res = order_dimension(p)
        assert same_order(intersect_linear_orders(res.realizer.extensions), p)
        if res.dim > 1:
            exts = all_extensions(p)
            found_smaller = False
            for combo in combinations_with_replacement(exts, res.dim - 1):
                if same_order(intersect_linear_orders(list(combo)), p):
                    found_smaller = True
                    break
            assert not found_smaller


def test_dimension_bounds_examples():
    assert dimension_bounds(Poset.chain("abc")) == (1, 1)
    assert dimension_bounds(Poset.antichain("abcd")) == (2, 2)
    lo, hi = dimension_bounds(boolean_cube(3))
    assert lo >= 2 and hi <= 3


def test_dimension_bounds_bracket_dimension(rng):
    for _ in range(15):
        p = random_poset(rng, rng.randint(1, 7))
        lo, hi = dimension_bounds(p)
        res = order_dimension(p)
        assert lo <= res.dim <= hi


def test_dimension_max_k_exhausted_reports_bounds():
    p = standard_example(3)
    with pytest.raises(BudgetExceeded) as exc:
        order_dimension(p, max_k=2)
    assert exc.value.lower == 3
    assert exc.value.upper >= 3


def test_dimension_time_budget():
    p = standard_example(3)
    with pytest.raises(BudgetExceeded) as exc:
        order_dimension(p, budget_ms=0)
    assert exc.value.lower >= 2 and exc.value.upper is not None


def test_realizer_serialization():
    res = order_dimension(Poset.antichain("ab"))
    text = res.realizer.serialize()
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert {tuple(line.split(",")) for line in lines} == {("a", "b"), ("b", "a")}


# -- the odd-cycle lower bound ---------------------------------------------


def _old_s3_scan(p: Poset, cap: int = 100_000) -> bool:
    """The earlier certificate: a capped scan for a standard-example S_3
    suborder (a_i < b_j iff i != j)."""
    n = len(p)
    inc = [sum(1 << j for j in range(n) if i != j and not p.up[i] >> j & 1
               and not p.up[j] >> i & 1) for i in range(n)]
    antichain3 = [t for t in combinations(range(n), 3)
                  if inc[t[0]] >> t[1] & 1 and inc[t[0]] >> t[2] & 1
                  and inc[t[1]] >> t[2] & 1]
    strict = [p.up[i] & ~(1 << i) for i in range(n)]
    candidates = 0
    for A in antichain3:
        for B in antichain3:
            if set(A) & set(B):
                continue
            for sigma in permutations(B):
                candidates += 1
                if candidates > cap:
                    return False
                if all(bool(strict[a] >> b & 1) == (i != j)
                       and not strict[b] >> a & 1
                       for i, a in enumerate(A) for j, b in enumerate(sigma)):
                    return True
    return False


def test_odd_cycle_bound_dominates_s3_scan(rng):
    higher = 0
    for _ in range(150):
        p = random_poset(rng, rng.randint(2, 10), p=rng.choice([0.2, 0.35, 0.5]))
        lo, hi = dimension_bounds(p)
        old_lo = 3 if _old_s3_scan(p) else 2 if p.incomparable_pairs() else 1
        assert lo >= old_lo
        assert lo <= order_dimension(p).dim <= hi
        higher += lo > old_lo
    assert higher > 0


def test_s3_beyond_the_scan_cap_still_bounds():
    s3 = standard_example(3)
    pairs = [(a, b) for a in s3.elements for b in s3.elements
             if a != b and s3.leq(a, b)]
    p = Poset.from_pairs([f"x{i:02}" for i in range(20)] + list(s3.elements),
                         pairs)
    assert _old_s3_scan(s3)
    assert not _old_s3_scan(p)  # 20 isolated elements push S_3 past the cap
    assert dimension_bounds(p)[0] == 3
    assert order_dimension(p).dim == 3


def test_odd_cycle_refutes_k2_without_search(monkeypatch):
    calls = []
    search = completion._search_partition

    def counted(*args):
        calls.append(args[2])
        return search(*args)

    monkeypatch.setattr(completion, "_search_partition", counted)
    p = random_poset(random.Random(0), 40, p=0.06)
    with pytest.raises(BudgetExceeded) as exc:
        order_dimension(p, max_k=2)
    assert exc.value.lower == 3
    assert calls == [None]  # the upper-bound peel only
    order_dimension(standard_example(4))
    # the counter does see a search: k=3 is refuted, k=4 reuses the descent
    assert calls == [None, None, 3]


def test_tight_bound_reuses_the_descent(monkeypatch):
    calls = []
    search = completion._search_partition

    def counted(*args):
        calls.append(args[2])
        return search(*args)

    monkeypatch.setattr(completion, "_search_partition", counted)
    for p, dim in ((standard_example(2), 2), (standard_example(3), 3),
                   (boolean_cube(3), 3), (fence(40), 2)):
        calls.clear()
        res = order_dimension(p)
        assert res.dim == dim
        assert same_order(intersect_linear_orders(res.realizer.extensions), p)
        # dimension 2: the colour classes; else the descent only
        assert calls == ([] if dim == 2 else [None])


# -- one first-fit search for the bound and the realizer ---------------------


def _old_greedy_peel_count(p: Poset) -> int:
    """The earlier upper-bound routine: peel reversible classes off the
    critical pairs in lexicographic order and count them."""
    n = len(p)
    strict = [p.up[i] & ~(1 << i) for i in range(n)]
    remaining = completion._critical_pair_indices(p)
    count = 0
    while remaining:
        rows = strict[:]
        remaining = [(a, b) for a, b in remaining
                     if completion._closure_add(rows, n, b, a) is None]
        count += 1
    return count


def _old_critical_pairs(p: Poset) -> list[tuple[int, int]]:
    """The earlier pairwise scan over all (a, b)."""
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


def test_critical_pairs_from_covers_match_pairwise_scan(rng):
    posets = [random_poset(rng, rng.randint(0, 14),
                           p=rng.choice([0.1, 0.2, 0.35, 0.5]))
              for _ in range(300)]
    posets += [concepts(ctx).to_poset()
               for ctx in (rembrandt(), airlines(), socialnet())]
    posets += [bundesliga_domination(), standard_example(4), boolean_cube(4),
               fence(7), Poset.antichain("abcde"), Poset.chain("abc")]
    for p in posets:
        assert completion._critical_pair_indices(p) == _old_critical_pairs(p)


def test_dimension_bounds_match_old_peel(rng):
    for _ in range(300):
        p = random_poset(rng, rng.randint(1, 12),
                         p=rng.choice([0.1, 0.2, 0.35, 0.5]))
        lo, hi = dimension_bounds(p)
        if not completion._critical_pair_indices(p):
            assert (lo, hi) == (1, 1)
            continue
        width, _ = p.width_height()
        old_hi = max(lo, min(width, _old_greedy_peel_count(p)))
        if completion._two_colour(p, completion._critical_pair_indices(p)):
            assert hi == 2 <= old_hi  # the colour classes are reversible
        else:
            assert hi == old_hi


def test_fence_beyond_the_recursion_limit():
    # 1,523 critical pairs, one search level each
    p = fence(40)
    assert len(completion._critical_pair_indices(p)) == 1523
    res = order_dimension(p)
    assert res.dim == 2
    assert same_order(intersect_linear_orders(res.realizer.extensions), p)


def test_bound_peel_runs_under_the_deadline(monkeypatch):
    calls = []
    add = completion._closure_add

    def counted(*args):
        calls.append(args[2:])
        return add(*args)

    monkeypatch.setattr(completion, "_closure_add", counted)
    with pytest.raises(BudgetExceeded) as exc:
        order_dimension(fence(200), budget_ms=0)
    assert (exc.value.lower, exc.value.upper) == (2, 200)  # upper: the width
    assert calls == []


def test_bounds_run_under_the_deadline():
    # 159,203 critical pairs: the unbudgeted odd-cycle test took 3.7 s here
    p = fence(400)
    start = time.monotonic()
    with pytest.raises(BudgetExceeded) as exc:
        order_dimension(p, budget_ms=1000)
    assert time.monotonic() - start < 2.0
    assert (exc.value.lower, exc.value.upper) == (2, 400)  # upper: the width
    crit = completion._critical_pair_indices(p)
    for step in (lambda deadline: completion._critical_pair_indices(p, deadline),
                 lambda deadline: completion._two_colour(p, crit, deadline)):
        with pytest.raises(completion._Timeout):
            step(time.monotonic())


def test_search_timeout_reports_the_k_it_reached(monkeypatch):
    search = completion._search_partition

    def capped_times_out(p, crit, k, deadline):
        if k is not None:  # the uncapped descent still runs
            raise completion._Timeout
        return search(p, crit, k, deadline)

    monkeypatch.setattr(completion, "_search_partition", capped_times_out)
    with pytest.raises(BudgetExceeded) as exc:
        order_dimension(standard_example(4))
    assert str(exc.value) == "dimension search timed out at k=3"
    assert (exc.value.lower, exc.value.upper) == (3, 4)


# -- the conflict-graph colouring against the odd-cycle test and k = 2 -----


def _old_odd_conflict_cycle(p: Poset, crit: list[tuple[int, int]]) -> bool:
    """The earlier lower-bound test: BFS over the conflict graph, True iff
    it has an odd cycle."""
    firsts_below = [0] * len(p)
    seconds_above = [0] * len(p)
    for j, (a, b) in enumerate(crit):
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
                a, b = crit[i]
                nbrs |= firsts_below[b] & seconds_above[a]
            if nbrs & sides[parity]:
                return True
            parity ^= 1
            frontier = nbrs & unseen
            sides[parity] |= frontier
            unseen &= ~frontier
    return False


def _extensions(p: Poset, classes: list[list[int]]) -> tuple[LinearExtension, ...]:
    return tuple(
        Poset(p.elements, tuple(row | 1 << i for i, row in enumerate(rows)))
        .greedy_linear_extension() for rows in classes)


@given(shuffled_posets())
def test_two_colour_matches_odd_cycle_and_k2_search(p):
    crit = completion._critical_pair_indices(p)
    assume(crit)
    classes = completion._two_colour(p, crit)
    assert (classes is None) == _old_odd_conflict_cycle(p, crit)
    k2 = completion._search_partition(p, crit, 2, None)
    if classes:  # reversible colour classes are what first-fit finds
        assert classes == k2
    try:
        res = order_dimension(p, max_k=2)
    except BudgetExceeded as exc:
        assert k2 is None and exc.lower == 3
    else:
        assert res.dim == 2 and k2 is not None
        assert res.realizer.extensions == _extensions(p, k2)


def test_k2_search_that_timed_out_is_coloured():
    # bipartite conflict graph; the k = 2 search ran out a 1 s budget here
    elements = [f"e{i}" for i in range(13)]
    p = Poset.from_pairs(elements, [("e0", "e7"), ("e1", "e7"), ("e1", "e11"),
                                    ("e5", "e7"), ("e6", "e7"), ("e7", "e8")])
    res = order_dimension(p, max_k=2, budget_ms=1000)
    assert res.dim == 2
    assert same_order(intersect_linear_orders(res.realizer.extensions), p)
