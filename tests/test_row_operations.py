"""Derived relations built from bit-row ANDs, ORs and transposes, checked
against test-local copies of the pairwise element loops they replace."""

import random

import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from odsk import (AntisymmetryViolation, LinearExtension, OrdinalStructure, Poset,
                  QuasiOrder, Relation, close_quasiorder, close_relation, concepts,
                  intersect_linear_orders, pareto_maxima, product_order,
                  product_quasiorder)
from odsk.fixtures import bundesliga_domination, rembrandt, socialnet
from odsk.order import _bits, _check_preorder, _close, _transpose

from conftest import brute_max_antichain, fence, random_context, random_poset

CASES = 300


def pairwise_strong_components(rows, n):
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        comp = [i]
        seen[i] = True
        for j in range(i + 1, n):
            if not seen[j] and (rows[i] >> j & 1) and (rows[j] >> i & 1):
                comp.append(j)
                seen[j] = True
        comps.append(comp)
    return comps


def warshall_rows(rows):
    """Warshall's closure of the relation plus the diagonal."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    for k in range(len(rows)):
        for i in range(len(rows)):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def row_and_column_components(rows, n):
    """Classes of a closed relation as row & column masks, by least member."""
    cols = _transpose(rows, n)
    seen, comps = 0, []
    for i in range(n):
        if not seen >> i & 1:
            seen |= rows[i] & cols[i]
            comps.append(list(_bits(rows[i] & cols[i])))
    return comps


def pairwise_incomparable_pairs(p):
    return tuple((p.elements[i], p.elements[j])
                 for i in range(len(p)) for j in range(i + 1, len(p))
                 if not (p.up[i] >> j & 1) and not (p.up[j] >> i & 1))


def pairwise_to_poset_rows(lat):
    return tuple(sum(1 << j for j in range(len(lat)) if lat.leq(i, j))
                 for i in range(len(lat)))


def pairwise_intersection_rows(orders):
    elements = sorted(orders[0].order)
    positions = [o.position for o in orders]
    return tuple(sum(1 << j for j, b in enumerate(elements)
                     if all(pos[a] <= pos[b] for pos in positions))
                 for a in elements)


def pairwise_strict_product_rows(s):
    n = len(s.elements)
    return tuple(
        1 << i | sum(1 << j for j in range(n) if j != i and all(
            (qo.rel[i] >> j & 1) and not (qo.rel[j] >> i & 1) for _, qo in s.orders))
        for i in range(n))


def pairwise_pareto_maxima(s):
    rel = product_quasiorder(s).rel
    n = len(s.elements)
    return frozenset(
        s.elements[i] for i in range(n)
        if not any((rel[i] >> j & 1) and not (rel[j] >> i & 1)
                   for j in range(n) if j != i))


def backward_downset_memo(p):
    """Extension counts by peeling maximal elements off each down-set."""
    memo = {0: 1}
    stack = [(1 << len(p)) - 1]
    while stack:
        dset = stack[-1]
        if dset in memo:
            stack.pop()
            continue
        subs = [dset & ~(1 << i) for i in _bits(dset) if p.up[i] & dset == 1 << i]
        missing = [s for s in subs if s not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[dset] = sum(memo[s] for s in subs)
            stack.pop()
    return memo


def random_structure(rng):
    n = rng.randint(1, 12)
    elems = [f"x{i}" for i in range(n)]
    orders = tuple(
        (f"c{k}", QuasiOrder.from_values(elems, [rng.randint(0, 4) for _ in elems],
                                         descending=rng.random() < 0.5))
        for k in range(rng.randint(1, 4)))
    return OrdinalStructure(tuple(elems), orders)


def fixture_posets():
    return [concepts(rembrandt()).to_poset(), concepts(socialnet()).to_poset(),
            bundesliga_domination()]


def test_strong_components_match_pairwise_scan():
    rng = random.Random(41)
    for _ in range(CASES):
        n = rng.randint(0, 12)
        names = [f"e{i}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names if rng.random() < 0.12]
        rows = list(close_quasiorder(Relation.from_named_pairs(names, pairs)).rel)
        assert _close(rows)[1] == pairwise_strong_components(rows, n)


@st.composite
def relations(draw):
    """Random relations on up to 12 elements, acyclic or not."""
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # acyclic: arcs only to larger indices
        rows = [row >> i + 1 << i + 1 for i, row in enumerate(rows)]
    pairs = frozenset((i, j) for i, row in enumerate(rows) for j in _bits(row))
    return Relation(tuple(f"e{i}" for i in range(n)), pairs)


@given(relations())
def test_close_matches_warshall_and_component_scan(rel):
    n = len(rel.elements)
    rows = warshall_rows(rel.rows())
    comps = row_and_column_components(rows, n)
    assert _close(rel.rows()) == (rows, comps)
    ties = tuple(frozenset(rel.elements[i] for i in c) for c in comps if len(c) > 1)
    if ties:
        with pytest.raises(AntisymmetryViolation) as exc:
            close_relation(rel)
        assert exc.value.classes == ties
    else:
        assert close_relation(rel).up == tuple(rows)
    # the quotient names each class by its members and keeps, in each
    # class's row, the bit of each class it lies below
    poset, class_of = close_quasiorder(rel).quotient()
    names = tuple("+".join(rel.elements[i] for i in c) for c in comps)
    assert poset.elements == names
    assert class_of == {rel.elements[i]: name for name, c in zip(names, comps) for i in c}
    assert poset.up == tuple(sum(1 << b for b, d in enumerate(comps) if rows[c[0]] >> d[0] & 1)
                             for c in comps)


@given(relations())
def test_closures_pass_the_checks_they_skip(rel):
    """close_relation and close_quasiorder build their result without
    __post_init__'s check; it must pass that check all the same."""
    q = close_quasiorder(rel)
    _check_preorder(q.elements, q.rel, "quasi-order", antisymmetric=False)
    assert q == QuasiOrder(q.elements, q.rel)
    try:
        p = close_relation(rel)
    except AntisymmetryViolation:
        return
    _check_preorder(p.elements, p.up, "relation", antisymmetric=True)
    assert p == Poset(p.elements, p.up)


@pytest.mark.parametrize("cyclic", [False, True])
def test_close_a_long_chain_and_cycle(cyclic):
    # 3,000 elements deep: a recursive search would pass Python's
    # default recursion limit of 1,000
    n = 3000
    rows = [1 << i + 1 for i in range(n - 1)] + [1 if cyclic else 0]
    closed, comps = _close(rows)
    if cyclic:
        assert closed == [(1 << n) - 1] * n and comps == [list(range(n))]
    else:
        assert closed == [(1 << n) - (1 << i) for i in range(n)]
        assert comps == [[i] for i in range(n)]


def test_incomparable_pairs_match_pairwise_scan():
    rng = random.Random(42)
    posets = [random_poset(rng, rng.randint(0, 16), rng.choice([0.1, 0.3, 0.6]))
              for _ in range(CASES)]
    for p in posets + fixture_posets():
        assert p.incomparable_pairs() == pairwise_incomparable_pairs(p)


def test_to_poset_matches_pairwise_containment():
    rng = random.Random(43)
    for _ in range(CASES):
        ctx = random_context(rng, rng.randint(0, 9), rng.randint(0, 9), rng.random())
        lat = concepts(ctx)
        assert lat.to_poset().up == pairwise_to_poset_rows(lat)


def test_intersect_linear_orders_matches_pairwise_positions():
    rng = random.Random(44)
    for _ in range(CASES):
        elems = [f"y{i}" for i in range(rng.randint(0, 12))]
        orders = []
        for _ in range(rng.randint(1, 4)):
            rng.shuffle(elems)
            orders.append(LinearExtension(tuple(elems)))
        assert intersect_linear_orders(orders).up == pairwise_intersection_rows(orders)


def test_strict_product_and_pareto_match_pairwise_domination():
    rng = random.Random(45)
    for _ in range(CASES):
        s = random_structure(rng)
        poset, classes = product_order(s, ties="incomparable")
        assert poset.up == pairwise_strict_product_rows(s)
        assert classes == {e: e for e in s.elements}
        assert pareto_maxima(s) == pairwise_pareto_maxima(s)


def test_downset_memo_matches_backward_dp():
    rng = random.Random(46)
    posets = [random_poset(rng, rng.randint(0, 12), rng.choice([0.1, 0.3, 0.6]))
              for _ in range(CASES)]
    for p in posets + [concepts(rembrandt()).to_poset()]:
        assert p._downset_memo == backward_downset_memo(p)


def test_width_matches_largest_antichain():
    rng = random.Random(47)
    for _ in range(CASES):
        p = random_poset(rng, rng.randint(0, 10), rng.choice([0.1, 0.3, 0.6]))
        assert p.width_height()[0] == brute_max_antichain(p)


def test_width_matches_a_maximum_matching():
    # Dilworth on posets too large for the brute force, against scipy's
    # Hopcroft-Karp matching of the strict comparability graph
    rng = random.Random(48)
    for _ in range(CASES):
        n = rng.randint(1, 40)
        p = random_poset(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4]))
        strict = csr_matrix([[int(i != j and p.up[i] >> j & 1) for j in range(n)]
                             for i in range(n)])
        matched = int((maximum_bipartite_matching(strict, perm_type="column") >= 0).sum())
        assert p.width_height()[0] == n - matched


def test_width_of_a_long_fence():
    # 2,200 elements, far past the exact brute force; the a_i are an antichain
    assert fence(1100).width_height() == (1100, 2)


def test_antichain_and_chain_width():
    assert Poset.antichain([]).width_height() == (0, 0)
    assert Poset.antichain("abcd").width_height() == (4, 1)
    assert Poset.chain("abcd").width_height() == (1, 4)
