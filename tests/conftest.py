"""Shared helpers: seeded random structures and small brute-force oracles."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import settings, strategies as st

from odsk import FormalContext, Poset

settings.register_profile("ci", derandomize=True, max_examples=60)
# the input-contract fuzz step in CI: pytest --hypothesis-profile fuzz
settings.register_profile("fuzz", derandomize=True, max_examples=500)
settings.load_profile("ci")


def random_poset(rng: random.Random, n: int, p: float = 0.3) -> Poset:
    """Random DAG on e0..e(n-1) with upward edges, closed to a poset."""
    elements = [f"e{i}" for i in range(n)]
    pairs = [(elements[i], elements[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Poset.from_pairs(elements, pairs)


@st.composite
def shuffled_posets(draw, sizes=st.integers(2, 10)) -> Poset:
    """A random poset, its elements listed in a random order."""
    rng = draw(st.randoms(use_true_random=False))
    p = random_poset(rng, draw(sizes), draw(st.sampled_from([0.1, 0.2, 0.35, 0.5])))
    order = list(p.elements)
    rng.shuffle(order)
    return Poset.from_pairs(order, [(a, b) for a in order for b in order
                                    if a != b and p.leq(a, b)])


def fence(m: int) -> Poset:
    """The fence a_i < b_i, a_i < b_(i-1) on 2m elements: width m,
    dimension 2, and a number of critical pairs quadratic in m."""
    elements = [f"a{i}" for i in range(m)] + [f"b{i}" for i in range(m)]
    pairs = [(f"a{i}", f"b{j}") for i in range(m) for j in (i - 1, i) if j >= 0]
    return Poset.from_pairs(elements, pairs)


def random_context(rng: random.Random, n_obj: int, n_att: int,
                   density: float = 0.5) -> FormalContext:
    rows = tuple(
        sum(1 << j for j in range(n_att) if rng.random() < density)
        for _ in range(n_obj))
    return FormalContext(tuple(f"g{i}" for i in range(n_obj)),
                         tuple(f"m{j}" for j in range(n_att)), rows)


def brute_extension_count(p: Poset) -> int:
    """Count linear extensions by filtering all permutations."""
    total = 0
    for perm in permutations(p.elements):
        if p.is_linear_extension(perm):
            total += 1
    return total


def brute_max_antichain(p: Poset) -> int:
    best = 0
    for k in range(len(p), 0, -1):
        for sub in combinations(range(len(p)), k):
            if all(not (p.up[a] >> b & 1) and not (p.up[b] >> a & 1)
                   for a, b in combinations(sub, 2)):
                return k
    return best


def brute_max_chain(p: Poset) -> int:
    for k in range(len(p), 0, -1):
        for sub in combinations(range(len(p)), k):
            if all((p.up[a] >> b & 1) or (p.up[b] >> a & 1)
                   for a, b in combinations(sub, 2)):
                return k
    return 0


def brute_cut_count(p: Poset) -> int:
    """Number of cuts (A, B) with A'' = A, by closing every subset."""
    n = len(p)
    cuts = set()
    for mask in range(1 << n):
        ub = (1 << n) - 1
        for i in range(n):
            if mask >> i & 1:
                ub &= p.up[i]
        lb = (1 << n) - 1
        for j in range(n):
            if ub >> j & 1:
                lb &= p.down[j]
        cuts.add(lb)
    return len(cuts)


def standard_example(k: int) -> Poset:
    """S_k: a_i < b_j iff i != j; order dimension k for k >= 2."""
    elements = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
    pairs = [(f"a{i}", f"b{j}") for i in range(k) for j in range(k) if i != j]
    return Poset.from_pairs(elements, pairs)


def boolean_cube(bits: int = 3) -> Poset:
    elements = ["".join(str(w >> i & 1) for i in range(bits))
                for w in range(1 << bits)]
    pairs = [(x, y) for x in elements for y in elements
             if x != y and all(a <= b for a, b in zip(x, y))]
    return Poset.from_pairs(elements, pairs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
