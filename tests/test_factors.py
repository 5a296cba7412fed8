from collections import Counter

import pytest

from odsk import (FormalContext, WrongFactorCount, biplot, boolean_greedy,
                  concepts, largest_ordinal_factor, ordinal_factorization)
from odsk.factors import factor_tiles
from odsk.fixtures import socialnet

from conftest import random_context


def contranominal(n: int) -> FormalContext:
    full = (1 << n) - 1
    return FormalContext(tuple(f"g{i}" for i in range(n)),
                         tuple(f"m{i}" for i in range(n)),
                         tuple(full & ~(1 << i) for i in range(n)))


def staircase(n: int) -> FormalContext:
    return FormalContext(tuple(f"g{i}" for i in range(n)),
                         tuple(f"m{i}" for i in range(n)),
                         tuple((1 << (i + 1)) - 1 for i in range(n)))


SOCIALNET_UNCOVERED = frozenset({
    ("TikTok", "timeline"), ("WhatsApp", "stories"), ("Facebook", "timeline"),
    ("YouTube", "stories"), ("Facebook", "stories")})


# -- boolean greedy ------------------------------------------------------


def test_boolean_greedy_full_context_single_factor():
    ctx = FormalContext(("g1", "g2"), ("m1", "m2"), (0b11, 0b11))
    res = boolean_greedy(ctx)
    assert len(res.factors) == 1
    assert res.uncovered == frozenset()
    assert set(res.factors[0].extent) == {"g1", "g2"}


def test_boolean_greedy_contranominal_needs_three():
    res = boolean_greedy(contranominal(3))
    assert len(res.factors) == 3
    assert res.uncovered == frozenset()


def test_boolean_greedy_k_zero():
    ctx = contranominal(2)
    res = boolean_greedy(ctx, k=0)
    assert res.factors == ()
    assert res.uncovered == ctx.incidences()


def test_boolean_greedy_coverage_bookkeeping(rng):
    for _ in range(10):
        ctx = random_context(rng, 4, 4)
        res = boolean_greedy(ctx, k=rng.choice([None, 1, 2]))
        assert res.covered | res.uncovered == ctx.incidences()
        assert res.covered & res.uncovered == frozenset()


# -- largest ordinal factor ------------------------------------------------


def test_staircase_single_chain_covers_everything():
    ctx = staircase(3)
    factor = largest_ordinal_factor(ctx)
    assert factor_tiles(ctx, factor) == ctx.incidences()


def test_contranominal_2x2_best_chain_covers_one():
    ctx = contranominal(2)
    factor = largest_ordinal_factor(ctx)
    tiles = factor_tiles(ctx, factor)
    assert len(tiles) == 1
    # pruned to the single concept tile; lectic-first tie-break picks m1
    assert len(factor.chain) == 1
    assert tiles == {("g0", "m1")}


def test_factor_chains_are_nested_concepts(rng):
    for _ in range(15):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6))
        factor = largest_ordinal_factor(ctx)
        prev = None
        for c in factor.chain:
            assert ctx.derive("objects", c.extent) == set(c.intent)
            assert ctx.derive("attributes", c.intent) == set(c.extent)
            if prev is not None:
                assert set(prev.extent) < set(c.extent)
                assert set(prev.intent) > set(c.intent)
            prev = c


def _dp_best_coverage(ctx: FormalContext, uncovered) -> int:
    """Independent oracle: exact max chain coverage by longest-path DP
    over the concept lattice (marginals depend only on the last node)."""
    lat = concepts(ctx)
    unc_cols = [0] * len(ctx.attributes)
    for g, m in uncovered:
        unc_cols[ctx.attributes.index(m)] |= 1 << ctx.objects.index(g)
    exts, itts = lat.extent_masks, lat.intent_masks
    n = len(lat)

    def marginal(i, prev_intent):
        total = 0
        mask = itts[i] & ~prev_intent
        j = 0
        while mask:
            if mask & 1:
                total += bin(unc_cols[j] & exts[i]).count("1")
            mask >>= 1
            j += 1
        return total

    best = [0] * n
    overall = 0
    for i in range(n):  # lectic order is topological top-down
        best[i] = marginal(i, 0)
        for k in range(i):
            if exts[i] != exts[k] and exts[i] & ~exts[k] == 0:
                cand = best[k] + marginal(i, itts[k])
                if cand > best[i]:
                    best[i] = cand
        overall = max(overall, best[i])
    return overall


def test_exact_path_up_to_twelve_concepts(monkeypatch):
    from odsk import factors
    calls = Counter()
    for name in ("_chain_best_dp", "_chain_best_descent"):
        def counted(*args, _name=name, _orig=getattr(factors, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(factors, name, counted)
    for n, path in ((12, "_chain_best_dp"), (13, "_chain_best_descent")):
        ctx = staircase(n)
        assert len(concepts(ctx)) == n
        calls.clear()
        factor = largest_ordinal_factor(ctx)
        assert calls == {path: 1}
        assert factor_tiles(ctx, factor) == ctx.incidences()


def _old_chain_dfs(lat, unc_cols) -> tuple[int, ...]:
    """The earlier exact path: DFS over every chain, top-down, keeping
    the least (-coverage, length, index tuple)."""
    exts, itts = lat.extent_masks, lat.intent_masks
    n = len(lat)

    def marginal(i, prev_intent):
        return sum(bin(unc_cols[m] & exts[i]).count("1")
                   for m in range(len(unc_cols)) if (itts[i] & ~prev_intent) >> m & 1)

    best = []

    def dfs(chain, cov):
        best.append((-cov, len(chain), tuple(chain)))
        for j in range(chain[-1] + 1, n):
            if exts[j] != exts[chain[-1]] and exts[j] & ~exts[chain[-1]] == 0:
                dfs(chain + [j], cov + marginal(j, itts[chain[-1]]))

    for i in range(n):
        dfs([i], marginal(i, 0))
    return min(best)[2]


def test_factor_dp_matches_chain_dfs(rng):
    from odsk import factors
    checked = 0
    while checked < 200:
        ctx = random_context(rng, rng.randint(0, 6), rng.randint(0, 6),
                             rng.choice([0.3, 0.5, 0.7]))
        lat = concepts(ctx)
        if len(lat) > factors.EXACT_CONCEPT_LIMIT:
            continue
        unc_rows = [row & rng.getrandbits(len(ctx.attributes) or 1)
                    for row in ctx.rows]
        unc_cols = FormalContext(ctx.objects, ctx.attributes, tuple(unc_rows)).cols
        for cols in (ctx.cols, unc_cols):
            assert factors._chain_best_dp(lat, cols) == _old_chain_dfs(lat, cols)
        checked += 1


def test_exhaustive_factor_matches_dp_oracle(rng):
    for _ in range(15):
        ctx = random_context(rng, rng.randint(1, 5), rng.randint(1, 5))
        factor = largest_ordinal_factor(ctx)
        assert len(factor_tiles(ctx, factor)) == _dp_best_coverage(ctx, ctx.incidences())


def test_socialnet_first_factor_chain():
    ctx = socialnet()
    factor = largest_ordinal_factor(ctx)
    intents = [set(c.intent) for c in factor.chain]
    assert intents == [
        {"USA-based", "ads", "private messages", "group messages",
         "mobile first", "stories", "timeline"},
        {"USA-based", "ads", "private messages", "group messages",
         "mobile first", "stories"},
        {"ads", "private messages", "group messages", "mobile first", "stories"},
        {"ads", "private messages", "group messages", "mobile first"},
        {"private messages", "group messages", "mobile first"},
        {"private messages", "group messages"},
        {"private messages"},
    ]
    assert len(factor_tiles(ctx, factor)) == 36


# -- ordinal factorization ---------------------------------------------------


def test_socialnet_two_factor_uncovered_set():
    fz = ordinal_factorization(socialnet(), 2)
    assert fz.uncovered == SOCIALNET_UNCOVERED


def test_guttman_context_one_factor_suffices():
    fz = ordinal_factorization(staircase(4), 1)
    assert fz.uncovered == frozenset()


def test_enough_factors_cover_everything(rng):
    for _ in range(8):
        ctx = random_context(rng, 4, 4, density=0.6)
        k = len(concepts(ctx))
        fz = ordinal_factorization(ctx, max(k, 1))
        assert fz.uncovered == frozenset()


def test_factorization_bookkeeping(rng):
    for _ in range(10):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6))
        fz = ordinal_factorization(ctx, rng.randint(1, 3))
        assert fz.covered | fz.uncovered == ctx.incidences()
        assert fz.covered & fz.uncovered == frozenset()


# -- biplot -------------------------------------------------------------------


def test_biplot_requires_two_factors():
    ctx = staircase(2)
    with pytest.raises(WrongFactorCount):
        biplot(ctx, ordinal_factorization(ctx, 1))


def test_biplot_coordinate_extremes():
    ctx = staircase(3)
    fz = ordinal_factorization(ctx, 2)
    bp = biplot(ctx, fz)
    axis = bp.axes[0]
    k = axis.length
    coords = dict(axis.object_coord)
    # the object entering at the first (smallest-extent) level tops out at k
    first = fz.factors[0].chain[0]
    for g in first.extent:
        assert coords[g] == k
    # an attribute kept in every intent sits at 1
    attr = dict(axis.attribute_coord)
    common = set.intersection(*(set(c.intent) for c in fz.factors[0].chain))
    for m in common:
        assert attr[m] == 1


def test_biplot_decode_reproduces_coverage_exactly(rng):
    for _ in range(12):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6))
        fz = ordinal_factorization(ctx, 2)
        bp = biplot(ctx, fz)
        decoded = bp.decode()
        assert decoded == fz.covered
        assert decoded <= ctx.incidences()  # no false data


def test_biplot_socialnet_decode():
    ctx = socialnet()
    fz = ordinal_factorization(ctx, 2)
    bp = biplot(ctx, fz)
    assert bp.decode() == fz.covered == ctx.incidences() - SOCIALNET_UNCOVERED
