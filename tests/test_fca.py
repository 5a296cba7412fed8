from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from odsk import (ConceptBudgetExceeded, FormalContext, Implication,
                  UnknownAttribute, canonical_base, clarify, concepts, entails,
                  holds, is_guttman, read_cxt, write_cxt)
from odsk import ParseError
from odsk.fca import _next_closure, implication_closure
from odsk.fixtures import airlines, fixture_text, rembrandt, socialnet

from conftest import random_context, random_poset


def contranominal(n: int) -> FormalContext:
    full = (1 << n) - 1
    return FormalContext(tuple(f"g{i}" for i in range(n)),
                         tuple(f"m{i}" for i in range(n)),
                         tuple(full & ~(1 << i) for i in range(n)))


def staircase(n: int) -> FormalContext:
    return FormalContext(tuple(f"g{i}" for i in range(n)),
                         tuple(f"m{i}" for i in range(n)),
                         tuple((1 << (i + 1)) - 1 for i in range(n)))


def brute_intents(ctx: FormalContext) -> set[frozenset[str]]:
    """Close every attribute subset; the distinct closures are the intents."""
    out = set()
    for k in range(len(ctx.attributes) + 1):
        for sub in combinations(ctx.attributes, k):
            ext = ctx.derive("attributes", sub)
            out.add(frozenset(ctx.derive("objects", ext)))
    return out


# -- derivation ---------------------------------------------------------


def test_derive_rembrandt_nightwatch():
    ctx = rembrandt()
    assert ctx.derive("objects", ["Nightwatch"]) == {"Group Portrait", "Canvas"}


def test_derive_empty_gives_everything():
    ctx = rembrandt()
    assert ctx.derive("objects", []) == set(ctx.attributes)
    assert ctx.derive("attributes", []) == set(ctx.objects)


def test_double_derivation_is_closure(rng):
    for _ in range(20):
        ctx = random_context(rng, 5, 5)
        sub = {m for m in ctx.attributes if rng.random() < 0.4}
        once = ctx.derive("objects", ctx.derive("attributes", sub))
        assert sub <= once
        twice = ctx.derive("objects", ctx.derive("attributes", once))
        assert once == twice


# -- concept enumeration --------------------------------------------------


def test_concepts_empty_context():
    lat = concepts(FormalContext((), (), ()))
    assert len(lat) == 1
    assert lat.concepts[0].extent == () and lat.concepts[0].intent == ()


def test_concepts_contranominal_3():
    assert len(concepts(contranominal(3))) == 8


def test_concepts_rembrandt_matches_bruteforce():
    ctx = rembrandt()
    lat = concepts(ctx)
    assert len(lat) == len(brute_intents(ctx)) == 9
    assert {frozenset(c.intent) for c in lat.concepts} == brute_intents(ctx)


def test_concepts_are_derivation_fixed_points(rng):
    for _ in range(15):
        ctx = random_context(rng, rng.randint(0, 6), rng.randint(0, 6))
        for c in concepts(ctx).concepts:
            assert ctx.derive("objects", c.extent) == set(c.intent)
            assert ctx.derive("attributes", c.intent) == set(c.extent)


def test_extents_closed_under_intersection(rng):
    for _ in range(10):
        ctx = random_context(rng, 5, 5)
        extents = {frozenset(c.extent) for c in concepts(ctx).concepts}
        for a in extents:
            for b in extents:
                assert a & b in extents


def test_lattice_meet_join_unique(rng):
    for _ in range(10):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 6))
        lat = concepts(ctx)
        exts = lat.extent_masks
        for i in range(len(lat)):
            for j in range(len(lat)):
                # brute-force meet: unique maximal common lower bound
                lowers = [k for k in range(len(lat))
                          if exts[k] | exts[i] == exts[i] and exts[k] | exts[j] == exts[j]]
                best = max(lowers, key=lambda k: bin(exts[k]).count("1"))
                assert all(exts[k] | exts[best] == exts[best] for k in lowers)
                assert lat.meet(i, j) == best


def test_lattice_join_and_top_unique(rng):
    for _ in range(10):
        ctx = random_context(rng, rng.randint(0, 6), rng.randint(0, 6))
        lat = concepts(ctx)
        exts = lat.extent_masks
        assert exts[lat.top()] == (1 << len(ctx.objects)) - 1
        for i in range(len(lat)):
            for j in range(len(lat)):
                # brute-force join: unique minimal common upper bound
                uppers = [k for k in range(len(lat))
                          if exts[i] | exts[k] == exts[k] and exts[j] | exts[k] == exts[k]]
                best = min(uppers, key=lambda k: bin(exts[k]).count("1"))
                assert all(exts[best] | exts[k] == exts[k] for k in uppers)
                assert lat.join(i, j) == best


def test_concepts_budget_boundary(rng):
    # random_context(rng, 3, 7) is wide, so the pass runs over its rows;
    # the last two contexts have no generator, only the full set
    for ctx in (rembrandt(), contranominal(4), random_context(rng, 3, 7),
                random_context(rng, 2, 0), random_context(rng, 0, 3)):
        n = len(concepts(ctx))
        assert len(concepts(ctx, budget=n)) == n
        with pytest.raises(ConceptBudgetExceeded):
            concepts(ctx, budget=n - 1)


def test_lectic_order_strictly_increasing(rng):
    from odsk.fca import _lectic_key
    for _ in range(10):
        ctx = random_context(rng, rng.randint(1, 6), rng.randint(1, 7))
        lat = concepts(ctx)
        keys = [_lectic_key(b, len(ctx.attributes)) for b in lat.intent_masks]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_transposed_orientation_same_concepts():
    # a wide context is built from its rows, as intersections of intents
    ctx = random_context(__import__("random").Random(5), 3, 7)
    lat = concepts(ctx)
    brute = brute_intents(ctx)
    assert {frozenset(c.intent) for c in lat.concepts} == brute
    from odsk.fca import _lectic_key
    keys = [_lectic_key(b, 7) for b in lat.intent_masks]
    assert keys == sorted(keys)


@st.composite
def contexts(draw, wide: bool) -> FormalContext:
    """0-9 objects and attributes, with more attributes than objects
    when ``wide``."""
    small = draw(st.integers(0, 8 if wide else 9))
    large = draw(st.integers(small + 1 if wide else small, 9))
    n_obj, n_att = (small, large) if wide else (large, small)
    rows = draw(st.lists(st.integers(0, (1 << n_att) - 1), min_size=n_obj, max_size=n_obj))
    return FormalContext(tuple(f"g{i}" for i in range(n_obj)),
                         tuple(f"m{j}" for j in range(n_att)), tuple(rows))


def next_closure_masks(ctx: FormalContext) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Extent and intent masks from NextClosure on intents, the
    enumerator canonical_base keeps."""
    intents = tuple(_next_closure(len(ctx.attributes),
                                  lambda b: ctx._intent_of(ctx._extent_of(b)), 10 ** 6))
    return tuple(map(ctx._extent_of, intents)), intents


@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
@given(data=st.data())
def test_concepts_match_next_closure(wide, data):
    ctx = data.draw(contexts(wide))
    lat = concepts(ctx)
    assert (lat.extent_masks, lat.intent_masks) == next_closure_masks(ctx)


def test_concepts_match_next_closure_on_dm_contexts(rng):
    # (P, P, <=), the context dedekind_macneille completes
    for _ in range(200):
        p = random_poset(rng, rng.randint(0, 12), rng.choice((0.1, 0.3, 0.6)))
        ctx = FormalContext(p.elements, p.elements, p.up)
        lat = concepts(ctx)
        assert (lat.extent_masks, lat.intent_masks) == next_closure_masks(ctx)


def test_concepts_match_next_closure_on_lattice_dm_contexts(rng):
    # (L, L, <=) of a concept lattice L: most columns are meets of wider
    # ones, so concepts skips them as generators; the completion is L again
    for _ in range(60):
        ctx = random_context(rng, rng.randint(1, 7), rng.randint(1, 6), rng.choice((0.3, 0.5)))
        p = concepts(ctx).to_poset()
        dm = FormalContext(p.elements, p.elements, p.up)
        lat = concepts(dm)
        assert len(lat) == len(p)
        assert (lat.extent_masks, lat.intent_masks) == next_closure_masks(dm)


# -- implications ----------------------------------------------------------


def test_holds_rembrandt_implications():
    ctx = rembrandt()
    assert holds(ctx, Implication(frozenset({"≥1660"}), frozenset({"Canvas"})))
    assert holds(ctx, Implication(frozenset({"Family Portrait", "Canvas"}),
                                  frozenset({"≥1660"})))
    assert not holds(ctx, Implication(frozenset({"Canvas"}), frozenset({"≥1660"})))


def test_holds_x_implies_x():
    ctx = rembrandt()
    assert holds(ctx, Implication(frozenset({"Canvas"}), frozenset({"Canvas"})))


def test_holds_unknown_attribute():
    with pytest.raises(UnknownAttribute):
        holds(rembrandt(), Implication(frozenset({"nope"}), frozenset({"Canvas"})))


def test_canonical_base_full_context():
    full = FormalContext(("g1", "g2"), ("m1", "m2"), (0b11, 0b11))
    base = canonical_base(full)
    assert len(base) == 1
    assert base[0].premise == frozenset()
    assert base[0].conclusion == {"m1", "m2"}


def test_canonical_base_rembrandt():
    ctx = rembrandt()
    base = canonical_base(ctx)
    assert len(base) == 6  # brute-force pseudo-intent count
    assert entails(base, Implication(frozenset({"≥1660"}), frozenset({"Canvas"})))
    assert entails(base, Implication(frozenset({"Family Portrait", "Canvas"}),
                                     frozenset({"≥1660"})))
    # every base member holds in the context
    for imp in base:
        assert holds(ctx, imp)


def test_canonical_base_sound_and_complete(rng):
    for _ in range(12):
        ctx = random_context(rng, rng.randint(1, 5), rng.randint(1, 5))
        base = canonical_base(ctx)
        for imp in base:
            assert holds(ctx, imp)
        for prem_size in range(len(ctx.attributes) + 1):
            for prem in combinations(ctx.attributes, prem_size):
                for concl in ctx.attributes:
                    imp = Implication(frozenset(prem), frozenset({concl}))
                    assert holds(ctx, imp) == entails(base, imp)


def test_canonical_base_budget_counts_intents_and_pseudo_intents(rng):
    for ctx in (rembrandt(), contranominal(3), random_context(rng, 6, 5)):
        base = canonical_base(ctx)
        closed_sets = len(concepts(ctx)) + len(base)
        assert canonical_base(ctx, budget=closed_sets) == base
        with pytest.raises(ConceptBudgetExceeded):
            canonical_base(ctx, budget=closed_sets - 1)


def test_implication_closure_iterates():
    base = [Implication(frozenset({"a"}), frozenset({"b"})),
            Implication(frozenset({"b"}), frozenset({"c"}))]
    assert implication_closure({"a"}, base) == {"a", "b", "c"}


def test_implication_closure_of_any_iterable():
    base = [Implication(frozenset({"a", "b"}), frozenset({"c"})),
            Implication(frozenset({"c"}), frozenset({"d"}))]
    assert implication_closure(iter(["b", "e", "a"]), base) == {"a", "b", "c", "d", "e"}
    assert implication_closure(["b", "b"], base) == {"b"}
    assert implication_closure([], []) == frozenset()


# -- Guttman -----------------------------------------------------------------


def test_guttman_staircase():
    res = is_guttman(staircase(3))
    assert res
    s, e = res.witness.s_map(), res.witness.e_map()
    for g in ("g0", "g1", "g2"):
        for m in ("m0", "m1", "m2"):
            assert staircase(3).has(g, m) == (s[g] <= e[m])
    # ranks follow row counts: biggest row gets rank 1
    assert s == {"g2": 1, "g1": 2, "g0": 3}


def test_guttman_identity_2x2_false():
    ctx = FormalContext(("g0", "g1"), ("m0", "m1"), (0b01, 0b10))
    assert not is_guttman(ctx)


def test_guttman_matches_chain_oracle(rng):
    for _ in range(60):
        ctx = random_context(rng, 5, 5, density=rng.choice([0.3, 0.5, 0.8]))
        expected = concepts(clarify(ctx).context).is_chain()
        assert bool(is_guttman(ctx)) == expected


def test_guttman_empty_column_rank_zero():
    ctx = FormalContext(("g0", "g1"), ("m0", "m1"), (0b01, 0b01))
    res = is_guttman(ctx)
    assert res and res.witness.e_map()["m1"] == 0


# -- clarify -----------------------------------------------------------------


def test_clarify_merges_duplicate_row():
    ctx = FormalContext(("g0", "g1", "g2"), ("m0", "m1"), (0b01, 0b01, 0b10))
    res = clarify(ctx)
    assert res.context.objects == ("g0+g1", "g2")
    assert ("g0", "g1") in res.object_groups


def test_clarify_identity_and_contranominal():
    ctx = contranominal(3)
    res = clarify(ctx)
    assert res.context == ctx
    distinct = FormalContext(("g0", "g1"), ("m0", "m1"), (0b01, 0b11))
    assert clarify(distinct).context == distinct


def test_clarify_merges_duplicate_columns():
    ctx = FormalContext(("g0", "g1"), ("m0", "m1", "m2"), (0b011, 0b100))
    res = clarify(ctx)
    assert res.context.attributes == ("m0+m1", "m2")


# -- CXT format ----------------------------------------------------------------


def test_cxt_write_golden():
    ctx = FormalContext(("g1", "g2"), ("m1", "m2", "m3"), (0b101, 0b010))
    assert write_cxt(ctx) == "B\n\n2\n3\n\ng1\ng2\nm1\nm2\nm3\nX.X\n.X.\n"


def test_cxt_roundtrip_fixtures():
    for load, name in ((rembrandt, "rembrandt.cxt"), (airlines, "airlines.cxt"),
                       (socialnet, "socialnet.cxt")):
        ctx = load()
        assert write_cxt(ctx) == fixture_text(name)
        assert read_cxt(write_cxt(ctx)) == ctx


def test_cxt_reader_tolerates_crlf():
    text = write_cxt(rembrandt()).replace("\n", "\r\n")
    assert read_cxt(text) == rembrandt()


def test_cxt_empty_context():
    ctx = FormalContext((), (), ())
    assert read_cxt(write_cxt(ctx)) == ctx


@pytest.mark.parametrize("counts", ["-1\n2", "1\n-2"])
def test_cxt_negative_count_is_parse_error(counts):
    with pytest.raises(ParseError):
        read_cxt(f"B\n\n{counts}\n\nm1\nm2\n")
