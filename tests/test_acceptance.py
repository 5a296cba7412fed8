"""Acceptance suite: one test per release criterion, each printing a
pass line with its measured evidence. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

from scipy.stats import chisquare

from odsk import (BudgetExceeded, FiniteMetric, LinearExtension, OmSpace, Poset,
                  Relation, clarify, concepts, canonical_base, dedekind_macneille,
                  dimdraw, entails, holds, intersect_linear_orders, is_guttman,
                  layered, mediated_metric, order_dimension,
                  ordinal_factorization, product_order, relational_distortion,
                  render, Implication)
from odsk.fixtures import (airlines, airlines_distances, bundesliga_scales,
                           bundesliga_table, rembrandt, socialnet)
from odsk.scaling import to_ordinal_structure

from conftest import (boolean_cube, brute_cut_count, random_poset,
                      standard_example)


def report(name: str, detail: str = ""):
    print(f"ACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


def test_criterion_airlines_mediated_metric():
    t0 = time.perf_counter()
    ctx = airlines()
    d = airlines_distances()
    med = mediated_metric(ctx, d)
    assert med.dist("Scandinavian", "Austrian A.") == 1563

    # independent brute-force max/min evaluation for all 21 pairs
    for m1, m2 in combinations_with_replacement(ctx.attributes, 2):
        e1 = ctx.derive("attributes", [m1])
        e2 = ctx.derive("attributes", [m2])
        ab = max(min(d.dist(x, y) for y in e2) for x in e1)
        ba = max(min(d.dist(x, y) for x in e1) for y in e2)
        assert med.dist(m1, m2) == max(ab, ba)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("airlines mediated metric", f"d_M = 1563, 21 pairs match, {elapsed:.3f}s")


def test_criterion_bundesliga_dimension():
    t0 = time.perf_counter()
    table = bundesliga_table()
    specs = bundesliga_scales()
    structure = to_ordinal_structure(table.select(list(specs)), specs)

    # Dimension three holds for the domination order with scale ties
    # left incomparable (strict domination in all four categories, the
    # --no-quotient reading).
    strict, _ = product_order(structure, ties="incomparable")
    res = order_dimension(strict, budget_ms=60_000)
    assert res.dim == 3
    verified = intersect_linear_orders(res.realizer.extensions)
    assert all(verified.leq(a, b) == strict.leq(a, b)
               for a in strict.elements for b in strict.elements)

    # Under the default weak-domination product order the dimension is 2;
    # the 2-realizer is verified the same way (see decisions ledger).
    weak, class_of = product_order(structure)
    res_weak = order_dimension(weak, budget_ms=60_000)
    assert res_weak.dim == 2
    verified_weak = intersect_linear_orders(res_weak.realizer.extensions)
    assert all(verified_weak.leq(a, b) == weak.leq(a, b)
               for a in weak.elements for b in weak.elements)

    # The Pts-then-GD ranking is a linear extension of the domination order.
    teams = table.objects
    pts = [int(v) for v in table.column("Pts").values]
    gd = [int(v) for v in table.column("GD").values]
    ranking = sorted(teams, key=lambda t: (pts[teams.index(t)], gd[teams.index(t)]))
    assert strict.is_linear_extension(ranking)
    assert weak.is_linear_extension([class_of[t] for t in ranking])

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("bundesliga dimension",
           f"strict dim = 3 verified, weak dim = 2, ranking extends, {elapsed:.2f}s")


def test_criterion_rembrandt_lattice():
    t0 = time.perf_counter()
    ctx = rembrandt()
    canvas_after_1660 = Implication(frozenset({"≥1660"}), frozenset({"Canvas"}))
    family_canvas_late = Implication(frozenset({"Family Portrait", "Canvas"}),
                                     frozenset({"≥1660"}))
    assert holds(ctx, canvas_after_1660)
    assert holds(ctx, family_canvas_late)
    base = canonical_base(ctx)
    assert entails(base, canvas_after_1660)
    assert entails(base, family_canvas_late)

    # concept count vs the 2^5 attribute-subset brute-force oracle
    intents = set()
    for k in range(6):
        for sub in combinations(ctx.attributes, k):
            ext = ctx.derive("attributes", sub)
            intents.add(frozenset(ctx.derive("objects", ext)))
    assert len(concepts(ctx)) == len(intents)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("rembrandt lattice",
           f"{len(intents)} concepts, both implications entailed, {elapsed:.3f}s")


def test_criterion_socialnet_factorization():
    t0 = time.perf_counter()
    target = frozenset({
        ("TikTok", "timeline"), ("WhatsApp", "stories"),
        ("Facebook", "timeline"), ("YouTube", "stories"),
        ("Facebook", "stories")})
    fz = ordinal_factorization(socialnet(), 2)
    assert fz.uncovered == target
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("socialnet factorization", f"uncovered = target 5-set, {elapsed:.2f}s")


def test_criterion_distortion_zero_law():
    rng = random.Random(4242)
    for trial in range(100):
        n = rng.randint(1, 10)
        base = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                base[i][j] = base[j][i] = rng.randint(1, 50)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if base[i][k] + base[k][j] < base[i][j]:
                        base[i][j] = base[i][k] + base[k][j]
        names = tuple(f"x{i}" for i in range(n))
        metric = FiniteMetric(names, tuple(tuple(r) for r in base))
        rel = Relation.from_named_pairs(names, [(e, e) for e in names])
        assert relational_distortion(OmSpace(rel, metric)).value == 0
    report("distortion zero law", "100 random metrics, exact zero")


def test_criterion_dm_completion_properties():
    rng = random.Random(1318)
    for trial in range(500):
        p = random_poset(rng, rng.randint(1, 8), p=rng.choice([0.15, 0.3, 0.5]))
        comp = dedekind_macneille(p)
        assert len(comp) == brute_cut_count(p)
        lat = comp.lattice
        exts = lat.extent_masks
        for i in range(len(lat)):
            for j in range(len(lat)):
                lowers = [k for k in range(len(lat))
                          if exts[k] | exts[i] == exts[i]
                          and exts[k] | exts[j] == exts[j]]
                meet = max(lowers, key=lambda k: bin(exts[k]).count("1"))
                assert all(exts[k] | exts[meet] == exts[meet] for k in lowers)
                uppers = [k for k in range(len(lat))
                          if exts[i] | exts[k] == exts[k]
                          and exts[j] | exts[k] == exts[k]]
                join = min(uppers, key=lambda k: bin(exts[k]).count("1"))
                assert all(exts[join] | exts[k] == exts[k] for k in uppers)
        emb = comp.embedding_map()
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == lat.leq(emb[x], emb[y])
    assert len(dedekind_macneille(Poset.antichain("ab"))) == 4
    chain = dedekind_macneille(Poset.chain("abcde"))
    assert len(chain) == 5 and chain.new_nodes == ()
    report("dm completion properties",
           "500 posets: lattice, embedding, cut-count oracle")


def test_criterion_dimension_sanity_suite():
    cases = [
        ("chain", Poset.chain("abcde"), 1),
        ("antichain", Poset.antichain("abcd"), 2),
        ("cube", boolean_cube(3), 3),
        ("S3", standard_example(3), 3),
    ]
    for name, poset, expected in cases:
        res = order_dimension(poset)
        assert res.dim == expected, name
        back = intersect_linear_orders(res.realizer.extensions)
        assert all(back.leq(a, b) == poset.leq(a, b)
                   for a in poset.elements for b in poset.elements), name
        if expected > 1:
            exts = [LinearExtension(perm) for perm in permutations(poset.elements)
                    if poset.is_linear_extension(perm)]
            for combo in combinations_with_replacement(exts, expected - 1):
                inter = intersect_linear_orders(list(combo))
                assert not all(inter.leq(a, b) == poset.leq(a, b)
                               for a in poset.elements for b in poset.elements), name
    report("dimension sanity suite",
           "chain 1, antichain 2, cube 3, S3 3; smaller realizers excluded")


def test_criterion_guttman_equivalence():
    rng = random.Random(777)
    for trial in range(300):
        rows = tuple(rng.getrandbits(5) for _ in range(5))
        ctx_objects = tuple(f"g{i}" for i in range(5))
        ctx_attrs = tuple(f"m{j}" for j in range(5))
        from odsk import FormalContext
        ctx = FormalContext(ctx_objects, ctx_attrs, rows)
        oracle = concepts(clarify(ctx).context).is_chain()
        assert bool(is_guttman(ctx)) == oracle, f"mismatch on trial {trial}"
    report("guttman equivalence", "300 random 5x5 contexts, zero mismatches")


def test_criterion_counting_and_sampling():
    rng = random.Random(90125)
    suite = [random_poset(rng, rng.randint(1, 7), p=rng.choice([0.2, 0.4, 0.6]))
             for _ in range(120)]
    for p in suite:
        brute = sum(1 for perm in permutations(p.elements)
                    if p.is_linear_extension(perm))
        assert p.linear_extension_count() == brute

    def chi2_p(poset) -> float:
        n_ext = poset.linear_extension_count()
        counts = Counter(poset.sample_linear_extension(seed=s).order
                         for s in range(10_000))
        assert len(counts) == n_ext
        return chisquare(list(counts.values())).pvalue

    p_anti = chi2_p(Poset.antichain("ab"))
    n_poset = Poset.from_pairs("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
    assert n_poset.linear_extension_count() == 5
    p_n = chi2_p(n_poset)
    assert p_anti > 0.01 and p_n > 0.01
    report("counting and sampling",
           f"120 posets exact, chi2 p = {p_anti:.3f} / {p_n:.3f}")


def test_criterion_layout_invariants():
    rng = random.Random(60801)
    for trial in range(200):
        p = random_poset(rng, rng.randint(1, 9), p=rng.choice([0.2, 0.4]))
        for draw in (dimdraw, layered):
            drawing = draw(p)
            pos = drawing.position_map()
            for a, b in p.covers:
                assert pos[a][1] < pos[b][1]
    fixed = random_poset(random.Random(5), 7)
    assert render(dimdraw(fixed)) == render(dimdraw(fixed))
    assert render(layered(fixed), fmt="dot") == render(layered(fixed), fmt="dot")

    used_exact = 0
    rng = random.Random(31173)
    for trial in range(60):
        p = random_poset(rng, rng.randint(2, 7))
        try:
            res = order_dimension(p, max_k=2)
        except BudgetExceeded:
            continue
        if res.dim != 2:
            continue
        drawing = dimdraw(p)
        pos = drawing.position_map()
        l1 = sorted(p.elements, key=lambda e: pos[e][0] + pos[e][1])
        l2 = sorted(p.elements, key=lambda e: pos[e][1] - pos[e][0])
        back = intersect_linear_orders(
            [LinearExtension(tuple(l1)), LinearExtension(tuple(l2))])
        assert all(back.leq(a, b) == p.leq(a, b)
                   for a in p.elements for b in p.elements)
        used_exact += 1
    assert used_exact >= 10
    report("layout invariants",
           f"200 posets upward, byte-deterministic, {used_exact} exact 2-realizers")
