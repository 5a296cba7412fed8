import warnings
from decimal import Decimal
from itertools import combinations

import pytest

from odsk import (EmptyImage, EmptySet, FiniteMetric, FormalContext, OmSpace,
                  Poset, Relation, disagreement, hausdorff, mediated_metric,
                  read_distance_csv, relational_distortion, valuation_order)
from odsk import ParseError
from odsk.omspace import write_distance_csv
from odsk.fixtures import airlines, airlines_distances

from conftest import random_poset


def random_metric(rng, n: int) -> FiniteMetric:
    """Random integer metric via shortest paths over a random weighting."""
    import itertools
    base = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            base[i][j] = base[j][i] = rng.randint(1, 9)
    for k, i, j in itertools.product(range(n), repeat=3):
        if base[i][k] + base[k][j] < base[i][j]:
            base[i][j] = base[i][k] + base[k][j]
    return FiniteMetric(tuple(f"x{i}" for i in range(n)),
                        tuple(tuple(row) for row in base))


# -- hausdorff -----------------------------------------------------------


def test_hausdorff_identical_sets_zero():
    m = random_metric(__import__("random").Random(1), 5)
    assert hausdorff(m, ["x0", "x2"], ["x0", "x2"]) == 0


def test_hausdorff_singletons():
    m = random_metric(__import__("random").Random(2), 4)
    assert hausdorff(m, ["x1"], ["x3"]) == m.dist("x1", "x3")


def test_hausdorff_empty_set_error():
    m = random_metric(__import__("random").Random(3), 3)
    with pytest.raises(EmptySet):
        hausdorff(m, [], ["x0"])


def test_hausdorff_airlines_scandinavian_austrian():
    ctx = airlines()
    d = airlines_distances()
    ext_sc = ctx.derive("attributes", ["Scandinavian"])
    ext_au = ctx.derive("attributes", ["Austrian A."])
    assert ext_sc == {"Hamburg", "Madrid", "Moscow", "Budapest", "London",
                      "Rom", "Palma D.M."}
    assert ext_au == {"Hamburg", "Lisbon", "Budapest", "London", "Rom",
                      "Palma D.M.", "Leipzig/Halle"}
    assert hausdorff(d, ext_sc, ext_au) == 1563
    # directed components of the formula: max{1563, 513} = 1563
    ab = max(min(d.dist(x, y) for y in ext_au) for x in ext_sc)
    ba = max(min(d.dist(x, y) for x in ext_sc) for y in ext_au)
    assert (ab, ba) == (1563, 513)


def test_hausdorff_lifted_metric_properties(rng):
    m = random_metric(rng, 6)
    names = m.elements
    subsets = [list(c) for k in range(1, 4) for c in combinations(names, k)]
    for a in subsets:
        for b in subsets:
            hab = hausdorff(m, a, b)
            assert hab == hausdorff(m, b, a)
            assert (hab == 0) == (set(a) == set(b))
            for c in subsets:
                assert hab <= hausdorff(m, a, c) + hausdorff(m, c, b)


# -- relational distortion -----------------------------------------------


def test_distortion_reflexive_relation_is_zero(rng):
    for _ in range(20):
        n = rng.randint(1, 8)
        m = random_metric(rng, n)
        rel = Relation.from_named_pairs(m.elements, [(e, e) for e in m.elements])
        res = relational_distortion(OmSpace(rel, m))
        assert res.value == 0


def test_distortion_two_chain_hand_value():
    m = FiniteMetric(("a", "b"), ((0, 1), (1, 0)))
    rel = Relation.from_named_pairs("ab", [("a", "a"), ("b", "b"), ("a", "b")])
    res = relational_distortion(OmSpace(rel, m))
    # phi(a) = {a,b}, phi(b) = {b}: |d(a,b) - d_H| = |1 - 1| = 0
    assert res.value == 0


def test_distortion_empty_image_errors():
    m = FiniteMetric(("a", "b"), ((0, 1), (1, 0)))
    rel = Relation.from_named_pairs("ab", [("a", "b")])
    with pytest.raises(EmptyImage):
        relational_distortion(OmSpace(rel, m))
    res = relational_distortion(OmSpace(rel, m), reflexive_close=True)
    assert res.value == 0


def test_distortion_airlines_exhaustive_scan():
    ctx = airlines()
    d = airlines_distances()
    names = d.elements
    shared = []
    for a in names:
        row_a = ctx.derive("objects", [a])
        for b in names:
            if a == b or row_a & ctx.derive("objects", [b]):
                shared.append((a, b))
    space = OmSpace(Relation.from_named_pairs(names, shared), d)
    res = relational_distortion(space)

    # independent evaluation of the displayed formula over all 12^2 pairs
    phi = {a: {b for b in names
               if a == b or ctx.derive("objects", [a]) & ctx.derive("objects", [b])}
           for a in names}

    def haus(s1, s2):
        ab = max(min(d.dist(x, y) for y in s2) for x in s1)
        ba = max(min(d.dist(x, y) for x in s1) for y in s2)
        return max(ab, ba)

    brute = max(abs(d.dist(a, b) - haus(phi[a], phi[b]))
                for a in names for b in names)
    assert res.value == brute == 3781
    assert res.witness == ("Lisbon", "Moscow")


# -- mediated metric -----------------------------------------------------


def test_mediated_metric_airlines_brute_force():
    ctx = airlines()
    d = airlines_distances()
    med = mediated_metric(ctx, d)
    assert med.dist("Scandinavian", "Austrian A.") == 1563
    assert med.empty_extents == ()
    for m1 in ctx.attributes:
        for m2 in ctx.attributes:
            e1 = ctx.derive("attributes", [m1])
            e2 = ctx.derive("attributes", [m2])
            ab = max(min(d.dist(x, y) for y in e2) for x in e1)
            ba = max(min(d.dist(x, y) for x in e1) for y in e2)
            assert med.dist(m1, m2) == max(ab, ba)


def test_mediated_metric_pseudometric_cases():
    ctx = FormalContext(("g1", "g2"), ("m1", "m2", "m3", "m4"),
                        (0b0011, 0b0011))
    m = FiniteMetric(("g1", "g2"), ((0, 5), (5, 0)))
    med = mediated_metric(ctx, m)
    assert med.dist("m1", "m1") == 0
    assert med.dist("m1", "m2") == 0  # equal full extents, distinct attributes
    assert med.empty_extents == ("m3", "m4")
    assert med.dist("m1", "m3") is None


def test_mediated_metric_metric_order_and_decimal_distances(rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        ctx = FormalContext(tuple(f"g{i}" for i in range(n)),
                            tuple(f"m{j}" for j in range(5)),
                            tuple(rng.getrandbits(5) for _ in range(n)))
        base = random_metric(rng, n)
        order = list(range(n))
        rng.shuffle(order)  # metric lists the objects in another order
        d = FiniteMetric(tuple(f"g{i}" for i in order),
                         tuple(tuple(Decimal(base.d[a][b]) for b in order) for a in order))
        med = mediated_metric(ctx, d)
        for j, m1 in enumerate(ctx.attributes):
            e1 = ctx.derive("attributes", [m1])
            for k, m2 in enumerate(ctx.attributes):
                e2 = ctx.derive("attributes", [m2])
                if not e1 or not e2:
                    assert med.dist(m1, m2) is None
                elif ctx.cols[j] == ctx.cols[k]:
                    assert type(med.dist(m1, m2)) is int and med.dist(m1, m2) == 0
                else:
                    assert med.dist(m1, m2) == hausdorff(d, e1, e2)


# -- valuation order and disagreement -------------------------------------


def test_valuation_airlines():
    vo = valuation_order(airlines())
    assert vo.leq("Leipzig/Halle", "Hamburg")
    assert not vo.leq("Hamburg", "Leipzig/Halle")


def test_valuation_all_rows_equal():
    ctx = FormalContext(("a", "b"), ("m",), (1, 1))
    vo = valuation_order(ctx)
    assert vo.leq("a", "b") and vo.leq("b", "a")


def test_valuation_empty_context():
    ctx = FormalContext(("a", "b"), (), (0, 0))
    vo = valuation_order(ctx)
    assert vo.leq("a", "b") and vo.leq("b", "a")


def test_disagreement_examples():
    chain = Poset.chain("ab")
    from odsk import QuasiOrder
    agree = QuasiOrder.from_values(("a", "b"), [0, 1])
    flip = QuasiOrder.from_values(("a", "b"), [1, 0])
    assert disagreement(chain, agree) == 0
    assert disagreement(chain, flip) == 1


def test_disagreement_matches_bruteforce(rng):
    from odsk import QuasiOrder
    for _ in range(15):
        p = random_poset(rng, rng.randint(1, 7))
        values = [rng.randint(0, 3) for _ in p.elements]
        qo = QuasiOrder.from_values(p.elements, values)
        brute = sum(
            1 for a in p.elements for b in p.elements
            if a != b and p.leq(a, b)
            and values[p.index(b)] < values[p.index(a)])
        assert disagreement(p, qo) == brute


def test_disagreement_zero_iff_linear_extension_tie_free(rng):
    from odsk import QuasiOrder
    for _ in range(10):
        p = random_poset(rng, rng.randint(2, 6))
        perm = list(p.elements)
        rng.shuffle(perm)
        values = {e: i for i, e in enumerate(perm)}
        qo = QuasiOrder.from_values(p.elements, [values[e] for e in p.elements])
        assert (disagreement(p, qo) == 0) == p.is_linear_extension(perm)


# -- distance CSV ----------------------------------------------------------


def test_distance_csv_roundtrip():
    d = airlines_distances()
    assert read_distance_csv(write_distance_csv(d)) == d


def test_distance_csv_rejects_asymmetry():
    text = ",a,b\na,0,1\nb,2,0\n"
    with pytest.raises(Exception):
        read_distance_csv(text)


def test_triangle_violation_warns_not_raises():
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        FiniteMetric(("a", "b", "c"),
                     ((0, 1, 5), (1, 0, 1), (5, 1, 0)))
    assert any("triangle" in str(w.message) for w in got)


def test_decimal_distances_supported():
    m = read_distance_csv(",a,b\na,0,1.5\nb,1.5,0\n")
    assert m.dist("a", "b") == Decimal("1.5")


def test_distance_csv_more_rows_than_names_is_parse_error():
    with pytest.raises(ParseError):
        read_distance_csv(",a\na,0\nb,1\n")
