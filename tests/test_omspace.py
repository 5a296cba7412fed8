import warnings
from decimal import Decimal
from itertools import combinations

import pytest

from odsk import (EmptyImage, EmptySet, FiniteMetric, FormalContext, OmSpace,
                  Poset, Relation, disagreement, hausdorff, mediated_metric,
                  read_distance_csv, relational_distortion, valuation_order)
from odsk import OdskError, ParseError
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


@pytest.mark.parametrize("cell", ["Infinity", "-Infinity", "NaN", "sNaN", "1e1000000",
                                  "1e-1000000", "0e-99999999"])
def test_distance_csv_rejects_non_finite_cells(cell):
    with pytest.raises(ParseError, match=f"not finite or out of range: '{cell}'"):
        read_distance_csv(f",a,b\na,0,{cell}\nb,{cell},0\n")


@pytest.mark.parametrize("value", ["NaN", "sNaN", "Infinity", "1e-1000000", "1e1000000"])
def test_metric_rejects_distances_that_exact_arithmetic_cannot_bound(value):
    v = Decimal(value)
    with pytest.raises(OdskError, match="not finite or out of range"):
        FiniteMetric(("a", "b"), ((0, v), (v, 0)))


def test_distance_csv_largest_values_do_not_overflow():
    big = "9e999999"  # the sum of two of them overflows the decimal context
    m = read_distance_csv(f",a,b,c\na,0,{big},{big}\nb,{big},0,{big}\nc,{big},{big},0\n")
    assert m.dist("a", "c") == Decimal(big)


def test_distance_csv_malformed_csv_is_parse_error():
    with pytest.raises(ParseError):
        read_distance_csv(",a\ra,0\n")


# -- exact Decimal comparisons ---------------------------------------------


def test_triangle_check_and_gaps_do_not_round_decimals():
    one, long, tiny = Decimal(1), Decimal("1.0000000000000000000000000001"), \
        Decimal("0.0000000000000000000000000001")
    half, near = Decimal("5E-29"), Decimal("1.99999999999999999999999999995")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a false violation would warn
        m = FiniteMetric(("a", "b", "c"), ((0, one, long), (one, 0, tiny), (long, tiny, 0)))
        # d(a,b) = d(a,c) + d(c,b) exactly; at 28 digits 2 - 5E-29 rounds to 2
        tight = FiniteMetric(("a", "b", "c"), ((0, 2, half), (2, 0, near), (half, near, 0)))
    assert m.triangle_violations() == tight.triangle_violations() == []
    # every image is the whole set, so each gap is the distance itself
    full = Relation(m.elements, frozenset((i, j) for i in range(3) for j in range(3)))
    res = relational_distortion(OmSpace(full, m))
    assert (repr(res.value), res.witness) == (repr(long), ("a", "c"))


# -- differential tests against the pairwise kernels -----------------------


def _old_hausdorff_indices(d, ia, ib):
    ab = max(min(d[x][y] for y in ib) for x in ia)
    ba = max(min(d[x][y] for x in ia) for y in ib)
    return max(ab, ba)


def _old_hausdorff(metric, a, b):
    ia = [metric.index(x) for x in a]
    ib = [metric.index(y) for y in b]
    if not ia or not ib:
        raise EmptySet("hausdorff distance needs nonempty sets")
    return _old_hausdorff_indices(metric.d, ia, ib)


def _old_relational_distortion(space, reflexive_close=False):
    from odsk.omspace import DistortionResult
    from odsk.order import _bits
    rel = space.relation.reflexive_closure() if reflexive_close else space.relation
    n = len(space.elements)
    rows = rel.rows()
    empty = tuple(space.elements[i] for i in range(n) if rows[i] == 0)
    if empty:
        raise EmptyImage(empty)
    images = [[j for j in _bits(rows[i])] for i in range(n)]
    d = space.metric.d
    best = 0
    witness = None
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(d[i][j] - _old_hausdorff_indices(d, images[i], images[j]))
            if witness is None or gap > best:
                best = gap
                witness = (space.elements[i], space.elements[j])
    return DistortionResult(best, witness)


def _old_mediated_metric(ctx, d_g):
    from odsk.omspace import MediatedMetric
    from odsk.order import _bits
    pos = {name: k for k, name in enumerate(d_g.elements)}
    metric_index = [pos[g] for g in ctx.objects]
    cols = ctx.cols
    extents = [[metric_index[i] for i in _bits(col)] for col in cols]
    empty = tuple(m for m, col in zip(ctx.attributes, cols) if not col)
    table = []
    for ci, ei in zip(cols, extents):
        row = []
        for cj, ej in zip(cols, extents):
            if not ci or not cj:
                row.append(None)
            elif ci == cj:
                row.append(0)
            else:
                row.append(_old_hausdorff_indices(d_g.d, ei, ej))
        table.append(tuple(row))
    return MediatedMetric(ctx.attributes, tuple(table), empty)


def _old_triangle_violations(metric):
    n = len(metric.elements)
    return [(metric.elements[i], metric.elements[k], metric.elements[j])
            for i in range(n) for j in range(n) for k in range(n)
            if metric.d[i][j] - metric.d[i][k] > metric.d[k][j]]


def _old_parse_number(text):
    from decimal import InvalidOperation, getcontext
    t = text.strip()
    try:
        val = Decimal(t)
    except InvalidOperation as exc:
        raise ParseError(f"bad distance value: {text!r}") from exc
    if not val.is_finite() or val.adjusted() > getcontext().Emax:
        raise ParseError(f"distance value not finite or out of range: {text!r}")
    return int(val) if val == val.to_integral_value() and "." not in t and "e" not in t.lower() else val


def _outcome(f, *args):
    """repr of the result, or the error, so that types must match too."""
    try:
        return repr(f(*args))
    except OdskError as exc:
        return f"{type(exc).__name__}: {exc}"


def _cell(rng, v, decimal):
    """One spelling of the value v: int, or a Decimal with 0-2 trailing
    zeros, so that mirrored cells such as 5 and 5.0 differ as objects."""
    if not decimal or rng.random() < 0.3:
        return v
    return Decimal(v).quantize(Decimal(1).scaleb(-rng.randint(0, 2)))


def _random_table_metric(rng, n, decimal):
    """A symmetric table with small values (triangle violations and ties
    included); Decimal tables mix spellings and halves."""
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vals[i][j] = vals[j][i] = rng.choice((1, 2, 3, 5, Decimal("2.5"))
                                                 if decimal else (1, 2, 3, 5))
    d = tuple(tuple(v if isinstance(v, Decimal) else _cell(rng, v, decimal) for v in row)
              for row in vals)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return FiniteMetric(tuple(f"x{i}" for i in range(n)), d)


@pytest.mark.parametrize("decimal", [False, True], ids=["int", "decimal"])
def test_kernels_match_the_pairwise_versions(decimal):
    rng = __import__("random").Random(11 + decimal)
    for _ in range(300):
        n = rng.randint(1, 7)
        m = _random_table_metric(rng, n, decimal)
        assert m.triangle_violations() == _old_triangle_violations(m)
        names = m.elements
        a = rng.sample(names, rng.randint(0, n))
        b = [rng.choice(names) for _ in range(rng.randint(0, n))]  # repeats too
        assert _outcome(hausdorff, m, a, b) == _outcome(_old_hausdorff, m, a, b)
        rel = Relation(names, frozenset((i, j) for i in range(n) for j in range(n)
                                        if rng.random() < 0.4))
        for close in (False, True):
            space = OmSpace(rel, m)
            assert _outcome(relational_distortion, space, close) == \
                _outcome(_old_relational_distortion, space, close)
        order = list(names)
        rng.shuffle(order)  # the context lists the objects in another order
        ctx = FormalContext(tuple(order), tuple(f"m{j}" for j in range(5)),
                            tuple(rng.getrandbits(5) & rng.getrandbits(5) for _ in range(n)))
        assert _outcome(mediated_metric, ctx, m) == _outcome(_old_mediated_metric, ctx, m)


def test_parse_number_matches_the_decimal_path():
    from odsk.omspace import _parse_number
    cells = ["0", "7", "007", " 12 ", "5.0", "5.00", "1e3", "1E3", "-1", "+4", "2.5",
             "0.0", "1_000", "٣", "²", "", "x", "9" * 30, "0e-5"]
    for cell in cells:
        assert _outcome(_parse_number, cell) == _outcome(_old_parse_number, cell)
    big = "1" * 5000  # past int()'s default digit limit, and repr's
    assert type(_parse_number(big)) is int and _parse_number(big) == _old_parse_number(big)
