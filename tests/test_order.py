import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from odsk import (AntisymmetryViolation, BudgetExceeded, FiniteMetric, FormalContext,
                  LinearExtension, OdskError, OrdinalStructure, Poset, QuasiOrder,
                  Relation, UnknownAttribute, close_quasiorder, close_relation,
                  intersect_linear_orders, pareto_maxima, poset_from_tsv,
                  product_order, product_quasiorder)
from odsk.fixtures import bundesliga_scales, bundesliga_table
from odsk.omspace import MediatedMetric
from odsk.order import _bits
from odsk.scaling import to_ordinal_structure

from conftest import (brute_extension_count, brute_max_antichain, brute_max_chain,
                      random_poset, shuffled_posets)


def small_relations():
    names = st.integers(2, 5).map(lambda n: [f"e{i}" for i in range(n)])
    return names.flatmap(
        lambda ns: st.lists(
            st.tuples(st.sampled_from(ns), st.sampled_from(ns)), max_size=10
        ).map(lambda ps: (ns, ps)))


# -- close_relation -----------------------------------------------------


def test_close_relation_transitive_fill():
    p = close_relation(Relation.from_named_pairs("abc", [("a", "b"), ("b", "c")]))
    assert p.leq("a", "c")
    assert sum(bin(r).count("1") for r in p.up) == 3 + 3  # 3 reflexive + a<b,b<c,a<c


def test_close_relation_empty_is_antichain():
    p = close_relation(Relation.from_named_pairs("ab", []))
    assert p.incomparable_pairs() == (("a", "b"),)


def test_close_relation_cycle_reports_class():
    with pytest.raises(AntisymmetryViolation) as exc:
        close_relation(Relation.from_named_pairs("ab", [("a", "b"), ("b", "a")]))
    assert exc.value.classes == (frozenset({"a", "b"}),)


# -- validation -----------------------------------------------------------


@pytest.mark.parametrize("build, error, message", [
    (lambda: Poset(("a", "b"), (0b01,)),
     OdskError, "row count does not match element count"),
    (lambda: Poset(("a", "b"), (0b01, 0b00)), OdskError, "relation not reflexive at b"),
    (lambda: Poset(("a",), (0b11,)), OdskError, "relation row wider than element count"),
    (lambda: Poset(("a", "b", "c"), (0b011, 0b110, 0b100)),
     OdskError, "relation not transitive"),
    (lambda: Poset(("a", "b"), (0b11, 0b11)), AntisymmetryViolation,
     "relation is not antisymmetric; equivalent classes: {a,b}"),
    (lambda: QuasiOrder(("a", "b"), (0b01,)),
     OdskError, "row count does not match element count"),
    (lambda: QuasiOrder(("a",), (0b01, 0b11)),
     OdskError, "row count does not match element count"),
    (lambda: QuasiOrder(("a", "b"), (0b11, 0b01)), OdskError, "quasi-order not reflexive at b"),
    (lambda: QuasiOrder(("a",), (0b11,)),
     OdskError, "quasi-order row wider than element count"),
    (lambda: QuasiOrder(("a", "b", "c"), (0b011, 0b110, 0b100)),
     OdskError, "quasi-order not transitive"),
    (lambda: Poset(("a", "b", "a"), (0b001, 0b010, 0b100)),
     OdskError, "duplicate element names: ['a']"),
    (lambda: Relation(("a",), frozenset({(0, 1)})), OdskError, "pair index out of range: (0, 1)"),
    (lambda: Relation.from_named_pairs(("a",), [("a", "b")]),
     OdskError, "unknown element in pair: 'b'"),
], ids=["poset-rows", "poset-reflexive", "poset-wide-row", "poset-transitive",
        "poset-antisymmetric", "quasi-too-few-rows", "quasi-too-many-rows", "quasi-reflexive",
        "quasi-wide-row", "quasi-transitive", "duplicate-names", "pair-out-of-range",
        "pair-unknown-element"])
def test_invalid_relations_are_rejected(build, error, message):
    with pytest.raises(OdskError) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


_CTX = FormalContext(("g",), ("m",), (0b1,))


@pytest.mark.parametrize("lookup, error, message", [
    (lambda: _CTX.has("zz", "m"), OdskError, "unknown object: 'zz'"),
    (lambda: _CTX.has("g", "zz"), UnknownAttribute, "unknown attribute: 'zz'"),
    (lambda: _CTX.derive("objects", ["g", "zz"]), OdskError, "unknown object: 'zz'"),
    (lambda: _CTX.derive("attributes", ["zz"]), UnknownAttribute, "unknown attribute: 'zz'"),
    (lambda: QuasiOrder(("a",), (0b1,)).leq("a", "zz"), OdskError, "unknown element: 'zz'"),
    (lambda: MediatedMetric(("m",), ((0,),), ()).dist("m", "zz"),
     UnknownAttribute, "unknown attribute: 'zz'"),
    (lambda: FiniteMetric(("a",), ((0,),)).dist("zz", "a"), OdskError, "unknown element: 'zz'"),
    (lambda: Poset.chain("a").leq("zz", "a"), OdskError, "unknown element: 'zz'"),
], ids=["has-object", "has-attribute", "derive-objects", "derive-attributes",
        "quasi-leq", "mediated-dist", "metric-dist", "poset-leq"])
def test_unknown_names_raise_odsk_errors(lookup, error, message):
    with pytest.raises(OdskError) as exc:
        lookup()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_quasi_order_allows_ties():
    assert QuasiOrder(("a", "b"), (0b11, 0b11)).leq("b", "a")


# -- quotient -----------------------------------------------------------


def test_quotient_merges_tied_pair():
    q = close_quasiorder(Relation.from_named_pairs(
        "abc", [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")]))
    poset, class_of = q.quotient()
    assert set(poset.elements) == {"a+b", "c"}
    assert poset.leq("a+b", "c")
    assert class_of == {"a": "a+b", "b": "a+b", "c": "c"}


def test_quotient_of_poset_is_isomorphic():
    q = close_quasiorder(Relation.from_named_pairs("abc", [("a", "b")]))
    poset, class_of = q.quotient()
    assert set(poset.elements) == {"a", "b", "c"}
    assert all(k == v for k, v in class_of.items())


def test_quotient_bundesliga_won_column_class_count():
    # oracle: the number of distinct W values in the league table
    table = bundesliga_table()
    wins = table.column("W").values
    q = QuasiOrder.from_values(table.objects, [int(w) for w in wins])
    poset, _ = q.quotient()
    assert len(poset) == len(set(wins)) == 12
    # the quotient of a single valuation is a chain
    assert poset.width_height() == (1, 12)


# -- covering relation ---------------------------------------------------


def test_covers_chain_and_antichain():
    assert Poset.chain("abc").covers == (("a", "b"), ("b", "c"))
    assert Poset.antichain("abc").covers == ()


@given(small_relations())
def test_cover_closure_roundtrip(data):
    names, pairs = data
    try:
        p = close_relation(Relation.from_named_pairs(names, pairs))
    except AntisymmetryViolation:
        return
    again = Poset.from_pairs(p.elements, p.covers)
    assert again.up == p.up


# -- product order / pareto ----------------------------------------------


def _structure(columns: dict[str, list], elements: list[str],
               descending: set[str] = frozenset()) -> OrdinalStructure:
    orders = tuple(
        (name, QuasiOrder.from_values(elements, vals, descending=name in descending))
        for name, vals in columns.items())
    return OrdinalStructure(tuple(elements), orders)


def test_product_single_linear_order_identity():
    s = _structure({"v": [1, 2, 3]}, ["a", "b", "c"])
    poset, class_of = product_order(s)
    assert poset.leq("a", "b") and poset.leq("b", "c")
    assert all(k == v for k, v in class_of.items())


def test_product_two_reversed_copies_is_antichain():
    s = _structure({"v": [1, 2, 3], "w": [3, 2, 1]}, ["a", "b", "c"])
    poset, _ = product_order(s)
    assert len(poset.incomparable_pairs()) == 3


def test_product_bundesliga_dortmund_bayern_incomparable():
    table = bundesliga_table()
    specs = bundesliga_scales()
    s = to_ordinal_structure(table.select(list(specs)), specs)
    poset, _ = product_order(s)
    assert not poset.leq("Borussia Dortmund", "FC Bayern München")
    assert not poset.leq("FC Bayern München", "Borussia Dortmund")
    # Bayern dominates Leipzig outright
    assert poset.leq("RB Leipzig", "FC Bayern München")


def test_pareto_single_order_top_tie_class():
    s = _structure({"v": [1, 3, 3]}, ["a", "b", "c"])
    assert pareto_maxima(s) == {"b", "c"}


def test_pareto_all_identical():
    s = _structure({"v": [5, 5, 5], "w": [1, 1, 1]}, ["a", "b", "c"])
    assert pareto_maxima(s) == {"a", "b", "c"}


def test_pareto_bundesliga_matches_domination_scan():
    table = bundesliga_table()
    specs = bundesliga_scales()
    s = to_ordinal_structure(table.select(list(specs)), specs)
    maxima = pareto_maxima(s)
    assert {"FC Bayern München", "Borussia Dortmund"} <= maxima

    # independent pairwise domination scan over the raw columns
    cols = {name: [int(v) for v in table.column(name).values]
            for name in ("W", "L", "GF", "GA")}
    teams = table.objects

    def dominates(i, j):  # i strictly dominated by j
        ge = (cols["W"][j] >= cols["W"][i] and cols["L"][j] <= cols["L"][i]
              and cols["GF"][j] >= cols["GF"][i] and cols["GA"][j] <= cols["GA"][i])
        ne = (cols["W"][j], cols["L"][j], cols["GF"][j], cols["GA"][j]) != \
             (cols["W"][i], cols["L"][i], cols["GF"][i], cols["GA"][i])
        return ge and ne

    brute = {teams[i] for i in range(len(teams))
             if not any(dominates(i, j) for j in range(len(teams)) if j != i)}
    assert maxima == brute == {"FC Bayern München", "Borussia Dortmund"}


def test_product_order_properties_random(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        elements = [f"e{i}" for i in range(n)]
        cols = {f"c{k}": [rng.randint(0, 3) for _ in range(n)]
                for k in range(rng.randint(1, 3))}
        s = _structure(cols, elements)
        poset, class_of = product_order(s)  # construction validates the axioms
        maxima = pareto_maxima(s)
        top_classes = {class_of[m] for m in maxima}
        assert top_classes == set(poset.maximal_elements())


# -- width / height --------------------------------------------------------


def test_width_height_examples():
    assert Poset.antichain("abcd").width_height() == (4, 1)
    assert Poset.chain("abcd").width_height() == (1, 4)


def test_width_height_long_augmenting_paths():
    # fence a_i < b_i, a_i < b_(i-1): augmenting paths run along the fence,
    # far deeper than the interpreter's recursion limit
    n = 1100
    names = tuple(f"b{i}" for i in range(n)) + tuple(f"a{i}" for i in range(n))
    up = [1 << i for i in range(n)]
    for i in range(n):
        up.append(1 << (n + i) | 1 << i | (1 << (i - 1) if i else 0))
    assert Poset(names, tuple(up)).width_height() == (n, 2)


def test_width_height_boolean_cube():
    from conftest import boolean_cube
    assert boolean_cube(3).width_height() == (3, 4)


def test_width_height_vs_bruteforce(rng):
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 8))
        w, h = p.width_height()
        assert w == brute_max_antichain(p)
        assert h == brute_max_chain(p)
        # Mirsky: the height levels are an antichain cover of size h
        levels = p.height_levels()
        assert len(levels) == h
        for level in levels:
            sub = [p.index(e) for e in level]
            assert all(not (p.up[a] >> b & 1)
                       for a in sub for b in sub if a != b)


# -- extension counting and sampling ---------------------------------------


def test_count_examples():
    assert Poset.chain("abcde").linear_extension_count() == 1
    assert Poset.antichain("ab").linear_extension_count() == 2
    assert Poset.antichain("abc").linear_extension_count() == 6


def test_count_budget():
    big = Poset.antichain([f"x{i}" for i in range(21)])
    with pytest.raises(BudgetExceeded):
        big.linear_extension_count()


def test_count_matches_bruteforce(rng):
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 8), p=rng.choice([0.2, 0.4, 0.7]))
        assert p.linear_extension_count() == brute_extension_count(p)


def test_sample_chain_unique():
    p = Poset.chain("abc")
    assert p.sample_linear_extension(seed=7).order == ("a", "b", "c")


def test_sample_two_antichain_frequencies():
    p = Poset.antichain("ab")
    counts = Counter(p.sample_linear_extension(seed=s).order for s in range(10_000))
    assert abs(counts[("a", "b")] / 10_000 - 0.5) <= 0.03


def test_samples_are_linear_extensions(rng):
    for _ in range(10):
        p = random_poset(rng, rng.randint(1, 7))
        for s in range(5):
            assert p.is_linear_extension(p.sample_linear_extension(seed=s))


# -- intersection / linear extension checks ---------------------------------


def test_intersect_single_order_is_chain():
    p = intersect_linear_orders([LinearExtension(("a", "b", "c"))])
    assert p.leq("a", "c") and p.width_height() == (1, 3)


def test_intersect_opposite_orders_is_antichain():
    p = intersect_linear_orders([LinearExtension(("a", "b", "c")),
                                 LinearExtension(("c", "b", "a"))])
    assert len(p.incomparable_pairs()) == 3


def test_is_linear_extension_examples():
    chain = Poset.chain("abc")
    assert not chain.is_linear_extension(("c", "b", "a"))
    assert Poset.antichain("abc").is_linear_extension(("b", "c", "a"))


def _pairwise_is_linear_extension(p: Poset, order) -> bool:
    """The test by name positions, one comparable pair at a time."""
    names = order.order if isinstance(order, LinearExtension) else tuple(order)
    if sorted(names) != sorted(p.elements):
        return False
    pos = {name: k for k, name in enumerate(names)}
    for i in range(len(p)):
        pi = pos[p.elements[i]]
        for j in _bits(p.up[i] & ~(1 << i)):
            if pi > pos[p.elements[j]]:
                return False
    return True


@given(shuffled_posets(st.integers(1, 12)), st.data())
def test_is_linear_extension_matches_the_pairwise_test(p, data):
    perm = data.draw(st.permutations(p.elements))
    ext = p.sample_linear_extension(seed=data.draw(st.integers(0, 99)))
    k = data.draw(st.integers(0, len(p) - 1))
    repeated = perm[:k] + perm[k + 1:] + [perm[k - 1]]  # for n = 1, perm itself
    missing = perm[:k] + perm[k + 1:]
    assert p.is_linear_extension(ext) and p.is_linear_extension(list(ext.order))
    for order in (perm, LinearExtension(tuple(perm)), repeated, missing):
        assert p.is_linear_extension(order) == _pairwise_is_linear_extension(p, order)


def test_bundesliga_final_ranking_is_linear_extension():
    table = bundesliga_table()
    specs = bundesliga_scales()
    s = to_ordinal_structure(table.select(list(specs)), specs)
    for ties in ("quotient", "incomparable"):
        poset, class_of = product_order(s, ties=ties)
        by_pos = sorted(table.objects,
                        key=lambda t: -int(table.column("Pos").values[table.objects.index(t)]))
        ranking = [class_of[t] for t in by_pos]  # worst team first
        assert poset.is_linear_extension(ranking)


# -- filters / ideals --------------------------------------------------------


def test_filter_ideal_examples():
    chain = Poset.chain("abc")
    assert chain.order_filter(["a"]) == {"a", "b", "c"}
    assert chain.order_ideal(["a"]) == {"a"}
    assert Poset.antichain("abc").order_filter(["a"]) == {"a"}


# -- edge list format ---------------------------------------------------------


def test_tsv_roundtrip():
    p = Poset.from_pairs("abcd", [("a", "b"), ("b", "c")])
    again = poset_from_tsv(p.to_tsv())
    assert sorted(again.elements) == sorted(p.elements)
    assert sorted(again.covers) == sorted(p.covers)


def test_tsv_comments_and_isolated():
    text = "# comment\na\tb\n\nlonely\n"
    p = poset_from_tsv(text)
    assert set(p.elements) == {"a", "b", "lonely"}
    assert p.leq("a", "b")
    assert p.order_filter(["lonely"]) == {"lonely"}
