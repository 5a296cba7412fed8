import contextlib
import hashlib
import io
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

import odsk.layout as layout
from odsk import (LinearExtension, Poset, concepts, dimdraw,
                  intersect_linear_orders, layered, order_dimension, quality,
                  render)
from odsk.cli import run
from odsk.errors import BudgetExceeded
from odsk.fixtures import bundesliga_domination, fixture_path, rembrandt, socialnet
from odsk.layout import Drawing, QualityMetrics, _segments_cross

from conftest import boolean_cube, random_poset, shuffled_posets


def upward_ok(p: Poset, drawing) -> bool:
    pos = drawing.position_map()
    return all(pos[a][1] < pos[b][1] for a, b in p.covers)


def extensions_from_drawing(p: Poset, drawing):
    """Recover (L1, L2) from dimdraw coordinates: rank1 = (x+y)/2."""
    pos = drawing.position_map()
    l1 = sorted(p.elements, key=lambda e: pos[e][0] + pos[e][1])
    l2 = sorted(p.elements, key=lambda e: pos[e][1] - pos[e][0])
    return LinearExtension(tuple(l1)), LinearExtension(tuple(l2))


# -- dimdraw ----------------------------------------------------------------


def test_dimdraw_chain_vertical_line():
    d = dimdraw(Poset.chain("abcd"))
    xs = {xy[0] for _, xy in d.positions}
    assert xs == {0}


def test_dimdraw_two_antichain_mirrored():
    d = dimdraw(Poset.antichain("ab"))
    pos = d.position_map()
    (xa, ya), (xb, yb) = pos["a"], pos["b"]
    assert ya == yb and xa == -xb and xa != 0


def test_dimdraw_uses_exact_realizer_for_2d(rng):
    checked = 0
    for _ in range(40):
        p = random_poset(rng, rng.randint(2, 7))
        try:
            res = order_dimension(p, max_k=2)
        except BudgetExceeded:
            continue
        if res.dim != 2:
            continue
        checked += 1
        d = dimdraw(p)
        l1, l2 = extensions_from_drawing(p, d)
        back = intersect_linear_orders([l1, l2])
        assert sorted(back.covers) == sorted(p.covers)
    assert checked >= 5


def test_dimdraw_2d_lattice_no_crossings_and_beats_layered():
    # a 2-dimensional lattice: the 3x2 grid (product of two chains)
    elements = [f"{i}{j}" for i in range(3) for j in range(2)]
    pairs = [(a, b) for a in elements for b in elements
             if a != b and a[0] <= b[0] and a[1] <= b[1]]
    p = Poset.from_pairs(elements, pairs)
    dd = dimdraw(p)
    assert upward_ok(p, dd)
    q_dim = quality(dd)
    q_lay = quality(layered(p))
    assert q_dim.crossings == 0
    assert q_dim.crossings <= q_lay.crossings


def test_dimdraw_upward_invariant_high_dimension():
    p = boolean_cube(3)  # dimension 3 forces the sampling path
    d = dimdraw(p)
    assert upward_ok(p, d)


# -- layered -----------------------------------------------------------------


def test_layered_chain_one_node_per_layer():
    d = layered(Poset.chain("abc"))
    ys = sorted(xy[1] for _, xy in d.positions)
    assert ys == [0, 1, 2]


def test_layered_cube_layer_sizes():
    d = layered(boolean_cube(3))
    from collections import Counter
    sizes = Counter(xy[1] for _, xy in d.positions)
    assert sorted(sizes.values()) == [1, 1, 3, 3]


def test_layered_rembrandt_upward_and_deterministic():
    lat = concepts(rembrandt())
    p = lat.to_poset()
    d1, d2 = layered(p), layered(p)
    assert upward_ok(p, d1)
    assert render(d1) == render(d2)
    assert render(d1, fmt="dot") == render(d2, fmt="dot")


def test_layered_upward_random(rng):
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 9))
        assert upward_ok(p, layered(p))


# -- the bit-row drawing path against the name-keyed code it replaced -------


def _same_direction_best(p: Poset, samples: list[LinearExtension]) -> int:
    """The first sampled pair with the fewest incomparable pairs that both
    extensions order the same way."""
    pairs = [(p.index(a), p.index(b)) for a, b in p.incomparable_pairs()]
    ranks = [[s.position[e] for e in p.elements] for s in samples]
    return min(range(0, len(samples), 2), key=lambda i: sum(
        (ranks[i][a] < ranks[i][b]) == (ranks[i + 1][a] < ranks[i + 1][b]) for a, b in pairs))


def _over_budget(*args, **kwargs):
    raise BudgetExceeded("no realizer search in this test")


@given(shuffled_posets(st.integers(1, 12)))
def test_dimdraw_picks_the_pair_the_same_direction_score_picks(p):
    samples = [p.sample_linear_extension(seed=s) for s in range(layout.PAIR_SEARCH_SEEDS)]
    best = _same_direction_best(p, samples)
    with pytest.MonkeyPatch.context() as mp:  # the sampled path, whatever the dimension
        mp.setattr(layout, "order_dimension", _over_budget)
        d = dimdraw(p)
    # the two rank lists, and so the sampled pair, can be read off the points
    assert d.positions == layout._drawing_from_extensions(
        p, samples[best], samples[best + 1]).positions


def _name_keyed_layered(p: Poset) -> tuple:
    """Layered positions from name-keyed cover lists, sorted back into
    element order at the end."""
    levels = [list(level) for level in p.height_levels()]
    cover_up: dict[str, list[str]] = {e: [] for e in p.elements}
    cover_dn: dict[str, list[str]] = {e: [] for e in p.elements}
    for a, b in p.covers:
        cover_up[a].append(b)
        cover_dn[b].append(a)
    for sweep in range(layout.MEDIAN_SWEEPS):
        upward = sweep % 2 == 0
        seq = range(1, len(levels)) if upward else range(len(levels) - 2, -1, -1)
        for li in seq:
            refpos = {e: k for k, e in enumerate(levels[li - 1] if upward else levels[li + 1])}
            neigh = cover_dn if upward else cover_up
            keyed = []
            for k, e in enumerate(levels[li]):
                ns = sorted(refpos[x] for x in neigh[e] if x in refpos)
                keyed.append((ns[len(ns) // 2] if ns else k, k, e))
            levels[li] = [e for _, _, e in sorted(keyed)]
    positions = [(e, (2 * k - (len(layer) - 1), li))
                 for li, layer in enumerate(levels) for k, e in enumerate(layer)]
    order = {e: i for i, e in enumerate(p.elements)}
    return tuple(sorted(positions, key=lambda t: order[t[0]]))


@given(shuffled_posets(st.integers(0, 12)))
def test_layered_matches_the_name_keyed_layout(p):
    d = layered(p)
    assert d.positions == _name_keyed_layered(p)
    assert d.edges == p.covers


# -- quality -----------------------------------------------------------------


def test_quality_chain():
    q = quality(dimdraw(Poset.chain("abcd")))
    assert q.crossings == 0
    assert q.distinct_slopes == 1


def test_quality_completion_of_antichain():
    from odsk import dedekind_macneille
    comp = dedekind_macneille(Poset.antichain("ab"))
    p = comp.lattice.to_poset()
    q = quality(dimdraw(p))
    assert q.crossings == 0


def test_quality_planar_square():
    p = Poset.from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    q = quality(layered(p))
    assert q.crossings == 0


def test_quality_crossing_detected():
    d = Drawing(
        (("a", (0, 0)), ("b", (1, 0)), ("c", (0, 1)), ("d", (1, 1))),
        (("a", "d"), ("b", "c")))
    assert quality(d).crossings == 1


def test_quality_min_node_edge_distance():
    p = Poset.chain("ab")
    q = quality(layered(p))
    assert q.min_node_edge_distance == math.inf  # all nodes incident


def _quality_all_pairs(d: Drawing) -> QualityMetrics:
    """Oracle: the earlier all-pairs quality, written for Fraction
    coordinates (ints carry numerator and denominator too)."""
    pos = d.position_map()
    segs = [(pos[a], pos[b], a, b) for a, b in d.edges]
    crossings = 0
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _segments_cross(segs[i][0], segs[i][1], segs[j][0], segs[j][1]):
                crossings += 1
    slopes = set()
    for (x1, y1), (x2, y2), _, _ in segs:
        dx, dy = x2 - x1, y2 - y1
        g = math.gcd(dx.numerator * dy.denominator, dy.numerator * dx.denominator)
        num_dx = dx.numerator * dy.denominator
        num_dy = dy.numerator * dx.denominator
        if g:
            num_dx //= g
            num_dy //= g
        if num_dy < 0 or (num_dy == 0 and num_dx < 0):
            num_dx, num_dy = -num_dx, -num_dy
        slopes.add((num_dx, num_dy))

    def point_seg_dist(c, a, b) -> float:
        ax, ay = float(a[0]), float(a[1])
        bx, by = float(b[0]), float(b[1])
        cx, cy = float(c[0]), float(c[1])
        dx, dy = bx - ax, by - ay
        if dx == dy == 0:
            return math.hypot(cx - ax, cy - ay)
        t = max(0.0, min(1.0, ((cx - ax) * dx + (cy - ay) * dy) / (dx * dx + dy * dy)))
        return math.hypot(cx - (ax + t * dx), cy - (ay + t * dy))

    min_dist = math.inf
    for name, c in d.positions:
        for pa, pb, a, b in segs:
            if name in (a, b):
                continue
            min_dist = min(min_dist, point_seg_dist(c, pa, pb))
    return QualityMetrics(crossings, len(slopes), min_dist)


def _drawing(points: dict[str, tuple[int, int]], edges: str) -> Drawing:
    return Drawing(tuple(points.items()), tuple(tuple(e) for e in edges.split()))


@pytest.mark.parametrize("d, expected", [
    # collinear overlapping vertical edges; b lies on a-c
    (_drawing({"a": (0, 0), "b": (0, 1), "c": (0, 2), "d": (0, 3)}, "ac bd"),
     QualityMetrics(1, 1, 0.0)),
    # collinear overlapping diagonal edges
    (_drawing({"a": (0, 0), "b": (1, 1), "c": (2, 2), "d": (3, 3)}, "ac bd"),
     QualityMetrics(1, 1, 0.0)),
    # collinear edges that only share an endpoint
    (_drawing({"a": (0, 0), "b": (0, 1), "c": (0, 2)}, "ab bc"),
     QualityMetrics(0, 1, 1.0)),
    # a shared lower endpoint
    (_drawing({"a": (0, 0), "b": (-1, 1), "c": (1, 1)}, "ab ac"),
     QualityMetrics(0, 2, math.sqrt(2))),
    # a proper crossing
    (_drawing({"a": (0, 0), "b": (2, 0), "c": (0, 2), "d": (2, 2)}, "ad bc"),
     QualityMetrics(1, 2, math.hypot(1, 1))),
    # no non-incident node-edge pair
    (_drawing({"a": (0, 0), "b": (3, 1)}, "ab"), QualityMetrics(0, 1, math.inf)),
    (_drawing({}, ""), QualityMetrics(0, 0, math.inf)),
])
def test_quality_edge_cases_match_all_pairs(d, expected):
    assert quality(d) == _quality_all_pairs(d) == expected


def test_quality_matches_all_pairs_on_random_int_drawings(rng):
    seen_zero = seen_inf = 0
    for trial in range(200):
        # small grids force collinear edges and nodes lying on edges
        span = rng.choice([2, 3, 5, 9])
        grid = [(x, y) for x in range(-span, span + 1) for y in range(span + 1)]
        points = rng.sample(grid, rng.randint(0, min(len(grid), 24)))
        names = [f"v{i}" for i in range(len(points))]
        density = rng.choice([0.1, 0.3, 0.6])
        edges = tuple((a, b) for a, pa in zip(names, points)
                       for b, pb in zip(names, points)
                       if pa[1] < pb[1] and rng.random() < density)
        d = Drawing(tuple(zip(names, points)), edges)
        expected = _quality_all_pairs(d)
        assert quality(d) == expected, trial
        seen_zero += expected.min_node_edge_distance == 0.0
        seen_inf += expected.min_node_edge_distance == math.inf
    assert seen_zero >= 20 and seen_inf >= 5  # both edge cases were drawn


@pytest.mark.filterwarnings("ignore:dimdraw budget exceeded")
def test_quality_matches_all_pairs_on_layouts(rng):
    posets = [concepts(rembrandt()).to_poset(), concepts(socialnet()).to_poset()]
    posets += [random_poset(rng, rng.randint(2, 14)) for _ in range(20)]
    for p in posets:
        for d in (dimdraw(p), layered(p)):
            assert quality(d) == _quality_all_pairs(d)


# -- golden CLI output ---------------------------------------------------------

# sha256 prefixes of the drawing file and of the --json quality report
GOLDEN_DRAW = {
    ("rembrandt.cxt", "dimdraw", "svg"): ("46b1362bcf557a5a", "59da6af5a2cfa003"),
    ("rembrandt.cxt", "dimdraw", "dot"): ("4d26e4bf466c127b", "59da6af5a2cfa003"),
    ("rembrandt.cxt", "layered", "svg"): ("424d9e8d6a83a612", "00755545d65bce69"),
    ("rembrandt.cxt", "layered", "dot"): ("f8d26500ae6442f6", "00755545d65bce69"),
    ("socialnet.cxt", "dimdraw", "svg"): ("2a2cad427e029c4d", "031fcdf81567a7b9"),
    ("socialnet.cxt", "dimdraw", "dot"): ("810dc6de74ae2fda", "031fcdf81567a7b9"),
    ("socialnet.cxt", "layered", "svg"): ("2a2cad427e029c4d", "031fcdf81567a7b9"),
    ("socialnet.cxt", "layered", "dot"): ("810dc6de74ae2fda", "031fcdf81567a7b9"),
    ("bundesliga.tsv", "dimdraw", "svg"): ("8b172fd771fdac6e", "ebcc331faaa77938"),
    ("bundesliga.tsv", "dimdraw", "dot"): ("05c4abc5bff73e74", "ebcc331faaa77938"),
    ("bundesliga.tsv", "layered", "svg"): ("96e66b00db79442b", "dd58c6694bd93b04"),
    ("bundesliga.tsv", "layered", "dot"): ("df9fabbf9aca4229", "dd58c6694bd93b04"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.filterwarnings("ignore:dimdraw budget exceeded")
@pytest.mark.parametrize("fixture, algo, fmt", sorted(GOLDEN_DRAW))
def test_draw_output_bytes_pinned(tmp_path, fixture, algo, fmt):
    target = tmp_path / f"drawing.{fmt}"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--json", "draw", str(fixture_path(fixture)), "--algo", algo,
                    "-o", str(target)])
    assert code == 0
    assert (_digest(target.read_bytes()), _digest(out.getvalue().encode())) \
        == GOLDEN_DRAW[fixture, algo, fmt]


@pytest.mark.filterwarnings("ignore:dimdraw budget exceeded")
def test_drawing_coordinates_are_ints():
    posets = [concepts(rembrandt()).to_poset(), concepts(socialnet()).to_poset(),
              bundesliga_domination()]
    for p in posets:
        for d in (dimdraw(p), layered(p)):
            assert all(type(x) is int and type(y) is int for _, (x, y) in d.positions)


# -- render ------------------------------------------------------------------


def test_render_svg_parses_with_circle_per_node():
    p = Poset.chain("abc")
    svg = render(layered(p))
    root = ET.fromstring(svg)
    assert sum(1 for el in root.iter() if el.tag.endswith("circle")) == 3


def test_render_dot_roundtrips_node_count():
    p = boolean_cube(2)
    dot = render(layered(p), fmt="dot")
    assert dot.count("pos=") == len(p)
    assert dot.count("->") == len(p.covers)


def test_render_empty_poset():
    empty = Poset((), ())
    assert ET.fromstring(render(layered(empty))) is not None
    assert render(layered(empty), fmt="dot") == "digraph order {\n}\n"


def test_render_labels_and_escaping():
    p = Poset.chain(["a<b"])
    svg = render(layered(p), labels={"a<b": 'x "&" y'})
    assert "&quot;" in svg and "&amp;" in svg
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert texts == ['x "&" y']


def test_render_byte_determinism(rng):
    for _ in range(5):
        p = random_poset(rng, 6)
        assert render(dimdraw(p)) == render(dimdraw(p))
