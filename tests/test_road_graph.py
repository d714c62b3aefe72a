import gc
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from navpredict import road_graph
from navpredict.geo import (MIAMI, CityFrame, GeoPoint,
                            InvalidCoordinateError, LocalPoint,
                            OutOfZoneError, geo_to_local)
from navpredict.osm_ingest import build_nav_graph, parse_osm
from navpredict.road_graph import (
    GraphFormatError,
    LocalNavGraph,
    NavGraph,
    UnknownEdgeError,
    load_graph,
    localize,
    point_segment_distance,
    predecessors,
    resample_polyline,
    save_graph,
    segments_in_radius,
    successors,
)

# A frame whose origin is on the central meridian of zone 17 at the
# equator, so small lat/lon offsets map to roughly meter-scale x/y.
FRAME = CityFrame("equator", 17, 500000.0, 0.0)

# degrees of longitude per meter near the equator (approximate; only
# used to place fixture nodes, never asserted against)
DEG = 1.0 / 111000.0

FIXTURE = pathlib.Path(__file__).parent / "data" / "fixture.osm"


def _graph():
    #       4
    #       |
    #  1 -- 2 -- 3      plus a far-away 5--6 edge
    nodes = {
        1: GeoPoint(0.0, -81.0),
        2: GeoPoint(0.0, -81.0 + 100 * DEG),
        3: GeoPoint(0.0, -81.0 + 200 * DEG),
        4: GeoPoint(100 * DEG, -81.0 + 100 * DEG),
        5: GeoPoint(0.09, -81.0),
        6: GeoPoint(0.09, -81.0 + 100 * DEG),
    }
    edges = (
        (1, 2), (2, 1),
        (2, 3), (3, 2),
        (2, 4), (4, 2),
        (5, 6),
    )
    return NavGraph(nodes=nodes, edges=edges)


@pytest.fixture
def local():
    return localize(_graph(), FRAME)


def test_graph_validation_missing_node():
    with pytest.raises(ValueError, match="missing node"):
        NavGraph(nodes={1: GeoPoint(0, 0)}, edges=((1, 2),))


def test_graph_validation_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        NavGraph(nodes={1: GeoPoint(0, 0)}, edges=((1, 1),))


def test_graph_validation_duplicate_edge():
    nodes = {1: GeoPoint(0, 0), 2: GeoPoint(0, 0.001)}
    with pytest.raises(ValueError, match="repeated"):
        NavGraph(nodes=nodes, edges=((1, 2), (1, 2)))


def test_resample_point_count_formula():
    src, dst = LocalPoint(0.0, 0.0), LocalPoint(7.0, 0.0)
    pts = resample_polyline(src, dst, 2.0)
    # length 7, step 2 -> n = ceil(3.5) = 4 -> 5 points
    assert len(pts) == 5
    assert pts[0] == src
    assert pts[-1] == dst


@pytest.mark.parametrize("length,step,expected_n", [
    (10.0, 2.0, 5),
    (10.1, 2.0, 6),
    (1.0, 2.0, 1),     # shorter than step: single interval
    (0.0, 2.0, 1),     # degenerate: still two (coincident) points
    (2.0, 2.0, 1),
])
def test_resample_interval_counts(length, step, expected_n):
    pts = resample_polyline(LocalPoint(0, 0), LocalPoint(length, 0), step)
    assert len(pts) == expected_n + 1


def test_resample_spacing_uniform_and_below_step():
    pts = resample_polyline(LocalPoint(0, 0), LocalPoint(13.0, 9.0), 2.0)
    gaps = [math.hypot(b.x - a.x, b.y - a.y)
            for a, b in zip(pts, pts[1:])]
    assert max(gaps) <= 2.0 + 1e-12
    assert max(gaps) - min(gaps) < 1e-12


def test_resample_rejects_bad_step():
    for step in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="resample step"):
            resample_polyline(LocalPoint(0, 0), LocalPoint(1, 0), step)


def test_point_segment_distance_cases():
    a, b = LocalPoint(0.0, 0.0), LocalPoint(10.0, 0.0)
    assert point_segment_distance(5.0, 3.0, a, b) == pytest.approx(3.0)
    # beyond the endpoint the distance is to the endpoint itself
    assert point_segment_distance(13.0, 4.0, a, b) == pytest.approx(5.0)
    # degenerate zero-length segment
    assert point_segment_distance(3.0, 4.0, a, a) == pytest.approx(5.0)


def test_segment_polyline_endpoints_match_nodes(local):
    seg = local.segment((1, 2))
    a = local.local[1]
    b = local.local[2]
    assert seg.polyline[0] == a
    assert seg.polyline[-1] == b
    # ~100 m at 2 m step -> about 50 intervals
    assert len(seg.polyline) >= 45


def test_segment_unknown_edge(local):
    with pytest.raises(UnknownEdgeError):
        local.segment((1, 3))


def test_radius_query_matches_brute_force(local):
    rng = np.random.default_rng(11)
    for _ in range(50):
        cx = float(rng.uniform(-150.0, 10150.0))
        cy = float(rng.uniform(-150.0, 10150.0))
        r = float(rng.uniform(10.0, 400.0))
        got = {s.edge_id for s in
               segments_in_radius(local, LocalPoint(cx, cy), r)}
        expected = {
            eid for eid in local.graph.edges
            if point_segment_distance(
                cx, cy, local.local[eid[0]], local.local[eid[1]]) <= r
        }
        assert got == expected


def test_radius_query_sorted_by_edge_id(local):
    center = local.local[2]
    segs = segments_in_radius(local, center, 250.0)
    ids = [s.edge_id for s in segs]
    assert ids == sorted(ids)
    assert len(ids) >= 6


def test_radius_query_excludes_far_component(local):
    center = local.local[2]
    segs = segments_in_radius(local, center, 500.0)
    assert all(5 not in s.edge_id and 6 not in s.edge_id for s in segs)


def test_radius_query_rejects_bad_radius(local):
    for radius in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            segments_in_radius(local, LocalPoint(0, 0), radius)


def test_localize_rejects_bad_resample_step(local):
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="resample step"):
            localize(local.graph, local.frame, resample_step=step)


def test_localize_bounds_total_resample_intervals(local, monkeypatch):
    total = int(local._intervals.sum())
    monkeypatch.setattr(road_graph, "MAX_RESAMPLE_INTERVALS", total)
    assert localize(local.graph, local.frame)._intervals.sum() == total
    monkeypatch.setattr(road_graph, "MAX_RESAMPLE_INTERVALS", total - 1)
    with pytest.raises(ValueError, match=f"resample step 2.0 gives {total} "):
        localize(local.graph, local.frame)


@pytest.mark.parametrize("step", [1e-7, 1e-12, 1e-300])
def test_tiny_resample_step_rejected_before_any_cast(local, step):
    # A cast of the counts to integers would warn, and an allocation of
    # the points would fail, long before any is returned.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"resample step {step} "):
            localize(local.graph, local.frame, resample_step=step)
        with pytest.raises(ValueError, match=f"resample step {step} "):
            resample_polyline(LocalPoint(0, 0), LocalPoint(1e300, 0), step)


def test_localize_matches_one_point_projection_bit_for_bit():
    # localize projects all nodes in one array call; geo_to_local runs the
    # same kernel on one point. Each node gets the same bits from both.
    rng = np.random.default_rng(7)
    nodes = {nid: GeoPoint(lat, lon) for nid, (lat, lon) in enumerate(zip(
        rng.uniform(25.6, 26.0, 300).tolist(),
        rng.uniform(-80.4, -80.0, 300).tolist()))}
    edges = tuple((nid, nid + 1) for nid in range(299))
    g = localize(NavGraph(nodes=nodes, edges=edges), MIAMI)
    for nid, p in nodes.items():
        one = geo_to_local(p, MIAMI)
        assert (g.local[nid].x.hex(), g.local[nid].y.hex()) == (
            one.x.hex(), one.y.hex())


def test_localize_names_first_out_of_zone_node_in_node_order():
    # Nodes 2 and 5 in insertion order (ids 3 and 5) are out of zone 17.
    lons = {10: -81.0, 3: -85.123456789, 7: -80.5, 1: -81.5, 5: -90.25}
    nodes = {nid: GeoPoint(0.001 * k, lon)
             for k, (nid, lon) in enumerate(lons.items())}
    with pytest.raises(OutOfZoneError) as info:
        localize(NavGraph(nodes=nodes, edges=()), FRAME)
    assert str(info.value) == (
        "longitude -85.123456789 is 4.123 deg from the central meridian "
        "of zone 17 (limit 3.5)")


def test_successors_exclude_u_turn(local):
    # from (1, 2): continuations are (2, 3) and (2, 4), not (2, 1)
    assert successors(local, (1, 2)) == {(2, 3), (2, 4)}


def test_predecessors_exclude_u_turn(local):
    # into (2, 3): arrivals at 2 are (1, 2) and (4, 2), not (3, 2)
    assert predecessors(local, (2, 3)) == {(1, 2), (4, 2)}


def test_successors_of_dead_end(local):
    assert successors(local, (5, 6)) == set()


def test_successors_unknown_edge(local):
    with pytest.raises(UnknownEdgeError):
        successors(local, (6, 5))


def test_one_way_u_turn_not_excluded_when_absent():
    # If the reverse edge does not exist there is nothing to exclude;
    # a genuine loop back via a different node is kept.
    nodes = {1: GeoPoint(0, -81.0), 2: GeoPoint(0, -81.0 + 100 * DEG),
             3: GeoPoint(100 * DEG, -81.0 + 100 * DEG)}
    g = localize(NavGraph(nodes=nodes, edges=((1, 2), (2, 3), (3, 1))),
                 FRAME)
    assert successors(g, (1, 2)) == {(2, 3)}
    assert successors(g, (3, 1)) == {(1, 2)}


def test_save_load_round_trip(tmp_path, local):
    path = tmp_path / "g.txt"
    save_graph(local.graph, path)
    g2 = load_graph(path)
    assert set(g2.edges) == set(local.graph.edges)
    for nid, p in local.graph.nodes.items():
        assert g2.nodes[nid].lat == pytest.approx(p.lat, abs=1e-9)
        assert g2.nodes[nid].lon == pytest.approx(p.lon, abs=1e-9)


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("N 1 0.0 0.0\nX what\n")
    with pytest.raises(GraphFormatError, match=":2:"):
        load_graph(path)


def test_load_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("N 1 0.0\n")
    with pytest.raises(GraphFormatError):
        load_graph(path)


@pytest.mark.parametrize("text,line,what", [
    ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nN 1 26.0 -80.0\n", 3,
     "repeated node 1"),
    ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nE 1 2\nE 2 1\nE 1 2\n", 5,
     "repeated edge (1, 2)"),
    ("E 1 2\nN 1 25.0 -80.0\n", 1, "edge (1, 2) references missing node"),
    ("N 1 25.0 -80.0\nE 1 1\n", 2, "self-loop edge at node 1"),
], ids=["node", "edge", "missing-node", "self-loop"])
def test_load_rejects_repeated_record(tmp_path, text, line, what):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphFormatError,
                       match=f":{line}: .*{re.escape(what)}"):
        load_graph(path)


def _reference_polyline(a, b, step):
    """The per-point resampling the array path must reproduce bit for bit."""
    length = math.hypot(b.x - a.x, b.y - a.y)
    n = max(1, math.ceil(length / step))
    dx = b.x - a.x
    dy = b.y - a.y
    return [(a.x + dx * (i / n), a.y + dy * (i / n)) for i in range(n + 1)]


def _bits(pairs):
    """Coordinate bit patterns: equal iff every float.hex is equal."""
    return np.array(list(pairs), dtype=np.float64).view(np.int64)


def _fixture_graph():
    with open(FIXTURE, "rb") as fh:
        return build_nav_graph(*parse_osm(fh))


def _grid_graph(seed=4, side=10, spacing=100.0):
    """Jittered two-way street grid plus a zero-length edge."""
    rng = np.random.default_rng(seed)
    nodes = {}
    for r in range(side):
        for c in range(side):
            dy, dx = (rng.uniform(-0.2, 0.2, size=2) + (r + 1, c)) * spacing
            nodes[r * side + c] = GeoPoint(dy * DEG, -81.0 + dx * DEG)
    edges = []
    for r in range(side):
        for c in range(side):
            nid = r * side + c
            for other in ((nid + 1) if c + 1 < side else None,
                          (nid + side) if r + 1 < side else None):
                if other is not None:
                    edges += [(nid, other), (other, nid)]
    twin = side * side
    nodes[twin] = nodes[0]
    edges.append((0, twin))
    return NavGraph(nodes=nodes, edges=tuple(edges))


@pytest.mark.parametrize("graph,frame", [
    (_fixture_graph(), MIAMI), (_grid_graph(), FRAME),
], ids=["fixture", "grid"])
def test_radius_query_matches_per_point_reference(graph, frame):
    rng = np.random.default_rng(23)
    graphs = {step: localize(graph, frame, resample_step=step)
              for step in (2.0, 0.7, 3.3)}
    xy = np.array([(p.x, p.y) for p in graphs[2.0].local.values()])
    lo, hi = xy.min(axis=0) - 100.0, xy.max(axis=0) + 100.0
    span = float(np.hypot(*(hi - lo)))
    for k in range(200):
        step = float(rng.choice(list(graphs)))
        g = graphs[step]
        cx, cy = rng.uniform(lo, hi)
        # Every tenth radius covers the whole graph.
        radius = span if k % 10 == 0 else float(rng.uniform(5.0, 400.0))
        segs = segments_in_radius(g, LocalPoint(cx, cy), radius)
        expected = sorted(
            eid for eid in g.graph.edges
            if point_segment_distance(cx, cy, g.local[eid[0]],
                                      g.local[eid[1]]) <= radius)
        assert [s.edge_id for s in segs] == expected
        for seg in segs:
            ref = _bits(_reference_polyline(g.local[seg.src],
                                            g.local[seg.dst], step))
            assert np.array_equal(seg.points.view(np.int64), ref)
            assert np.array_equal(_bits((p.x, p.y) for p in seg.polyline),
                                  ref)


@pytest.mark.parametrize("graph,frame", [
    (_fixture_graph(), MIAMI), (_grid_graph(), FRAME),
], ids=["fixture", "grid"])
def test_radius_equal_to_an_edge_distance_keeps_that_edge(graph, frame):
    # The radius is the scalar distance to the picked edge, so the edge
    # sits exactly on the border, where np.hypot and math.hypot can part.
    g = localize(graph, frame)
    rng = np.random.default_rng(31)
    edges = sorted(g.graph.edges)
    zero_length = [eid for eid in edges
                   if g.local[eid[0]] == g.local[eid[1]]]
    for k in range(300):
        pool = zero_length if zero_length and k % 7 == 0 else edges
        eid = pool[rng.integers(len(pool))]
        a, b = g.local[eid[0]], g.local[eid[1]]
        # Every fifth centre lies so far off that the grid clips the
        # query box.
        offset = 20000.0 if k % 5 == 0 else 150.0
        cx, cy = np.array([a.x, a.y]) + rng.uniform(-offset, offset, size=2)
        radius = point_segment_distance(cx, cy, a, b)
        got = [s.edge_id for s in
               segments_in_radius(g, LocalPoint(cx, cy), radius)]
        assert eid in got
        assert got == [e for e in edges if point_segment_distance(
            cx, cy, g.local[e[0]], g.local[e[1]]) <= radius]


@pytest.mark.parametrize("axis", [0, 1])
def test_radius_equal_to_an_edge_distance_keeps_an_edge_on_a_cell_edge(axis):
    # The chord at 0 puts cell edges at 0 and 100 m. 100 - 2**-46 lies
    # just below the one at 100, and its offset from a centre at 228
    # rounds to exactly -128: the scalar test keeps the chord at radius
    # 128, though its true distance exceeds 128 and the box edge
    # 228 - 128 falls in the next cell.
    near_edge = 100.0 - 2.0 ** -46
    xy = [(near_edge, -10.0), (near_edge, 10.0), (0.0, -10.0), (0.0, 10.0),
          (300.0, -10.0), (300.0, 10.0)]
    center = (228.0, 0.0)
    if axis:
        xy, center = [p[::-1] for p in xy], center[::-1]
    local = {nid: LocalPoint(*p) for nid, p in enumerate(xy)}
    graph = NavGraph(nodes={nid: GeoPoint(25.0, -80.2) for nid in local},
                     edges=((0, 1), (2, 3), (4, 5)))
    x, y = np.array(xy).T
    g = LocalNavGraph(graph=graph, frame=MIAMI, x=x, y=y, resample_step=2.0)
    assert point_segment_distance(*center, local[0], local[1]) == 128.0
    got = segments_in_radius(g, LocalPoint(*center), 128.0)
    assert [s.edge_id for s in got] == [(0, 1), (4, 5)]


def test_long_edge_is_cheap_to_index():
    # Two nodes some 30 km apart, joined both ways: each chord's box
    # touches every cell of the grid, which the cell cap keeps small.
    graph = NavGraph(nodes={0: GeoPoint(25.0, -80.5),
                            1: GeoPoint(25.2, -80.3)},
                     edges=((0, 1), (1, 0)))
    tracemalloc.start()
    try:
        g = localize(graph, MIAMI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.prod(g._index.shape) <= 3 * 2 ** 14 + 1
    hits = segments_in_radius(g, g.local[1], 1.0)
    assert [s.edge_id for s in hits] == [(0, 1), (1, 0)]


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 5), (3, 2)])
def test_local_graph_rejects_coordinates_of_another_length(nx, ny):
    graph = NavGraph(nodes={nid: GeoPoint(25.0, -80.2) for nid in range(3)},
                     edges=((0, 1), (1, 2)))
    message = (rf"^3 nodes need coordinates of shape \(3,\), "
               rf"got x \({nx},\) and y \({ny},\)$")
    with pytest.raises(ValueError, match=message):
        LocalNavGraph(graph, MIAMI, np.zeros(nx), np.zeros(ny), 2.0)


@pytest.mark.parametrize("nodes", [
    {}, {1: GeoPoint(0.0, -81.0), 2: GeoPoint(0.0, -81.0 + 100 * DEG)},
], ids=["empty", "no-edges"])
def test_radius_query_on_a_graph_without_edges_is_empty(nodes):
    g = localize(NavGraph(nodes=nodes, edges=()), FRAME)
    for center in (LocalPoint(0.0, 0.0), LocalPoint(-9e5, 9e5)):
        for radius in (1e-300, 1.0, 1e6, 1e308):
            assert segments_in_radius(g, center, radius) == []


def test_resample_counts_follow_math_hypot_on_integer_quotients():
    # np.hypot and math.hypot can part in the last bit. Where length /
    # step is an integer k by math.hypot but not by np.hypot, the count
    # must still be k.
    rng = np.random.default_rng(17)
    cases = []
    for dx, dy in rng.uniform(-300.0, 300.0, (20000, 2)).tolist():
        length, other = math.hypot(dx, dy), float(np.hypot(dx, dy))
        for k in (3, 7, 10):
            step = length / k
            if length / step == k and math.ceil(other / step) != k:
                cases.append((dx, dy, step, k))
    assert len(cases) >= 20
    for dx, dy, step, k in cases:
        points = resample_polyline(LocalPoint(0.0, 0.0), LocalPoint(dx, dy),
                                   step)
        assert len(points) == k + 1, (dx, dy, step)


def test_resample_polyline_matches_per_point_reference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = LocalPoint(*rng.uniform(-5000.0, 5000.0, size=2))
        b = LocalPoint(*(np.array([a.x, a.y])
                         + rng.uniform(-300.0, 300.0, size=2)))
        step = float(rng.uniform(0.3, 5.0))
        assert np.array_equal(
            _bits((p.x, p.y) for p in resample_polyline(a, b, step)),
            _bits(_reference_polyline(a, b, step)))


def test_zero_length_edge_has_two_coincident_points():
    g = localize(_grid_graph(), FRAME)
    seg = g.segment((0, 100))
    a = g.local[0]
    assert seg.points.tolist() == [[a.x, a.y], [a.x, a.y]]
    assert seg.polyline == (a, a)
    hits = segments_in_radius(g, a, 1.0)
    assert seg in hits


def test_radius_covering_whole_graph_returns_every_edge(local):
    # The grid clips a query box far wider than the graph.
    segs = segments_in_radius(local, LocalPoint(0.0, 0.0), 1e6)
    assert [s.edge_id for s in segs] == sorted(local.graph.edges)
    assert segs == [local.segment(eid) for eid in sorted(local.graph.edges)]


def test_radius_query_far_from_every_edge_is_empty(local):
    assert segments_in_radius(local, LocalPoint(-9e5, -9e5), 50.0) == []


def test_segment_matches_query_and_compares_by_value(local):
    seg = local.segment((2, 3))
    (hit,) = [s for s in segments_in_radius(local, local.local[3], 1.0)
              if s.edge_id == (2, 3)]
    assert seg == hit and hash(seg) == hash(hit) == hash((2, 3))
    assert hit.points is not seg.points
    coarse = localize(local.graph, FRAME, resample_step=5.0).segment((2, 3))
    assert coarse != seg
    assert local.segment((3, 2)) != seg
    assert len({seg, hit, coarse}) == 2


def test_segment_points_are_read_only(local):
    for seg in (local.segment((1, 2)),
                *segments_in_radius(local, local.local[2], 150.0)):
        assert not seg.points.flags.writeable
        with pytest.raises(ValueError):
            seg.points[0, 0] = 1.0


def test_radius_query_allocates_per_segment_not_per_vertex():
    g = localize(_grid_graph(), FRAME)
    center = g.local[55]
    segments_in_radius(g, center, 300.0)        # warm up
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        segs = segments_in_radius(g, center, 300.0)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    vertices = sum(len(s.polyline) for s in segs)
    assert len(segs) >= 20 and vertices >= 20 * len(segs)
    assert added <= 2 * len(segs) + 10, (added, len(segs), vertices)


# Malformed graph files and the GraphFormatError text each got from the
# per-line loader that built a GeoPoint per node: the array loader names
# the same first faulty line with the same words.
LOADER_ERRORS = {
    "nan-lat": ("N 1 25.0 -80.0\nN 2 nan -80.1\nE 1 2\n",
                "{path}:2: bad graph line 'N 2 nan -80.1' (non-finite "
                "coordinate: GeoPoint(lat=nan, lon=-80.1))"),
    "inf-lon": ("N 1 25.0 inf\n",
                "{path}:1: bad graph line 'N 1 25.0 inf' (non-finite "
                "coordinate: GeoPoint(lat=25.0, lon=inf))"),
    "lat-range": ("N 1 25.0 -80.0\nN 2 90.5 -80.1\n",
                  "{path}:2: bad graph line 'N 2 90.5 -80.1' (latitude out "
                  "of range: 90.5)"),
    "lon-range": ("N 1 25.0 -80.0\nN 2 25.0 180.0\nE 1 2\n",
                  "{path}:2: bad graph line 'N 2 25.0 180.0' (longitude out "
                  "of range: 180.0)"),
    "repeated-node": ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nN 1 26.0 -80.0\n",
                      "{path}:3: bad graph line 'N 1 26.0 -80.0' (repeated "
                      "node 1)"),
    "missing-before": ("E 1 3\nN 1 25.0 -80.0\nN 2 25.0 -80.1\n",
                       "{path}:1: edge (1, 3) references missing node"),
    "missing-after": ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nE 1 2\nE 2 3\n",
                      "{path}:4: edge (2, 3) references missing node"),
    "self-loop": ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nE 1 2\nE 2 2\n",
                  "{path}:4: self-loop edge at node 2"),
    "repeated-edge": ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nE 1 2\nE 2 1\n"
                      "E 1 2\n", "{path}:5: repeated edge (1, 2)"),
    "trailing-node": ("N 1 25.0 -80.0\nN 2 25.0 -80.1 7\n",
                      "{path}:2: bad graph line 'N 2 25.0 -80.1 7' "
                      "(unrecognized record)"),
    "trailing-edge": ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nE 1 2 3\n",
                      "{path}:3: bad graph line 'E 1 2 3' (unrecognized "
                      "record)"),
    "underscore-ids": ("N 1_000 25.0 -80.0\nN 2 25.0 -80.1\nE 1_000 2\n"
                       "N 1000 26.0 -80.0\n",
                       "{path}:4: bad graph line 'N 1000 26.0 -80.0' "
                       "(repeated node 1000)"),
    "bad-int": ("N 1 25.0 -80.0\nE 1 2.0\n",
                "{path}:2: bad graph line 'E 1 2.0' (invalid literal for "
                "int() with base 10: '2.0')"),
    "bad-float": ("N 1 25.0 -80.0\nN 2 25,0 -80.1\n",
                  "{path}:2: bad graph line 'N 2 25,0 -80.1' (could not "
                  "convert string to float: '25,0')"),
    "repeat-before-float": ("N 1 25.0 -80.0\nN 1 x -80.1\n",
                            "{path}:2: bad graph line 'N 1 x -80.1' "
                            "(repeated node 1)"),
    "range-before-parse": ("N 1 25.0 -80.0\nN 2 95.0 -80.0\nE 1 2\nX 1\n",
                           "{path}:2: bad graph line 'N 2 95.0 -80.0' "
                           "(latitude out of range: 95.0)"),
    "parse-before-range": ("N 1 25.0 -80.0\nX 1\nN 2 95.0 -80.0\n",
                           "{path}:2: bad graph line 'X 1' (unrecognized "
                           "record)"),
    "node-before-edge": ("E 1 1\nN 1 25.0 -80.0\nN 1 26.0 -80.0\n",
                         "{path}:3: bad graph line 'N 1 26.0 -80.0' "
                         "(repeated node 1)"),
    "whitespace": ("\n  N 1\t25.0 -80.0  \r\n\nN 2 25.0 -1e400\n",
                   "{path}:4: bad graph line 'N 2 25.0 -1e400' (non-finite "
                   "coordinate: GeoPoint(lat=25.0, lon=-inf))"),
    "edge-order": ("N 1 25.0 -80.0\nN 2 25.0 -80.1\nE 2 1\nE 1 9\nE 1 1\n"
                   "E 2 1\n", "{path}:4: edge (1, 9) references missing "
                   "node"),
}


@pytest.mark.parametrize("name", list(LOADER_ERRORS))
def test_load_graph_error_text(tmp_path, name):
    text, message = LOADER_ERRORS[name]
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(GraphFormatError) as info:
        load_graph(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("text,line,nid", [
    ("N 1 25.0 -80.0\nN 9223372036854775808 25.0 -80.1\n", 2,
     9223372036854775808),
    ("N 1 25.0 -80.0\nE 1 -9223372036854775809\n", 2, -9223372036854775809),
    ("E 99999999999999999999 1\nN 1 25.0 -80.0\n", 1, 99999999999999999999),
    # The line that breaks first is named: a bad line, then the id.
    ("N 1 25.0 -80.0\nN 2 95.0 -80.0\nE 1 2\nE 1 9223372036854775808\n", 2,
     None),
    ("N 1 25.0 -80.0\nE 1 9223372036854775808\nX\n", 2,
     9223372036854775808),
], ids=["node", "edge-dst", "edge-src-first", "coordinates-first",
        "id-before-parse"])
def test_load_rejects_ids_outside_int64(tmp_path, text, line, nid):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    what = (f"node id {nid} is outside int64" if nid is not None
            else "latitude out of range")
    with pytest.raises(GraphFormatError,
                       match=f"^{re.escape(str(path))}:{line}: bad graph "
                             f"line .*{what}"):
        load_graph(path)


def test_load_keeps_negative_and_extreme_int64_ids(tmp_path):
    lo, hi = -2 ** 63, 2 ** 63 - 1
    path = tmp_path / "g.txt"
    path.write_text(f"N {hi} 25.0 -80.0\nN -5 25.0 -80.1\nN {lo} 25.1 -80.0\n"
                    f"E -5 {hi}\nE {lo} -5\n")
    g = load_graph(path)
    assert list(g.nodes) == [lo, -5, hi]
    assert g.edges == ((-5, hi), (lo, -5))
    lg = localize(g, MIAMI)
    assert successors(lg, (lo, -5)) == {(-5, hi)}
    save_graph(g, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_text() == (
        f"N {lo} 25.100000000 -80.000000000\nN -5 25.000000000 "
        f"-80.100000000\nN {hi} 25.000000000 -80.000000000\n"
        f"E -5 {hi}\nE {lo} -5\n")


def test_graph_from_dict_names_ids_outside_int64():
    nodes = {1: GeoPoint(25.0, -80.0), 2: GeoPoint(25.0, -80.1)}
    with pytest.raises(ValueError, match="node id 9223372036854775808 is "
                                         "outside int64"):
        NavGraph(nodes={**nodes, 2 ** 63: GeoPoint(25.0, -80.2)}, edges=())
    with pytest.raises(ValueError, match="node id -9223372036854775809 is "
                                         "outside int64"):
        NavGraph(nodes=nodes, edges=((1, 2), (-2 ** 63 - 1, 2)))


def test_graph_views_read_the_arrays():
    nodes = {7: GeoPoint(25.5, -80.25), -3: GeoPoint(25.25, -80.5),
             4: GeoPoint(25.75, -80.125)}
    graph = NavGraph(nodes=nodes, edges=((7, -3), (4, 7), (-3, 7)))
    assert graph.ids.tolist() == [-3, 4, 7]
    assert graph.edge_nodes.tolist() == [[2, 0], [1, 2], [0, 2]]
    assert graph.nodes == nodes and len(graph.nodes) == 3
    assert list(graph.nodes) == [-3, 4, 7]
    assert 4 in graph.nodes and 5 not in graph.nodes
    with pytest.raises(KeyError):
        graph.nodes[5]
    with pytest.raises(TypeError):
        graph.nodes[4] = GeoPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        graph.lat[0] = 0.0
    lg = localize(graph, MIAMI)
    for nid, p in nodes.items():
        one = geo_to_local(p, MIAMI)
        assert (lg.local[nid].x.hex(), lg.local[nid].y.hex()) == (
            one.x.hex(), one.y.hex())
    assert lg._edges == ((-3, 7), (4, 7), (7, -3))
    assert lg._out == {-3: ((-3, 7),), 4: ((4, 7),), 7: ((7, -3),)}
    assert lg._in == {-3: ((7, -3),), 7: ((-3, 7), (4, 7))}


@pytest.mark.parametrize("lat", [1e-5, 0.0])
def test_localize_rejects_a_graph_across_the_equator(lat):
    # 2 m apart, but a southern node takes the false northing: one frame
    # put these two points 10,000 km apart.
    graph = NavGraph(nodes={1: GeoPoint(lat, -81.0),
                            2: GeoPoint(-1e-5, -81.0)},
                     edges=((1, 2), (2, 1)))
    with pytest.raises(InvalidCoordinateError, match="equator"):
        localize(graph, FRAME)
    # Each side on its own localizes.
    for nid in (1, 2):
        localize(NavGraph(nodes={nid: graph.nodes[nid]}, edges=()), FRAME)


def test_localize_peak_memory_of_a_10k_node_grid():
    # No point object per node: the frame coordinates stay in two arrays,
    # and each node's runs of out- and in-edges are slices of one tuple.
    graph = _grid_graph(seed=3, side=100, spacing=50.0)
    localize(graph, FRAME)                     # warm up
    gc.collect()
    tracemalloc.start()
    try:
        g = localize(graph, FRAME)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.local) == 10001 and len(g._edges) == 39601
    # The per-node LocalPoint dict and edge lists peaked near 15 MB.
    assert peak < 13e6, peak
