import gc
import math
import pathlib
import re

import numpy as np
import pytest

from navpredict.geo import MIAMI, CityFrame, GeoPoint, LocalPoint
from navpredict.osm_ingest import build_nav_graph, parse_osm
from navpredict.road_graph import (
    GraphFormatError,
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


def test_radius_covering_whole_graph_walks_occupied_cells(local):
    # The query box spans far more cells than the index holds.
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
