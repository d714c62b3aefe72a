import math

import numpy as np
import pytest

from navpredict.geo import CityFrame, GeoPoint, LocalPoint
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
    with pytest.raises(ValueError, match="duplicate"):
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
            eid for eid in local.edge_ids
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
