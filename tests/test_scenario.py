import json
import time

import numpy as np
import pytest

from navpredict.scenario import (
    DT,
    FUTURE_LEN,
    OBSERVED_LEN,
    MapPair,
    Scene,
    SceneFormatError,
    WorldSpec,
    generate_scenes,
    generate_world,
    read_scenes,
    read_world,
    view_points,
    write_scenes,
    write_world,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldSpec(seed=3))


@pytest.fixture(scope="module")
def scenes(world):
    return generate_scenes(world, 60, seed=5)


def test_timing_constants():
    assert OBSERVED_LEN == 20
    assert FUTURE_LEN == 30
    assert DT == 0.1
    # 2 s observed, 3 s future at 10 Hz
    assert OBSERVED_LEN * DT == pytest.approx(2.0)
    assert FUTURE_LEN * DT == pytest.approx(3.0)


def test_world_spec_validation():
    with pytest.raises(ValueError):
        WorldSpec(lanes_per_road=4)
    with pytest.raises(ValueError):
        WorldSpec(lane_width=0.0)
    with pytest.raises(ValueError):
        WorldSpec(num_roads=-1)


@pytest.mark.parametrize("kwargs,message", [
    ({"lane_width": float("nan")}, "lane width"),
    ({"lane_width": float("inf")}, "lane width"),
    ({"curvature_range": (float("nan"), 0.0)}, "curvature range"),
    ({"curvature_range": (0.0, float("inf"))}, "curvature range"),
    ({"curvature_range": (1.0, -1.0)}, "curvature range"),
    ({"curvature_range": (-1e308, 1e308)}, "curvature range"),
], ids=["lane-width-nan", "lane-width-inf", "curvature-nan",
        "curvature-inf", "curvature-reversed", "curvature-span-overflows"])
def test_world_spec_rejects_bad_geometry(kwargs, message):
    with pytest.raises(ValueError, match=message):
        WorldSpec(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    ({"n": -5}, "scene count"),
    ({"noise_sigma": float("nan")}, "noise sigma"),
    ({"noise_sigma": -0.1}, "noise sigma"),
    ({"noise_sigma": float("inf")}, "noise sigma"),
    ({"p_turn": 3.0}, "p_turn"),
    ({"p_turn": float("nan")}, "p_turn"),
    ({"p_lane_change": -0.2}, "p_lane_change"),
    ({"p_turn": 0.9, "p_lane_change": 0.2}, "summing to at most 1"),
], ids=["n-negative", "noise-nan", "noise-negative", "noise-inf",
        "p-turn-3", "p-turn-nan", "p-lane-change-negative", "p-sum-above-1"])
def test_generate_scenes_rejects_bad_parameters(world, kwargs, message):
    args = {"n": 3, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=message):
        generate_scenes(world, **args)


def test_generate_zero_scenes_from_any_world():
    empty = generate_world(WorldSpec(num_roads=0, intersection_count=0))
    assert generate_scenes(empty, 0, seed=0) == []


def test_world_shapes(world):
    spec = WorldSpec(seed=3)
    assert len(world.nav_roads) == spec.num_roads
    assert len(world.hd_lanes) == spec.num_roads * spec.lanes_per_road
    assert len(world.road_lanes) == spec.num_roads
    for r, lane_ids in enumerate(world.road_lanes):
        for lid in lane_ids:
            assert world.hd_lanes[lid].road == r


def test_world_generation_is_deterministic():
    a = generate_world(WorldSpec(seed=9))
    b = generate_world(WorldSpec(seed=9))
    for la, lb in zip(a.hd_lanes, b.hd_lanes):
        np.testing.assert_array_equal(la.points, lb.points)
    for pa, pb in zip(a.nav_roads, b.nav_roads):
        np.testing.assert_array_equal(pa, pb)


def test_nav_view_is_mean_of_lanes(world):
    for r, lane_ids in enumerate(world.road_lanes):
        stacked = np.stack([world.hd_lanes[i].points for i in lane_ids])
        np.testing.assert_allclose(world.nav_roads[r],
                                   stacked.mean(axis=0), atol=1e-12)


def test_adjacent_lanes_separated_by_lane_width(world):
    width = WorldSpec(seed=3).lane_width
    for lane_ids in world.road_lanes:
        for a, b in zip(lane_ids, lane_ids[1:]):
            gap = np.linalg.norm(
                world.hd_lanes[a].points - world.hd_lanes[b].points, axis=1
            )
            np.testing.assert_allclose(gap, width, atol=1e-9)


def test_lane_points_spacing_close_to_sample_step(world):
    for lane in world.hd_lanes:
        gaps = np.linalg.norm(np.diff(lane.points, axis=0), axis=1)
        # arc-length parameterized at 2 m on the road centerline; lane
        # offsets stretch/shrink this slightly on curved roads
        assert np.all(gaps > 1.5)
        assert np.all(gaps < 2.5)


def test_intersections_have_two_members_and_cross_widely(world):
    assert world.intersections
    for inter in world.intersections:
        assert len(inter.members) >= 2
        # both member roads pass within a couple meters of the point
        for road, s in inter.members:
            nav = world.nav_roads[road]
            d = np.linalg.norm(nav - inter.point, axis=1).min()
            assert d < 3.0


def test_lane_successors_link_intersecting_roads(world):
    inter = world.intersections[0]
    (ra, _), (rb, _) = inter.members[:2]
    for la in world.road_lanes[ra]:
        assert set(world.road_lanes[rb]) <= set(world.hd_lanes[la].successors)


def test_view_points(world):
    hd = view_points(world, "hd")
    nav = view_points(world, "nav")
    none = view_points(world, "none")
    assert hd.shape[1] == 2 and nav.shape[1] == 2
    assert hd.shape[0] == sum(len(l.points) for l in world.hd_lanes)
    assert nav.shape[0] == sum(len(p) for p in world.nav_roads)
    assert none.shape == (0, 2)
    with pytest.raises(ValueError):
        view_points(world, "satellite")


def test_scene_shapes(scenes):
    for scene in scenes:
        assert scene.future.shape == (FUTURE_LEN, 2)
        for track in scene.agents:
            assert track.shape == (OBSERVED_LEN, 2)
        assert 0 <= scene.target < len(scene.agents)


def test_scene_validation():
    good = np.zeros((OBSERVED_LEN, 2))
    fut = np.zeros((FUTURE_LEN, 2))
    with pytest.raises(ValueError):
        Scene(0, [np.zeros((5, 2))], 0, fut)
    with pytest.raises(ValueError):
        Scene(0, [good], 0, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        Scene(0, [good], 1, fut)
    for bad in (np.nan, np.inf):
        track = good.copy()
        track[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Scene(0, [good, track], 0, fut)
        future = fut.copy()
        future[-1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Scene(0, [good], 0, future)


def test_scenes_depend_only_on_seed_and_id(world):
    long = generate_scenes(world, 30, seed=5)
    short = generate_scenes(world, 10, seed=5)
    for a, b in zip(short, long):
        np.testing.assert_array_equal(a.future, b.future)
        assert a.target == b.target
        assert len(a.agents) == len(b.agents)
        for ta, tb in zip(a.agents, b.agents):
            np.testing.assert_array_equal(ta, tb)


def test_different_seeds_differ(world):
    a = generate_scenes(world, 5, seed=1)
    b = generate_scenes(world, 5, seed=2)
    assert not np.array_equal(a[0].future, b[0].future)


def test_maneuver_mix(world):
    got = {s.maneuver for s in generate_scenes(world, 200, seed=0)}
    assert got == {"straight", "turn", "lane_change"}


def test_target_speed_within_range(scenes):
    for scene in scenes:
        track = scene.agents[scene.target]
        steps = np.linalg.norm(np.diff(track, axis=0), axis=1)
        speed = steps.mean() / DT
        # noise and turn blending perturb the nominal 3..15 m/s a little
        assert 1.5 < speed < 17.0


def test_future_continues_observation(scenes):
    for scene in scenes:
        last = scene.agents[scene.target][-1]
        gap = np.linalg.norm(scene.future[0] - last)
        # one 0.1 s step at <= ~15 m/s plus noise
        assert gap < 3.0


def test_write_read_round_trip(tmp_path, scenes):
    path = tmp_path / "scenes.ndjson"
    write_scenes(scenes, path)
    back = read_scenes(path)
    assert len(back) == len(scenes)
    for a, b in zip(scenes, back):
        assert a.scene_id == b.scene_id
        assert a.target == b.target
        np.testing.assert_allclose(a.future, b.future, atol=1e-6)
        for ta, tb in zip(a.agents, b.agents):
            np.testing.assert_allclose(ta, tb, atol=1e-6)


def test_write_is_byte_deterministic(tmp_path, scenes):
    p1 = tmp_path / "a.ndjson"
    p2 = tmp_path / "b.ndjson"
    write_scenes(scenes, p1)
    write_scenes(scenes, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_reports_record_index(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"scene_id":0,"agents":[],"target":0}\n')
    with pytest.raises(SceneFormatError, match="record 0"):
        read_scenes(path)
    path.write_text(
        '{"scene_id":0,"agents":[%s],"target":0,"future":%s}\n'
        'not json\n' % (
            str([[0.0, 0.0]] * OBSERVED_LEN),
            str([[0.0, 0.0]] * FUTURE_LEN),
        ))
    with pytest.raises(SceneFormatError, match="record 1"):
        read_scenes(path)


def test_read_rejects_non_finite_record(tmp_path, scenes):
    path = tmp_path / "scenes.ndjson"
    write_scenes(scenes[:3], path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["future"][5][0] = float("nan")
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SceneFormatError, match="record 2.*non-finite"):
        read_scenes(path)


def test_world_write_read_round_trip(tmp_path, world):
    hd_path = tmp_path / "world_hd.json"
    nav_path = tmp_path / "world_nav.json"
    write_world(world, hd_path, nav_path)
    back = read_world(hd_path, nav_path)
    lanes, roads = back.hd_lanes, back.nav_roads
    assert len(lanes) == len(world.hd_lanes)
    for a, b in zip(world.hd_lanes, lanes):
        assert a.lane_id == b.lane_id
        assert a.road == b.road
        assert a.successors == b.successors
        np.testing.assert_allclose(a.points, b.points, atol=1e-6)
    assert len(roads) == len(world.nav_roads)
    for a, b in zip(world.nav_roads, roads):
        np.testing.assert_allclose(a, b, atol=1e-6)
    # reconstructed views feed the model the same way
    for source in ("hd", "nav", "none"):
        np.testing.assert_allclose(view_points(back, source),
                                   view_points(world, source), atol=1e-6)


@pytest.mark.parametrize("corrupt, message", [
    (lambda obj: obj["roads"][1].pop("points"), "missing key 'points'"),
    (lambda obj: obj.pop("roads"), "missing key 'roads'"),
    (lambda obj: obj["roads"][0].update(points=[[1.0, 2.0, 3.0]]),
     r"\(n, 2\)"),
    (lambda obj: obj["roads"][0].update(points=[1.0, 2.0]), r"\(n, 2\)"),
    (lambda obj: obj["roads"][0]["points"][4].__setitem__(1, float("nan")),
     "non-finite"),
    (lambda obj: obj["roads"][0]["points"][0].__setitem__(0, float("inf")),
     "non-finite"),
])
def test_read_world_rejects_corrupt_nav_view(tmp_path, world, corrupt,
                                             message):
    hd_path = tmp_path / "world_hd.json"
    nav_path = tmp_path / "world_nav.json"
    write_world(world, hd_path, nav_path)
    obj = json.loads(nav_path.read_text())
    corrupt(obj)
    nav_path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=message) as info:
        read_world(hd_path, nav_path)
    assert str(nav_path) in str(info.value)


def test_read_world_rejects_corrupt_hd_view(tmp_path, world):
    hd_path = tmp_path / "world_hd.json"
    nav_path = tmp_path / "world_nav.json"
    write_world(world, hd_path, nav_path)
    obj = json.loads(hd_path.read_text())
    del obj["lanes"][2]["successors"]
    hd_path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="missing key 'successors'") as info:
        read_world(hd_path, nav_path)
    assert str(hd_path) in str(info.value)


def test_too_many_intersections_rejected_quickly():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="intersections"):
        generate_world(WorldSpec(seed=0, intersection_count=30))
    assert time.perf_counter() - started < 1.0


def test_empty_world_rejected_for_scenes():
    empty = MapPair(hd_lanes=[], nav_roads=[])
    with pytest.raises(ValueError):
        generate_scenes(empty, 1, seed=0)


def test_world_read_back_cannot_sample_scenes(tmp_path, world, monkeypatch):
    # World files store the two map views but not the per-road lane lists
    # that scene sampling draws from; the error names them, before any
    # random draw.
    hd_path = tmp_path / "world_hd.json"
    nav_path = tmp_path / "world_nav.json"
    write_world(world, hd_path, nav_path)
    back = read_world(hd_path, nav_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("rng created before the world was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="road lane lists"):
        generate_scenes(back, 1, seed=0)
