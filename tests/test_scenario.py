import json
import math
import time
import tracemalloc

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
from navpredict.scenario import _BLOCK


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


@pytest.mark.parametrize("n", [2.5, True, np.float64(3.0), np.True_, "3",
                               None],
                         ids=["float", "bool", "numpy-float", "numpy-bool",
                              "str", "none"])
def test_generate_scenes_rejects_non_integer_count_before_any_draw(
        world, monkeypatch, n):
    def no_draws(*args, **kwargs):
        raise AssertionError("rng created before the count was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=r"^scene count n must be an integer, "
                                         r"got "):
        generate_scenes(world, n, seed=0)


def test_generate_scenes_takes_any_integer_count(world):
    want = generate_scenes(world, 3, seed=0)
    for n in (np.int64(3), np.uint8(3)):
        got = generate_scenes(world, n, seed=0)
        assert [s.scene_id for s in got] == [0, 1, 2]
        for a, b in zip(got, want):
            assert np.array_equal(a.future, b.future)


def test_generate_zero_scenes_from_any_world():
    empty = generate_world(WorldSpec(num_roads=0, intersection_count=0))
    assert generate_scenes(empty, 0, seed=0) == []


def test_world_shapes(world):
    spec = WorldSpec(seed=3)
    assert len(world.nav_roads) == spec.num_roads
    assert len(world.hd_roads) == spec.num_roads
    for lanes, nav in zip(world.hd_roads, world.nav_roads):
        assert lanes.shape == (spec.lanes_per_road, *nav.shape)


def test_world_generation_is_deterministic():
    a = generate_world(WorldSpec(seed=9))
    b = generate_world(WorldSpec(seed=9))
    for la, lb in zip(a.hd_roads, b.hd_roads):
        np.testing.assert_array_equal(la, lb)
    for pa, pb in zip(a.nav_roads, b.nav_roads):
        np.testing.assert_array_equal(pa, pb)


def test_nav_view_is_mean_of_lanes(world):
    for lanes, nav in zip(world.hd_roads, world.nav_roads):
        np.testing.assert_allclose(nav, lanes.mean(axis=0), atol=1e-12)


def test_adjacent_lanes_separated_by_lane_width(world):
    width = WorldSpec(seed=3).lane_width
    for lanes in world.hd_roads:
        for a, b in zip(lanes, lanes[1:]):
            gap = np.linalg.norm(a - b, axis=1)
            np.testing.assert_allclose(gap, width, atol=1e-9)


def test_lane_points_spacing_close_to_sample_step(world):
    for lane in (lane for lanes in world.hd_roads for lane in lanes):
        gaps = np.linalg.norm(np.diff(lane, axis=0), axis=1)
        # arc-length parameterized at 2 m on the road centerline; lane
        # offsets stretch/shrink this slightly on curved roads
        assert np.all(gaps > 1.5)
        assert np.all(gaps < 2.5)


def _nav_at_arc(world, road, s):
    """Linear interpolation of a road's nav polyline at arc position s."""
    poly = world.nav_roads[road]
    i = min(int(s // 2.0), len(poly) - 2)
    return poly[i] + (s / 2.0 - i) * (poly[i + 1] - poly[i])


def test_intersections_have_two_members_and_cross_widely(world):
    assert world.intersections
    for members in world.intersections:
        assert len(members) >= 2
        # every two member roads meet, within a couple of meters, at
        # their arc positions
        for ra, sa in members:
            for rb, sb in members:
                d = np.linalg.norm(_nav_at_arc(world, ra, sa)
                                   - _nav_at_arc(world, rb, sb))
                assert d < 3.0


def test_view_points(world):
    hd = view_points(world, "hd")
    nav = view_points(world, "nav")
    none = view_points(world, "none")
    assert hd.shape[1] == 2 and nav.shape[1] == 2
    # road-major: every lane of road 0, then every lane of road 1, ...
    assert np.array_equal(hd, np.concatenate(
        [lane for lanes in world.hd_roads for lane in lanes]))
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


def test_generated_scenes_hold_only_the_target(scenes):
    for scene in scenes:
        assert len(scene.agents) == 1
        assert scene.target == 0


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


def test_turn_draws_fall_back_to_straight_without_intersections():
    world = generate_world(WorldSpec(seed=1, intersection_count=0))
    assert not world.intersections
    turns_only = generate_scenes(world, 400, seed=0, p_turn=0.9,
                                 p_lane_change=0.0)
    assert {s.maneuver for s in turns_only} == {"straight"}
    mixed = generate_scenes(world, 400, seed=0, p_turn=0.5,
                            p_lane_change=0.5)
    assert {s.maneuver for s in mixed} == {"straight", "lane_change"}


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


def test_multi_agent_file_round_trips_bit_for_bit(tmp_path):
    # Generated scenes hold one agent, but files with several still read.
    rng = np.random.default_rng(0)

    def coords(n):
        # k / 1e6 survives the writer's 6-digit format bit for bit.
        return rng.integers(-10**9, 10**9, size=(n, 2)) / 1e6

    scene = Scene(scene_id=4, agents=[coords(OBSERVED_LEN) for _ in range(3)],
                  target=2, future=coords(FUTURE_LEN))
    path = tmp_path / "multi.ndjson"
    write_scenes([scene], path)
    (back,) = read_scenes(path)
    assert back.scene_id == 4
    assert back.target == 2
    assert len(back.agents) == 3
    for want, got in zip(scene.agents, back.agents):
        assert np.array_equal(want, got)
    assert np.array_equal(scene.future, back.future)


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
    assert back.intersections is None
    assert len(back.hd_roads) == len(world.hd_roads)
    for a, b in zip(world.hd_roads, back.hd_roads):
        np.testing.assert_allclose(a, b, atol=1e-6)
    assert len(back.nav_roads) == len(world.nav_roads)
    for a, b in zip(world.nav_roads, back.nav_roads):
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
    (lambda obj: obj["roads"][2]["points"][6].__setitem__(1, "1.5"),
     "not JSON numbers"),
    # A nav view that does not describe the HD view's roads.
    (lambda obj: obj["roads"].pop(), r"holds \d+ roads but .* holds \d+"),
    (lambda obj: obj["roads"][1]["points"].pop(),
     r"road 1 has \d+ points per lane in .* but \d+ in"),
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


def _as_lane_records(obj):
    """Rewrite an HD view in place into the older lane-record format."""
    lanes = [(r, i, lane) for r, road in enumerate(obj.pop("roads"))
             for i, lane in enumerate(road["lanes"])]
    obj["lanes"] = [{"id": n, "road": r, "index": i, "successors": [],
                     "points": lane} for n, (r, i, lane) in enumerate(lanes)]


@pytest.mark.parametrize("corrupt, message", [
    (lambda obj: obj.pop("roads"), "missing key 'roads'"),
    (lambda obj: obj["roads"][1].pop("lanes"), "missing key 'lanes'"),
    (lambda obj: obj["roads"][0]["lanes"][1].pop(), "inhomogeneous"),
    (lambda obj: obj["roads"][0].update(lanes=[[[1.0, 2.0, 3.0]]]),
     r"\(lanes, n, 2\)"),
    (lambda obj: obj["roads"][0].update(lanes=[[1.0, 2.0]]),
     r"\(lanes, n, 2\)"),
    (lambda obj: obj["roads"][3]["lanes"][1][4].__setitem__(1, float("nan")),
     "non-finite"),
    (lambda obj: obj["roads"][0]["lanes"][0][0].__setitem__(0, float("inf")),
     "non-finite"),
    (lambda obj: obj["roads"][2]["lanes"][0][7].__setitem__(0, True),
     "not JSON numbers"),
    (_as_lane_records, "missing key 'roads'"),
], ids=["missing-roads", "missing-lanes", "ragged-lanes", "last-axis-3",
        "lanes-2d", "nan", "inf", "bool-point", "lane-records"])
def test_read_world_rejects_corrupt_hd_view(tmp_path, world, corrupt,
                                            message):
    hd_path = tmp_path / "world_hd.json"
    nav_path = tmp_path / "world_nav.json"
    write_world(world, hd_path, nav_path)
    obj = json.loads(hd_path.read_text())
    corrupt(obj)
    hd_path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=message) as info:
        read_world(hd_path, nav_path)
    assert str(hd_path) in str(info.value)


def test_too_many_intersections_rejected_quickly():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="intersections"):
        generate_world(WorldSpec(seed=0, intersection_count=30))
    assert time.perf_counter() - started < 1.0


def test_empty_world_rejected_for_scenes():
    empty = MapPair(hd_roads=[], nav_roads=[], intersections=[])
    with pytest.raises(ValueError, match="no roads"):
        generate_scenes(empty, 1, seed=0)


def test_world_read_back_cannot_sample_scenes(tmp_path, world, monkeypatch):
    # World files store the two map views but not the intersections that
    # scene sampling draws turns from; the error names them, before any
    # random draw.
    hd_path = tmp_path / "world_hd.json"
    nav_path = tmp_path / "world_nav.json"
    write_world(world, hd_path, nav_path)
    back = read_world(hd_path, nav_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("rng created before the world was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="intersections"):
        generate_scenes(back, 1, seed=0)


# The per-step generator that the array form replaced, kept as the
# reference for bit-identity. It also draws the background agents and the
# target index that generated scenes no longer hold; those draws came
# after the target's path and noise, so the target keeps its bits. A turn
# draw in a world without intersections falls back to straight, as in
# generate_scenes (the original fell through to a lane change).

def _reference_lane_pos(lane, s):
    grid_pos = s / 2.0
    idx = int(math.floor(grid_pos))
    idx = min(max(idx, 0), len(lane) - 2)
    frac = grid_pos - idx
    return lane[idx] + frac * (lane[idx + 1] - lane[idx])


def _reference_road_length(world, road):
    return (world.hd_roads[road].shape[1] - 1) * 2.0


def _reference_smoothstep(t):
    t = min(1.0, max(0.0, t))
    return t * t * (3.0 - 2.0 * t)


def _reference_straight_track(world, rng, n_steps, speed_range):
    horizon = (n_steps - 1) * DT
    for _ in range(20):
        road = int(rng.integers(0, len(world.hd_roads)))
        lane_index = int(rng.choice(len(world.hd_roads[road])))
        lane = world.hd_roads[road][lane_index]
        direction = 1.0 if rng.random() < 0.5 else -1.0
        speed = float(rng.uniform(*speed_range))
        travel = speed * horizon
        lo, hi = 5.0, _reference_road_length(world, road) - 5.0
        if hi - lo < travel:
            continue
        if direction > 0:
            s0 = float(rng.uniform(lo, hi - travel))
        else:
            s0 = float(rng.uniform(lo + travel, hi))
        return np.array([
            _reference_lane_pos(lane, s0 + direction * speed * (i * DT))
            for i in range(n_steps)])
    return None


def _reference_turn_track(world, rng, speed_range):
    n_steps = OBSERVED_LEN + FUTURE_LEN
    tau = 0.5
    for _ in range(20):
        members = world.intersections[
            int(rng.integers(0, len(world.intersections)))]
        ia = int(rng.integers(0, len(members)))
        ib = int(rng.integers(0, len(members)))
        if ia == ib:
            continue
        ra, sa = members[ia]
        rb, sb = members[ib]
        lane_a = world.hd_roads[ra][int(rng.choice(len(world.hd_roads[ra])))]
        lane_b = world.hd_roads[rb][int(rng.choice(len(world.hd_roads[rb])))]
        dir_a = 1.0 if rng.random() < 0.5 else -1.0
        dir_b = 1.0 if rng.random() < 0.5 else -1.0
        speed = float(rng.uniform(speed_range[0], min(speed_range[1], 12.0)))
        t_turn = float(rng.uniform(2.3, 4.3))
        t_end = (n_steps - 1) * DT
        sa0 = sa - dir_a * speed * t_turn
        ok_a = (5.0 < sa0 < _reference_road_length(world, ra) - 5.0
                and 5.0 < sa + dir_a * speed * (tau + 0.1)
                < _reference_road_length(world, ra) - 5.0)
        sb_end = sb + dir_b * speed * (t_end - t_turn)
        ok_b = (5.0 < sb_end < _reference_road_length(world, rb) - 5.0
                and 5.0 < sb - dir_b * speed * (tau + 0.1)
                < _reference_road_length(world, rb) - 5.0)
        if not (ok_a and ok_b):
            continue
        pos = np.empty((n_steps, 2))
        for i in range(n_steps):
            t = i * DT
            pa = _reference_lane_pos(lane_a, sa0 + dir_a * speed * t)
            pb = _reference_lane_pos(lane_b, sb + dir_b * speed * (t - t_turn))
            w = _reference_smoothstep((t - (t_turn - tau)) / (2.0 * tau))
            pos[i] = (1.0 - w) * pa + w * pb
        return pos
    return None


def _reference_lane_change_track(world, rng, speed_range):
    n_steps = OBSERVED_LEN + FUTURE_LEN
    for _ in range(20):
        road = int(rng.integers(0, len(world.hd_roads)))
        lanes = world.hd_roads[road]
        if len(lanes) < 2:
            return None
        i1 = int(rng.integers(0, len(lanes) - 1))
        lane1 = lanes[i1]
        lane2 = lanes[i1 + 1]
        if rng.random() < 0.5:
            lane1, lane2 = lane2, lane1
        direction = 1.0 if rng.random() < 0.5 else -1.0
        speed = float(rng.uniform(*speed_range))
        horizon = (n_steps - 1) * DT
        travel = speed * horizon
        lo, hi = 5.0, _reference_road_length(world, road) - 5.0
        if hi - lo < travel:
            continue
        s0 = float(rng.uniform(lo, hi - travel)) if direction > 0 \
            else float(rng.uniform(lo + travel, hi))
        t0 = float(rng.uniform(1.0, 3.0))
        dur = float(rng.uniform(1.5, 2.5))
        pos = np.empty((n_steps, 2))
        for i in range(n_steps):
            t = i * DT
            s = s0 + direction * speed * t
            w = _reference_smoothstep((t - t0) / dur)
            pos[i] = ((1.0 - w) * _reference_lane_pos(lane1, s)
                      + w * _reference_lane_pos(lane2, s))
        return pos
    return None


def _reference_scenes(world, n, seed, noise_sigma=0.1, p_turn=0.35,
                      p_lane_change=0.2):
    """(observed target track, future, maneuver) of each scene."""
    speed_range = (3.0, 15.0)
    n_steps = OBSERVED_LEN + FUTURE_LEN
    out = []
    for scene_id in range(n):
        rng = np.random.default_rng([seed, scene_id])
        draw = rng.random()
        pos = None
        maneuver = "straight"
        if draw < p_turn:
            if world.intersections:
                pos = _reference_turn_track(world, rng, speed_range)
                if pos is not None:
                    maneuver = "turn"
        elif draw < p_turn + p_lane_change:
            pos = _reference_lane_change_track(world, rng, speed_range)
            if pos is not None:
                maneuver = "lane_change"
        if pos is None:
            pos = _reference_straight_track(world, rng, n_steps, speed_range)
            maneuver = "straight"
        if noise_sigma > 0.0:
            pos = pos + rng.normal(0.0, noise_sigma, size=pos.shape)
        tracks = []
        for _ in range(int(rng.integers(0, 5))):
            track = _reference_straight_track(world, rng, OBSERVED_LEN,
                                              speed_range)
            if track is None:
                continue
            if noise_sigma > 0.0:
                track = track + rng.normal(0.0, noise_sigma, size=track.shape)
            tracks.append(track)
        target = int(rng.integers(0, len(tracks) + 1))
        tracks.insert(target, pos[:OBSERVED_LEN])
        out.append((tracks[target], pos[OBSERVED_LEN:], maneuver))
    return out


_ALL_MANEUVERS = {"straight", "turn", "lane_change"}


@pytest.mark.parametrize("spec, kwargs, n, maneuvers", [
    (WorldSpec(seed=1), {"seed": 7}, 1000, _ALL_MANEUVERS),
    (WorldSpec(seed=1), {"seed": 8, "p_turn": 0.5, "p_lane_change": 0.5},
     1000, {"turn", "lane_change"}),
    (WorldSpec(seed=1, num_roads=16, lanes_per_road=3), {"seed": 2}, 1000,
     _ALL_MANEUVERS),
    (WorldSpec(seed=3, curvature_range=(-0.006, 0.006)),
     {"seed": 5, "noise_sigma": 0.0}, 1000, _ALL_MANEUVERS),
    (WorldSpec(seed=5, num_roads=3, lanes_per_road=1, intersection_count=1),
     {"seed": 11, "noise_sigma": 0.4, "p_turn": 0.2, "p_lane_change": 0.7},
     1000, {"straight", "turn"}),
    # Every turn draw falls back to straight in a world without
    # intersections.
    (WorldSpec(seed=1, intersection_count=0),
     {"seed": 7, "p_turn": 1.0, "p_lane_change": 0.0}, 1000, {"straight"}),
    (WorldSpec(seed=1, num_roads=16, lanes_per_road=3),
     {"seed": 2, "p_turn": 0.0, "p_lane_change": 1.0}, 1000,
     {"lane_change"}),
    # A one-scene block, and a full block followed by a one-scene block.
    (WorldSpec(seed=1), {"seed": 7}, 1, {"straight"}),
    (WorldSpec(seed=1), {"seed": 7}, _BLOCK + 1, _ALL_MANEUVERS),
], ids=["criterion-7-world", "criterion-7-world-no-straight-draws",
        "16-roads-3-lanes", "curved-noise-free", "one-lane-roads",
        "no-intersections-all-turn-draws", "16-roads-3-lanes-all-lane-changes",
        "one-scene", "one-more-than-a-block"])
def test_scenes_match_per_step_reference(spec, kwargs, n, maneuvers):
    world = generate_world(spec)
    got = generate_scenes(world, n, **kwargs)
    want = _reference_scenes(world, n, **kwargs)
    assert len(got) == len(want) == n
    for scene, (track, future, maneuver) in zip(got, want):
        assert np.array_equal(scene.agents[scene.target], track)
        assert np.array_equal(scene.future, future)
        assert scene.maneuver == maneuver
    assert {m for _, _, m in want} == maneuvers


def test_generate_scenes_transient_memory_is_bounded():
    # Paths are computed one block at a time, so what generation allocates
    # beyond the scenes it returns does not grow with the scene count. One
    # pass over all 512 scenes at once takes about 2.5 MB.
    world = generate_world(WorldSpec(seed=1))
    n = 4 * _BLOCK
    generate_scenes(world, n, seed=7)
    tracemalloc.start()
    try:
        scenes = generate_scenes(world, n, seed=7)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scenes) == n
    assert peak - held < 1_000_000


def test_generated_scenes_share_no_rows():
    world = generate_world(WorldSpec(seed=1))
    scenes = generate_scenes(world, _BLOCK + 1, seed=7)
    before = [(s.agents[0].copy(), s.future.copy()) for s in scenes]
    for changed in (0, _BLOCK - 1, _BLOCK):
        scenes[changed].future[...] = 1e6
        for i, (scene, (track, future)) in enumerate(zip(scenes, before)):
            assert np.array_equal(scene.agents[0], track)
            if i != changed:
                assert np.array_equal(scene.future, future)
        scenes[changed].future[...] = before[changed][1]
