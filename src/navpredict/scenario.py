"""Synthetic world and dataset generation.

Worlds come in pairs of views of the same geometry: an HD view with one
centerline polyline per lane (plus lane connectivity), and a nav view
where each road collapses to a single polyline, the arithmetic mean of
its lanes. A generated scene holds one lane-following agent, the
target, sampled at 10 Hz: 20 observed positions (2 s) and 30 future
positions (3 s). Scene files may hold several agents per scene with a
``target`` index, and :func:`read_scenes` reads them.

All randomness is derived from (seed, scene_id), so generation is
deterministic and order-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WorldSpec",
    "Lane",
    "Intersection",
    "MapPair",
    "Scene",
    "SceneFormatError",
    "OBSERVED_LEN",
    "FUTURE_LEN",
    "generate_world",
    "generate_scenes",
    "view_points",
    "write_scenes",
    "read_scenes",
    "write_world",
    "read_world",
]

OBSERVED_LEN = 20   # 2 s at 10 Hz
FUTURE_LEN = 30     # 3 s at 10 Hz
DT = 0.1

_SAMPLE_STEP = 2.0  # polyline sampling step along road centerlines [m]
_T = np.arange(OBSERVED_LEN + FUTURE_LEN) * DT  # step times of a path [s]
_SPEED_RANGE = (3.0, 15.0)  # agent speeds [m/s]
_TURN_MAX_SPEED = 12.0      # turns are drawn below this speed [m/s]

# Intersection anchors are drawn in a 500 m box at least 150 m apart.
# Past about 9 anchors the box can fill up so that no draw fits; give up
# when this many draws in a row for one anchor are all too close.
_MAX_ANCHOR_DRAWS = 10_000


class SceneFormatError(ValueError):
    """A scene file record is malformed; message names the record index."""


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, else ``ValueError`` naming it.

    ``int()`` would truncate 4.7, and read ``true`` as 1 and ``"3"`` as 3.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class WorldSpec:
    """Parameters of a generated world."""

    seed: int = 0
    num_roads: int = 6
    lanes_per_road: int = 2
    lane_width: float = 3.5
    curvature_range: tuple[float, float] = (-0.002, 0.002)
    intersection_count: int = 2

    def __post_init__(self):
        if self.num_roads < 0 or self.intersection_count < 0:
            raise ValueError("counts must be non-negative")
        if not 1 <= self.lanes_per_road <= 3:
            raise ValueError("lanes per road must be in 1..3")
        if not (math.isfinite(self.lane_width) and self.lane_width > 0.0):
            raise ValueError(f"lane width must be finite and positive, "
                             f"got {self.lane_width}")
        low, high = self.curvature_range
        if not (math.isfinite(high - low) and low <= high):
            raise ValueError(f"curvature range must be finite with low <= "
                             f"high, got {self.curvature_range}")


@dataclass
class Lane:
    """One HD lane centerline, sampled on its road's arc-length grid."""

    lane_id: int
    road: int
    index: int
    points: np.ndarray                      # (n, 2)
    successors: list[int] = field(default_factory=list)


@dataclass
class Intersection:
    point: np.ndarray                       # (2,)
    members: list[tuple[int, float]]        # (road index, arc position)


@dataclass
class MapPair:
    """HD view and nav view of the same world."""

    hd_lanes: list[Lane]
    nav_roads: list[np.ndarray]             # one (n, 2) polyline per road
    intersections: list[Intersection] = field(default_factory=list)
    road_lanes: list[list[int]] = field(default_factory=list)
    road_lengths: list[float] = field(default_factory=list)


def _road_points(anchor, theta0, curvature, s_anchor, s_grid):
    """Positions along a constant-curvature road for arc positions s_grid."""
    rel = s_grid - s_anchor
    if abs(curvature) < 1e-12:
        x = anchor[0] + np.cos(theta0) * rel
        y = anchor[1] + np.sin(theta0) * rel
        theta = np.full_like(s_grid, theta0)
    else:
        theta = theta0 + curvature * s_grid
        theta_a = theta0 + curvature * s_anchor
        x = anchor[0] + (np.sin(theta) - math.sin(theta_a)) / curvature
        y = anchor[1] - (np.cos(theta) - math.cos(theta_a)) / curvature
    return np.stack([x, y], axis=1), theta


def generate_world(spec: WorldSpec) -> MapPair:
    """Build a deterministic world of arc/line roads with parallel lanes."""
    rng = np.random.default_rng(spec.seed)
    if spec.num_roads == 0:
        return MapPair(hd_lanes=[], nav_roads=[])

    # Intersection anchor points, spread out with a minimum separation.
    ipoints = []
    while len(ipoints) < spec.intersection_count:
        for _ in range(_MAX_ANCHOR_DRAWS):
            cand = rng.uniform(-250.0, 250.0, size=2)
            if all(np.linalg.norm(cand - p) > 150.0 for p in ipoints):
                ipoints.append(cand)
                break
        else:
            raise ValueError(
                f"cannot place {spec.intersection_count} intersections "
                f"150 m apart: no room for number {len(ipoints) + 1} in "
                f"{_MAX_ANCHOR_DRAWS} draws; use fewer intersections"
            )

    hd_lanes: list[Lane] = []
    nav_roads: list[np.ndarray] = []
    road_lanes: list[list[int]] = []
    road_lengths: list[float] = []
    intersections = [Intersection(point=p, members=[]) for p in ipoints]
    first_heading: dict[int, float] = {}

    for r in range(spec.num_roads):
        length = float(rng.uniform(500.0, 800.0))
        curvature = float(rng.uniform(*spec.curvature_range))
        inter_idx = r // 2 if r // 2 < spec.intersection_count else None
        if inter_idx is None:
            anchor = rng.uniform(-250.0, 250.0, size=2)
            theta0 = float(rng.uniform(0.0, 2.0 * math.pi))
        else:
            anchor = ipoints[inter_idx]
            if inter_idx in first_heading:
                # Second road through the point crosses at a wide angle.
                cross = math.radians(float(rng.uniform(60.0, 120.0)))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                theta0 = first_heading[inter_idx] + sign * cross
            else:
                theta0 = float(rng.uniform(0.0, 2.0 * math.pi))
                first_heading[inter_idx] = theta0
        s_anchor = length / 2.0
        n_pts = int(math.floor(length / _SAMPLE_STEP)) + 1
        s_grid = np.arange(n_pts, dtype=np.float64) * _SAMPLE_STEP
        _center, theta = _road_points(anchor, theta0, curvature,
                                      s_anchor, s_grid)
        normals = np.stack([-np.sin(theta), np.cos(theta)], axis=1)

        lane_ids = []
        lane_arrays = []
        for i in range(spec.lanes_per_road):
            offset = (i - (spec.lanes_per_road - 1) / 2.0) * spec.lane_width
            pts = _center + offset * normals
            lane = Lane(lane_id=len(hd_lanes), road=r, index=i, points=pts)
            lane_ids.append(lane.lane_id)
            lane_arrays.append(pts)
            hd_lanes.append(lane)
        # Nav polyline is the arithmetic mean of the road's lanes.
        nav_roads.append(np.mean(lane_arrays, axis=0))
        road_lanes.append(lane_ids)
        road_lengths.append(float(s_grid[-1]))
        if inter_idx is not None:
            intersections[inter_idx].members.append((r, s_anchor))

    # Lane connectivity across intersections: every lane of one member
    # road can continue onto any lane of the other member roads.
    for inter in intersections:
        for ra, _sa in inter.members:
            for rb, _sb in inter.members:
                if ra == rb:
                    continue
                for la in road_lanes[ra]:
                    hd_lanes[la].successors.extend(road_lanes[rb])

    intersections = [i for i in intersections if len(i.members) >= 2]
    return MapPair(hd_lanes=hd_lanes, nav_roads=nav_roads,
                   intersections=intersections, road_lanes=road_lanes,
                   road_lengths=road_lengths)


def view_points(world: MapPair, source: str) -> np.ndarray:
    """All map polyline points of one view, concatenated to (n, 2)."""
    if source == "hd":
        polys = [lane.points for lane in world.hd_lanes]
    elif source == "nav":
        polys = world.nav_roads
    elif source == "none":
        polys = []
    else:
        raise ValueError(f"unknown map source {source!r}")
    if not polys:
        return np.zeros((0, 2))
    return np.concatenate(polys, axis=0)


@dataclass
class Scene:
    """One prediction instance in local meters."""

    scene_id: int
    agents: list[np.ndarray]                # each (OBSERVED_LEN, 2)
    target: int
    future: np.ndarray                      # (FUTURE_LEN, 2)
    maneuver: str = "straight"              # generator metadata, not serialized

    def __post_init__(self):
        for track in self.agents:
            if track.shape != (OBSERVED_LEN, 2):
                raise ValueError(
                    f"observed track must be ({OBSERVED_LEN}, 2), "
                    f"got {track.shape}"
                )
        if self.future.shape != (FUTURE_LEN, 2):
            raise ValueError(
                f"future must be ({FUTURE_LEN}, 2), got {self.future.shape}"
            )
        if not 0 <= self.target < len(self.agents):
            raise ValueError(f"target index {self.target} out of range")
        if not (all(np.isfinite(track).all() for track in self.agents)
                and np.isfinite(self.future).all()):
            raise ValueError("scene holds non-finite coordinates")


def _lane_pos(lane: Lane, s: np.ndarray) -> np.ndarray:
    """Linear interpolation of a lane at road arc positions s, (n, 2)."""
    grid_pos = s / _SAMPLE_STEP
    idx = np.clip(np.floor(grid_pos).astype(np.intp), 0, len(lane.points) - 2)
    frac = (grid_pos - idx)[:, None]
    return lane.points[idx] + frac * (lane.points[idx + 1] - lane.points[idx])


def _blend(pa: np.ndarray, pb: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-step mix of two paths, weight the smoothstep of t in [0, 1]."""
    t = np.clip(t, 0.0, 1.0)[:, None]
    w = t * t * (3.0 - 2.0 * t)
    return (1.0 - w) * pa + w * pb


def _lane_arc(world, rng, road):
    """Arc positions of a lane-following run along ``road``, or None.

    Draws a direction and a speed, then a start that keeps the whole run
    5 m inside the road; None (after the speed draw) when it cannot fit.
    """
    direction = 1.0 if rng.random() < 0.5 else -1.0
    speed = float(rng.uniform(*_SPEED_RANGE))
    travel = speed * _T[-1]
    lo, hi = 5.0, world.road_lengths[road] - 5.0
    if hi - lo < travel:
        return None
    if direction > 0:
        s0 = float(rng.uniform(lo, hi - travel))
    else:
        s0 = float(rng.uniform(lo + travel, hi))
    return s0 + direction * speed * _T


def _straight_track(world, rng):
    """Lane-follow path, or None."""
    for _ in range(20):
        road = int(rng.integers(0, len(world.road_lanes)))
        lane = world.hd_lanes[int(rng.choice(world.road_lanes[road]))]
        s = _lane_arc(world, rng, road)
        if s is not None:
            return _lane_pos(lane, s)
    return None


def _turn_track(world, rng):
    """Path entering an intersection and continuing onto a crossing road."""
    tau = 0.5  # blend half-window [s]
    for _ in range(20):
        inter = world.intersections[int(rng.integers(0, len(world.intersections)))]
        members = list(inter.members)
        ia = int(rng.integers(0, len(members)))
        ib = int(rng.integers(0, len(members)))
        if ia == ib:
            continue
        ra, sa = members[ia]
        rb, sb = members[ib]
        lane_a = world.hd_lanes[int(rng.choice(world.road_lanes[ra]))]
        lane_b = world.hd_lanes[int(rng.choice(world.road_lanes[rb]))]
        dir_a = 1.0 if rng.random() < 0.5 else -1.0
        dir_b = 1.0 if rng.random() < 0.5 else -1.0
        speed = float(rng.uniform(_SPEED_RANGE[0], _TURN_MAX_SPEED))
        t_turn = float(rng.uniform(2.3, 4.3))

        sa0 = sa - dir_a * speed * t_turn
        ok_a = (5.0 < sa0 < world.road_lengths[ra] - 5.0
                and 5.0 < sa + dir_a * speed * (tau + 0.1)
                < world.road_lengths[ra] - 5.0)
        sb_end = sb + dir_b * speed * (_T[-1] - t_turn)
        ok_b = (5.0 < sb_end < world.road_lengths[rb] - 5.0
                and 5.0 < sb - dir_b * speed * (tau + 0.1)
                < world.road_lengths[rb] - 5.0)
        if not (ok_a and ok_b):
            continue
        pa = _lane_pos(lane_a, sa0 + dir_a * speed * _T)
        pb = _lane_pos(lane_b, sb + dir_b * speed * (_T - t_turn))
        return _blend(pa, pb, (_T - (t_turn - tau)) / (2.0 * tau))
    return None


def _lane_change_track(world, rng):
    """Lane-follow path with one lateral change to an adjacent lane."""
    for _ in range(20):
        road = int(rng.integers(0, len(world.road_lanes)))
        lanes = world.road_lanes[road]
        if len(lanes) < 2:
            return None
        i1 = int(rng.integers(0, len(lanes) - 1))
        lane1 = world.hd_lanes[lanes[i1]]
        lane2 = world.hd_lanes[lanes[i1 + 1]]
        if rng.random() < 0.5:
            lane1, lane2 = lane2, lane1
        s = _lane_arc(world, rng, road)
        if s is None:
            continue
        t0 = float(rng.uniform(1.0, 3.0))
        dur = float(rng.uniform(1.5, 2.5))
        return _blend(_lane_pos(lane1, s), _lane_pos(lane2, s),
                      (_T - t0) / dur)
    return None


def generate_scenes(world: MapPair, n: int, seed: int,
                    noise_sigma: float = 0.1,
                    p_turn: float = 0.35,
                    p_lane_change: float = 0.2) -> list[Scene]:
    """Sample n single-agent scenes; scene i depends only on (seed, i).

    A scene is a turn with probability ``p_turn``, a lane change with
    probability ``p_lane_change`` and straight otherwise, so the two must
    sum to at most 1. A turn or lane change the world cannot hold (no
    intersections, single-lane roads, or no fitting draw in 20 tries)
    falls back to straight.
    """
    if n < 0:
        raise ValueError(f"scene count must be non-negative, got {n}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise sigma must be finite and non-negative, "
                         f"got {noise_sigma}")
    if not (0.0 <= p_turn <= 1.0 and 0.0 <= p_lane_change <= 1.0
            and p_turn + p_lane_change <= 1.0):
        raise ValueError(f"p_turn {p_turn} and p_lane_change "
                         f"{p_lane_change} must be probabilities summing "
                         f"to at most 1")
    if n == 0:
        return []
    if not world.hd_lanes:
        raise ValueError("world has no lanes")
    if not world.road_lanes or len(world.road_lengths) != len(
            world.road_lanes):
        raise ValueError("world has no road lane lists to sample scenes "
                         "from; world files do not store them, so sample "
                         "from a generated world")
    scenes = []
    for scene_id in range(n):
        rng = np.random.default_rng([seed, scene_id])
        draw = rng.random()
        pos = None
        if draw < p_turn:
            if world.intersections:
                pos, maneuver = _turn_track(world, rng), "turn"
        elif draw < p_turn + p_lane_change:
            pos, maneuver = _lane_change_track(world, rng), "lane_change"
        if pos is None:
            pos, maneuver = _straight_track(world, rng), "straight"
            if pos is None:
                raise ValueError("world roads too short for any track")
        if noise_sigma > 0.0:
            pos = pos + rng.normal(0.0, noise_sigma, size=pos.shape)
        scenes.append(Scene(scene_id=scene_id, agents=[pos[:OBSERVED_LEN]],
                            target=0, future=pos[OBSERVED_LEN:],
                            maneuver=maneuver))
    return scenes


def _fmt_track(arr) -> str:
    return "[" + ",".join(f"[{x:.6f},{y:.6f}]" for x, y in arr) + "]"


def write_scenes(scenes, path):
    """Write newline-delimited JSON with fixed key order and 6-digit floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for scene in scenes:
            agents = ",".join(_fmt_track(track) for track in scene.agents)
            fh.write(
                f'{{"scene_id":{scene.scene_id},"agents":[{agents}],'
                f'"target":{scene.target},"future":{_fmt_track(scene.future)}}}\n'
            )


def read_scenes(path) -> list[Scene]:
    """Read a scene file written by :func:`write_scenes`."""
    scenes = []
    with open(path, encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                agents = [np.asarray(a, dtype=np.float64)
                          for a in obj["agents"]]
                scene = Scene(
                    scene_id=_json_int(obj["scene_id"], "scene_id"),
                    agents=agents,
                    target=_json_int(obj["target"], "target"),
                    future=np.asarray(obj["future"], dtype=np.float64),
                )
            except (json.JSONDecodeError, KeyError, ValueError,
                    TypeError) as exc:
                raise SceneFormatError(
                    f"{path}: record {index}: {exc}"
                ) from exc
            scenes.append(scene)
    return scenes


def write_world(world: MapPair, hd_path, nav_path):
    """Write the two map views as deterministic JSON files."""
    with open(hd_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"lanes":[\n')
        rows = []
        for lane in world.hd_lanes:
            succ = ",".join(str(s) for s in lane.successors)
            rows.append(
                f'{{"id":{lane.lane_id},"road":{lane.road},'
                f'"index":{lane.index},"successors":[{succ}],'
                f'"points":{_fmt_track(lane.points)}}}'
            )
        fh.write(",\n".join(rows))
        fh.write("\n]}\n")
    with open(nav_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"roads":[\n')
        rows = [f'{{"points":{_fmt_track(poly)}}}' for poly in world.nav_roads]
        fh.write(",\n".join(rows))
        fh.write("\n]}\n")


def _read_view(path, build):
    """``build`` applied to the JSON object in ``path``.

    A missing key, a malformed value, points that are not ``(n, 2)`` or
    non-finite points raise ``ValueError`` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _polyline(entry) -> np.ndarray:
    points = np.asarray(entry["points"], dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points hold non-finite values")
    return points


def read_world(hd_path, nav_path) -> MapPair:
    """Read the two map views written by :func:`write_world`.

    The files hold lanes and road polylines only, so the intersections,
    road lane lists and road lengths of the result are empty.
    """
    hd_lanes = _read_view(hd_path, lambda obj: [
        Lane(lane_id=_json_int(entry["id"], "lane id"),
             road=_json_int(entry["road"], "road"),
             index=_json_int(entry["index"], "lane index"),
             points=_polyline(entry),
             successors=[_json_int(s, "successor")
                         for s in entry["successors"]])
        for entry in obj["lanes"]
    ])
    nav_roads = _read_view(nav_path, lambda obj: [
        _polyline(entry) for entry in obj["roads"]
    ])
    return MapPair(hd_lanes=hd_lanes, nav_roads=nav_roads)
