"""Synthetic world and dataset generation.

Worlds come in pairs of views of the same geometry. The HD view holds
one ``(lanes, n, 2)`` array per road: its lane centerlines, sampled on
the road's 2 m arc-length grid. The nav view holds one ``(n, 2)``
polyline per road, the arithmetic mean of its lanes. A generated scene
holds one lane-following agent, the target, sampled at 10 Hz: 20
observed positions (2 s) and 30 future positions (3 s). Scene files
may hold several agents per scene with a ``target`` index, and
:func:`read_scenes` reads them.

All randomness is derived from (seed, scene_id), so generation is
deterministic and order-independent. Scenes are generated in blocks of
up to ``_BLOCK``, in two phases. Each scene first makes its scalar draws
from its own generator: a maneuver record (two lane runs and a blend
window) and its noise. One array pass then computes the block's paths
from the stacked records over the HD view and adds the stacked noise.
A scene's observed track and future are views of its own row of the
block's ``(B, 50, 2)`` array.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WorldSpec",
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
_BLOCK = 128                # scenes per array pass of generate_scenes

# The anchors of intersections are drawn in a 500 m box at least 150 m
# apart. Past about 9 anchors the box can fill up so that no draw fits;
# give up when this many draws in a row for one anchor are all too close.
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


_POINTS_SHAPE = {2: "(n, 2)", 3: "(lanes, n, 2)"}
_JSON_NUMBER = frozenset((int, float))


def _points(value, ndim: int) -> np.ndarray:
    """Parsed JSON ``value`` as a float64 array of points.

    ``ndim`` 2 asks for ``(n, 2)``, 3 for ``(lanes, n, 2)``. Another
    shape and a value that is not a JSON number (``np.asarray`` would read
    ``"1.5"`` as 1.5 and ``true`` as 1.0) raise ``ValueError``. Finiteness
    is the caller's check: :class:`Scene` makes it for scenes,
    :func:`read_world` for worlds.
    """
    points = np.asarray(value, dtype=np.float64)
    if points.ndim != ndim or points.shape[-1] != 2:
        raise ValueError(f"points must be {_POINTS_SHAPE[ndim]}, "
                         f"got {points.shape}")
    for _ in range(ndim - 1):
        value = itertools.chain.from_iterable(value)
    if not _JSON_NUMBER.issuperset(map(type, value)):
        raise ValueError("points hold values that are not JSON numbers")
    return points


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
class MapPair:
    """HD view and nav view of the same world.

    An intersection is the list of its ``(road, arc position)`` members.
    ``intersections`` is None for a world read from files, which do not
    store them.
    """

    hd_roads: list[np.ndarray]              # one (lanes, n, 2) array per road
    nav_roads: list[np.ndarray]             # one (n, 2) polyline per road
    intersections: list[list[tuple[int, float]]] | None


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
        return MapPair(hd_roads=[], nav_roads=[], intersections=[])

    # Anchors of the intersections, at least 150 m apart.
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

    hd_roads: list[np.ndarray] = []
    nav_roads: list[np.ndarray] = []
    intersections: list[list[tuple[int, float]]] = [[] for _ in ipoints]
    first_heading: dict[int, float] = {}
    n_lanes = spec.lanes_per_road
    offsets = (np.arange(n_lanes) - (n_lanes - 1) / 2.0) * spec.lane_width

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
        lanes = _center + offsets[:, None, None] * normals
        hd_roads.append(lanes)
        nav_roads.append(lanes.mean(axis=0))
        if inter_idx is not None:
            intersections[inter_idx].append((r, s_anchor))

    intersections = [m for m in intersections if len(m) >= 2]
    return MapPair(hd_roads=hd_roads, nav_roads=nav_roads,
                   intersections=intersections)


def view_points(world: MapPair, source: str) -> np.ndarray:
    """All map polyline points of one view, concatenated to (n, 2).

    The HD view is road-major: every lane of road 0, then of road 1, ...
    """
    if source == "hd":
        polys = [lanes.reshape(-1, 2) for lanes in world.hd_roads]
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


def _road_rows(world: MapPair) -> list[tuple[int, int, int]]:
    """``(lanes, points per lane, first row)`` of each road in the HD view.

    The rows are those of ``view_points(world, "hd")``, which is
    road-major, so lane k of a road starts ``k * points`` rows after its
    first row and runs contiguously.
    """
    roads, row = [], 0
    for lanes in world.hd_roads:
        roads.append((lanes.shape[0], lanes.shape[1], row))
        row += lanes.shape[0] * lanes.shape[1]
    return roads


def _lane_arc(rng, length):
    """Start arc and signed speed of a lane-following run, or None.

    Draws a direction and a speed, then a start that keeps the whole run
    5 m inside a road of ``length``; None (after the speed draw) when it
    cannot fit.
    """
    direction = 1.0 if rng.random() < 0.5 else -1.0
    speed = float(rng.uniform(*_SPEED_RANGE))
    travel = speed * _T[-1]
    lo, hi = 5.0, length - 5.0
    if hi - lo < travel:
        return None
    if direction > 0:
        s0 = float(rng.uniform(lo, hi - travel))
    else:
        s0 = float(rng.uniform(lo + travel, hi))
    return s0, direction * speed


# A maneuver draw returns a record of 12 numbers: two lane runs a and b,
# each (first row in the HD view, points, start arc, signed speed, time
# shift), then the blend window (start, width) [s]. A run is at arc
# position start + speed * (t - shift) at time t; the path blends from
# run a to run b. A straight record repeats run a as run b.

def _straight_draw(roads, rng):
    """Record of a lane-following path, or None."""
    for _ in range(20):
        n_lanes, n_pts, row = roads[int(rng.integers(0, len(roads)))]
        lane = row + int(rng.integers(0, n_lanes)) * n_pts
        arc = _lane_arc(rng, (n_pts - 1) * _SAMPLE_STEP)
        if arc is not None:
            run = (lane, n_pts, *arc, 0.0)
            return (*run, *run, 0.0, 1.0)
    return None


def _turn_draw(roads, intersections, rng):
    """Record of a path entering an intersection onto a crossing road."""
    tau = 0.5  # blend half-window [s]
    for _ in range(20):
        members = intersections[int(rng.integers(0, len(intersections)))]
        ia = int(rng.integers(0, len(members)))
        ib = int(rng.integers(0, len(members)))
        if ia == ib:
            continue
        ra, sa = members[ia]
        rb, sb = members[ib]
        lanes_a, n_a, row_a = roads[ra]
        lanes_b, n_b, row_b = roads[rb]
        lane_a = row_a + int(rng.integers(0, lanes_a)) * n_a
        lane_b = row_b + int(rng.integers(0, lanes_b)) * n_b
        dir_a = 1.0 if rng.random() < 0.5 else -1.0
        dir_b = 1.0 if rng.random() < 0.5 else -1.0
        speed = float(rng.uniform(_SPEED_RANGE[0], _TURN_MAX_SPEED))
        t_turn = float(rng.uniform(2.3, 4.3))

        len_a, len_b = (n_a - 1) * _SAMPLE_STEP, (n_b - 1) * _SAMPLE_STEP
        sa0 = sa - dir_a * speed * t_turn
        ok_a = (5.0 < sa0 < len_a - 5.0
                and 5.0 < sa + dir_a * speed * (tau + 0.1) < len_a - 5.0)
        sb_end = sb + dir_b * speed * (_T[-1] - t_turn)
        ok_b = (5.0 < sb_end < len_b - 5.0
                and 5.0 < sb - dir_b * speed * (tau + 0.1) < len_b - 5.0)
        if not (ok_a and ok_b):
            continue
        return (lane_a, n_a, sa0, dir_a * speed, 0.0,
                lane_b, n_b, sb, dir_b * speed, t_turn,
                t_turn - tau, 2.0 * tau)
    return None


def _lane_change_draw(roads, rng):
    """Record of a lane-following path with one change to an adjacent lane."""
    for _ in range(20):
        n_lanes, n_pts, row = roads[int(rng.integers(0, len(roads)))]
        if n_lanes < 2:
            return None
        i1 = int(rng.integers(0, n_lanes - 1))
        lane1, lane2 = row + i1 * n_pts, row + (i1 + 1) * n_pts
        if rng.random() < 0.5:
            lane1, lane2 = lane2, lane1
        arc = _lane_arc(rng, (n_pts - 1) * _SAMPLE_STEP)
        if arc is None:
            continue
        t0 = float(rng.uniform(1.0, 3.0))
        dur = float(rng.uniform(1.5, 2.5))
        return (lane1, n_pts, *arc, 0.0, lane2, n_pts, *arc, 0.0, t0, dur)
    return None


def _lane_pos(xy: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Positions ``(2, ..., 50)`` of lane runs ``(..., 5)`` over ``xy``.

    ``xy`` is the HD view as a ``(2, n)`` array of x and y rows. A run is
    ``(first point, points, start arc, signed speed, time shift)`` of a
    lane in that view. It is linearly interpolated on the lane's 2 m
    grid, clamped to the lane's first and last segments.
    """
    row, n_pts, s0, speed, shift = (runs[..., k, None] for k in range(5))
    frac = s0 + speed * (_T - shift)
    frac /= _SAMPLE_STEP
    idx = np.floor(frac).astype(np.intp)
    np.clip(idx, 0, n_pts.astype(np.intp) - 2, out=idx)
    frac -= idx
    idx += row.astype(np.intp)
    lo = np.take(xy, idx, axis=1)
    idx += 1
    pos = np.take(xy, idx, axis=1)
    pos -= lo
    pos *= frac
    pos += lo
    return pos


def _paths(xy: np.ndarray, records: list[float], straight: np.ndarray
           ) -> np.ndarray:
    """``(B, 50, 2)`` paths of B maneuver records over the HD view ``xy``.

    ``records`` holds the B records one after another. Each path mixes
    run a into run b by the smoothstep of its blend window; ``straight``
    rows take run a itself.
    """
    rec = np.array(records).reshape(-1, 12)
    lanes = _lane_pos(xy, rec[:, :10].reshape(-1, 2, 5))     # (2, B, 2, 50)
    pa, pb = lanes[:, :, 0], lanes[:, :, 1]
    t = np.clip((_T - rec[:, 10:11]) / rec[:, 11:12], 0.0, 1.0)
    w = t * t * (3.0 - 2.0 * t)
    paths = np.empty((len(rec), len(_T), 2))
    mix = paths.transpose(2, 0, 1)                           # (2, B, 50) view
    np.multiply(1.0 - w, pa, out=mix)
    mix += w * pb
    mix[:, straight] = pa[:, straight]
    return paths


def generate_scenes(world: MapPair, n: int, seed: int,
                    noise_sigma: float = 0.1,
                    p_turn: float = 0.35,
                    p_lane_change: float = 0.2) -> list[Scene]:
    """Sample n single-agent scenes; scene i depends only on (seed, i).

    A scene is a turn with probability ``p_turn``, a lane change with
    probability ``p_lane_change`` and straight otherwise, so the two must
    sum to at most 1. A turn or lane change the world cannot hold (no
    intersections, single-lane roads, or no fitting draw in 20 tries)
    falls back to straight. ``n`` must be an integer other than a bool.

    Scenes are made in blocks of up to ``_BLOCK``, in two phases. First,
    each scene of the block makes its scalar draws from its own
    ``default_rng([seed, scene_id])``: the maneuver record, then the
    noise. Then one array pass turns the block's records into a
    ``(B, 50, 2)`` array of paths and adds the stacked noise. Each
    scene's observed track and future are views of its own row of that
    array, so no two scenes share a coordinate.
    """
    try:
        count = operator.index(n)
    except TypeError:
        count = None
    if count is None or isinstance(n, bool):
        raise ValueError(f"scene count n must be an integer, got {n!r}")
    if count < 0:
        raise ValueError(f"scene count must be non-negative, got {n}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise sigma must be finite and non-negative, "
                         f"got {noise_sigma}")
    if not (0.0 <= p_turn <= 1.0 and 0.0 <= p_lane_change <= 1.0
            and p_turn + p_lane_change <= 1.0):
        raise ValueError(f"p_turn {p_turn} and p_lane_change "
                         f"{p_lane_change} must be probabilities summing "
                         f"to at most 1")
    if count == 0:
        return []
    if not world.hd_roads:
        raise ValueError("world has no roads")
    if world.intersections is None:
        raise ValueError("world has no intersections to sample scenes "
                         "from; world files do not store them, so sample "
                         "from a generated world")
    xy = np.ascontiguousarray(view_points(world, "hd").T)
    roads = _road_rows(world)
    scenes = []
    for first in range(0, count, _BLOCK):
        ids = range(first, min(first + _BLOCK, count))
        records, maneuvers, noise = [], [], []
        for scene_id in ids:
            rng = np.random.default_rng([seed, scene_id])
            draw = rng.random()
            record = None
            if draw < p_turn:
                if world.intersections:
                    record = _turn_draw(roads, world.intersections, rng)
                    maneuver = "turn"
            elif draw < p_turn + p_lane_change:
                record, maneuver = _lane_change_draw(roads, rng), "lane_change"
            if record is None:
                record, maneuver = _straight_draw(roads, rng), "straight"
                if record is None:
                    raise ValueError("world roads too short for any track")
            records.extend(record)
            maneuvers.append(maneuver)
            if noise_sigma > 0.0:
                noise.append(rng.normal(0.0, noise_sigma, size=(len(_T), 2)))
        paths = _paths(xy, records, np.array(maneuvers) == "straight")
        if noise:
            paths += np.array(noise)
        scenes.extend(
            Scene(scene_id=scene_id, agents=[path[:OBSERVED_LEN]], target=0,
                  future=path[OBSERVED_LEN:], maneuver=maneuver)
            for scene_id, maneuver, path in zip(ids, maneuvers, paths))
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
                scene = Scene(
                    scene_id=_json_int(obj["scene_id"], "scene_id"),
                    agents=[_points(a, 2) for a in obj["agents"]],
                    target=_json_int(obj["target"], "target"),
                    future=_points(obj["future"], 2),
                )
            except (json.JSONDecodeError, KeyError, ValueError,
                    TypeError) as exc:
                raise SceneFormatError(
                    f"{path}: record {index}: {exc}"
                ) from exc
            scenes.append(scene)
    return scenes


def _write_view(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"roads":[\n' + ",\n".join(rows) + "\n]}\n")


def write_world(world: MapPair, hd_path, nav_path):
    """Write the two map views as deterministic JSON files.

    Both hold ``{"roads": [...]}``, one entry per road: ``{"lanes": ...}``
    with the road's lane polylines in the HD file, ``{"points": ...}`` in
    the nav file.
    """
    _write_view(hd_path, [
        '{"lanes":[' + ",".join(_fmt_track(lane) for lane in lanes) + "]}"
        for lanes in world.hd_roads
    ])
    _write_view(nav_path, [f'{{"points":{_fmt_track(poly)}}}'
                           for poly in world.nav_roads])


def _read_view(path, key: str, ndim: int) -> list[np.ndarray]:
    """The ``key`` points of each road in the view file ``path``.

    A missing key or a malformed or non-finite value raises
    ``ValueError`` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            roads = [_points(road[key], ndim)
                     for road in json.load(fh)["roads"]]
        if not all(np.isfinite(points).all() for points in roads):
            raise ValueError("points hold non-finite values")
        return roads
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_world(hd_path, nav_path) -> MapPair:
    """Read the two map views written by :func:`write_world`.

    The views must describe the same roads: as many in each file, and
    each road's nav polyline as long as its lanes. The files hold no
    intersections, so the result's are None and :func:`generate_scenes`
    rejects it.
    """
    hd_roads = _read_view(hd_path, "lanes", 3)
    nav_roads = _read_view(nav_path, "points", 2)
    if len(hd_roads) != len(nav_roads):
        raise ValueError(f"{hd_path} holds {len(hd_roads)} roads but "
                         f"{nav_path} holds {len(nav_roads)}")
    for road, (lanes, nav) in enumerate(zip(hd_roads, nav_roads)):
        if lanes.shape[1:] != nav.shape:
            raise ValueError(f"road {road} has {lanes.shape[1]} points per "
                             f"lane in {hd_path} but {len(nav)} in "
                             f"{nav_path}")
    return MapPair(hd_roads=hd_roads, nav_roads=nav_roads,
                   intersections=None)
