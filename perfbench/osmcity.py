"""Seeded synthetic OSM XML city: a jittered street grid near the Miami frame.

The city is a ``grid`` x ``grid`` lattice of intersections, ``spacing``
meters apart, with ``shape_nodes`` extra nodes on every block side. Every
row and every column is one street way. Fixed shares of the streets, in a
seeded order, are two-way (half; a fifth of those tagged ``oneway=no``),
oneway forward (``oneway=yes``) and oneway reverse (``oneway=-1``), so
every seed's city of a given size has the same number of edges. Footways and
other non-car ways get nodes of their own, and one car way references a
node that does not exist. The expected navigation graph (node ids and
directed edges) is derived here from the construction alone, so it is an
independent oracle for ``parse_osm`` + ``build_nav_graph``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Roughly the Miami city-frame origin; the grid is centred here.
LAT0 = 25.7750
LON0 = -80.2000
_M_PER_DEG_LAT = 110_760.0
_M_PER_DEG_LON = 111_320.0 * math.cos(math.radians(LAT0))

CAR_TYPES = ("residential", "residential", "tertiary", "secondary",
             "primary", "unclassified", "living_street")
IGNORED_TYPES = ("footway", "cycleway", "service", "path")


@dataclass(frozen=True)
class City:
    xml: bytes
    n_nodes: int                          # <node> elements in the document
    n_ways: int                           # <way> elements in the document
    road_nodes: frozenset[int]            # node ids the graph must keep
    edges: frozenset[tuple[int, int]]     # directed edges the graph must hold
    interior: tuple[int, ...]             # intersections >= margin from edge


def make_city(seed: int, grid: int, shape_nodes: int,
              spacing: float = 100.0, jitter: float = 3.0,
              margin: float = 300.0) -> City:
    if grid < 2 or shape_nodes < 0:
        raise ValueError("grid must be >= 2 and shape_nodes >= 0")
    rng = random.Random(f"osmcity/{seed}")
    node_lines: list[str] = []
    way_lines: list[str] = []
    next_id = 1

    def node(x: float, y: float) -> int:
        nonlocal next_id
        nid = next_id
        next_id += 1
        lat = LAT0 + y / _M_PER_DEG_LAT
        lon = LON0 + x / _M_PER_DEG_LON
        node_lines.append(f'  <node id="{nid}" lat="{lat:.8f}" '
                          f'lon="{lon:.8f}"/>')
        return nid

    def way(refs, tags) -> None:
        wid = 10_000_000 + len(way_lines)
        body = "".join(f'    <nd ref="{r}"/>\n' for r in refs)
        body += "".join(f'    <tag k="{k}" v="{v}"/>\n' for k, v in tags)
        way_lines.append(f'  <way id="{wid}">\n{body}  </way>')

    half = (grid - 1) / 2.0
    pos = {}
    inter = [[0] * grid for _ in range(grid)]
    for i in range(grid):
        for j in range(grid):
            x = (j - half) * spacing + rng.uniform(-jitter, jitter)
            y = (i - half) * spacing + rng.uniform(-jitter, jitter)
            inter[i][j] = node(x, y)
            pos[inter[i][j]] = (x, y)

    def side(a: int, b: int) -> list[int]:
        (xa, ya), (xb, yb) = pos[a], pos[b]
        out = []
        for s in range(1, shape_nodes + 1):
            f = s / (shape_nodes + 1)
            out.append(node(xa + f * (xb - xa) + rng.uniform(-1.0, 1.0),
                            ya + f * (yb - ya) + rng.uniform(-1.0, 1.0)))
        return out

    streets = []
    for i in range(grid):                       # rows, west to east
        refs = [inter[i][0]]
        for j in range(1, grid):
            refs += side(inter[i][j - 1], inter[i][j]) + [inter[i][j]]
        streets.append(refs)
    for j in range(grid):                       # columns, south to north
        refs = [inter[0][j]]
        for i in range(1, grid):
            refs += side(inter[i - 1][j], inter[i][j]) + [inter[i][j]]
        streets.append(refs)

    n = len(streets)
    kinds = ["yes"] * round(0.2 * n) + ["-1"] * round(0.2 * n) \
        + ["no"] * round(0.1 * n)
    kinds += [None] * (n - len(kinds))
    rng.shuffle(kinds)
    road_nodes = set()
    edges = set()
    for refs, oneway in zip(streets, kinds):
        tags = [("highway", rng.choice(CAR_TYPES))]
        if oneway is not None:
            tags.append(("oneway", oneway))
        forward, backward = oneway != "-1", oneway != "yes"
        way(refs, tags)
        road_nodes.update(refs)
        for a, b in zip(refs, refs[1:]):
            if forward:
                edges.add((a, b))
            if backward:
                edges.add((b, a))

    # Non-car ways inside some blocks, on nodes of their own: ignored.
    for i in range(grid - 1):
        for j in range(grid - 1):
            if rng.random() < 0.05 or (i == 0 and j == 0):
                x, y = pos[inter[i][j]]
                a = node(x + 0.3 * spacing, y + 0.3 * spacing)
                b = node(x + 0.7 * spacing, y + 0.7 * spacing)
                way([a, b], [("highway", rng.choice(IGNORED_TYPES))])

    # A car way with a dangling node reference: skipped whole.
    x, y = pos[inter[0][0]]
    dangling = [node(x + 10.0, y + 50.0), node(x + 20.0, y + 50.0),
                node(x + 30.0, y + 50.0)]
    way(dangling + [next_id + 1_000_000], [("highway", "residential")])

    xml = "\n".join(['<?xml version="1.0" encoding="UTF-8"?>',
                     '<osm version="0.6" generator="perfbench">',
                     *node_lines, *way_lines, "</osm>", ""])
    steps = math.ceil(margin / spacing)
    interior = tuple(inter[i][j] for i in range(steps, grid - steps)
                     for j in range(steps, grid - steps))
    return City(xml=xml.encode("utf-8"), n_nodes=len(node_lines),
                n_ways=len(way_lines), road_nodes=frozenset(road_nodes),
                edges=frozenset(edges), interior=interior or tuple(pos))
