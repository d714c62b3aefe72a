"""Independent oracles for the benchmark's output checks.

Each oracle recomputes a result with plain numpy or stdlib code that
shares nothing with the package under test beyond its inputs.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

# WGS84, for the edge-length oracle.
_A = 6378137.0
_F = 1.0 / 298.257223563
_E2 = _F * (2.0 - _F)
_K0 = 0.9996
_FALSE_EASTING = 500000.0

# Query results within this distance of the radius may go either way.
BORDER_M = 1e-6


def min_fde_all_modes(ends: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Per-scene minFDE over every mode: ends (n, k, 2), final (n, 2)."""
    return np.linalg.norm(ends - final[:, None, :], axis=2).min(axis=1)


class GraphOracle:
    """Brute-force answers over every edge of the expected graph."""

    def __init__(self, edges, local):
        self.edges = sorted(edges)
        self.a = np.array([(local[s].x, local[s].y) for s, _ in self.edges])
        self.b = np.array([(local[d].x, local[d].y) for _, d in self.edges])
        self.out = defaultdict(set)
        self.inc = defaultdict(set)
        for s, d in self.edges:
            self.out[s].add(d)
            self.inc[d].add(s)

    def in_radius(self, cx: float, cy: float, radius: float):
        """(edges surely within the radius, edges on its border)."""
        ab = self.b - self.a
        ap = np.array([cx, cy]) - self.a
        denom = (ab * ab).sum(axis=1)
        t = np.clip((ap * ab).sum(axis=1) / np.where(denom > 0, denom, 1.0),
                    0.0, 1.0)
        dist = np.hypot(*(ap - t[:, None] * ab).T)
        inside = np.flatnonzero(dist <= radius - BORDER_M)
        sure = {self.edges[i] for i in inside}
        border = {self.edges[i]
                  for i in np.flatnonzero(np.abs(dist - radius) <= BORDER_M)}
        return sure, border

    def successors(self, edge):
        src, dst = edge
        return {(dst, w) for w in self.out[dst] if w != src}

    def predecessors(self, edge):
        src, dst = edge
        return {(u, src) for u in self.inc[src] if u != dst}


def query_errors(segments, oracle: GraphOracle, cx, cy, radius, step,
                 local) -> list[str]:
    """Differences between a radius query's result and the brute force."""
    errors = []
    got = [seg.edge_id for seg in segments]
    if got != sorted(got):
        errors.append("result not ordered by edge id")
    sure, border = oracle.in_radius(cx, cy, radius)
    wrong = (set(got) ^ sure) - border
    if wrong:
        errors.append(f"{len(wrong)} edges differ from brute force, "
                      f"e.g. {sorted(wrong)[:3]}")
    for seg in segments:
        a, b = local[seg.src], local[seg.dst]
        n = max(1, math.ceil(math.hypot(b.x - a.x, b.y - a.y) / step))
        first, last = seg.polyline[0], seg.polyline[-1]
        if (len(seg.polyline) != n + 1 or (first.x, first.y) != (a.x, a.y)
                or abs(last.x - b.x) > 1e-9 or abs(last.y - b.y) > 1e-9):
            errors.append(f"bad polyline for edge {seg.edge_id}")
            break
    return errors


def edge_length_error(nodes, local, edges, origin_easting: float) -> float:
    """Largest relative gap between projected and ellipsoidal edge lengths.

    The ellipsoidal length uses the local radii of curvature at the edge
    midpoint, scaled by the transverse Mercator point scale factor; for
    edges of tens of meters the two agree to about 1e-9.
    """
    worst = 0.0
    for src, dst in edges:
        p, q = nodes[src], nodes[dst]
        phi = math.radians((p.lat + q.lat) / 2.0)
        w = math.sqrt(1.0 - _E2 * math.sin(phi) ** 2)
        m_rad = _A * (1.0 - _E2) / w ** 3
        n_rad = _A / w
        north = m_rad * math.radians(q.lat - p.lat)
        east = n_rad * math.cos(phi) * math.radians(q.lon - p.lon)
        ground = math.hypot(north, east)
        a, b = local[src], local[dst]
        easting = origin_easting + (a.x + b.x) / 2.0
        x = (easting - _FALSE_EASTING) / _K0
        scale = _K0 * (1.0 + x * x / (2.0 * m_rad * n_rad))
        grid = math.hypot(b.x - a.x, b.y - a.y)
        worst = max(worst, abs(grid - scale * ground) / grid)
    return worst
