"""Displacement-error metrics and the error histogram report.

minFDE is the lowest Euclidean distance between the selected modes'
endpoints and the ground-truth endpoint; minADE is the average
point-wise error of the trajectory that won the minFDE selection (not
the per-mode ADE minimizer); Miss Rate is the fraction of scenes whose
minFDE exceeds 2 m, with a hit at exactly 2 m. For k=1 the single
highest-confidence mode is used; ties break toward the lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, ModelParams, PredictionSet, forward, \
    select_map_points

__all__ = [
    "MISS_DISTANCE",
    "MetricReport",
    "HistogramReport",
    "min_fde",
    "min_ade",
    "miss_rate",
    "aggregate",
    "evaluate_predictions",
    "evaluate_model",
    "fde_histogram",
    "format_report_table",
]

MISS_DISTANCE = 2.0
DEFAULT_KS = (1, 6)


@dataclass(frozen=True)
class MetricReport:
    """Split-averaged metrics per mode count k."""

    scene_count: int
    values: dict[int, dict[str, float]]   # k -> {minADE, minFDE, MR}

    def as_dict(self) -> dict:
        return {
            "scene_count": self.scene_count,
            "metrics": {str(k): dict(v) for k, v in self.values.items()},
        }


@dataclass
class HistogramReport:
    """Normalized minFDE histogram beyond the miss distance."""

    bin_edges: list[float]
    counts: list[float]                  # sum to 1 over the bins
    kde_grid: list[float]
    kde_density: list[float]
    empty: bool = False


def _selected_modes(pred: PredictionSet, k: int) -> list[int]:
    n_modes = pred.confidences.size
    if k > n_modes:
        raise ValueError(f"k={k} exceeds available modes {n_modes}")
    # Stable sort by descending confidence; ties keep the lower index.
    order = np.argsort(-pred.confidences, kind="stable")
    return sorted(int(i) for i in order[:k])


def min_fde(pred: PredictionSet, future: np.ndarray,
            k: int) -> tuple[float, int]:
    """(endpoint error of the best of the k selected modes, its index)."""
    modes = _selected_modes(pred, k)
    endpoint = future[-1]
    best_idx = modes[0]
    best = math.inf
    for idx in modes:
        dist = float(np.linalg.norm(pred.trajectories[idx][-1] - endpoint))
        if dist < best:
            best = dist
            best_idx = idx
    return best, best_idx


def _ade(pred: PredictionSet, future: np.ndarray, idx: int) -> float:
    return float(np.linalg.norm(pred.trajectories[idx] - future,
                                axis=1).mean())


def min_ade(pred: PredictionSet, future: np.ndarray, k: int) -> float:
    """Average point-wise error of the minFDE-winning trajectory."""
    return _ade(pred, future, min_fde(pred, future, k)[1])


def miss_rate(min_fdes) -> float:
    """Fraction of scenes whose minFDE exceeds the 2 m radius."""
    values = list(min_fdes)
    if not values:
        raise ValueError("empty split")
    return sum(1 for v in values if v > MISS_DISTANCE) / len(values)


def aggregate(per_scene: list[dict], ks=DEFAULT_KS) -> MetricReport:
    """Split means of ``minADE@k`` and ``minFDE@k`` and the miss rate.

    ``per_scene`` holds one row per scene, as :func:`evaluate_predictions`
    returns them or as read back from its CSV dump.
    """
    if not per_scene:
        raise ValueError("empty split")
    values = {}
    for k in ks:
        fdes = [row[f"minFDE@{k}"] for row in per_scene]
        values[k] = {
            "minADE": float(np.mean([row[f"minADE@{k}"]
                                     for row in per_scene])),
            "minFDE": float(np.mean(fdes)),
            "MR": miss_rate(fdes),
        }
    return MetricReport(scene_count=len(per_scene), values=values)


def evaluate_predictions(preds: list[PredictionSet],
                         futures: list[np.ndarray],
                         ks=DEFAULT_KS) -> tuple[MetricReport, list[dict]]:
    """Aggregate metrics over a split, plus per-scene rows for CSV dumps."""
    if len(preds) != len(futures):
        raise ValueError("predictions and futures differ in length")
    per_scene = []
    for i, (pred, future) in enumerate(zip(preds, futures)):
        row = {"scene": i}
        for k in ks:
            fde, idx = min_fde(pred, future, k)
            row[f"minADE@{k}"] = _ade(pred, future, idx)
            row[f"minFDE@{k}"] = fde
        per_scene.append(row)
    return aggregate(per_scene, ks), per_scene


def evaluate_model(params: ModelParams, config: ModelConfig, scenes,
                   map_points, ks=DEFAULT_KS):
    """Run the model over a split and aggregate the metric report."""
    preds = []
    futures = []
    for scene in scenes:
        observed = scene.agents[scene.target]
        pts = select_map_points(map_points, observed[-1], config.map_radius)
        pred, _xi, _cache = forward(observed, pts, params)
        preds.append(pred)
        futures.append(scene.future)
    return evaluate_predictions(preds, futures, ks=ks)


def _silverman_bandwidth(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 1.0
    std = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0.0 else std
    if spread <= 0.0:
        spread = 1.0
    return 0.9 * spread * n ** (-0.2)


def fde_histogram(values, bin_width: float = 1.0,
                  kde_bandwidth: float | None = None,
                  kde_points: int = 200) -> HistogramReport:
    """Histogram of minFDE values beyond the miss distance, normalized.

    Bins start at the miss distance; counts are normalized over the
    retained values only. A Gaussian KDE of those values is sampled on a
    uniform grid (Silverman's rule unless a bandwidth is given).
    """
    if bin_width <= 0.0:
        raise ValueError("bin width must be positive")
    arr = np.asarray([v for v in values if v > MISS_DISTANCE])
    if arr.size == 0:
        return HistogramReport(bin_edges=[], counts=[], kde_grid=[],
                               kde_density=[], empty=True)
    n_bins = int(math.ceil((arr.max() - MISS_DISTANCE) / bin_width))
    n_bins = max(n_bins, 1)
    edges = [MISS_DISTANCE + i * bin_width for i in range(n_bins + 1)]
    counts, _ = np.histogram(arr, bins=edges)
    counts = counts / arr.size

    bw = kde_bandwidth if kde_bandwidth is not None \
        else _silverman_bandwidth(arr)
    lo = float(arr.min() - 3.0 * bw)
    hi = float(arr.max() + 3.0 * bw)
    grid = np.linspace(lo, hi, kde_points)
    sq = (grid[:, None] - arr[None, :]) / bw
    density = np.exp(-0.5 * sq * sq).sum(axis=1) / (
        arr.size * bw * math.sqrt(2.0 * math.pi)
    )
    return HistogramReport(
        bin_edges=[float(e) for e in edges],
        counts=[float(c) for c in counts],
        kde_grid=[float(g) for g in grid],
        kde_density=[float(d) for d in density],
    )


def format_report_table(report: MetricReport) -> str:
    """Aligned text table with one row per k."""
    lines = [
        f"{'k':>3}  {'minADE':>8}  {'minFDE':>8}  {'MR':>6}",
    ]
    for k in sorted(report.values):
        v = report.values[k]
        lines.append(
            f"{k:>3}  {v['minADE']:>8.3f}  {v['minFDE']:>8.3f}  "
            f"{v['MR']:>6.3f}"
        )
    lines.append(f"scenes: {report.scene_count}")
    return "\n".join(lines)
