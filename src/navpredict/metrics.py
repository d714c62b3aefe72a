"""Displacement-error metrics and the error histogram report.

minFDE is the lowest Euclidean distance between the selected modes'
endpoints and the ground-truth endpoint; minADE is the average
point-wise error of the trajectory that won the minFDE selection (not
the per-mode ADE minimizer); Miss Rate is the fraction of scenes whose
minFDE exceeds 2 m, with a hit at exactly 2 m. The k selected modes are
the k most confident; confidence ties and distance ties both break
toward the lowest mode index.

A split is scored in one array pass for every k at once: predictions
stack to ``(n, modes, 30, 2)``, one stable argsort orders the modes by
confidence, the endpoints pick each k's winner, and only the winners'
whole trajectories are measured. Every point error is
``sqrt(dx*dx + dy*dy)`` element-wise, so no bit of a result depends on
the BLAS kernel. The one-scene functions
:func:`min_fde` and :func:`min_ade` call the same pass. :func:`aggregate`
takes per-k columns of per-scene values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, ModelParams, PredictionSet, forward_split

__all__ = [
    "MISS_DISTANCE",
    "MetricReport",
    "HistogramReport",
    "min_fde",
    "min_ade",
    "miss_rate",
    "aggregate",
    "evaluate_model",
    "fde_histogram",
    "format_report_table",
]

MISS_DISTANCE = 2.0
# The mode counts that ``evaluate_model`` scores.
EVAL_KS = (1, 6)
# ``fde_histogram``: the bin width in meters, the most bins it makes and
# the KDE's grid points.
HIST_BIN_WIDTH = 1.0
HIST_MAX_BINS = 1000
KDE_POINTS = 200


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


def _length(diffs: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) along the last axis; squares ``diffs`` in place."""
    diffs *= diffs
    return np.sqrt(diffs[..., 0] + diffs[..., 1])


def _evaluate(trajectories, confidences, futures, ks, scene_ids=None):
    """(report, per-scene rows, winning modes ``(len(ks), n)``) of a split's
    ``(n, modes, 30, 2)`` trajectories, in one array pass for every k.

    Each row's ``"scene"`` is the scene's id in ``scene_ids``, or its
    position in the split without them."""
    if not len(futures):
        raise ValueError("empty split")
    n, n_modes = confidences.shape
    if not all(1 <= k <= n_modes for k in ks):
        raise ValueError(f"k={tuple(ks)} outside the {n_modes} modes")
    # Each mode's place in the descending-confidence order; ties keep order.
    rank = np.argsort(-confidences, axis=1, kind="stable").argsort(axis=1)
    ends = _length(trajectories[:, :, -1] - futures[:, None, -1])
    masked = np.where(rank < np.array(ks)[:, None, None], ends, np.inf)
    winner = masked.argmin(axis=2)                      # lowest index on ties
    err = _length(trajectories[np.arange(n), winner] - futures)
    fdes, ades = err[..., -1], err.mean(axis=-1)
    keys = [f"{name}@{k}" for k in ks for name in ("minADE", "minFDE")]
    cells = np.stack([ades, fdes], axis=1).reshape(len(keys), -1).T.tolist()
    if scene_ids is None:
        scene_ids = range(n)
    per_scene = [{"scene": i, **dict(zip(keys, row))}
                 for i, row in zip(scene_ids, cells)]
    return aggregate(ades, fdes, ks), per_scene, winner


def min_fde(pred: PredictionSet, future: np.ndarray,
            k: int) -> tuple[float, int]:
    """(endpoint error of the best of the k selected modes, its index)."""
    _, rows, winner = _evaluate(pred.trajectories[None],
                                pred.confidences[None], future[None], (k,))
    return rows[0][f"minFDE@{k}"], int(winner[0, 0])


def min_ade(pred: PredictionSet, future: np.ndarray, k: int) -> float:
    """Average point-wise error of the minFDE-winning trajectory."""
    return _evaluate(pred.trajectories[None], pred.confidences[None],
                     future[None], (k,))[1][0][f"minADE@{k}"]


def miss_rate(min_fdes):
    """Fraction of scenes whose minFDE exceeds 2 m, along the last axis."""
    values = np.asarray(min_fdes, dtype=float)
    if values.shape[-1] == 0:
        raise ValueError("empty split")
    return np.count_nonzero(values > MISS_DISTANCE, axis=-1) / values.shape[-1]


def aggregate(min_ades, min_fdes, ks) -> MetricReport:
    """Split means of minADE and minFDE and the miss rate, per k.

    ``min_ades`` and ``min_fdes`` are ``(len(ks), n)`` columns of per-scene
    values, as the split pass computes them or the per-scene CSV holds.
    """
    rates = miss_rate(min_fdes)
    values = {k: {"minADE": float(a), "minFDE": float(f), "MR": float(mr)}
              for k, a, f, mr in zip(ks, np.mean(min_ades, axis=1),
                                     np.mean(min_fdes, axis=1), rates)}
    return MetricReport(scene_count=np.shape(min_fdes)[1], values=values)


def evaluate_model(params: ModelParams, config: ModelConfig, scenes,
                   map_points):
    """Run the model over a split and aggregate the metric report for
    each k of ``EVAL_KS``.

    Returns the report and one row per scene, in split order; a row's
    ``"scene"`` is the scene's ``scene_id``. The model runs through
    ``model.forward_split``.
    """
    trajectories, confidences, _xi = forward_split(params, config, scenes,
                                                   map_points)
    return _evaluate(trajectories, confidences,
                     np.array([scene.future for scene in scenes]), EVAL_KS,
                     [scene.scene_id for scene in scenes])[:2]


def _silverman_bandwidth(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 1.0
    # Values far apart may take the sum of squares past the float range;
    # the spread of the values scaled to at most 1 does not.
    with np.errstate(over="ignore"):
        std = float(np.std(values, ddof=1))
    if not math.isfinite(std):
        top = float(np.abs(values).max())
        std = float(np.std(values / top, ddof=1)) * top
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0.0 else std
    if spread <= 0.0:
        spread = 1.0
    return 0.9 * spread * n ** (-0.2)


def fde_histogram(values) -> HistogramReport:
    """Histogram of minFDE values beyond the miss distance, normalized.

    Bins are ``HIST_BIN_WIDTH`` (1 m) wide from the miss distance on, at
    most ``HIST_MAX_BINS`` of them: when the values reach further, the
    last bin collects every value from its left edge on and is closed at
    the largest value. Counts are normalized over the retained values
    only. A Gaussian KDE of those values, at Silverman's bandwidth, is
    sampled on a uniform grid of ``KDE_POINTS`` (200) points that reaches
    three bandwidths past the extreme values, or to the largest float if
    that is nearer. A non-finite value raises ``ValueError``.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("minFDE values must be finite")
    arr = values[values > MISS_DISTANCE]
    if arr.size == 0:
        return HistogramReport(bin_edges=[], counts=[], kde_grid=[],
                               kde_density=[], empty=True)
    top = float(arr.max())
    n_bins = max(math.ceil((top - MISS_DISTANCE) / HIST_BIN_WIDTH), 1)
    edges = [MISS_DISTANCE + i * HIST_BIN_WIDTH
             for i in range(min(n_bins, HIST_MAX_BINS) + 1)]
    if n_bins > HIST_MAX_BINS:
        edges[-1] = top
    counts = np.histogram(arr, bins=edges)[0] / arr.size

    # Near the float maximum the reach past the values, and the grid's
    # span, would overflow. There the KDE runs in units of a power of two,
    # which scales every value exactly, and the reach stops at the largest
    # float. Below 2**1020 the unit is 1.
    scale = 2.0 ** max(0, math.frexp(top)[1] - 1020)
    scaled = arr / scale
    bw = _silverman_bandwidth(scaled)
    limit = sys.float_info.max / scale
    grid = np.linspace(max(float(scaled.min() - 3.0 * bw), -limit),
                       min(float(scaled.max() + 3.0 * bw), limit), KDE_POINTS)
    # A value some 39 bandwidths from a grid point adds exactly 0 there;
    # further out its squared distance may overflow on the way.
    with np.errstate(over="ignore"):
        sq = (grid[:, None] - scaled[None, :]) / bw
        kernel = np.exp(-0.5 * sq * sq)
    density = kernel.sum(axis=1) / (arr.size * bw * math.sqrt(2.0 * math.pi))
    return HistogramReport(bin_edges=edges, counts=counts.tolist(),
                           kde_grid=(grid * scale).tolist(),
                           kde_density=(density / scale).tolist())


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
