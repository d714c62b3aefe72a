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


def aggregate(min_ades, min_fdes, ks=DEFAULT_KS) -> MetricReport:
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
                   map_points, ks=DEFAULT_KS):
    """Run the model over a split and aggregate the metric report.

    Returns the report and one row per scene, in split order; a row's
    ``"scene"`` is the scene's ``scene_id``. The model runs through
    ``model.forward_split``.
    """
    trajectories, confidences, _xi = forward_split(params, config, scenes,
                                                   map_points)
    return _evaluate(trajectories, confidences,
                     np.array([scene.future for scene in scenes]), ks,
                     [scene.scene_id for scene in scenes])[:2]


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
    uniform grid (Silverman's rule unless a bandwidth is given). A
    ``bin_width`` or ``kde_bandwidth`` that is not finite and positive,
    or ``kde_points < 1``, raises ``ValueError`` naming the parameter.
    """
    for name, value in (("bin_width", bin_width),
                        ("kde_bandwidth", kde_bandwidth)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value}")
    if kde_points < 1:
        raise ValueError(f"kde_points must be at least 1, got {kde_points}")
    arr = np.asarray([v for v in values if v > MISS_DISTANCE])
    if arr.size == 0:
        return HistogramReport(bin_edges=[], counts=[], kde_grid=[],
                               kde_density=[], empty=True)
    n_bins = max(int(math.ceil((arr.max() - MISS_DISTANCE) / bin_width)), 1)
    edges = [MISS_DISTANCE + i * bin_width for i in range(n_bins + 1)]
    counts = np.histogram(arr, bins=edges)[0] / arr.size

    bw = kde_bandwidth if kde_bandwidth is not None \
        else _silverman_bandwidth(arr)
    lo = float(arr.min() - 3.0 * bw)
    hi = float(arr.max() + 3.0 * bw)
    grid = np.linspace(lo, hi, kde_points)
    sq = (grid[:, None] - arr[None, :]) / bw
    density = np.exp(-0.5 * sq * sq).sum(axis=1) / (
        arr.size * bw * math.sqrt(2.0 * math.pi))
    return HistogramReport(bin_edges=edges, counts=counts.tolist(),
                           kde_grid=grid.tolist(), kde_density=density.tolist())


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
