"""Per-layer metrics from a traced run's spans.

Timings average over every traced span of a name (set-up and traced
rounds). Counts are per round, and must repeat exactly in every traced
round.
"""

from __future__ import annotations

import statistics

import numpy as np

# Set-up phase; traced rounds use 1, 2, ...
SETUP_PHASE = 0
# The self times of a traced round must add up to its wall time within this.
ACCOUNTING_TOLERANCE = 0.01

VARIANTS = ("hd", "distilled", "nav", "map_free")


class _Spans:
    """Selections and sums over the span arrays of one traced run."""

    def __init__(self, tracer, frame, round_phases):
        self.names = tracer.names
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.f = frame
        self.round_phases = round_phases
        parent = frame["parent"]
        self.parent_nid = np.where(parent >= 0,
                                   frame["name_id"][np.maximum(parent, 0)], -1)
        self.repeats: dict[str, list[float]] = {}

    def of(self, name, parent=None):
        m = self.f["name_id"] == self.ids.get(name, -2)
        if parent is not None:
            m &= self.parent_nid == self.ids.get(parent, -2)
        return m

    def mean(self, m, key="dur", scale=1.0):
        return float(self.f[key][m].mean() * scale) if m.any() else 0.0

    def per_round(self, label, m, weights=None):
        """Sum over the first traced round; recorded for the repeat check."""
        w = np.ones(len(m)) if weights is None else weights
        rounds = [float(w[m & (self.f["phase"] == p)].sum())
                  for p in self.round_phases]
        self.repeats[label] = rounds
        return rounds[0]


def _ratio(num, den):
    return float(num / den) if den else 0.0


def per_layer(tracer, frame, round_phases, traced_walls, untraced_walls):
    """(metrics {name: (value, unit)}, checks [(name, ok, detail)])."""
    s = _Spans(tracer, frame, round_phases)
    dur, self_t, a, b = frame["dur"], frame["self"], frame["a"], frame["b"]
    out = {}

    def ms(name, key="dur"):
        return s.mean(s.of(name), key, 1e3), "ms"

    def us(name, key="dur"):
        return s.mean(s.of(name), key, 1e6), "us"

    out["scenario.generate_world.ms"] = ms("scenario.generate_world")
    m = s.of("scenario.generate_scenes")
    out["scenario.generate_scenes.us_per_scene"] = (
        _ratio(dur[m].sum() * 1e6, a[m].sum()), "us")
    out["scenario.view_points.ms"] = ms("scenario.view_points")

    m = s.of("model.select_map_points")
    out["model.select_map_points.us_per_call"] = us("model.select_map_points")
    calls = s.per_round("select_map_points", m)
    out["model.select_map_points.calls"] = (calls, "count")
    out["model.select_map_points.kept_ratio"] = (
        _ratio(b[m].sum(), a[m].sum()), "ratio")
    out["model.select_map_points.mean_kept"] = (
        _ratio(s.per_round("map_points", m, b.astype(float)), calls),
        "count")
    for layer in ("encode_map", "fuse", "encode_agent", "decode"):
        out[f"model.{layer}.us_per_call"] = us(f"model.{layer}")
    out["model.forward.self_us"] = us("model.forward", "self")
    out["model.forward.calls"] = (
        s.per_round("forward", s.of("model.forward")), "count")
    out["model.loss_and_grads.self_us_per_call"] = us("model.loss_and_grads",
                                                      "self")
    out["model.loss_and_grads.calls"] = (
        s.per_round("loss_and_grads", s.of("model.loss_and_grads")), "count")

    m_train = s.of("distill.train")
    steps = s.of("model.loss_and_grads", parent="distill.train")
    out["distill.train.self_us_per_step"] = (
        _ratio(self_t[m_train].sum() * 1e6, steps.sum()), "us")
    # A teacher forward is a forward that the training loop calls itself;
    # the student's runs inside loss_and_grads. Probe value a is the
    # observed track's identity, so (train call, a) pairs count scenes.
    m_tf = s.of("model.forward", parent="distill.train")
    out["distill.teacher_forward.calls"] = (
        s.per_round("teacher_forward", m_tf), "count")
    pairs = np.stack([frame["parent"][m_tf], a[m_tf]], axis=1)
    distinct = len(np.unique(pairs, axis=0)) if m_tf.any() else 0
    out["distill.teacher_forward.unique_ratio"] = (
        _ratio(distinct, m_tf.sum()), "ratio")
    by_variant = {v: [] for v in VARIANTS}
    for idx in np.flatnonzero(m_train):
        up = idx
        while up >= 0 and not s.names[frame["name_id"][up]].startswith(
                "bench.train."):
            up = frame["parent"][up]
        if up >= 0:
            variant = s.names[frame["name_id"][up]].rsplit(".", 1)[-1]
            by_variant[variant].append(dur[idx])
    for variant, values in by_variant.items():
        out[f"distill.train.s.{variant}"] = (
            float(np.mean(values)) if values else 0.0, "s")
    out["distill.prepare_map_inputs.ms"] = ms("distill.prepare_map_inputs")

    out["metrics.evaluate_model.ms"] = ms("metrics.evaluate_model")
    out["metrics.evaluate_predictions.ms"] = ms("metrics.evaluate_predictions",
                                                "self")
    out["metrics.fde_histogram.ms"] = ms("metrics.fde_histogram")

    m = s.of("osm_ingest.parse_osm")
    out["osm_ingest.parse_osm.ms"] = ms("osm_ingest.parse_osm")
    out["osm_ingest.parse_osm.nodes_per_s"] = (
        _ratio(a[m].sum(), dur[m].sum()), "1/s")
    out["osm_ingest.build_nav_graph.ms"] = ms("osm_ingest.build_nav_graph")
    out["road_graph.save_graph.ms"] = ms("road_graph.save_graph")
    out["road_graph.load_graph.ms"] = ms("road_graph.load_graph")
    out["road_graph.localize.self_ms"] = ms("road_graph.localize", "self")
    out["geo.geo_to_local.us_per_call"] = us("geo.geo_to_local")

    m = s.of("road_graph.segments_in_radius")
    out["road_graph.segments_in_radius.us_per_call"] = us(
        "road_graph.segments_in_radius")
    out["road_graph.segments_in_radius.calls"] = (
        s.per_round("queries", m), "count")
    out["road_graph.segments_in_radius.returned"] = (
        s.per_round("segments_returned", m, a.astype(float)), "count")
    distance_calls = sum(n for (name, _p), n in tracer.counters.items()
                         if name == "road_graph.point_segment_distance")
    out["road_graph.segments_in_radius.hit_ratio"] = (
        _ratio(a[m].sum(), distance_calls), "ratio")
    out["road_graph.segment.us_per_call"] = us("road_graph.segment")
    out["road_graph.resample_polyline.us_per_call"] = us(
        "road_graph.resample_polyline")
    out["road_graph.successors.us_per_call"] = us("road_graph.successors")
    out["road_graph.predecessors.us_per_call"] = us("road_graph.predecessors")

    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
        - 1.0, "ratio")
    worst = max(abs(float(self_t[frame["phase"] == p].sum()) - wall) / wall
                for p, wall in zip(round_phases, traced_walls))
    out["trace.accounting_error_ratio"] = (worst, "ratio")

    checks = [
        ("trace.self_time_accounting", worst <= ACCOUNTING_TOLERANCE,
         f"self times miss traced wall_s by {worst:.2%} "
         f"(tolerance {ACCOUNTING_TOLERANCE:.0%})"),
        ("trace.self_time_nonnegative", float(self_t.min()) > -1e-7,
         f"a span's children cover more than it: {self_t.min():.3e} s"),
    ]
    for label, rounds in s.repeats.items():
        checks.append((f"trace.counts_repeat.{label}", len(set(rounds)) == 1,
                       f"{label} per traced round: {rounds}"))
    return out, checks
