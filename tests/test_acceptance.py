"""End-to-end acceptance gate.

One test per binding guarantee, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
The ordering benchmark (criterion 7) dominates the runtime at about 2
minutes on a 2-vCPU Xeon; its last run gave minFDE@6 means of hd 1.763,
distilled 1.789, nav 1.845 and map-free 2.359 (pooled std 0.087).
Everything else finishes in seconds. Criterion 7 is marked ``slow``, so
``pytest -m "not slow"`` skips it for a fast loop.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest
from click.testing import CliRunner

from navpredict import model as M
from navpredict.benchmark import BenchmarkSpec, run_benchmark
from navpredict.cli import main as cli_main
from navpredict.geo import MIAMI, PITTSBURGH, GeoPoint, UtmPoint, \
    utm_to_local, utm_to_wgs84, wgs84_to_utm
from navpredict.metrics import min_ade, min_fde, miss_rate
from navpredict.model import PredictionSet, distill_loss
from navpredict.osm_ingest import build_nav_graph, parse_osm
from navpredict.road_graph import (
    NavGraph,
    localize,
    point_segment_distance,
    predecessors,
    resample_polyline,
    segments_in_radius,
    successors,
)
from navpredict.geo import CityFrame, LocalPoint
from navpredict.scenario import FUTURE_LEN, OBSERVED_LEN

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).parent.parent / "README.md"


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_desk_scale_disclaimer():
    text = README.read_text(encoding="utf-8")
    ok = "not reproducible at desk scale" in text
    _report(1, ok, "README states full-scale numbers are not reproducible "
                   "at desk scale")


def test_criterion_2_metric_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        pred = PredictionSet(
            trajectories=rng.normal(0.0, 5.0, size=(6, FUTURE_LEN, 2)),
            confidences=rng.dirichlet(np.ones(6)),
        )
        future = rng.normal(0.0, 5.0, size=(FUTURE_LEN, 2))

        # Independent brute-force evaluator: plain Python loops.
        order = sorted(range(6), key=lambda i: (-pred.confidences[i], i))
        chosen = sorted(order[:k])
        best_idx, best = None, None
        for idx in chosen:
            dx = pred.trajectories[idx][-1][0] - future[-1][0]
            dy = pred.trajectories[idx][-1][1] - future[-1][1]
            dist = math.sqrt(dx * dx + dy * dy)
            if best is None or dist < best:
                best, best_idx = dist, idx
        ade = sum(
            math.sqrt((pred.trajectories[best_idx][t][0] - future[t][0]) ** 2
                      + (pred.trajectories[best_idx][t][1] - future[t][1]) ** 2)
            for t in range(FUTURE_LEN)
        ) / FUTURE_LEN

        fde, idx = min_fde(pred, future, k)
        assert idx == best_idx
        worst = max(worst, abs(fde - best) / max(abs(best), 1e-30))
        worst = max(worst,
                    abs(min_ade(pred, future, k) - ade) / max(ade, 1e-30))
    assert miss_rate([2.0, 2.0 + 1e-12]) == 0.5
    elapsed = time.time() - started
    ok = worst < 1e-12 and elapsed < 10.0
    _report(2, ok, f"minADE/minFDE/MR vs brute force: worst rel err "
                   f"{worst:.2e} on 1000 instances in {elapsed:.1f}s")


def test_criterion_3_gradient_correctness():
    started = time.time()
    worst = 0.0
    rng = np.random.default_rng(1)
    for draw in range(50):
        # Alternate the two distillation variants: matched teacher width
        # (d_t == d) and shared embedding (d_t < d).
        cfg = M.ModelConfig(d=4, k=2, hidden=3)
        d_t = 4 if draw % 2 == 0 else 3
        while True:
            observed = np.cumsum(rng.normal(0.0, 0.5,
                                            size=(OBSERVED_LEN, 2)), axis=0)
            future = observed[-1] + np.cumsum(
                rng.normal(0.0, 0.5, size=(FUTURE_LEN, 2)), axis=0)
            map_points = observed[-1] + rng.uniform(-40, 40, size=(8, 2))
            teacher = rng.normal(size=d_t)
            params = M.init_params(cfg, rng)
            # The loss is piecewise smooth: a finite-difference probe is
            # only valid away from ReLU kinks and winner ties, so redraw
            # instances where the probe step would cross one. The
            # pre-activations come from the forward cache, because the
            # model computes them in the target's heading frame.
            pred, _, cache = M.forward(observed, map_points, params)
            _, z1, _ = cache[5]
            _, zk, zv = cache[6]
            pre = np.concatenate([z1.ravel(), zk.ravel(), zv.ravel()])
            errs = np.sort(np.linalg.norm(pred.trajectories - future,
                                          axis=2).mean(axis=1))
            if np.abs(pre).min() > 1e-3 and errs[1] - errs[0] > 1e-3:
                break
        vec = params.flat
        frame = M.AgentFrame(observed, map_points, future)

        _, grads, _ = M.loss_and_grads(frame, params, alpha=1.0,
                                       teacher_embedding=teacher, beta=1.0)
        analytic = grads.flat
        fd = np.empty_like(vec)
        h = 1e-6
        for i in range(vec.size):
            up = vec.copy(); up[i] += h
            dn = vec.copy(); dn[i] -= h
            lu, _, _ = M.loss_and_grads(frame,
                                        M.ModelParams(up, params.shapes),
                                        alpha=1.0, teacher_embedding=teacher,
                                        beta=1.0)
            ld, _, _ = M.loss_and_grads(frame,
                                        M.ModelParams(dn, params.shapes),
                                        alpha=1.0, teacher_embedding=teacher,
                                        beta=1.0)
            fd[i] = (lu - ld) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(
            np.linalg.norm(analytic), np.linalg.norm(fd), 1e-30)
        worst = max(worst, rel)
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 120.0
    _report(3, ok, f"analytic vs central-difference gradients: worst rel "
                   f"err {worst:.2e} over 50 draws in {elapsed:.1f}s")


def test_criterion_4_distillation_loss_contract():
    started = time.time()
    ok = True
    # zero on prefix match
    ok &= distill_loss(np.array([1.0, -2.0]),
                       np.array([1.0, -2.0, 9.0])) == 0.0
    # closed-form value 4.0 at width two
    ok &= distill_loss(np.array([1.0, -1.0]),
                       np.array([3.0, 1.0, 50.0])) == 4.0
    # exact suffix invariance
    rng = np.random.default_rng(2)
    teacher = rng.normal(size=6)
    student = rng.normal(size=9)
    base = distill_loss(teacher, student)
    student[6:] += 1e6
    ok &= distill_loss(teacher, student) - base == 0.0
    elapsed = time.time() - started
    ok &= elapsed < 1.0
    _report(4, bool(ok), f"prefix-match zero, closed-form 4.0, suffix "
                         f"invariance in {elapsed:.2f}s")


def test_criterion_5_geodesy_accuracy():
    started = time.time()
    rows = json.loads((DATA / "utm_vectors.json").read_text())
    assert len(rows) >= 20
    regions = {"miami" if r["lat"] < 30 else "pittsburgh" for r in rows}
    assert regions == {"miami", "pittsburgh"}
    worst_fwd = 0.0
    for row in rows:
        u = wgs84_to_utm(GeoPoint(row["lat"], row["lon"]), row["zone"])
        worst_fwd = max(worst_fwd, abs(u.easting - row["easting"]),
                        abs(u.northing - row["northing"]))
    rng = np.random.default_rng(3)
    worst_rt = 0.0
    for _ in range(1000):
        lat = float(rng.uniform(24.0, 42.0))
        lon = float(rng.uniform(-84.0, -78.0))
        g = utm_to_wgs84(wgs84_to_utm(GeoPoint(lat, lon), 17))
        worst_rt = max(worst_rt, abs(g.lat - lat), abs(g.lon - lon))
    m_origin = utm_to_local(UtmPoint(580560.0088, 2850959.9999, 17), MIAMI)
    p_origin = utm_to_local(UtmPoint(583710.0070, 4477259.9999, 17),
                            PITTSBURGH)
    origins_exact = (m_origin.x, m_origin.y, p_origin.x, p_origin.y) \
        == (0.0, 0.0, 0.0, 0.0)
    elapsed = time.time() - started
    ok = worst_fwd < 1e-3 and worst_rt < 1e-9 and origins_exact \
        and elapsed < 5.0
    _report(5, ok, f"forward err {worst_fwd:.2e} m on {len(rows)} oracle "
                   f"points, round trip {worst_rt:.2e} deg, origins exact, "
                   f"{elapsed:.1f}s")


def test_criterion_6_map_api_correctness():
    started = time.time()
    frame = CityFrame("equator", 17, 500000.0, 0.0)
    rng = np.random.default_rng(4)
    deg = 1.0 / 111000.0
    nodes = {i: GeoPoint(float(rng.uniform(0, 2000) * deg),
                         -81.0 + float(rng.uniform(0, 2000) * deg))
             for i in range(60)}
    edges = set()
    while len(edges) < 100:
        a, b = rng.integers(0, 60, size=2)
        if a != b:
            edges.add((int(a), int(b)))
    local = localize(NavGraph(nodes=nodes, edges=tuple(sorted(edges))),
                     frame, resample_step=25.0)

    mismatches = 0
    for _ in range(1000):
        cx = float(rng.uniform(-100.0, 2100.0))
        cy = float(rng.uniform(-100.0, 2100.0))
        r = float(rng.uniform(10.0, 500.0))
        got = {s.edge_id for s in
               segments_in_radius(local, LocalPoint(cx, cy), r)}
        expected = {
            eid for eid in local.graph.edges
            if point_segment_distance(
                cx, cy, local.local[eid[0]], local.local[eid[1]]) <= r
        }
        mismatches += got != expected

    # successor/predecessor duality, exhaustively over all edge pairs
    duality = all(
        (f in successors(local, e)) == (e in predecessors(local, f))
        for e in local.graph.edges for f in local.graph.edges
    )

    resample_ok = (
        len(resample_polyline(LocalPoint(0, 0), LocalPoint(4, 0), 2.0)) == 3
        and
        len(resample_polyline(LocalPoint(0, 0), LocalPoint(5, 0), 2.0)) == 4
    )
    elapsed = time.time() - started
    ok = mismatches == 0 and duality and resample_ok and elapsed < 10.0
    _report(6, ok, f"radius query vs brute force ({mismatches} mismatches "
                   f"/1000), duality exhaustive, resampling exact, "
                   f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_7_paper_ordering_reproduction():
    started = time.time()
    result = run_benchmark(BenchmarkSpec(),
                           progress=lambda seed, row: print(
                               f"  seed {seed}: " + "  ".join(
                                   f"{k}={v:.3f}" for k, v in row.items())))
    elapsed = time.time() - started
    mean = result.mean
    std = result.pooled_std
    print(result.summary())

    # Soft checks on the middle inequalities: report, do not fail.
    if mean["hd"] > mean["distilled"] + std:
        print(f"WARNING: hd ({mean['hd']:.3f}) > distilled "
              f"({mean['distilled']:.3f}) beyond pooled std {std:.3f}")
    elif mean["hd"] > mean["distilled"]:
        print(f"WARNING: hd ({mean['hd']:.3f}) > distilled "
              f"({mean['distilled']:.3f}) within pooled std {std:.3f}")
    if mean["distilled"] > mean["nav"] + std:
        print(f"WARNING: distilled ({mean['distilled']:.3f}) > nav "
              f"({mean['nav']:.3f}) beyond pooled std {std:.3f}")
    elif mean["distilled"] > mean["nav"]:
        print(f"WARNING: distilled ({mean['distilled']:.3f}) > nav "
              f"({mean['nav']:.3f}) within pooled std {std:.3f}")

    ok = (mean["nav"] < mean["map_free"]
          and mean["hd"] < mean["map_free"]
          and elapsed < 900.0)
    _report(7, ok, f"minFDE@6 means hd={mean['hd']:.3f} "
                   f"distilled={mean['distilled']:.3f} nav={mean['nav']:.3f} "
                   f"map_free={mean['map_free']:.3f} (pooled std {std:.3f}) "
                   f"in {elapsed / 60:.1f} min")


def test_criterion_8_cli_determinism(tmp_path):
    started = time.time()
    runner = CliRunner()
    fixture = DATA / "fixture.osm"
    outputs = {}
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        base.mkdir()
        graph = base / "graph.txt"
        r = runner.invoke(cli_main, ["--threads", "1", "ingest",
                                     str(fixture), "--frame", "miami",
                                     "--out", str(graph)])
        assert r.exit_code == 0, r.output
        data = base / "data"
        r = runner.invoke(cli_main, ["--threads", "1", "gen", "--out",
                                     str(data), "--n", "200", "--seed", "5"])
        assert r.exit_code == 0, r.output
        ckpt = base / "model.ckpt"
        r = runner.invoke(cli_main, ["--threads", "1", "train", "--data",
                                     str(data), "--map", "nav",
                                     "--epochs", "2", "--d", "16",
                                     "--hidden", "16", "--seed", "5",
                                     "--out", str(ckpt)])
        assert r.exit_code == 0, r.output
        report = base / "report.json"
        csv = base / "per_scene.csv"
        r = runner.invoke(cli_main, ["--threads", "1", "eval", "--data",
                                     str(data), "--ckpt", str(ckpt),
                                     "--json", str(report),
                                     "--csv", str(csv)])
        assert r.exit_code == 0, r.output
        outputs[attempt] = [graph, data / "scenes_train.ndjson",
                            data / "scenes_val.ndjson",
                            data / "world_hd.json", data / "world_nav.json",
                            ckpt, pathlib.Path(str(ckpt) + ".loss.csv"),
                            report, csv]
    diffs = [p1.name for p1, p2 in zip(outputs["a"], outputs["b"])
             if p1.read_bytes() != p2.read_bytes()]
    elapsed = time.time() - started
    ok = not diffs and elapsed < 180.0
    _report(8, ok, f"ingest/gen/train/eval byte-identical across reruns "
                   f"(diffs: {diffs or 'none'}) in {elapsed:.0f}s")


def test_criterion_9_osm_golden_fixtures():
    started = time.time()
    with open(DATA / "fixture.osm", "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    ok = (len(nodes) == 50 and len(ways) == 12
          and len(graph.nodes) == 23 and len(graph.edges) == 25
          # oneway=yes forward only, oneway=-1 reverse only
          and (4, 5) in graph.edges and (5, 4) not in graph.edges
          and (10, 9) in graph.edges and (9, 10) not in graph.edges
          # non-whitelisted way types contribute nothing
          and all(7 not in e and 8 not in e for e in graph.edges)
          # way with a dangling node ref skipped whole
          and all(24 not in e and 25 not in e for e in graph.edges))
    elapsed = time.time() - started
    ok = ok and elapsed < 1.0
    _report(9, ok, f"whitelist, oneway and dangling-ref fixtures produce "
                   f"the documented graph in {elapsed:.2f}s")
