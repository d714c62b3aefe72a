"""Workload sizes, their seeded inputs, set-up and the measured parts.

Every measured round runs these parts, at the workload's sizes:

* ``distill``: train the hd teacher and the ``shared`` nav student
  distilled from it, then predict with and evaluate both;
* ``baseline``: the same for the ``nav`` and ``map_free`` variants;
* ``infer`` (only with ``big_scenes``): single-scene predictions and
  evaluation with a seeded ``init_params`` model on a large world;
* ``osm``: radius queries, each followed by a successor/predecessor walk,
  on an ingested synthetic OSM city.

The infer and osm parts are cut into ``slices`` equal slices, spread
evenly between the four trainings, so that each metric's samples cover the
whole round rather than one short stretch of it: a burst in which a shared
machine runs slower then moves a few of a metric's samples, not all of
them. So every end-to-end metric gets a value from every round of every
workload. With an infer part, the prediction and evaluation timings come
from it alone; otherwise from the trained models. The training scenes and
the training seed are a fixed reference (the library benchmark's train
scene seed), so that the quality metrics compare across workload seeds;
the workload seed draws the validation split, the large world's scenes and
model, the city and every query.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import oracles
import osmcity
import speed
from layers import VARIANTS
from navpredict import distill, geo, metrics, model, osm_ingest, road_graph, \
    scenario

D_T = 64
TRAIN_SCENE_SEED = 7
TRAINING_SEED = 0
WALK_STEPS = 4           # successor steps, then as many predecessor steps
CHECK_EVERY = 8          # brute-force check every n-th query and its walk
GEO_CHECK_EDGES = 200
GEO_TOLERANCE = 1e-7     # relative, projected vs ellipsoidal edge length
MINFDE_TOLERANCE = 1e-9  # absolute, meters
PARTS = ("distill", "baseline", "infer", "osm")


@dataclass(frozen=True)
class Sizes:
    world: scenario.WorldSpec     # world of the training parts
    distill: tuple[int, int]      # (train scenes, epochs), hd + distilled
    baseline: tuple[int, int]     # (train scenes, epochs), nav + map_free
    val_scenes: int
    big_world: scenario.WorldSpec
    big_scenes: int               # 0: no infer part
    city: tuple[int, int]         # (grid, shape nodes per block side)
    queries: int                  # radius queries (and walks) per round
    slices: int                   # infer and osm slices per round

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(p for p in PARTS if p != "infer" or self.big_scenes)


_DEFAULT_WORLD = scenario.WorldSpec(seed=1)
_BIG_WORLD = scenario.WorldSpec(seed=1, num_roads=16, lanes_per_road=3)

WORKLOADS = {
    "train": Sizes(world=_DEFAULT_WORLD, distill=(200, 2), baseline=(200, 2),
                   val_scenes=800, big_world=_BIG_WORLD, big_scenes=0,
                   city=(16, 2), queries=400, slices=8),
    "serve": Sizes(world=_DEFAULT_WORLD, distill=(100, 1), baseline=(100, 1),
                   val_scenes=800, big_world=_BIG_WORLD, big_scenes=400,
                   city=(41, 4), queries=400, slices=8),
}

# Separate tiny inputs that run every code path once before set-up.
WARM_UP = Sizes(
    world=scenario.WorldSpec(seed=5, num_roads=3, intersection_count=1),
    distill=(20, 1), baseline=(20, 1), val_scenes=10,
    big_world=scenario.WorldSpec(seed=6, num_roads=3, lanes_per_road=3,
                                 intersection_count=1),
    big_scenes=10, city=(3, 1), queries=8, slices=2)


def no_span(_name):
    return contextlib.nullcontext()


# --------------------------------------------------------------- inputs

@dataclass
class Inputs:
    val_seed: int
    big_seed: int
    init_seed: int
    city: osmcity.City
    osm_path: str
    graph_path: str
    queries: list[tuple[int, float, float, float]]   # node, dx, dy, radius
    walks: list[tuple[tuple[int, int], list[int]]]   # start edge, choices


def make_inputs(sizes: Sizes, seed: int, outdir, tag: str) -> Inputs:
    """Everything the workload feeds the package, drawn from the seed."""
    city = osmcity.make_city(seed, *sizes.city)
    osm_path = str(outdir / f"{tag}-city.osm")
    with open(osm_path, "wb") as fh:
        fh.write(city.xml)
    rng = random.Random(f"queries/{seed}")
    edges = sorted(city.edges)
    n = sizes.queries
    # A Latin hypercube over (offset x, offset y, radius): every seed covers
    # radii 50..300 m and offsets across a whole block evenly. Centres are
    # intersections at least the largest radius inside the city edge, so
    # every query sees a whole disc of streets.
    strata = [rng.sample(range(n), n) for _ in range(3)]

    def stratum(k, i, lo, hi):
        return lo + (hi - lo) * (strata[k][i] + rng.random()) / n

    queries = [(rng.choice(city.interior), stratum(0, i, -50.0, 50.0),
                stratum(1, i, -50.0, 50.0), stratum(2, i, 50.0, 300.0))
               for i in range(n)]
    walks = [(rng.choice(edges),
              [rng.randrange(1 << 30) for _ in range(2 * WALK_STEPS)])
             for _ in range(n)]
    return Inputs(val_seed=1000 + seed, big_seed=2000 + seed,
                  init_seed=seed, city=city, osm_path=osm_path,
                  graph_path=str(outdir / f"{tag}-graph.txt"),
                  queries=queries, walks=walks)


# ----------------------------------------------------------- recording

class Run:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, list] = {}    # name -> [runs, failures, detail]

    def attempt(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:   # a failed operation is counted, not fatal
            self.failure(fn.__name__, exc)
            return None

    def failure(self, what: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.checks.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or detail

    @property
    def all_passed(self) -> bool:
        return all(fails == 0 for _runs, fails, _d in self.checks.values())


@dataclass
class Pass:
    """What one round measured."""

    sums: defaultdict = field(default_factory=lambda: defaultdict(float))
    samples: defaultdict = field(default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)
    quality: dict = field(default_factory=dict)   # variant -> minFDE@6
    wall: float = 0.0


# -------------------------------------------------------------- set-up

@dataclass
class Context:
    world: scenario.MapPair
    train: list
    val: list
    views: dict
    lg: road_graph.LocalNavGraph
    parsed: tuple[int, int]                # nodes, ways
    graph: road_graph.NavGraph
    loaded: road_graph.NavGraph
    oracle: oracles.GraphOracle | None = None
    big_scenes: list | None = None
    big_points: np.ndarray | None = None
    big_config: model.ModelConfig | None = None
    big_params: model.ModelParams | None = None


def setup(sizes: Sizes, inputs: Inputs, span=no_span) -> Context:
    """World, scenes and views, the large world, and the OSM ingest path."""
    with span("bench.setup.scenario"):
        world = scenario.generate_world(sizes.world)
        n_train = max(sizes.distill[0], sizes.baseline[0])
        train = scenario.generate_scenes(world, n_train, seed=TRAIN_SCENE_SEED)
        val = scenario.generate_scenes(world, sizes.val_scenes,
                                       seed=inputs.val_seed)
        views = {s: scenario.view_points(world, s)
                 for s in ("hd", "nav", "none")}
    big = {}
    if sizes.big_scenes:
        with span("bench.setup.bigmap"):
            big_world = scenario.generate_world(sizes.big_world)
            config = model.ModelConfig(d=D_T, map_source="hd")
            big = dict(
                big_scenes=scenario.generate_scenes(
                    big_world, sizes.big_scenes, seed=inputs.big_seed),
                big_points=scenario.view_points(big_world, "hd"),
                big_config=config,
                big_params=model.init_params(
                    config, np.random.default_rng(inputs.init_seed)),
            )
    with span("bench.setup.osm"):
        with open(inputs.osm_path, "rb") as fh:
            nodes, ways = osm_ingest.parse_osm(fh)
        graph = osm_ingest.build_nav_graph(nodes, ways)
        road_graph.save_graph(graph, inputs.graph_path)
        loaded = road_graph.load_graph(inputs.graph_path)
        lg = road_graph.localize(loaded, geo.MIAMI)
    return Context(world=world, train=train, val=val, views=views, lg=lg,
                   parsed=(len(nodes), len(ways)), graph=graph,
                   loaded=loaded, **big)


def check_setup(ctx: Context, inputs: Inputs, run: Run) -> None:
    """Ingest against the city's construction; build the query oracle."""
    city = inputs.city
    graph, loaded = ctx.graph, ctx.loaded
    run.check("osm.parsed_counts", ctx.parsed == (city.n_nodes, city.n_ways),
              f"parsed {ctx.parsed} nodes / ways, built "
              f"{(city.n_nodes, city.n_ways)}")
    run.check("osm.graph_nodes", set(graph.nodes) == city.road_nodes,
              f"{len(graph.nodes)} graph nodes, expected "
              f"{len(city.road_nodes)}")
    run.check("osm.graph_edges", set(graph.edges) == city.edges,
              f"{len(graph.edges)} graph edges, expected {len(city.edges)}")
    run.check("osm.save_load_roundtrip",
              loaded.edges == graph.edges
              and set(loaded.nodes) == set(graph.nodes))
    sample = sorted(city.edges)[::max(1, len(city.edges) // GEO_CHECK_EDGES)]
    err = oracles.edge_length_error(loaded.nodes, ctx.lg.local, sample,
                                    geo.MIAMI.origin_easting)
    run.check("geo.edge_lengths", err <= GEO_TOLERANCE,
              f"relative edge-length error {err:.2e} > {GEO_TOLERANCE:.0e}")
    ctx.oracle = oracles.GraphOracle(city.edges, ctx.lg.local)


# --------------------------------------------------------------- parts

def run_round(sizes: Sizes, ctx: Context, inputs: Inputs, run: Run, p: Pass,
              span=no_span) -> None:
    """The four trainings, with the infer and osm slices spread between.

    Training ``j`` sits at ``j / 4`` of the round and slice ``i`` at
    ``(i + 0.5) / slices``; the steps run in that order. The speed kernel
    runs after each step.
    """
    timed = not sizes.big_scenes     # do trained models time predictions?
    trained = {}
    steps = [(j / len(VARIANTS), 0, lambda v=v: _train_variant(
        v, sizes, ctx, run, p, span, trained, timed))
        for j, v in enumerate(VARIANTS)]
    k = sizes.slices
    for i in range(k):
        def one_slice(i=i):
            if sizes.big_scenes:
                lo, hi = _bounds(i, k, sizes.big_scenes)
                _evaluate(ctx, run, p, span, f"bigmap_init/{i}",
                          ctx.big_params, ctx.big_config,
                          ctx.big_scenes[lo:hi], ctx.big_points, True)
            _query(ctx, inputs, run, p, span, *_bounds(i, k, sizes.queries))
        steps.append(((i + 0.5) / k, 1, one_slice))
    for _pos, _kind, step in sorted(steps, key=lambda t: t[:2]):
        step()
        speed.sample(p.samples["kernel_s"])


def _bounds(i, k, n):
    return i * n // k, (i + 1) * n // k


def _train(run, p, span, variant, steps, fn, *args):
    with span(f"bench.train.{variant}"):
        t0 = time.perf_counter()
        result = run.attempt(fn, *args)
        elapsed = time.perf_counter() - t0
    if result is None:
        return None
    p.sums["train_steps"] += steps
    p.sums["train_s"] += elapsed
    p.counts["sgd_steps"] += steps
    losses = [*result.loss_curve, result.final_loss]
    run.check("train.losses_finite", all(math.isfinite(x) for x in losses),
              f"{variant}: non-finite loss in {losses}")
    return result


def _train_variant(variant, sizes, ctx, run, p, span, trained, timed):
    """Train one variant on the fixed training scenes, then evaluate it."""
    n, epochs = sizes.distill if variant in ("hd", "distilled") \
        else sizes.baseline
    scenes = ctx.train[:n]
    tcfg = distill.TrainConfig(epochs=epochs, seed=TRAINING_SEED)
    source = {"hd": "hd", "distilled": "nav", "nav": "nav",
              "map_free": "none"}[variant]
    if variant == "hd":
        result = _train(run, p, span, variant, n * epochs,
                        distill.train_teacher, scenes, ctx.world,
                        model.ModelConfig(d=D_T, map_source="hd"), tcfg)
    elif variant == "distilled":
        teacher = trained.get("hd")
        if teacher is None:
            return
        result = _train(run, p, span, variant, n * epochs,
                        distill.train_student, scenes, ctx.world,
                        (teacher.params, teacher.config),
                        distill.DistillConfig(variant="shared"), tcfg)
    else:
        result = _train(run, p, span, variant, n * epochs, distill.train,
                        scenes, ctx.views[source],
                        model.ModelConfig(d=D_T, map_source=source), tcfg)
    trained[variant] = result
    if result is not None:
        _evaluate(ctx, run, p, span, variant, result.params, result.config,
                  ctx.val, ctx.views[source], timed)


def _evaluate(ctx, run, p, span, variant, params, config, scenes, points,
              timed):
    """Single-scene predictions, then split evaluation, then the oracle.

    Untimed evaluations still count, check and report quality; their
    timings go to keys no metric reads.
    """
    ends = np.zeros((len(scenes), config.k, 2))
    predicted = np.zeros(len(scenes), dtype=bool)
    prefix = "" if timed else "untimed_"
    latencies = p.samples[prefix + "predict_ms"]
    clock = time.perf_counter
    with span("bench.predict"):
        for i, scene in enumerate(scenes):
            observed = scene.agents[scene.target]
            run.attempted += 1
            t0 = clock()
            try:
                pts = model.select_map_points(points, observed[-1],
                                              config.map_radius)
                pred, _xi, _cache = model.forward(observed, pts, params)
            except Exception as exc:   # counted like any failed operation
                run.failure("predict", exc)
                continue
            latencies.append((clock() - t0) * 1e3)
            ends[i] = pred.trajectories[:, -1]
            predicted[i] = True
            p.counts["predictions"] += 1
            p.counts["map_points"] += len(pts)

    with span("bench.evaluate"):
        t0 = clock()
        out = run.attempt(metrics.evaluate_model, params, config, scenes,
                          points)
        hist = None
        if out is not None:
            hist = run.attempt(metrics.fde_histogram,
                               [row["minFDE@6"] for row in out[1]])
        elapsed = clock() - t0
    if out is None or hist is None:
        return
    p.samples[prefix + "eval_per_s"].append(len(scenes) / elapsed)
    p.counts["eval_scenes"] += len(scenes)
    report, per_scene = out
    p.quality[variant] = report.values[6]["minFDE"]

    if config.k != 6 or not predicted.all():
        run.check("metrics.minFDE6_oracle", False,
                  f"{variant}: cannot recompute (k={config.k}, "
                  f"{int((~predicted).sum())} predictions failed)")
        return
    final = np.array([scene.future[-1] for scene in scenes])
    expect = oracles.min_fde_all_modes(ends, final)
    got = np.array([row["minFDE@6"] for row in per_scene])
    worst = float(np.abs(got - expect).max())
    mean_gap = abs(report.values[6]["minFDE"] - float(expect.mean()))
    run.check("metrics.minFDE6_oracle",
              worst <= MINFDE_TOLERANCE and mean_gap <= MINFDE_TOLERANCE,
              f"{variant}: per-scene gap {worst:.3e} m, mean gap "
              f"{mean_gap:.3e} m")


def _query(ctx, inputs, run, p, span, lo, hi):
    """Queries ``lo`` to ``hi``, each followed by its two walks."""
    lg = ctx.lg
    oracle = ctx.oracle
    clock = time.perf_counter
    latencies = p.samples["query_ms"]
    op_times = p.samples["graph_op_s"]
    with span("bench.query"):
        for qi in range(lo, hi):
            nid, dx, dy, radius = inputs.queries[qi]
            start, choices = inputs.walks[qi]
            base = lg.local[nid]
            center = geo.LocalPoint(base.x + dx, base.y + dy)
            checked = qi % CHECK_EVERY == 0
            t0 = clock()
            segs = run.attempt(road_graph.segments_in_radius, lg, center,
                               radius)
            elapsed = clock() - t0
            if segs is not None:
                latencies.append(elapsed * 1e3)
                p.counts["queries"] += 1
                p.counts["segments_returned"] += len(segs)
                if checked:
                    errors = oracles.query_errors(
                        segs, oracle, center.x, center.y, radius,
                        lg.resample_step, lg.local)
                    run.check("road_graph.radius_oracle", not errors,
                              f"query {qi}: {'; '.join(errors)}")
            for k, (fn, expect) in enumerate(
                    ((road_graph.successors, oracle.successors),
                     (road_graph.predecessors, oracle.predecessors))):
                edge = start
                for step in range(WALK_STEPS):
                    t0 = clock()
                    nxt = run.attempt(fn, lg, edge)
                    elapsed = clock() - t0
                    if nxt is None:
                        break
                    op_times.append(elapsed)
                    p.counts["graph_ops"] += 1
                    if checked:
                        run.check("road_graph.walk_oracle",
                                  nxt == expect(edge),
                                  f"query {qi}: {fn.__name__}({edge})")
                    if not nxt:
                        break
                    ordered = sorted(nxt)
                    edge = ordered[choices[k * WALK_STEPS + step]
                                   % len(ordered)]
