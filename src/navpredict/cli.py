"""Command-line entry point wiring the pipeline together.

Subcommands: ingest, gen, train, eval, query, report. Every command
takes all randomness from an explicit ``--seed`` and, run single
threaded with identical flags, produces byte-identical primary outputs.
A run manifest (command, config snapshot, seed, paths, version,
duration) is written atomically next to every primary output. A command
exits 0 on success, 2 on a usage error that click reports, and 1 with
``error code=<name> msg=<message>`` on stderr on any other failure.

The modules that use numpy are imported inside the commands, not here,
so that ``--threads`` sets the thread-pool variables before numpy loads
and reads them. No option restates a library default: a flag left out
is not passed on, and a manifest records the values used by library name.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import asdict

import click

from . import __version__
from .geo import (BUILTIN_FRAMES, FrameMismatchError, InvalidCoordinateError,
                  LocalPoint, OutOfZoneError, load_frames)


def _given(**values) -> dict:
    """The keyword arguments of the flags given: those not ``None``."""
    return {name: value for name, value in values.items() if value is not None}


def _fail(exc: BaseException):
    from . import model, osm_ingest, road_graph, scenario

    error_codes = (
        (osm_ingest.OsmParseError, "parse-error"),
        (scenario.SceneFormatError, "scene-format"),
        (road_graph.GraphFormatError, "graph-format"),
        (road_graph.UnknownEdgeError, "unknown-edge"),
        (OutOfZoneError, "out-of-zone"),
        (FrameMismatchError, "frame-mismatch"),
        (InvalidCoordinateError, "invalid-coordinate"),
        (model.NumericError, "numeric-error"),
        (OSError, "io-error"),
        (ValueError, "invalid-input"),
    )
    code = "internal-error"
    for exc_type, name in error_codes:
        if isinstance(exc, exc_type):
            code = name
            break
    click.echo(f"error code={code} msg={exc}", err=True)
    sys.exit(1)


def _write_manifest(output_path: str, command: str, config: dict,
                    seed, inputs: list[str], started: float,
                    stages_s: dict[str, float] | None = None):
    """Write the run manifest; ``started`` is a ``time.perf_counter()``.

    ``stages_s``, if given, maps each stage of the command to its seconds.
    """
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": sorted(inputs),
        "outputs": [os.path.basename(output_path)],
        "version": __version__,
        "duration_s": round(time.perf_counter() - started, 3),
    }
    if stages_s is not None:
        manifest["stages_s"] = {name: round(seconds, 3)
                                for name, seconds in stages_s.items()}
    path = output_path + ".manifest.json"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _resolve_frame(name: str, frames_config):
    frames = load_frames(frames_config) if frames_config else BUILTIN_FRAMES
    if name not in frames:
        raise click.UsageError(
            f"unknown frame {name!r}; known: {', '.join(sorted(frames))}"
        )
    return frames[name]


class _ErrorBoundary(click.Group):
    """Sends every command failure that is not click's own to _fail."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:  # noqa: BLE001 - the one reporting point
            _fail(exc)


@click.group(cls=_ErrorBoundary)
@click.version_option(version=__version__)
@click.option("--threads", default=None, type=click.IntRange(min=1),
              help="Cap numeric thread pools (use 1 for byte-stable runs).")
def main(threads):
    """Navigation-map road graphs and map-aware trajectory prediction."""
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)
        try:
            import threadpoolctl
            threadpoolctl.threadpool_limits(threads)
        except ImportError:
            pass


@main.command()
@click.argument("osm_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--frame", "frame_name", required=True,
              help="City frame for projection sanity checks.")
@click.option("--frames-config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Extra city frames (JSON).")
@click.option("--out", "out_path", required=True, type=click.Path())
def ingest(osm_path, frame_name, frames_config, out_path):
    """Parse OSM XML into a serialized navigation graph."""
    from . import osm_ingest, road_graph

    started = time.perf_counter()
    frame = _resolve_frame(frame_name, frames_config)
    marks = [time.perf_counter()]
    with open(osm_path, "rb") as fh:
        nodes, ways = osm_ingest.parse_osm(fh)
    marks.append(time.perf_counter())
    graph = osm_ingest.build_nav_graph(nodes, ways)
    marks.append(time.perf_counter())
    # Localizing validates that every node projects into the frame.
    road_graph.localize(graph, frame)
    marks.append(time.perf_counter())
    road_graph.save_graph(graph, out_path)
    marks.append(time.perf_counter())
    stages_s = {name: end - start for name, start, end in zip(
        ("parse", "build", "localize", "save"), marks, marks[1:])}
    _write_manifest(out_path, "ingest",
                    {"frame": frame.name, "zone": frame.zone},
                    None, [osm_path], started, stages_s)
    click.echo(f"ingested {len(graph.nodes)} nodes, "
               f"{len(graph.edges)} edges -> {out_path}")


def _split_of(scene_id: int, train_fraction: float) -> str:
    digest = hashlib.sha256(str(scene_id).encode("ascii")).digest()
    bucket = int.from_bytes(digest[:4], "big") % 100
    return "train" if bucket < round(train_fraction * 100) else "val"


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--n", default=1000, show_default=True)
@click.option("--seed", type=int)
@click.option("--roads", type=int)
@click.option("--lanes", type=int)
@click.option("--lane-width", type=float)
@click.option("--curvature", nargs=2, type=float)
@click.option("--intersections", type=int)
@click.option("--noise", type=float)
@click.option("--p-turn", type=float)
@click.option("--p-lane-change", type=float)
@click.option("--split", "train_fraction", default=0.8, show_default=True,
              help="Train fraction; split by scene-id hash.")
def gen(out_dir, n, seed, roads, lanes, lane_width, curvature,
        intersections, noise, p_turn, p_lane_change, train_fraction):
    """Generate a synthetic world and scene dataset.

    Flags left out take scenario.WorldSpec's and generate_scenes' defaults.
    """
    from . import scenario

    started = time.perf_counter()
    if not (math.isfinite(train_fraction)
            and 0.0 <= train_fraction <= 1.0):
        raise ValueError(f"--split must be a train fraction in [0, 1], "
                         f"got {train_fraction}")
    spec = scenario.WorldSpec(**_given(
        seed=seed, num_roads=roads, lanes_per_road=lanes,
        lane_width=lane_width, curvature_range=curvature,
        intersection_count=intersections))
    keywords = inspect.signature(scenario.generate_scenes).parameters.values()
    draws = {p.name: p.default for p in keywords if p.default is not p.empty}
    draws.update(_given(noise_sigma=noise, p_turn=p_turn,
                        p_lane_change=p_lane_change))
    marks = [time.perf_counter()]
    world = scenario.generate_world(spec)
    marks.append(time.perf_counter())
    scenes = scenario.generate_scenes(world, n, seed=spec.seed, **draws)
    marks.append(time.perf_counter())
    os.makedirs(out_dir, exist_ok=True)
    scenario.write_world(world, *_world_paths(out_dir))
    splits = {"train": [], "val": []}
    for scene in scenes:
        splits[_split_of(scene.scene_id, train_fraction)].append(scene)
    for name, subset in splits.items():
        scenario.write_scenes(
            subset, os.path.join(out_dir, f"scenes_{name}.ndjson")
        )
    marks.append(time.perf_counter())
    stages_s = {name: end - start for name, start, end in zip(
        ("world", "scenes", "write"), marks, marks[1:])}
    config = {"world": asdict(spec), "n": n, **draws,
              "train_fraction": train_fraction}
    _write_manifest(os.path.join(out_dir, "scenes_train.ndjson"), "gen",
                    config, spec.seed, [], started, stages_s)
    click.echo(f"generated {len(splits['train'])} train / "
               f"{len(splits['val'])} val scenes -> {out_dir}")


def _data_dir_option():
    return click.option(
        "--data", "data_dir", type=click.Path(exists=True, file_okay=False),
        envvar="NAVPREDICT_DATA_DIR", required=True,
        help="Dataset directory (or $NAVPREDICT_DATA_DIR).",
    )


def _world_paths(data_dir: str) -> tuple[str, str]:
    return (os.path.join(data_dir, "world_hd.json"),
            os.path.join(data_dir, "world_nav.json"))


@main.command()
@_data_dir_option()
@click.option("--map", "map_source", required=True,
              type=click.Choice(["hd", "nav", "none"]))
@click.option("--distill", "teacher_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Teacher checkpoint; enables knowledge distillation.")
@click.option("--variant", type=click.Choice(["matched", "shared"]))
@click.option("--alpha", type=float)
@click.option("--beta", type=float)
@click.option("--seed", type=int)
@click.option("--epochs", type=int)
@click.option("--lr", type=float)
@click.option("--d", "embed_width", type=int)
@click.option("--hidden", type=int)
@click.option("--map-radius", type=float)
@click.option("--out", "out_path", required=True, type=click.Path())
def train(data_dir, map_source, teacher_path, variant, alpha, beta, seed,
          epochs, lr, embed_width, hidden, map_radius, out_path):
    """Train a predictor; optionally distill from an HD-map teacher.

    Flags left out take distill.TrainConfig's, model.ModelConfig's and
    distill.DistillConfig's defaults; a student keeps its teacher's radius.
    """
    from . import distill, scenario
    from . import model as model_mod

    started = time.perf_counter()
    if teacher_path is not None and map_source != "nav":
        raise click.UsageError("--distill requires --map nav")
    # A flag that the run would ignore is a usage error: a student's
    # widths derive from its teacher's, and only a student reads the rest.
    verb = "cannot be used with" if teacher_path is not None else "requires"
    ignored = (_given(d=embed_width, hidden=hidden) if teacher_path is not None
               else _given(variant=variant, alpha=alpha, beta=beta))
    for name in ignored:
        raise click.UsageError(f"--{name} {verb} --distill")
    tcfg = distill.TrainConfig(**_given(epochs=epochs, lr=lr, seed=seed))
    scenes = scenario.read_scenes(
        os.path.join(data_dir, "scenes_train.ndjson")
    )
    world = scenario.read_world(*_world_paths(data_dir))
    if teacher_path is not None:
        dcfg = distill.DistillConfig(**_given(alpha=alpha, beta=beta,
                                              variant=variant))
        result = distill.train_student(
            scenes, world, model_mod.load_checkpoint(teacher_path), dcfg,
            tcfg, map_radius=map_radius)
    else:
        config = model_mod.ModelConfig(map_source=map_source, **_given(
            d=embed_width, hidden=hidden, map_radius=map_radius))
        result = distill.train(scenes, scenario.view_points(world, map_source),
                               config, tcfg)
    model_mod.save_checkpoint(out_path, result.params, result.config)
    with open(out_path + ".loss.csv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("epoch,smoothed_loss\n")
        for epoch, value in enumerate(result.loss_curve, start=1):
            fh.write(f"{epoch},{value:.9f}\n")
    config_snapshot = {**asdict(tcfg), **asdict(result.config),
                       "distill": teacher_path}
    if teacher_path is not None:
        config_snapshot.update(asdict(dcfg))
    _write_manifest(out_path, "train", config_snapshot, tcfg.seed,
                    [data_dir] + ([teacher_path] if teacher_path else []),
                    started)
    click.echo(f"trained {map_source} model "
               f"(final smoothed loss {result.final_loss:.4f}) -> {out_path}")


def _write_per_scene_csv(path, per_scene):
    """One row per scene: its ``scene_id``, then its metric values."""
    keys = [key for key in per_scene[0] if key != "scene"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["scene"] + keys) + "\n")
        for row in per_scene:
            cells = [str(row["scene"])] + [f"{row[k]:.9f}" for k in keys]
            fh.write(",".join(cells) + "\n")


def _write_histogram(hist, csv_path=None, svg_path=None):
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_start,bin_end,normalized_count\n")
            for i, count in enumerate(hist.counts):
                fh.write(f"{hist.bin_edges[i]:.6f},"
                         f"{hist.bin_edges[i + 1]:.6f},{count:.9f}\n")
            fh.write("kde_x,kde_density,\n")
            for x, dens in zip(hist.kde_grid, hist.kde_density):
                fh.write(f"{x:.6f},{dens:.9f},\n")
    if svg_path:
        _write_histogram_svg(hist, svg_path)


# The histogram SVG's size and plot margin, in pixels.
_SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = 640, 360, 40


def _write_histogram_svg(hist, path):
    """Minimal deterministic SVG: histogram bars plus the KDE polyline."""
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width}" height="{height}">\n')
        if not hist.empty:
            x_lo = hist.bin_edges[0]
            x_hi = max(hist.bin_edges[-1],
                       hist.kde_grid[-1] if hist.kde_grid else 0.0)
            y_hi = max(max(hist.counts, default=0.0),
                       max(hist.kde_density, default=0.0), 1e-9)

            def sx(x):
                return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

            def sy(y):
                return height - margin - y / y_hi * (height - 2 * margin)

            for i, count in enumerate(hist.counts):
                x0 = sx(hist.bin_edges[i])
                x1 = sx(hist.bin_edges[i + 1])
                y = sy(count)
                fh.write(f'<rect x="{x0:.2f}" y="{y:.2f}" '
                         f'width="{x1 - x0:.2f}" '
                         f'height="{height - margin - y:.2f}" '
                         f'fill="steelblue" fill-opacity="0.6"/>\n')
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                           for x, y in zip(hist.kde_grid, hist.kde_density))
            fh.write(f'<polyline points="{pts}" fill="none" '
                     f'stroke="black"/>\n')
        fh.write("</svg>\n")


@main.command(name="eval")
@_data_dir_option()
@click.option("--ckpt", "ckpt_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--split", type=click.Choice(["train", "val"]), default="val",
              show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--hist", "hist_path", type=click.Path(), default=None)
@click.option("--hist-svg", "hist_svg_path", type=click.Path(), default=None)
def eval_cmd(data_dir, ckpt_path, split, json_path, csv_path, hist_path,
             hist_svg_path):
    """Evaluate a checkpoint on a dataset split."""
    from . import metrics, scenario
    from . import model as model_mod

    started = time.perf_counter()
    params, config = model_mod.load_checkpoint(ckpt_path)
    scenes = scenario.read_scenes(
        os.path.join(data_dir, f"scenes_{split}.ndjson")
    )
    world = scenario.read_world(*_world_paths(data_dir))
    report, per_scene = metrics.evaluate_model(
        params, config, scenes,
        scenario.view_points(world, config.map_source),
    )
    click.echo(metrics.format_report_table(report))
    if json_path:
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.as_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        _write_manifest(json_path, "eval",
                        {"split": split, "ckpt": ckpt_path}, None,
                        [data_dir, ckpt_path], started)
    if csv_path:
        _write_per_scene_csv(csv_path, per_scene)
    if hist_path or hist_svg_path:
        hist = metrics.fde_histogram(
            [row["minFDE@6"] for row in per_scene]
        )
        _write_histogram(hist, hist_path, hist_svg_path)


@main.command()
@click.option("--graph", "graph_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--frame", "frame_name", required=True)
@click.option("--frames-config", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--x", required=True, type=float)
@click.option("--y", required=True, type=float)
@click.option("--radius", required=True, type=float)
@click.option("--step", type=float,
              help="Polyline resampling step in meters.")
def query(graph_path, frame_name, frames_config, x, y, radius, step):
    """List road segments within a radius, with resampled polylines."""
    from . import road_graph

    frame = _resolve_frame(frame_name, frames_config)
    graph = road_graph.load_graph(graph_path)
    local = road_graph.localize(graph, frame, **_given(resample_step=step))
    segments = road_graph.segments_in_radius(
        local, LocalPoint(x, y), radius
    )
    click.echo("src,dst,polyline")
    for seg in segments:
        poly = ";".join(f"{px:.6f} {py:.6f}"
                        for px, py in seg.points.tolist())
        click.echo(f"{seg.src},{seg.dst},{poly}")


@main.command()
@click.option("--csv", "csv_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Per-scene CSV produced by eval.")
@click.option("--k", default=6, show_default=True)
@click.option("--hist", "hist_path", type=click.Path(), default=None)
@click.option("--hist-svg", "hist_svg_path", type=click.Path(), default=None)
def report(csv_path, k, hist_path, hist_svg_path):
    """Summarize a per-scene CSV: metric table and error histogram."""
    from . import metrics

    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        # Numbered by file line, blank lines included.
        lines = [(number, line.strip().split(","))
                 for number, line in enumerate(fh, start=2) if line.strip()]
    columns = [f"minADE@{k}", f"minFDE@{k}"]
    missing = [col for col in columns if col not in header]
    if missing:
        raise ValueError(f"{csv_path}: no column {missing[0]!r}")
    ades, fdes = [], []
    for number, cells in lines:
        if len(cells) != len(header):
            raise ValueError(f"{csv_path}: line {number} has "
                             f"{len(cells)} cells, expected {len(header)}")
        try:
            ade, fde = (float(cells[header.index(col)]) for col in columns)
        except ValueError as exc:
            raise ValueError(f"{csv_path}: line {number} holds a value "
                             f"that is not a number ({exc})") from None
        if not (math.isfinite(ade) and math.isfinite(fde)):
            raise ValueError(f"{csv_path}: line {number} "
                             f"holds a non-finite value")
        ades.append(ade)
        fdes.append(fde)
    rep = metrics.aggregate([ades], [fdes], ks=(k,))
    click.echo(metrics.format_report_table(rep))
    if hist_path or hist_svg_path:
        hist = metrics.fde_histogram(fdes)
        _write_histogram(hist, hist_path, hist_svg_path)


if __name__ == "__main__":
    main()
