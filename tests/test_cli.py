import inspect
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from click.testing import CliRunner

import navpredict
from navpredict.cli import main
from navpredict.distill import TrainConfig
from navpredict.distill import train as distill_train
from navpredict.model import (PARAM_FIELDS, ModelConfig, _shapes, init_params,
                              save_checkpoint)
from navpredict.scenario import (WorldSpec, generate_scenes, generate_world,
                                 read_scenes, read_world, view_points,
                                 write_world)

FIXTURE = pathlib.Path(__file__).parent / "data" / "fixture.osm"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    result = CliRunner().invoke(main, [
        "gen", "--out", str(out), "--n", "60", "--seed", "3",
    ])
    assert result.exit_code == 0, result.output
    return out


def _train(runner, dataset, tmp_path, name, *args):
    ckpt = tmp_path / name
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--out", str(ckpt),
        "--epochs", "1", "--d", "8", "--hidden", "8", *args,
    ])
    assert result.exit_code == 0, result.output
    return ckpt


def test_ingest_writes_graph_and_manifest(tmp_path, runner):
    out = tmp_path / "graph.txt"
    result = runner.invoke(main, [
        "ingest", str(FIXTURE), "--frame", "miami", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "23 nodes, 25 edges" in result.output
    assert out.exists()
    manifest = json.loads((tmp_path / "graph.txt.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["config"]["frame"] == "miami"
    assert manifest["outputs"] == ["graph.txt"]
    stages = manifest["stages_s"]
    assert set(stages) == {"parse", "build", "localize", "save"}
    assert all(type(s) in (int, float) and s >= 0.0 for s in stages.values())
    # Each of the five figures is rounded to the millisecond.
    assert sum(stages.values()) <= manifest["duration_s"] + 5 * 0.0005 + 1e-9


def test_ingest_is_byte_deterministic(tmp_path, runner):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        result = runner.invoke(main, [
            "ingest", str(FIXTURE), "--frame", "miami", "--out", str(out),
        ])
        assert result.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_ingest_writes_the_golden_fixture_graph(tmp_path, runner):
    out = tmp_path / "graph.txt"
    result = runner.invoke(main, [
        "ingest", str(FIXTURE), "--frame", "miami", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (FIXTURE.parent
                                / "fixture-graph.txt").read_bytes()


@pytest.mark.parametrize("text,line", [
    ("N 9223372036854775808 25.0 -80.0\n", 1),
    ("N 1 25.0 -80.0\nN -2 25.0 -80.1\nE -2 -9223372036854775809\n", 3),
], ids=["node", "edge"])
def test_query_id_outside_int64_is_graph_format_error(tmp_path, runner, text,
                                                      line):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    result = runner.invoke(main, [
        "query", "--graph", str(graph), "--frame", "miami",
        "--x", "0", "--y", "0", "--radius", "10",
    ])
    assert result.exit_code == 1
    assert "error code=graph-format" in result.stderr
    assert f"{graph}:{line}: " in result.stderr
    assert "outside int64" in result.stderr


@pytest.mark.parametrize("body,code", [
    ('<node id="1" lat="25.0" lon="-80.0"/>'
     '<node id="18446744073709551616" lat="25.0" lon="-80.1"/>',
     "parse-error"),
    ('<node id="1" lat="0.00001" lon="-81.0"/>'
     '<node id="2" lat="-0.00001" lon="-81.0"/>'
     '<way id="3"><nd ref="1"/><nd ref="2"/>'
     '<tag k="highway" v="residential"/></way>', "invalid-coordinate"),
], ids=["id-outside-int64", "across-the-equator"])
def test_ingest_rejects_unmappable_graph(tmp_path, runner, body, code):
    osm = tmp_path / "bad.osm"
    osm.write_text(f'<?xml version="1.0"?><osm>{body}</osm>')
    result = runner.invoke(main, [
        "ingest", str(osm), "--frame", "miami",
        "--out", str(tmp_path / "g.txt"),
    ])
    assert result.exit_code == 1
    assert f"error code={code}" in result.stderr
    assert not (tmp_path / "g.txt").exists()


def test_ingest_unknown_frame_is_usage_error(tmp_path, runner):
    result = runner.invoke(main, [
        "ingest", str(FIXTURE), "--frame", "atlantis",
        "--out", str(tmp_path / "g.txt"),
    ])
    assert result.exit_code == 2
    assert "unknown frame" in result.output + result.stderr


def test_ingest_malformed_osm_reports_error_code(tmp_path, runner):
    bad = tmp_path / "bad.osm"
    bad.write_text("<osm><node id='1'")
    result = runner.invoke(main, [
        "ingest", str(bad), "--frame", "miami",
        "--out", str(tmp_path / "g.txt"),
    ])
    assert result.exit_code == 1
    assert "error code=parse-error" in result.stderr


@pytest.mark.parametrize("command", ["ingest", "query"])
@pytest.mark.parametrize("text,code", [
    ('[{"name": "x", "zone": 17, "origin_northing": 0}]', "invalid-input"),
    ('[{"name": "x", "zone": 17, "origin_easting": NaN, '
     '"origin_northing": 0}]', "invalid-coordinate"),
    ('[{"name": ', "invalid-input"),
    ('[{"name": "x", "zone": 17.9, "origin_easting": 0, '
     '"origin_northing": 0}]', "invalid-input"),
    ('[{"name": "x", "zone": true, "origin_easting": 0, '
     '"origin_northing": 0}]', "invalid-input"),
    ('[{"name": "x", "zone": 17, "origin_easting": "580000.5", '
     '"origin_northing": 0}]', "invalid-input"),
    ('[{"name": "x", "zone": 17, "origin_easting": 0, '
     '"origin_northing": true}]', "invalid-input"),
    ('[{"name": null, "zone": 17, "origin_easting": 0, '
     '"origin_northing": 0}]', "invalid-input"),
    ('[{"name": 5, "zone": 17, "origin_easting": 0, '
     '"origin_northing": 0}]', "invalid-input"),
], ids=["missing-key", "nan-origin", "broken-json", "fractional-zone",
        "bool-zone", "string-origin", "bool-origin", "null-name",
        "number-name"])
def test_malformed_frames_config_reports_error_code(tmp_path, runner,
                                                    command, text, code):
    config = tmp_path / "frames.json"
    config.write_text(text)
    graph = tmp_path / "g.txt"
    graph.write_text("N 1 25.0 -80.0\n")
    args = {
        "ingest": ["ingest", str(FIXTURE), "--out", str(graph)],
        "query": ["query", "--graph", str(graph), "--x", "0", "--y", "0",
                  "--radius", "10"],
    }[command]
    result = runner.invoke(main, [*args, "--frame", "x",
                                  "--frames-config", str(config)])
    assert result.exit_code == 1
    assert f"error code={code}" in result.stderr
    assert str(config) in result.stderr


@pytest.mark.parametrize("text,line", [
    ("N 1 25.77 -80.19\nN 1 25.78 -80.19\n", 2),
    ("N 1 25.77 -80.19\nN 2 25.78 -80.19\nE 1 2\nE 1 2\n", 4),
    ("N 1 25.0 -80.2\nE 1 2\n", 2),
    ("N 1 25.0 -80.2\nE 1 1\n", 2),
], ids=["node", "edge", "missing-node", "self-loop"])
def test_query_repeated_record_is_graph_format_error(tmp_path, runner, text,
                                                     line):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    result = runner.invoke(main, [
        "query", "--graph", str(graph), "--frame", "miami",
        "--x", "0", "--y", "0", "--radius", "10",
    ])
    assert result.exit_code == 1
    assert "error code=graph-format" in result.stderr
    assert f"{graph}:{line}: " in result.stderr


def test_ingest_empty_osm_succeeds(tmp_path, runner):
    empty = tmp_path / "empty.osm"
    empty.write_text('<?xml version="1.0"?><osm></osm>')
    out = tmp_path / "graph.txt"
    result = runner.invoke(main, [
        "ingest", str(empty), "--frame", "miami", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "0 nodes, 0 edges" in result.output
    assert out.read_text() == ""


def test_gen_n_zero_writes_empty_valid_files(tmp_path, runner):
    out = tmp_path / "data"
    result = runner.invoke(main, [
        "gen", "--out", str(out), "--n", "0", "--seed", "1",
    ])
    assert result.exit_code == 0, result.output
    assert (out / "scenes_train.ndjson").read_text() == ""
    assert (out / "scenes_val.ndjson").read_text() == ""
    assert (out / "world_hd.json").exists()


def test_gen_outputs(dataset):
    for name in ("world_hd.json", "world_nav.json",
                 "scenes_train.ndjson", "scenes_val.ndjson"):
        assert (dataset / name).exists(), name
    n_train = len((dataset / "scenes_train.ndjson").read_text().splitlines())
    n_val = len((dataset / "scenes_val.ndjson").read_text().splitlines())
    assert n_train + n_val == 60
    # hash split lands near 80/20 without being exact
    assert 40 <= n_train <= 58
    manifest = json.loads(
        (dataset / "scenes_train.ndjson.manifest.json").read_text())
    assert manifest["command"] == "gen"
    stages = manifest["stages_s"]
    assert set(stages) == {"world", "scenes", "write"}
    assert all(type(s) in (int, float) and s >= 0.0 for s in stages.values())
    # Each of the four figures is rounded to the millisecond.
    assert sum(stages.values()) <= manifest["duration_s"] + 4 * 0.0005 + 1e-9


def test_gen_is_byte_deterministic(tmp_path, runner):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = runner.invoke(main, [
            "gen", "--out", str(out), "--n", "30", "--seed", "9",
        ])
        assert result.exit_code == 0
        outs.append(out)
    for name in ("world_hd.json", "scenes_train.ndjson"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_eval_round_trip(tmp_path, runner, dataset):
    ckpt = _train(runner, dataset, tmp_path, "m.ckpt", "--map", "nav")
    assert ckpt.exists()
    assert (tmp_path / "m.ckpt.loss.csv").read_text().startswith(
        "epoch,smoothed_loss\n")
    csv_path = tmp_path / "per_scene.csv"
    result = runner.invoke(main, [
        "eval", "--data", str(dataset), "--ckpt", str(ckpt),
        "--csv", str(csv_path), "--json", str(tmp_path / "report.json"),
    ])
    assert result.exit_code == 0, result.output
    assert "minFDE" in result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["metrics"]) == {"1", "6"}
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",") == ["scene", "minADE@1", "minFDE@1",
                                 "minADE@6", "minFDE@6"]


def test_eval_csv_scene_column_holds_scene_ids(tmp_path, runner, dataset):
    from navpredict.scenario import read_scenes

    ckpt = _train(runner, dataset, tmp_path, "m.ckpt", "--map", "hd")
    csv_path = tmp_path / "per_scene.csv"
    result = runner.invoke(main, [
        "eval", "--data", str(dataset), "--ckpt", str(ckpt),
        "--csv", str(csv_path),
    ])
    assert result.exit_code == 0, result.output
    lines = csv_path.read_text().splitlines()
    ids = [scene.scene_id
           for scene in read_scenes(dataset / "scenes_val.ndjson")]
    # The val split holds hashed, non-contiguous ids.
    assert ids != list(range(len(ids)))
    assert [int(line.split(",")[0]) for line in lines[1:]] == ids
    result = runner.invoke(main, ["report", "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    assert f"scenes: {len(ids)}" in result.output


def test_train_env_var_data_dir(tmp_path, runner, dataset, monkeypatch):
    monkeypatch.setenv("NAVPREDICT_DATA_DIR", str(dataset))
    ckpt = tmp_path / "env.ckpt"
    result = runner.invoke(main, [
        "train", "--map", "none", "--out", str(ckpt),
        "--epochs", "1", "--d", "8", "--hidden", "8",
    ])
    assert result.exit_code == 0, result.output
    assert ckpt.exists()


def test_train_is_byte_deterministic(tmp_path, runner, dataset):
    a = _train(runner, dataset, tmp_path, "a.ckpt", "--map", "none",
               "--seed", "4")
    b = _train(runner, dataset, tmp_path, "b.ckpt", "--map", "none",
               "--seed", "4")
    assert a.read_bytes() == b.read_bytes()


def test_distillation_pipeline(tmp_path, runner, dataset):
    teacher = _train(runner, dataset, tmp_path, "teacher.ckpt",
                     "--map", "hd", "--d", "4")
    student = tmp_path / "student.ckpt"
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "nav",
        "--distill", str(teacher), "--variant", "shared",
        "--epochs", "1", "--out", str(student),
    ])
    assert result.exit_code == 0, result.output
    from navpredict.model import load_checkpoint
    _, config = load_checkpoint(student)
    assert config.d == 6            # round(1.5 * 4)
    assert config.map_source == "nav"
    # Only a distilled run records the distillation settings.
    for ckpt, distilled in ((teacher, False), (student, True)):
        recorded = json.loads(
            (tmp_path / f"{ckpt.name}.manifest.json").read_text())["config"]
        for key, value in (("alpha", 1.0), ("beta", 1.0),
                           ("variant", "shared")):
            assert recorded.get(key) == (value if distilled else None)


def test_distill_requires_nav_map(tmp_path, runner, dataset):
    teacher = _train(runner, dataset, tmp_path, "teacher.ckpt",
                     "--map", "hd", "--d", "4")
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "hd",
        "--distill", str(teacher), "--out", str(tmp_path / "s.ckpt"),
    ])
    assert result.exit_code == 2
    assert "--map nav" in result.output + result.stderr


@pytest.mark.parametrize("flag", [["--d", "200"], ["--hidden", "3"],
                                  ["--d", "64"]],
                         ids=["d", "hidden", "d-equal-to-default"])
def test_distill_rejects_width_flags(tmp_path, runner, dataset, flag):
    # The student's widths derive from the teacher's, so a width flag
    # would be ignored.
    teacher = _train(runner, dataset, tmp_path, "teacher.ckpt",
                     "--map", "hd", "--d", "4")
    student = tmp_path / "s.ckpt"
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "nav",
        "--distill", str(teacher), *flag, "--out", str(student),
    ])
    assert result.exit_code == 2
    assert f"{flag[0]} cannot be used with --distill" in (
        result.output + result.stderr)
    assert not student.exists()


@pytest.mark.parametrize("flag", [["--variant", "matched"], ["--alpha", "0"],
                                  ["--beta", "5"], ["--beta", "1.0"]],
                         ids=["variant", "alpha", "beta",
                              "beta-equal-to-default"])
def test_distillation_flags_require_distill(tmp_path, runner, dataset, flag):
    # Without a teacher nothing reads them: the run would train a plain
    # model and record settings that it did not use.
    out = tmp_path / "m.ckpt"
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "nav", *flag,
        "--epochs", "1", "--d", "8", "--hidden", "8", "--out", str(out),
    ])
    assert result.exit_code == 2
    assert f"{flag[0]} requires --distill" in result.output + result.stderr
    assert not out.exists()


def test_distill_rejects_nav_teacher(tmp_path, runner, dataset):
    nav_ckpt = _train(runner, dataset, tmp_path, "nav.ckpt",
                      "--map", "nav", "--d", "4")
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "nav",
        "--distill", str(nav_ckpt), "--out", str(tmp_path / "s.ckpt"),
        "--epochs", "1",
    ])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr


def _header_config(ckpt):
    return json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["config"]


def test_student_keeps_its_teachers_map_radius(tmp_path, runner, dataset):
    teacher = _train(runner, dataset, tmp_path, "teacher.ckpt",
                     "--map", "hd", "--d", "4", "--map-radius", "30")
    for name, args, radius in (("kept.ckpt", [], 30.0),
                               ("set.ckpt", ["--map-radius", "40"], 40.0)):
        student = tmp_path / name
        result = runner.invoke(main, [
            "train", "--data", str(dataset), "--map", "nav",
            "--distill", str(teacher), "--epochs", "1", *args,
            "--out", str(student),
        ])
        assert result.exit_code == 0, result.output
        assert _header_config(student)["map_radius"] == radius


def test_flagless_train_uses_the_library_defaults(tmp_path, runner, dataset):
    # No recipe flag is given, so the run is distill.train's at the
    # default configs: a retuned library default reaches the CLI.
    ckpt = tmp_path / "cli.ckpt"
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "none", "--out", str(ckpt),
    ])
    assert result.exit_code == 0, result.output
    tcfg, config = TrainConfig(), ModelConfig(map_source="none")
    world = read_world(dataset / "world_hd.json", dataset / "world_nav.json")
    trained = distill_train(read_scenes(dataset / "scenes_train.ndjson"),
                            view_points(world, "none"), config, tcfg)
    library = tmp_path / "library.ckpt"
    save_checkpoint(library, trained.params, trained.config)
    assert ckpt.read_bytes() == library.read_bytes()
    # The manifest records the values used, by their library names.
    recorded = json.loads(
        (tmp_path / "cli.ckpt.manifest.json").read_text())["config"]
    assert recorded == {**asdict(tcfg), **asdict(config), "distill": None}


def test_gen_records_the_library_defaults(tmp_path, dataset):
    config = json.loads(
        (dataset / "scenes_train.ndjson.manifest.json").read_text())["config"]
    spec = WorldSpec(seed=3)
    assert config["world"] == json.loads(json.dumps(asdict(spec)))
    draws = {name: param.default for name, param in inspect.signature(
        generate_scenes).parameters.items()
        if param.default is not param.empty}
    assert {name: config[name] for name in draws} == draws
    paths = tmp_path / "hd.json", tmp_path / "nav.json"
    write_world(generate_world(spec), *paths)
    for path, name in zip(paths, ("world_hd.json", "world_nav.json")):
        assert path.read_bytes() == (dataset / name).read_bytes()


@pytest.mark.parametrize("command,flag", [
    ("train", "--epochs"), ("train", "--lr"), ("gen", "--roads"),
    ("query", "--step"),
])
def test_non_numeric_flag_is_usage_error(tmp_path, runner, command, flag):
    args = {
        "train": ["--data", str(tmp_path), "--map", "none",
                  "--out", str(tmp_path / "m.ckpt")],
        "gen": ["--out", str(tmp_path / "data")],
        "query": ["--graph", str(FIXTURE), "--frame", "miami",
                  "--x", "0", "--y", "0", "--radius", "10"],
    }[command]
    result = runner.invoke(main, [command, *args, flag, "many"])
    assert result.exit_code == 2
    assert f"Invalid value for '{flag}'" in result.output + result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_diverging_training_is_numeric_error(tmp_path, runner, dataset):
    # The run overflows on its way to a NaN loss. It reports
    # numeric-error whatever the warnings filter, not a numpy warning.
    ckpt = tmp_path / "m.ckpt"
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "none", "--lr", "10",
        "--epochs", "1", "--d", "8", "--hidden", "8", "--out", str(ckpt),
    ])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert "error code=numeric-error" in lines[0]
    assert not ckpt.exists()


def test_eval_histogram_outputs(tmp_path, runner, dataset):
    ckpt = _train(runner, dataset, tmp_path, "m.ckpt", "--map", "none")
    hist = tmp_path / "hist.csv"
    svg = tmp_path / "hist.svg"
    result = runner.invoke(main, [
        "eval", "--data", str(dataset), "--ckpt", str(ckpt),
        "--hist", str(hist), "--hist-svg", str(svg),
    ])
    assert result.exit_code == 0, result.output
    assert hist.read_text().startswith("bin_start,bin_end,normalized_count")
    assert svg.read_text().startswith("<svg")


_CKPT_CONFIG = {"d": 4, "k": 6, "hidden": 4, "map_radius": 50.0,
                "map_source": "hd"}


def _checkpoint(header_config, **layout):
    """Checkpoint bytes whose header config is ``header_config`` and whose
    shapes and payload are those of ``_CKPT_CONFIG`` updated by ``layout``:
    ``int()`` and ``float()`` of the header would read a valid model."""
    params = init_params(ModelConfig(**dict(_CKPT_CONFIG, **layout)),
                         np.random.default_rng(0))
    header = {"version": 2, "config": dict(_CKPT_CONFIG, **header_config),
              "shapes": [[name, list(shape)] for name, shape
                         in zip(PARAM_FIELDS, params.shapes)]}
    return (json.dumps(header).encode() + b"\n"
            + params.flat.astype("<f8").tobytes())


def _claimed_checkpoint(d):
    """Checkpoint bytes whose header claims width ``d`` with the layout of
    that config, over a 64-byte payload."""
    config = dict(_CKPT_CONFIG, d=d)
    header = {"version": 2, "config": config,
              "shapes": [[name, list(shape)] for name, shape
                         in zip(PARAM_FIELDS, _shapes(ModelConfig(**config)))]}
    return json.dumps(header).encode() + b"\n" + bytes(64)


@pytest.mark.parametrize("command", ["eval", "distill"])
@pytest.mark.parametrize("content", [
    b'{"version": 2,\n',
    b"[1, 2]\n",
    b'{"version": 2}\n',
    json.dumps({"version": 2, "config": _CKPT_CONFIG}).encode() + b"\n",
    json.dumps({"version": 2, "config": dict(_CKPT_CONFIG, d=None),
                "shapes": []}).encode() + b"\n",
    _checkpoint({"d": 4.7}),
    _checkpoint({"hidden": True}, hidden=1),
    _checkpoint({"map_radius": "50"}),
    _claimed_checkpoint(2 ** 40),
    _claimed_checkpoint(2 ** 62),
], ids=["not-json", "not-object", "no-config", "no-shapes", "mistyped",
        "fractional-d", "bool-hidden", "string-radius", "huge-d",
        "index-overflow-d"])
def test_malformed_checkpoint_header_is_invalid_input(tmp_path, runner,
                                                      dataset, command,
                                                      content):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(content)
    args = {
        "eval": ["eval", "--data", str(dataset), "--ckpt", str(ckpt)],
        "distill": ["train", "--data", str(dataset), "--map", "nav",
                    "--distill", str(ckpt), "--epochs", "1",
                    "--out", str(tmp_path / "s.ckpt")],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert str(ckpt) in result.stderr


def test_eval_missing_checkpoint(tmp_path, runner, dataset):
    result = runner.invoke(main, [
        "eval", "--data", str(dataset),
        "--ckpt", str(tmp_path / "nope.ckpt"),
    ])
    assert result.exit_code == 2   # click validates the path


def test_query_lists_segments(tmp_path, runner):
    graph = tmp_path / "graph.txt"
    result = runner.invoke(main, [
        "ingest", str(FIXTURE), "--frame", "miami", "--out", str(graph),
    ])
    assert result.exit_code == 0
    result = runner.invoke(main, [
        "query", "--graph", str(graph), "--frame", "miami",
        "--x", "0", "--y", "0", "--radius", "1000000",
    ])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "src,dst,polyline"
    assert len(lines) == 1 + 25    # every fixture edge is in range


def test_report_from_csv(tmp_path, runner, dataset):
    ckpt = _train(runner, dataset, tmp_path, "m.ckpt", "--map", "none")
    csv_path = tmp_path / "per_scene.csv"
    runner.invoke(main, [
        "eval", "--data", str(dataset), "--ckpt", str(ckpt),
        "--csv", str(csv_path),
    ])
    result = runner.invoke(main, ["report", "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    assert "minFDE" in result.output


def test_threads_option_validated(runner):
    result = runner.invoke(main, ["--threads", "0", "gen", "--out", "x"])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", [
    ["train", "--map", "none", "--out", "m.ckpt"],
    ["eval", "--ckpt", __file__],
], ids=["train", "eval"])
def test_missing_data_dir_is_usage_error(runner, monkeypatch, command):
    monkeypatch.delenv("NAVPREDICT_DATA_DIR", raising=False)
    result = runner.invoke(main, command)
    assert result.exit_code == 2
    assert "--data" in result.output + result.stderr


@pytest.mark.parametrize("case,exit_code,message", [
    ("gen-out-file", 1, "error code=io-error"),
    ("eval-json-dir", 1, "error code=io-error"),
    ("frames-config-dir", 2, "is a directory"),   # click checks the kind
], ids=["gen-out-file", "eval-json-dir", "frames-config-dir"])
def test_os_errors_are_io_errors(tmp_path, runner, dataset, case, exit_code,
                                 message):
    a_file = tmp_path / "file"
    a_file.write_text("")
    ckpt = _train(runner, dataset, tmp_path, "m.ckpt", "--map", "none")
    args = {
        "gen-out-file": ["gen", "--out", str(a_file), "--n", "5"],
        "eval-json-dir": ["eval", "--data", str(dataset), "--ckpt",
                          str(ckpt), "--json", str(tmp_path)],
        "frames-config-dir": ["ingest", str(FIXTURE), "--frame", "miami",
                              "--frames-config", str(tmp_path),
                              "--out", str(tmp_path / "g.txt")],
    }[case]
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code
    assert message in result.stderr


def test_standalone_failure_exits_1_without_traceback(tmp_path):
    # CliRunner catches what standalone mode would print, so run the
    # module as a program.
    src = pathlib.Path(navpredict.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "navpredict.cli", "query",
         "--graph", str(FIXTURE), "--frame", "miami",
         "--x", "0", "--y", "0", "--radius", "10"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "error code=graph-format" in result.stderr
    assert "Traceback" not in result.stderr


_THREADS_PROBE = """
import builtins, os, sys
import navpredict.cli
print("numpy after import:", "numpy" in sys.modules)
real_import = builtins.__import__
def spy(name, *args, **kwargs):
    if name == "numpy" and "numpy" not in sys.modules:
        print("OPENBLAS_NUM_THREADS at numpy import:",
              os.environ.get("OPENBLAS_NUM_THREADS"))
    return real_import(name, *args, **kwargs)
builtins.__import__ = spy
navpredict.cli.main(["--threads", "3", "gen", "--out", sys.argv[1],
                     "--n", "5"], standalone_mode=False)
"""


def test_threads_are_set_before_numpy_loads(tmp_path):
    src = pathlib.Path(navpredict.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env.pop(var, None)
    result = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE, str(tmp_path / "data")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "numpy after import: False"
    assert lines[1] == "OPENBLAS_NUM_THREADS at numpy import: 3"


def test_gen_too_many_intersections_is_invalid_input(tmp_path, runner):
    result = runner.invoke(main, [
        "gen", "--out", str(tmp_path / "data"), "--n", "5",
        "--intersections", "30",
    ])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr


def test_corrupt_world_is_invalid_input(tmp_path, runner, dataset):
    corruptions = [
        ("world_nav.json", lambda view: view["roads"][0].pop("points")),
        ("world_nav.json",
         lambda view: view["roads"][1]["points"][3].__setitem__(0, True)),
        ("world_hd.json",
         lambda view: view["roads"][0]["lanes"][1][5].__setitem__(1, True)),
        # the top-level key of the older lane-record HD format
        ("world_hd.json",
         lambda view: view.__setitem__("lanes", view.pop("roads"))),
    ]
    for case, (corrupt_name, corrupt) in enumerate(corruptions):
        data = tmp_path / f"data{case}"
        data.mkdir()
        for name in ("world_hd.json", "world_nav.json",
                     "scenes_train.ndjson"):
            (data / name).write_bytes((dataset / name).read_bytes())
        view = json.loads((data / corrupt_name).read_text())
        corrupt(view)
        (data / corrupt_name).write_text(json.dumps(view))
        result = runner.invoke(main, [
            "train", "--data", str(data), "--map", "nav", "--epochs", "1",
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert result.exit_code == 1
        assert "error code=invalid-input" in result.stderr
        assert corrupt_name in result.stderr


def test_world_views_of_different_roads_are_invalid_input(tmp_path, runner,
                                                         dataset):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("world_hd.json", "scenes_train.ndjson"):
        (data / name).write_bytes((dataset / name).read_bytes())
    view = json.loads((dataset / "world_nav.json").read_text())
    view["roads"].pop()
    (data / "world_nav.json").write_text(json.dumps(view))
    result = runner.invoke(main, [
        "train", "--data", str(data), "--map", "nav", "--epochs", "1",
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert "world_hd.json" in result.stderr
    assert "world_nav.json" in result.stderr


def test_non_finite_scene_is_scene_format_error(tmp_path, runner, dataset):
    # Also a point that is a JSON string or bool, not a number.
    ckpt = _train(runner, dataset, tmp_path, "m.ckpt", "--map", "none")
    data = tmp_path / "data"
    data.mkdir()
    for name in ("world_hd.json", "world_nav.json"):
        (data / name).write_bytes((dataset / name).read_bytes())
    lines = (dataset / "scenes_val.ndjson").read_text().splitlines()
    for value in (float("nan"), "1.5", True):
        record = json.loads(lines[1])
        record["agents"][0][7][1] = value
        bad = [lines[0], json.dumps(record), *lines[2:]]
        (data / "scenes_val.ndjson").write_text("\n".join(bad) + "\n")
        result = runner.invoke(main, [
            "eval", "--data", str(data), "--ckpt", str(ckpt),
        ])
        assert result.exit_code == 1, value
        assert "error code=scene-format" in result.stderr
        assert "record 1" in result.stderr


@pytest.mark.parametrize("field,value", [
    ("scene_id", 1.5), ("scene_id", True), ("target", 0.7), ("target", "0"),
])
def test_non_integer_scene_field_is_scene_format_error(tmp_path, runner,
                                                       dataset, field,
                                                       value):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("world_hd.json", "world_nav.json"):
        (data / name).write_bytes((dataset / name).read_bytes())
    lines = (dataset / "scenes_train.ndjson").read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    (data / "scenes_train.ndjson").write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, [
        "train", "--data", str(data), "--map", "none", "--epochs", "1",
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert result.exit_code == 1
    assert "error code=scene-format" in result.stderr
    assert "record 1" in result.stderr


def _per_scene_csv(tmp_path, text):
    path = tmp_path / "per_scene.csv"
    path.write_text(text)
    return path


def test_report_missing_column_is_invalid_input(tmp_path, runner):
    csv_path = _per_scene_csv(tmp_path, "scene,minFDE@6\n0,1.5\n1,2.5\n")
    result = runner.invoke(main, ["report", "--csv", str(csv_path)])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert "minADE@6" in result.stderr


@pytest.mark.parametrize("rows,line,fault", [
    ("0,1.0,1.5\n1,nan,2.5\n", 3, "a non-finite value"),
    ("0,1.0,1.5\n1,inf,2.5\n", 3, "a non-finite value"),
    ("\n\n0,nan,1.5\n", 4, "a non-finite value"),
    ("0,abc,1.5\n", 2, "a value that is not a number"),
], ids=["nan", "inf", "after-blank-lines", "not-a-number"])
def test_report_non_finite_value_is_invalid_input(tmp_path, runner, rows,
                                                  line, fault):
    csv_path = _per_scene_csv(tmp_path, "scene,minADE@6,minFDE@6\n" + rows)
    result = runner.invoke(main, ["report", "--csv", str(csv_path)])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert f"{csv_path}: line {line} holds {fault}" in result.stderr
    assert "minFDE" not in result.stdout


@pytest.mark.parametrize("radius", ["-5", "nan", "inf"])
def test_train_bad_map_radius_is_invalid_input(tmp_path, runner, dataset,
                                               radius):
    ckpt = tmp_path / "m.ckpt"
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "hd", "--epochs", "1",
        "--map-radius", radius, "--out", str(ckpt),
    ])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert "map radius" in result.stderr
    assert not ckpt.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--epochs", "0", "epochs"),
    ("--lr", "nan", "lr"),
    ("--lr", "-0.1", "lr"),
])
def test_train_bad_schedule_is_invalid_input(tmp_path, runner, dataset,
                                             flag, value, message):
    result = runner.invoke(main, [
        "train", "--data", str(dataset), "--map", "none", flag, value,
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert message in result.stderr


@pytest.mark.parametrize("args,message", [
    (["--noise", "nan"], "noise sigma"),
    (["--n", "-5"], "scene count"),
    (["--p-turn", "3"], "p_turn"),
    (["--p-lane-change", "nan"], "p_lane_change"),
    (["--p-turn", "0.9", "--p-lane-change", "0.2"], "summing to at most 1"),
    (["--curvature", "nan", "0"], "curvature range"),
    (["--curvature", "1", "-1"], "curvature range"),
    (["--lane-width", "nan"], "lane width"),
    (["--split", "3"], "--split"),
    (["--split", "-0.1"], "--split"),
    (["--split", "nan"], "--split"),
    (["--split", "inf"], "--split"),
], ids=["noise-nan", "n-negative", "p-turn-3", "p-lane-change-nan",
        "p-sum-above-1", "curvature-nan", "curvature-reversed",
        "lane-width-nan", "split-3", "split-negative", "split-nan",
        "split-inf"])
def test_gen_bad_parameters_are_invalid_input(tmp_path, runner, args,
                                              message):
    out = tmp_path / "data"
    result = runner.invoke(main, ["gen", "--out", str(out), *args])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert message in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--radius", "nan", "radius"),
    ("--radius", "inf", "radius"),
    ("--radius", "0", "radius"),
    ("--step", "nan", "resample step"),
    ("--step", "inf", "resample step"),
])
def test_query_bad_radius_or_step_is_invalid_input(tmp_path, runner, flag,
                                                   value, message):
    graph = tmp_path / "graph.txt"
    result = runner.invoke(main, [
        "ingest", str(FIXTURE), "--frame", "miami", "--out", str(graph),
    ])
    assert result.exit_code == 0
    args = {"--radius": "100", "--step": "2", flag: value}
    result = runner.invoke(main, [
        "query", "--graph", str(graph), "--frame", "miami",
        "--x", "0", "--y", "0", *[a for kv in args.items() for a in kv],
    ])
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert message in result.stderr


@pytest.mark.parametrize("step", ["1e-7", "1e-12", "1e-300"])
def test_query_tiny_step_is_invalid_input_without_allocating(tmp_path, runner,
                                                            step):
    graph = tmp_path / "graph.txt"
    result = runner.invoke(main, [
        "ingest", str(FIXTURE), "--frame", "miami", "--out", str(graph),
    ])
    assert result.exit_code == 0
    args = ["query", "--graph", str(graph), "--frame", "miami",
            "--x", "0", "--y", "0", "--radius", "1e300", "--step", step]
    runner.invoke(main, args)    # loads what the command imports lazily
    # Every step asks for over 2**24 intervals (1e-7: about 3.7e9 over
    # the fixture's 25 edges); the bound rejects it before any cast or
    # allocation, so no warning is raised on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.exit_code == 1
    assert "error code=invalid-input" in result.stderr
    assert f"resample step {float(step)} gives" in result.stderr
    assert peak < 4 * 2 ** 20
