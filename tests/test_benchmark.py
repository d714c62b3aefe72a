import numpy as np

from navpredict.benchmark import VARIANTS, BenchmarkSpec, run_benchmark
from navpredict.distill import DistillConfig, TrainConfig, train, \
    train_student, train_teacher
from navpredict.metrics import evaluate_model
from navpredict.model import ModelConfig
from navpredict.scenario import WorldSpec, generate_scenes, generate_world, \
    view_points


def test_run_benchmark_trains_the_library_defaults():
    # Criterion 7 on a small scene set: each variant's minFDE@6 equals, bit
    # for bit, a direct training at the default configs, so a change to a
    # default reaches the benchmark.
    spec = BenchmarkSpec(train_scenes=24, val_scenes=16, training_seeds=(0,))
    result = run_benchmark(spec)

    world = generate_world(WorldSpec(seed=spec.world_seed))
    scenes = generate_scenes(world, 24, seed=spec.train_scene_seed)
    val = generate_scenes(world, 16, seed=spec.val_scene_seed)
    teacher = train_teacher(scenes, world, ModelConfig(map_source="hd"),
                            TrainConfig())
    trained = {
        "hd": (teacher, view_points(world, "hd")),
        "distilled": (train_student(scenes, world,
                                    (teacher.params, teacher.config),
                                    DistillConfig(), TrainConfig()),
                      view_points(world, "nav")),
        "nav": (train(scenes, view_points(world, "nav"), ModelConfig(),
                      TrainConfig()), view_points(world, "nav")),
        "map_free": (train(scenes, np.zeros((0, 2)),
                           ModelConfig(map_source="none"), TrainConfig()),
                     np.zeros((0, 2))),
    }
    want = {}
    for name, (model, points) in trained.items():
        report, _ = evaluate_model(model.params, model.config, val, points)
        want[name] = report.values[6]["minFDE"].hex()

    assert list(result.per_seed) == [0]
    assert {name: result.per_seed[0][name].hex() for name in VARIANTS} == want
    assert {name: result.mean[name].hex() for name in VARIANTS} == want
    assert result.pooled_std == 0.0
