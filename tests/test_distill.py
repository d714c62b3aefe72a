import math
import tracemalloc

import numpy as np
import pytest

from navpredict import model as M
from navpredict.distill import (
    DistillConfig,
    TrainConfig,
    distill_loss,
    prepare_map_inputs,
    student_width,
    train,
    train_student,
    train_teacher,
)
from navpredict.scenario import WorldSpec, generate_scenes, generate_world, \
    view_points


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldSpec(seed=2))


@pytest.fixture(scope="module")
def scenes(world):
    return generate_scenes(world, 30, seed=4)


def test_student_width_variants():
    assert student_width(64, "matched") == 64
    assert student_width(64, "shared") == 96
    assert student_width(128, "shared") == 192
    with pytest.raises(ValueError):
        student_width(64, "wide")


def test_distill_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        DistillConfig(beta=float("nan"))
    with pytest.raises(ValueError):
        DistillConfig(variant="other")


@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("epochs", -3), ("lr", 0.0), ("lr", float("nan")),
    ("lr", float("inf")), ("momentum", -0.1), ("momentum", 1.0),
    ("lr_decay", 0.0), ("lr_decay", 1.5), ("lr_decay", float("nan")),
    ("grad_clip", -1.0), ("grad_clip", float("inf")),
])
def test_train_config_validation(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    # The edges of each range are accepted.
    TrainConfig(epochs=1, momentum=0.0, lr_decay=1.0, grad_clip=0.0)


def test_distill_loss_zero_on_prefix_match():
    teacher = np.array([1.0, -2.0, 3.0])
    student = np.array([1.0, -2.0, 3.0, 99.0, -7.0])
    assert distill_loss(teacher, student) == 0.0


def test_distill_loss_closed_form_width_two():
    # prefix differences (2, 2): (2^2 + 2^2) / 2 = 4.0
    teacher = np.array([1.0, -1.0])
    student = np.array([3.0, 1.0, 123.0])
    assert distill_loss(teacher, student) == 4.0


def test_distill_loss_ignores_suffix_exactly():
    rng = np.random.default_rng(0)
    teacher = rng.normal(size=8)
    student = rng.normal(size=12)
    base = distill_loss(teacher, student)
    perturbed = student.copy()
    perturbed[8:] += rng.normal(size=4) * 100.0
    assert distill_loss(teacher, perturbed) - base == 0.0


def test_distill_loss_rejects_narrow_student():
    with pytest.raises(ValueError):
        distill_loss(np.zeros(5), np.zeros(3))


def test_prepare_map_inputs_radius(world, scenes):
    pts = view_points(world, "nav")
    subsets = prepare_map_inputs(scenes, pts, 50.0)
    assert len(subsets) == len(scenes)
    for scene, subset in zip(scenes, subsets):
        center = scene.agents[scene.target][-1]
        if subset.shape[0]:
            assert np.linalg.norm(subset - center, axis=1).max() <= 50.0


def test_training_is_deterministic(world, scenes):
    cfg = M.ModelConfig(d=8, k=3, hidden=8, map_source="nav")
    pts = view_points(world, "nav")
    tc = TrainConfig(epochs=2, seed=5)
    a = train(scenes, pts, cfg, tc)
    b = train(scenes, pts, cfg, tc)
    np.testing.assert_array_equal(a.params.flat, b.params.flat)
    assert a.loss_curve == b.loss_curve


def test_training_reduces_smoothed_loss(world, scenes):
    cfg = M.ModelConfig(d=8, k=3, hidden=8, map_source="none")
    res = train(scenes, np.zeros((0, 2)), cfg, TrainConfig(epochs=6, seed=0))
    assert len(res.loss_curve) == 6
    assert res.loss_curve[-1] < res.loss_curve[0]
    assert res.final_loss == res.loss_curve[-1]


def test_empty_training_set_rejected():
    cfg = M.ModelConfig(map_source="none")
    with pytest.raises(ValueError):
        train([], np.zeros((0, 2)), cfg, TrainConfig(epochs=1))


def test_teacher_requires_hd_source(world, scenes):
    cfg = M.ModelConfig(d=8, k=3, hidden=8, map_source="nav")
    with pytest.raises(ValueError):
        train_teacher(scenes, world, cfg, TrainConfig(epochs=1))


def test_student_rejects_non_hd_teacher(world, scenes):
    cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="nav")
    nav = train(scenes, view_points(world, "nav"), cfg,
                TrainConfig(epochs=1, seed=1))
    with pytest.raises(ValueError, match="hd map source"):
        train_student(scenes, world, (nav.params, cfg), DistillConfig(),
                      TrainConfig(epochs=1))


def test_zero_beta_matches_plain_training_bitwise(world, scenes):
    """With beta=0 the teacher contributes nothing, not even rounding."""
    t_cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))

    tc = TrainConfig(epochs=2, seed=3)
    guided = train_student(scenes, world, (teacher.params, t_cfg),
                           DistillConfig(beta=0.0, variant="shared"), tc)
    plain_cfg = M.ModelConfig(d=student_width(4, "shared"), k=3, hidden=8,
                              map_source="nav")
    plain = train(scenes, view_points(world, "nav"), plain_cfg, tc)
    np.testing.assert_array_equal(guided.params.flat, plain.params.flat)


def test_teacher_is_frozen_during_student_training(world, scenes):
    t_cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))
    before = teacher.params.flat.copy()
    train_student(scenes, world, (teacher.params, t_cfg),
                  DistillConfig(beta=1.0, variant="matched"),
                  TrainConfig(epochs=2, seed=3))
    np.testing.assert_array_equal(teacher.params.flat, before)


def test_positive_beta_changes_the_student(world, scenes):
    t_cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))
    tc = TrainConfig(epochs=1, seed=3)
    a = train_student(scenes, world, (teacher.params, t_cfg),
                      DistillConfig(beta=0.0), tc)
    b = train_student(scenes, world, (teacher.params, t_cfg),
                      DistillConfig(beta=1.0), tc)
    assert not np.array_equal(a.params.flat, b.params.flat)


def test_student_width_mismatch_rejected(world, scenes):
    t_cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))
    wrong = M.ModelConfig(d=9, k=3, hidden=8, map_source="nav")
    with pytest.raises(ValueError, match="variant"):
        train(scenes, view_points(world, "nav"), wrong,
              TrainConfig(epochs=1),
              teacher=(teacher.params, t_cfg),
              teacher_map_points=view_points(world, "hd"),
              dcfg=DistillConfig(variant="shared"))


def test_matched_variant_widths(world, scenes):
    t_cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))
    res = train_student(scenes, world, (teacher.params, t_cfg),
                        DistillConfig(variant="matched"),
                        TrainConfig(epochs=1, seed=0))
    assert res.config.d == 4
    res = train_student(scenes, world, (teacher.params, t_cfg),
                        DistillConfig(variant="shared"),
                        TrainConfig(epochs=1, seed=0))
    assert res.config.d == 6


def _reference_train(scenes, map_points, config, tcfg, teacher=None,
                     teacher_map_points=None, dcfg=None):
    """The training loop before parameters became one flat buffer.

    Per-field velocity arrays and updates, fresh gradients and
    activations every step (no workspace), a teacher forward on every
    step and the per-field clip norm. Returns the parameters, the loss
    curve and the number of clipped steps.
    """
    rng = np.random.default_rng(tcfg.seed)
    params = M.init_params(config, rng)
    velocity = {name: np.zeros_like(getattr(params, name))
                for name in M.PARAM_FIELDS}
    scene_maps = prepare_map_inputs(scenes, map_points, config.map_radius)
    if teacher is not None:
        t_params, t_config = teacher
        teacher_maps = prepare_map_inputs(scenes, teacher_map_points,
                                          t_config.map_radius)
    alpha = dcfg.alpha if dcfg is not None else 1.0
    beta = dcfg.beta if dcfg is not None else 0.0
    smoothed, curve, clipped = None, [], 0
    lr = tcfg.lr
    order = np.arange(len(scenes))
    for _epoch in range(tcfg.epochs):
        rng.shuffle(order)
        for idx in order:
            scene = scenes[idx]
            observed = scene.agents[scene.target]
            xi_teacher = None
            if teacher is not None:
                _pred, xi_teacher, _cache = M.forward(
                    observed, teacher_maps[idx], t_params)
            loss, grads, _xi = M.loss_and_grads(
                observed, scene_maps[idx], scene.future, params,
                alpha=alpha, teacher_embedding=xi_teacher, beta=beta)
            fields = [getattr(grads, name) for name in M.PARAM_FIELDS]
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in fields))
            scale = 1.0
            if tcfg.grad_clip > 0.0 and gnorm > tcfg.grad_clip:
                scale = tcfg.grad_clip / gnorm
                clipped += 1
            for name in M.PARAM_FIELDS:
                v = velocity[name]
                v *= tcfg.momentum
                v -= lr * scale * getattr(grads, name)
                getattr(params, name)[...] += v
            smoothed = loss if smoothed is None else \
                0.99 * smoothed + 0.01 * loss
        curve.append(float(smoothed))
        lr *= tcfg.lr_decay
    return params, curve, clipped


# At a 1.5 m radius most nav scenes keep no map point and the others one
# to three, and HD scenes keep one to three: the per-step map set size
# rises and falls, and the no-map branch runs between map steps.
@pytest.mark.parametrize("variant, map_radius", [
    pytest.param(variant, radius,
                 id=variant if radius == 50.0 else f"{variant}-radius1.5")
    for radius, variants in ((50.0, ("hd", "distilled", "nav", "map_free")),
                             (1.5, ("hd", "distilled", "nav")))
    for variant in variants
])
def test_training_matches_reference_loop_bitwise(world, scenes, variant,
                                                 map_radius):
    tc = TrainConfig(epochs=2, seed=3)
    t_cfg = M.ModelConfig(d=8, k=3, hidden=8, map_radius=map_radius,
                          map_source="hd")
    if variant == "distilled":
        teacher = train_teacher(scenes, world, t_cfg,
                                TrainConfig(epochs=1, seed=1))
        dcfg = DistillConfig(variant="shared")
        got = train_student(scenes, world, (teacher.params, t_cfg), dcfg, tc)
        ref = _reference_train(
            scenes, view_points(world, "nav"), got.config, tc,
            teacher=(teacher.params, t_cfg),
            teacher_map_points=view_points(world, "hd"), dcfg=dcfg)
    else:
        source = {"hd": "hd", "nav": "nav", "map_free": "none"}[variant]
        cfg = M.ModelConfig(d=8, k=3, hidden=8, map_radius=map_radius,
                            map_source=source)
        pts = view_points(world, source)
        got = train(scenes, pts, cfg, tc)
        ref = _reference_train(scenes, pts, cfg, tc)
    ref_params, ref_curve, clipped = ref
    assert clipped > 0, "the run must exercise gradient clipping"
    for name in M.PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(got.params, name),
                                      getattr(ref_params, name))
    assert got.loss_curve == ref_curve


def test_teacher_runs_once_per_scene(world, scenes, monkeypatch):
    t_cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))
    original = M.forward
    teacher_calls = []

    def counting_forward(observed, map_points, params):
        if params is teacher.params:
            teacher_calls.append(id(observed))
        return original(observed, map_points, params)

    monkeypatch.setattr(M, "forward", counting_forward)
    train_student(scenes, world, (teacher.params, t_cfg),
                  DistillConfig(variant="shared"),
                  TrainConfig(epochs=3, seed=0))
    assert len(teacher_calls) == len(scenes)
    assert len(set(teacher_calls)) == len(scenes)


def test_non_finite_gradient_raises_before_update(world, scenes,
                                                  monkeypatch):
    original = M.loss_and_grads
    seen = []

    def poisoned(*args, **kwargs):
        loss, grads, xi = original(*args, **kwargs)
        params = args[3]
        seen.append((params, params.flat.copy()))
        if len(seen) == 3:
            grads.wk[0, 0] = np.nan
        return loss, grads, xi

    monkeypatch.setattr(M, "loss_and_grads", poisoned)
    cfg = M.ModelConfig(d=8, k=3, hidden=8, map_source="nav")
    with pytest.raises(M.NumericError, match="gradient"):
        train(scenes, view_points(world, "nav"), cfg,
              TrainConfig(epochs=1, seed=0))
    assert len(seen) == 3
    params, before = seen[-1]
    np.testing.assert_array_equal(params.flat, before)


def test_training_steps_allocate_less_than_one_map_array(world, scenes):
    # A step writes its (m, d) activations and gradients into the
    # workspace, so what it allocates does not grow with the map set.
    cfg = M.ModelConfig(d=64, map_source="hd")
    params = M.init_params(cfg, np.random.default_rng(0))
    maps = prepare_map_inputs(scenes, view_points(world, "hd"),
                              cfg.map_radius)
    m_max = max(len(pts) for pts in maps)
    workspace = M.Workspace(params, m_max)

    def steps(indices):
        for i in indices:
            scene = scenes[i]
            M.loss_and_grads(scene.agents[scene.target], maps[i],
                             scene.future, params, workspace=workspace)

    steps(range(10))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        steps(range(10, 30))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    one_array = m_max * cfg.d * 8
    assert m_max > 100
    assert peak < one_array, f"peak {peak} B >= one (m_max, d) array"
