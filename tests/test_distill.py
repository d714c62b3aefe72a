import math
import tracemalloc

import numpy as np
import pytest

from navpredict import model as M
from navpredict.distill import (
    DistillConfig,
    TrainConfig,
    prepare_map_inputs,
    student_width,
    train,
    train_student,
    train_teacher,
)
from navpredict.model import distill_loss
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


def test_train_rejects_a_target_count_other_than_the_scene_count(world,
                                                                  scenes):
    cfg = M.ModelConfig(d=6, k=3, hidden=8, map_source="nav")
    for n_targets in (len(scenes) - 1, len(scenes) + 1):
        with pytest.raises(ValueError, match="target embeddings"):
            train(scenes, view_points(world, "nav"), cfg,
                  TrainConfig(epochs=1),
                  targets=(np.zeros((n_targets, 4)), DistillConfig()))


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


def _per_scene_map_inputs(scenes, map_points, radius):
    """``prepare_map_inputs`` as one ``select_map_points`` call per scene."""
    return [M.select_map_points(map_points, scene.agents[scene.target][-1],
                                radius)
            for scene in scenes]


def _per_scene_forward_split(params, config, scenes, map_points):
    """``model.forward_split`` as one ``select_map_points`` and one
    ``forward`` call per scene."""
    outs = [M.forward(observed, M.select_map_points(
                map_points, observed[-1], config.map_radius), params)
            for observed in (scene.agents[scene.target] for scene in scenes)]
    return (np.array([pred.trajectories for pred, _xi, _c in outs]),
            np.array([pred.confidences for pred, _xi, _c in outs]),
            np.array([xi for _pred, xi, _c in outs]))


@pytest.mark.parametrize("world_spec", [
    WorldSpec(seed=2), WorldSpec(seed=1, num_roads=16, lanes_per_road=3),
], ids=["seed2", "16x3"])
def test_distilled_student_through_the_grid_matches_per_scene_selection(
        world_spec, monkeypatch):
    # Both views' map sets come from a MapGrid: the student's through
    # prepare_map_inputs, the teacher's inside model.forward_split.
    import navpredict.distill as distill_mod

    world = generate_world(world_spec)
    scenes = generate_scenes(world, 40, seed=9)
    t_cfg = M.ModelConfig(d=8, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))
    args = (scenes, world, (teacher.params, t_cfg),
            DistillConfig(variant="shared"), TrainConfig(epochs=2, seed=0))
    got = train_student(*args)
    monkeypatch.setattr(distill_mod, "prepare_map_inputs",
                        _per_scene_map_inputs)
    monkeypatch.setattr(M, "forward_split", _per_scene_forward_split)
    want = train_student(*args)
    assert got.params.flat.tobytes() == want.params.flat.tobytes()
    assert got.loss_curve == want.loss_curve


def _reference_train(scenes, map_points, config, tcfg, teacher=None,
                     teacher_map_points=None, dcfg=None):
    """The training loop before parameters became one flat buffer.

    Per-scene map selection, a frame built from world inputs on every
    step, per-field velocity arrays and updates, fresh gradients and
    activations every step (no workspace), a teacher forward on every
    step, and the clip norm from every decoder row of the fresh gradient.
    Returns the parameters, the loss curve and the number of clipped
    steps.
    """
    rng = np.random.default_rng(tcfg.seed)
    params = M.init_params(config, rng)
    velocity = {name: np.zeros_like(getattr(params, name))
                for name in M.PARAM_FIELDS}
    scene_maps = _per_scene_map_inputs(scenes, map_points, config.map_radius)
    if teacher is not None:
        t_params, t_config = teacher
        teacher_maps = _per_scene_map_inputs(scenes, teacher_map_points,
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
                M.AgentFrame(observed, scene_maps[idx], scene.future),
                params, alpha=alpha, teacher_embedding=xi_teacher,
                beta=beta)
            # One dot per range in layout order: the dense fields, each
            # row of wdec, each row of bdec, the confidence head. A row the
            # step did not write is +0.0, and adding its +0.0 dot changes
            # no bit, so the winner need not be known.
            dense = np.concatenate([getattr(grads, name).ravel()
                                    for name in M.PARAM_FIELDS[:8]])
            tail = np.concatenate([grads.wconf.ravel(), grads.bconf])
            pieces = [dense, *grads.wdec.reshape(len(grads.wdec), -1),
                      *grads.bdec, tail]
            gnorm = math.sqrt(sum(float(np.dot(g, g)) for g in pieces))
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
# rises and falls, and the no-map branch runs between map steps. The
# "-d64" cases train the default shape (d=64, k=6, hidden=64) on 40
# scenes for one epoch.
@pytest.mark.parametrize("variant, map_radius", [
    pytest.param(variant, radius,
                 id=variant if radius == 50.0 else f"{variant}-radius1.5")
    for radius, variants in ((50.0, ("hd", "distilled", "nav", "map_free")),
                             (1.5, ("hd", "distilled", "nav")))
    for variant in variants
] + [pytest.param(variant + "-d64", 50.0, id=variant + "-d64")
     for variant in ("hd", "map_free")])
def test_training_matches_reference_loop_bitwise(world, scenes, variant,
                                                 map_radius):
    tc = TrainConfig(epochs=2, seed=3)
    shape = dict(d=8, k=3, hidden=8)
    if variant.endswith("-d64"):
        variant, shape = variant[:-4], {}
        scenes = generate_scenes(world, 40, seed=5)
        tc = TrainConfig(epochs=1, seed=3)
    t_cfg = M.ModelConfig(**shape, map_radius=map_radius, map_source="hd")
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
        cfg = M.ModelConfig(**shape, map_radius=map_radius,
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


@pytest.mark.parametrize("student", [False, True], ids=["hd-d64",
                                                         "student-d96"])
def test_clip_norm_within_4_ulp_of_per_field_sums(world, student,
                                                  monkeypatch):
    # The clip norm adds one dot per written range; the per-field
    # pairwise sums over the whole gradient add in another order. Every
    # step of an HD d=64 training, or of a d=96 student's, must agree
    # with them within 4 ulp; a range left out or counted twice (bconf
    # alone adds about 1 to a squared norm of about 1000) cannot.
    import navpredict.distill as distill_mod

    scenes = generate_scenes(world, 100, seed=5)
    tc = TrainConfig(epochs=2, seed=3)
    t_cfg = M.ModelConfig(map_source="hd")
    if student:
        teacher = (train_teacher(scenes, world, t_cfg,
                                 TrainConfig(epochs=1, seed=1)).params, t_cfg)
    original_step, original_norm = M.loss_and_grads, distill_mod._grad_norm
    step_grads, norms = [], []

    def recording_step(*args, **kwargs):
        loss, grads, xi = original_step(*args, **kwargs)
        step_grads[:] = [grads]
        return loss, grads, xi

    def recording_norm(ranges):
        gnorm = original_norm(ranges)
        grads = step_grads[0]
        per_field = math.sqrt(sum(float(np.sum(g * g)) for g in (
            getattr(grads, name) for name in M.PARAM_FIELDS)))
        norms.append((gnorm, per_field))
        return gnorm

    monkeypatch.setattr(M, "loss_and_grads", recording_step)
    monkeypatch.setattr(distill_mod, "_grad_norm", recording_norm)
    if student:
        got = train_student(scenes, world, teacher,
                            DistillConfig(variant="shared"), tc)
    else:
        got = train(scenes, view_points(world, "hd"), t_cfg, tc)
    assert got.config.d == (96 if student else 64)
    assert len(norms) == tc.epochs * len(scenes)
    for step, (gnorm, per_field) in enumerate(norms):
        assert abs(gnorm - per_field) <= 4 * np.spacing(per_field), \
            (step, gnorm, per_field)


def test_teacher_runs_once_per_scene(world, scenes, monkeypatch):
    t_cfg = M.ModelConfig(d=4, k=3, hidden=8, map_source="hd")
    teacher = train_teacher(scenes, world, t_cfg, TrainConfig(epochs=1, seed=1))
    # The teacher's scenes are counted by their observed tracks through
    # both entry points, the one-scene and the batched forward.
    original, original_batch = M.forward, M.forward_batch
    teacher_tracks = []

    def counting_forward(observed, map_points, params):
        if params is teacher.params:
            teacher_tracks.append(observed.tobytes())
        return original(observed, map_points, params)

    def counting_forward_batch(observed, map_sets, params):
        if params is teacher.params:
            teacher_tracks.extend(track.tobytes() for track in observed)
        return original_batch(observed, map_sets, params)

    monkeypatch.setattr(M, "forward", counting_forward)
    monkeypatch.setattr(M, "forward_batch", counting_forward_batch)
    train_student(scenes, world, (teacher.params, t_cfg),
                  DistillConfig(variant="shared"),
                  TrainConfig(epochs=3, seed=0))
    expected = [scene.agents[scene.target].tobytes() for scene in scenes]
    assert sorted(teacher_tracks) == sorted(expected)
    assert len(set(teacher_tracks)) == len(scenes)


def test_non_finite_gradient_raises_before_update(world, scenes,
                                                  monkeypatch):
    # The poisoned entry lies in each of the four ranges that a step
    # writes: a dense field, the winner's wdec and bdec rows and the
    # confidence tail.
    original = M.loss_and_grads
    cfg = M.ModelConfig(d=8, k=3, hidden=8, map_source="nav")
    for field in ("wk", "wdec", "bdec", "bconf"):
        seen = []

        def poisoned(*args, **kwargs):
            loss, grads, xi = original(*args, **kwargs)
            params = args[1]
            seen.append((params, params.flat.copy()))
            if len(seen) == 3:
                winner = kwargs["workspace"].winner
                if field == "wdec":
                    grads.wdec[winner, 5, 1] = np.nan
                elif field == "bdec":
                    grads.bdec[winner, 3] = np.nan
                else:
                    getattr(grads, field).flat[1] = np.nan
            return loss, grads, xi

        monkeypatch.setattr(M, "loss_and_grads", poisoned)
        with pytest.raises(M.NumericError, match="gradient"):
            train(scenes, view_points(world, "nav"), cfg,
                  TrainConfig(epochs=1, seed=0))
        assert len(seen) == 3, field
        params, before = seen[-1]
        np.testing.assert_array_equal(params.flat, before)


def test_training_steps_allocate_less_than_one_map_array(world, scenes):
    # A step writes its (m, d) activations and gradients into the
    # workspace and adds the map encoder's biases without broadcasting,
    # so what it allocates does not grow with the map set: its peak stays
    # under a third of one (m_max, d) array. A broadcast bias add alone
    # allocates about half of one.
    cfg = M.ModelConfig(d=64, map_source="hd")
    params = M.init_params(cfg, np.random.default_rng(0))
    maps = prepare_map_inputs(scenes, view_points(world, "hd"),
                              cfg.map_radius)
    frames = [M.AgentFrame(scene.agents[scene.target], pts, scene.future)
              for scene, pts in zip(scenes, maps)]
    m_max = max(len(pts) for pts in maps)
    workspace = M.Workspace(params, m_max)

    def steps(indices):
        for i in indices:
            M.loss_and_grads(frames[i], params, workspace=workspace)

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
    assert peak < one_array / 3, \
        f"peak {peak} B >= a third of one (m_max, d) array ({one_array} B)"
