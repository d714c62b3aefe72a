import json

import numpy as np
import pytest

from navpredict.model import (
    CHECKPOINT_VERSION,
    HEADING_LAG,
    HEADING_MIN_DISPLACEMENT,
    PARAM_FIELDS,
    ModelConfig,
    ModelParams,
    Workspace,
    distill_loss,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    model_loss,
    save_checkpoint,
    select_map_points,
    zeros_like_params,
)
from navpredict.benchmark import BenchmarkSpec
from navpredict.scenario import (FUTURE_LEN, OBSERVED_LEN, WorldSpec,
                                 generate_scenes, generate_world, view_points)

SMALL = ModelConfig(d=6, k=3, hidden=5, map_radius=50.0)


def _scene(rng, n_map=12):
    observed = np.cumsum(rng.normal(0.0, 0.5, size=(OBSERVED_LEN, 2)),
                         axis=0)
    future = observed[-1] + np.cumsum(
        rng.normal(0.0, 0.5, size=(FUTURE_LEN, 2)), axis=0)
    map_points = observed[-1] + rng.uniform(-40.0, 40.0, size=(n_map, 2))
    return observed, map_points, future


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d=0)
    with pytest.raises(ValueError):
        ModelConfig(map_source="radar")
    for radius in (-5.0, -1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="map radius"):
            ModelConfig(map_radius=radius)
    assert ModelConfig(map_radius=0.0).map_radius == 0.0


@pytest.mark.parametrize("radius", [-5.0, np.nan, np.inf])
def test_checkpoint_with_bad_map_radius_rejected(radius, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(SMALL, np.random.default_rng(0)),
                    SMALL)
    header, payload = path.read_bytes().split(b"\n", 1)
    doctored = header.replace(b'"map_radius": 50.0',
                              f'"map_radius": {json.dumps(radius)}'.encode())
    assert doctored != header
    path.write_bytes(doctored + b"\n" + payload)
    with pytest.raises(ValueError, match="map radius"):
        load_checkpoint(path)


def test_param_vector_round_trip():
    rng = np.random.default_rng(0)
    params = init_params(SMALL, rng)
    vec = params.flat
    back = ModelParams(vec.copy(), params.shapes)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(params, name),
                                      getattr(back, name))
    with pytest.raises(ValueError):
        ModelParams(vec[:-1].copy(), params.shapes)
    # Fields are views of the flat buffer; the round trip copied it.
    assert not np.shares_memory(back.flat, vec)
    params.w2[1, 2] = 7.5
    params.bconf += 1.0
    np.testing.assert_array_equal(
        ModelParams(params.flat.copy(), params.shapes).w2, params.w2)
    assert params.flat[-1] == params.bconf[-1]
    with pytest.raises(AttributeError):
        params.w1 = np.zeros_like(params.w1)


def test_init_is_seeded_and_biases_zero():
    a = init_params(SMALL, np.random.default_rng(7))
    b = init_params(SMALL, np.random.default_rng(7))
    np.testing.assert_array_equal(a.flat, b.flat)
    for name in ("b1", "b2", "bk", "bv", "bdec", "bconf"):
        assert not getattr(a, name).any()


def test_forward_shapes_and_simplex():
    rng = np.random.default_rng(1)
    observed, map_points, _ = _scene(rng)
    params = init_params(SMALL, rng)
    pred, xi, _ = forward(observed, map_points, params)
    assert pred.trajectories.shape == (SMALL.k, FUTURE_LEN, 2)
    assert pred.confidences.shape == (SMALL.k,)
    assert np.all(pred.confidences > 0.0)
    assert pred.confidences.sum() == pytest.approx(1.0, abs=1e-12)
    assert xi.shape == (SMALL.d,)


def test_empty_map_embedding_equals_agent_embedding():
    rng = np.random.default_rng(2)
    observed, _, _ = _scene(rng)
    params = init_params(SMALL, rng)
    _, xi_empty, cache = forward(observed, np.zeros((0, 2)), params)
    np.testing.assert_array_equal(xi_empty, cache[1])  # h_a


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    observed, map_points, _ = _scene(rng)
    params = init_params(SMALL, rng)
    shift = np.array([123.5, -45.25])
    pred_a, xi_a, _ = forward(observed, map_points, params)
    pred_b, xi_b, _ = forward(observed + shift, map_points + shift, params)
    np.testing.assert_allclose(xi_b, xi_a, atol=1e-9)
    np.testing.assert_allclose(pred_b.trajectories,
                               pred_a.trajectories + shift, atol=1e-9)
    np.testing.assert_allclose(pred_b.confidences, pred_a.confidences,
                               atol=1e-12)


@pytest.mark.parametrize("angle", [0.4, -1.3, 2.6, np.pi])
def test_rotation_equivariance(angle):
    rng = np.random.default_rng(14)
    observed, map_points, _ = _scene(rng)
    assert np.linalg.norm(observed[-1] - observed[-1 - HEADING_LAG]) \
        > HEADING_MIN_DISPLACEMENT
    params = init_params(SMALL, rng)
    pivot = np.array([-17.25, 40.5])
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, s], [-s, c]])  # row vectors: p @ rot turns p by angle

    def turn(p):
        return (p - pivot) @ rot + pivot

    pred_a, xi_a, _ = forward(observed, map_points, params)
    pred_b, xi_b, _ = forward(turn(observed), turn(map_points), params)
    np.testing.assert_allclose(xi_b, xi_a, atol=1e-9)
    np.testing.assert_allclose(pred_b.confidences, pred_a.confidences,
                               atol=1e-9)
    np.testing.assert_allclose(pred_b.trajectories,
                               turn(pred_a.trajectories), atol=1e-9)


@pytest.mark.parametrize("jitter", [0.0, 1e-12, 1e-3])
def test_stationary_target_keeps_world_axes(jitter):
    # Below the heading threshold the frame is the world's axes, so a
    # standing target does not take its heading from rounding noise.
    rng = np.random.default_rng(15)
    observed = np.array([5.0, -2.0]) + jitter * rng.normal(
        size=(OBSERVED_LEN, 2))
    assert np.linalg.norm(observed[-1] - observed[-1 - HEADING_LAG]) \
        < HEADING_MIN_DISPLACEMENT
    map_points = observed[-1] + rng.uniform(-40.0, 40.0, size=(12, 2))
    future = np.tile(observed[-1], (FUTURE_LEN, 1))
    params = init_params(SMALL, rng)
    pred_a, xi_a, cache = forward(observed, map_points, params)
    pred_b, xi_b, _ = forward(observed.copy(), map_points.copy(), params)
    np.testing.assert_array_equal(cache[0][0], np.eye(2))
    for a in (pred_a.trajectories, pred_a.confidences, xi_a):
        assert np.isfinite(a).all()
    np.testing.assert_array_equal(pred_b.trajectories, pred_a.trajectories)
    np.testing.assert_array_equal(xi_b, xi_a)
    loss, grads, _ = loss_and_grads(observed, map_points, future, params)
    assert np.isfinite(loss)
    assert np.isfinite(grads.flat).all()


def test_map_permutation_invariance():
    rng = np.random.default_rng(4)
    observed, map_points, _ = _scene(rng, n_map=20)
    params = init_params(SMALL, rng)
    perm = rng.permutation(20)
    pred_a, xi_a, _ = forward(observed, map_points, params)
    pred_b, xi_b, _ = forward(observed, map_points[perm], params)
    np.testing.assert_allclose(xi_b, xi_a, atol=1e-12)
    np.testing.assert_allclose(pred_b.trajectories, pred_a.trajectories,
                               atol=1e-12)


def test_model_loss_matches_brute_force():
    rng = np.random.default_rng(5)
    observed, map_points, future = _scene(rng)
    params = init_params(SMALL, rng)
    pred, _, _ = forward(observed, map_points, params)
    loss, m_star = model_loss(pred, future)

    per_mode = []
    for m in range(SMALL.k):
        errs = [np.linalg.norm(pred.trajectories[m, t] - future[t])
                for t in range(FUTURE_LEN)]
        per_mode.append(sum(errs) / FUTURE_LEN)
    expect_star = int(np.argmin(per_mode))
    sq = sum(np.sum((pred.trajectories[expect_star, t] - future[t]) ** 2)
             for t in range(FUTURE_LEN)) / FUTURE_LEN
    expect = sq - np.log(pred.confidences[expect_star])
    assert m_star == expect_star
    assert loss == pytest.approx(expect, rel=1e-12)


def test_winner_tie_breaks_to_lowest_index():
    traj = np.zeros((3, FUTURE_LEN, 2))
    traj[2] += 10.0  # modes 0 and 1 tie, mode 2 is worse
    pred_set = type("P", (), {})()
    pred_set.trajectories = traj
    pred_set.confidences = np.full(3, 1.0 / 3.0)
    _, m_star = model_loss(pred_set, np.zeros((FUTURE_LEN, 2)))
    assert m_star == 0


def _fd_grad(f, vec, h=1e-6):
    out = np.empty_like(vec)
    for i in range(vec.size):
        up = vec.copy(); up[i] += h
        dn = vec.copy(); dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2.0 * h)
    return out


@pytest.mark.parametrize("n_map", [0, 8])
def test_gradients_match_finite_differences(n_map):
    cfg = ModelConfig(d=4, k=2, hidden=3)
    rng = np.random.default_rng(6)
    observed, map_points, future = _scene(rng, n_map=max(n_map, 1))
    map_points = map_points[:n_map]
    params = init_params(cfg, rng)
    vec = params.flat

    def f(v):
        loss, _, _ = loss_and_grads(observed, map_points, future,
                                    ModelParams(v, params.shapes))
        return loss

    _, grads, _ = loss_and_grads(observed, map_points, future, params)
    fd = _fd_grad(f, vec)
    np.testing.assert_allclose(grads.flat, fd,
                               rtol=1e-4, atol=1e-7)


def test_gradients_with_distillation_match_finite_differences():
    cfg = ModelConfig(d=4, k=2, hidden=3)
    rng = np.random.default_rng(8)
    observed, map_points, future = _scene(rng, n_map=6)
    params = init_params(cfg, rng)
    teacher = rng.normal(size=3)  # guided prefix of width 3 < d
    vec = params.flat

    def f(v):
        loss, _, _ = loss_and_grads(
            observed, map_points, future, ModelParams(v, params.shapes),
            alpha=0.7, teacher_embedding=teacher, beta=1.3)
        return loss

    _, grads, _ = loss_and_grads(observed, map_points, future, params,
                                 alpha=0.7, teacher_embedding=teacher,
                                 beta=1.3)
    fd = _fd_grad(f, vec)
    np.testing.assert_allclose(grads.flat, fd,
                               rtol=1e-4, atol=1e-7)


def test_zero_params_stationary_scene_has_zero_trajectory_grads():
    # All-zero parameters predict "stay at the last observed position"
    # for every mode; for a stationary agent that is exactly right, so
    # every regression-path gradient vanishes and only the (uniform)
    # confidence bias gradient survives.
    cfg = ModelConfig(d=4, k=3, hidden=3)
    params = zeros_like_params(init_params(cfg, np.random.default_rng(0)))
    observed = np.tile(np.array([5.0, -2.0]), (OBSERVED_LEN, 1))
    future = np.tile(np.array([5.0, -2.0]), (FUTURE_LEN, 1))
    loss, grads, _ = loss_and_grads(observed, np.zeros((0, 2)), future,
                                    params)
    assert loss == pytest.approx(np.log(cfg.k))
    for name in PARAM_FIELDS:
        if name == "bconf":
            continue
        assert not getattr(grads, name).any(), name
    expected_bconf = np.full(cfg.k, 1.0 / cfg.k)
    expected_bconf[0] -= 1.0
    np.testing.assert_allclose(grads.bconf, expected_bconf, atol=1e-12)


@pytest.mark.parametrize("n_map", [0, 8])
def test_gradients_into_reused_buffer_match_fresh(n_map):
    """A workspace holding a previous step's gradients changes no bit."""
    cfg = ModelConfig(d=6, k=4, hidden=5)
    rng = np.random.default_rng(14)
    params = init_params(cfg, rng)
    teacher = rng.normal(size=4)

    def winner(observed, map_points, future):
        pred, _, _ = forward(observed, map_points, params)
        return model_loss(pred, future)[1]

    first = _scene(rng)
    for _ in range(200):
        observed, map_points, future = _scene(rng, n_map=max(n_map, 1))
        map_points = map_points[:n_map]
        if winner(observed, map_points, future) != winner(*first):
            break
    else:
        pytest.fail("no scene with a different winning mode")
    workspace = Workspace(params, 12)
    buf = workspace.grads
    loss_and_grads(*first, params, teacher_embedding=teacher, beta=0.5,
                   workspace=workspace)
    assert buf.wk.any() and buf.wdec.any()
    fresh = loss_and_grads(observed, map_points, future, params,
                           teacher_embedding=teacher, beta=0.5)
    reused = loss_and_grads(observed, map_points, future, params,
                            teacher_embedding=teacher, beta=0.5,
                            workspace=workspace)
    assert reused[1] is buf
    assert reused[0] == fresh[0]
    np.testing.assert_array_equal(reused[2], fresh[2])
    np.testing.assert_array_equal(buf.flat, fresh[1].flat)


def test_workspace_matches_fresh_over_varying_map_sizes():
    # The map set grows, shrinks and empties between steps, so the
    # workspace holds stale rows beyond the current m and stale
    # activations from a larger set.
    cfg = ModelConfig(d=6, k=4, hidden=5)
    rng = np.random.default_rng(21)
    params = init_params(cfg, rng)
    workspace = Workspace(params, 12)
    winners = set()
    for n_map in (12, 3, 0, 7, 12, 0, 1, 12, 5):
        observed, map_points, future = _scene(rng, n_map=n_map)
        teacher = rng.normal(size=4)
        pred, _, _ = forward(observed, map_points, params)
        winners.add(model_loss(pred, future)[1])
        fresh = loss_and_grads(observed, map_points, future, params,
                               teacher_embedding=teacher, beta=0.5)
        reused = loss_and_grads(observed, map_points, future, params,
                                teacher_embedding=teacher, beta=0.5,
                                workspace=workspace)
        assert reused[0] == fresh[0]
        np.testing.assert_array_equal(reused[2], fresh[2])
        assert np.array_equal(reused[1].flat, fresh[1].flat), n_map
        assert np.array_equal(np.signbit(reused[1].flat),
                              np.signbit(fresh[1].flat)), n_map
    assert len(winners) > 1


def test_workspace_rejects_what_it_was_not_made_for():
    rng = np.random.default_rng(22)
    params = init_params(SMALL, rng)
    observed, map_points, future = _scene(rng, n_map=5)
    with pytest.raises(ValueError, match="exceed"):
        loss_and_grads(observed, map_points, future, params,
                       workspace=Workspace(params, 4))
    wider = init_params(ModelConfig(d=7, k=3, hidden=5), rng)
    with pytest.raises(ValueError, match="layout"):
        loss_and_grads(observed, map_points, future, params,
                       workspace=Workspace(wider, 5))


def test_distillation_ignores_unguided_suffix():
    cfg = ModelConfig(d=6, k=2, hidden=3)
    rng = np.random.default_rng(9)
    observed, map_points, future = _scene(rng)
    params = init_params(cfg, rng)
    _, _, xi = loss_and_grads(observed, map_points, future, params)
    teacher = xi[:4].copy()  # teacher agrees with the guided prefix
    loss_plain, _, _ = loss_and_grads(observed, map_points, future, params)
    loss_dist, _, _ = loss_and_grads(observed, map_points, future, params,
                                     teacher_embedding=teacher, beta=5.0)
    assert loss_dist == pytest.approx(loss_plain, rel=1e-12)


def test_total_loss_adds_weighted_distill_loss():
    cfg = ModelConfig(d=6, k=2, hidden=3)
    rng = np.random.default_rng(11)
    observed, map_points, future = _scene(rng)
    params = init_params(cfg, rng)
    teacher = rng.normal(size=4)
    loss_plain, _, xi = loss_and_grads(observed, map_points, future, params,
                                       alpha=0.7)
    loss_dist, _, _ = loss_and_grads(observed, map_points, future, params,
                                     alpha=0.7, teacher_embedding=teacher,
                                     beta=1.3)
    assert loss_dist == loss_plain + 1.3 * distill_loss(teacher, xi)


def test_teacher_wider_than_student_rejected():
    cfg = ModelConfig(d=3, k=2, hidden=3)
    rng = np.random.default_rng(10)
    observed, map_points, future = _scene(rng)
    params = init_params(cfg, rng)
    with pytest.raises(ValueError):
        loss_and_grads(observed, map_points, future, params,
                       teacher_embedding=np.zeros(5), beta=1.0)


def test_select_map_points():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
    got = select_map_points(pts, np.zeros(2), 5.0)
    np.testing.assert_array_equal(got, pts[:2])
    empty = select_map_points(np.zeros((0, 2)), np.zeros(2), 5.0)
    assert empty.shape == (0, 2)


def _reference_selection(points, center, radius):
    # The definition select_map_points must reproduce bit for bit.
    return points[np.linalg.norm(points - center, axis=1) <= radius]


def _assert_same_selection(points, center, radius):
    got = select_map_points(points, center, radius)
    want = _reference_selection(points, center, radius)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


_RADII = (0.0, 1.5, 50.0, 300.0, np.inf, np.nan,
          np.nextafter(50.0, 0.0), np.nextafter(50.0, 100.0))


def _centres_50m_from(points, rng, n):
    """Centres whose reference distance to some map point is exactly 50."""
    centres = []
    for p in points[rng.choice(len(points), size=n, replace=False)]:
        for angle in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            c = p + 50.0 * np.array([np.cos(angle), np.sin(angle)])
            if np.linalg.norm(p[None, :] - c, axis=1)[0] == 50.0:
                centres.append(c)
                break
    return centres


@pytest.mark.parametrize("world_spec", [
    WorldSpec(seed=BenchmarkSpec().world_seed),
    WorldSpec(seed=1, num_roads=16, lanes_per_road=3),
], ids=["criterion7", "16x3"])
def test_select_map_points_matches_norm_reference(world_spec):
    world = generate_world(world_spec)
    scenes = generate_scenes(world, 60, seed=BenchmarkSpec().val_scene_seed)
    rng = np.random.default_rng(12)
    for source in ("hd", "nav"):
        points = view_points(world, source)
        lo = points.min(axis=0) - 100.0
        hi = points.max(axis=0) + 100.0
        on_circle = _centres_50m_from(points, rng, 20)
        assert len(on_circle) >= 10
        centres = ([s.agents[s.target][-1] for s in scenes]
                   + list(rng.uniform(lo, hi, size=(20, 2)))
                   + on_circle + list(points[:5]))
        kept = 0
        for center in centres:
            for radius in _RADII:
                _assert_same_selection(points, center, radius)
            kept += len(select_map_points(points, center, 50.0))
        assert kept > 0


def test_select_map_points_edge_cases():
    # 3-4-5: a point at exactly 50 m is kept at radius 50 and at the next
    # float up, and dropped at the next float down.
    pts = np.array([[30.0, 40.0], [0.0, 0.0], [50.0, 1e-9], [-50.0, 0.0]])
    for radius in _RADII:
        _assert_same_selection(pts, np.zeros(2), radius)
    # Points on a circle of the radius: comparing squared distances with
    # the squared radius would move some of them across the boundary.
    rng = np.random.default_rng(3)
    centre = np.array([3.25, -7.5])
    angles = rng.uniform(0.0, 2.0 * np.pi, 4000)
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    moved = 0
    for radius in (1.5, 50.0, 300.0, np.nextafter(50.0, 0.0),
                   np.nextafter(50.0, 100.0)):
        ring = centre + radius * unit
        _assert_same_selection(ring, centre, radius)
        sq = ((ring - centre) ** 2).sum(axis=1)
        moved += np.count_nonzero((sq <= radius * radius)
                                  != (np.sqrt(sq) <= radius))
    assert moved > 0
    # Underflow: 1e-170 squared is 0, so the reference keeps these points
    # at radius 0 although they are not at the centre.
    tiny = np.array([[1e-170, 0.0], [0.0, 1e-170], [1.0, 0.0]])
    assert len(_reference_selection(tiny, np.zeros(2), 0.0)) == 2
    for radius in (0.0, 1e-300, 1e-160):
        _assert_same_selection(tiny, np.zeros(2), radius)
    # An empty view and an empty result are (0, 2) float64.
    for points, radius in ((np.zeros((0, 2)), 5.0),
                           (np.array([[10.0, 0.0]]), 5.0)):
        got = select_map_points(points, np.zeros(2), radius)
        assert got.shape == (0, 2) and got.dtype == np.float64


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    params = init_params(SMALL, rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, SMALL)
    loaded, config = load_checkpoint(path)
    assert config == SMALL
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(params, name))
    # re-saving reproduces the file byte for byte
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded, config)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    rng = np.random.default_rng(12)
    params = init_params(SMALL, rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, SMALL)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    params = init_params(SMALL, np.random.default_rng(12))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, SMALL)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_non_finite_payload_rejected(tmp_path):
    params = init_params(SMALL, np.random.default_rng(12))
    params.wk[0, 1] = np.inf
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, SMALL)
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_version_checked(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b'{"version": %d}\n'
                     % (CHECKPOINT_VERSION + 1))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_bad_observed_shape_rejected():
    rng = np.random.default_rng(13)
    params = init_params(SMALL, rng)
    with pytest.raises(ValueError):
        forward(np.zeros((5, 2)), np.zeros((0, 2)), params)
