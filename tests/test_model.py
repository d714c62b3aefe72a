import json
import tracemalloc

import numpy as np
import pytest

from navpredict.model import (
    CHECKPOINT_VERSION,
    FORWARD_BLOCK,
    HEADING_LAG,
    HEADING_MIN_DISPLACEMENT,
    PARAM_FIELDS,
    MapGrid,
    ModelConfig,
    AgentFrame,
    ModelParams,
    Workspace,
    _forward_in_frame,
    _live_ranges,
    decode,
    distill_loss,
    forward,
    forward_batch,
    forward_split,
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
    loss, grads, _ = loss_and_grads(
        AgentFrame(observed, map_points, future), params)
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


@pytest.fixture(scope="module")
def batch_world():
    return generate_world(WorldSpec(seed=2))


# The second scene stands still (identity frame) and the middle one has
# an empty map set between non-empty ones; 33 scenes cross a block.
@pytest.mark.parametrize("n", [1, 32, 33])
@pytest.mark.parametrize("source, d, k", [("hd", 64, 6), ("nav", 96, 6),
                                          ("none", 64, 3), ("hd", 96, 3)])
def test_forward_batch_matches_forward_bitwise(batch_world, source, d, k, n):
    cfg = ModelConfig(d=d, k=k, hidden=16, map_source=source)
    params = init_params(cfg, np.random.default_rng(d + k))
    params.flat[...] += np.random.default_rng(n).normal(
        0.0, 0.05, params.flat.size)
    points = view_points(batch_world, source)
    scenes = generate_scenes(batch_world, n, seed=4)
    observed = np.array([scene.agents[scene.target] for scene in scenes])
    if n > 1:
        observed[1] = observed[1, -1]
    map_sets = [select_map_points(points, track[-1], cfg.map_radius)
                for track in observed]
    if n > 2:
        mid = n // 2
        map_sets[mid] = points[:0]
        if source != "none":
            assert len(map_sets[mid - 1]) and len(map_sets[mid + 1])
    trajectories, confidences, embeddings = forward_batch(
        observed, map_sets, params)
    assert trajectories.shape == (n, k, FUTURE_LEN, 2)
    assert confidences.shape == (n, k)
    assert embeddings.shape == (n, d)
    for i in range(n):
        pred, xi, cache = forward(observed[i], map_sets[i], params)
        if i == 1:
            np.testing.assert_array_equal(cache[0][0], np.eye(2))
        assert trajectories[i].tobytes() == pred.trajectories.tobytes()
        assert confidences[i].tobytes() == pred.confidences.tobytes()
        assert embeddings[i].tobytes() == xi.tobytes()


def test_forward_batch_rejects_mismatched_inputs():
    params = init_params(SMALL, np.random.default_rng(0))
    tracks = np.zeros((3, OBSERVED_LEN, 2))
    with pytest.raises(ValueError, match="map sets"):
        forward_batch(tracks, [np.zeros((0, 2))] * 2, params)
    with pytest.raises(ValueError, match="observed track"):
        forward_batch(np.zeros((1, 5, 2)), [np.zeros((0, 2))], params)


@pytest.mark.parametrize("source", ["hd", "none"])
def test_forward_split_matches_per_scene_forward_bitwise(source):
    # 70 scenes on the 16-road x 3-lane world run in blocks of 32, 32 and
    # 6; the HD view's map sets come from a MapGrid, the empty view's are
    # all empty.
    world = generate_world(WorldSpec(seed=1, num_roads=16, lanes_per_road=3))
    scenes = generate_scenes(world, 70, seed=8)
    assert 2 * FORWARD_BLOCK < len(scenes) < 3 * FORWARD_BLOCK
    cfg = ModelConfig(d=16, k=6, hidden=16, map_source=source)
    params = init_params(cfg, np.random.default_rng(3))
    points = view_points(world, source)
    trajectories, confidences, embeddings = forward_split(params, cfg,
                                                          scenes, points)
    assert trajectories.shape == (70, 6, FUTURE_LEN, 2)
    assert confidences.shape == (70, 6)
    assert embeddings.shape == (70, 16)
    kept = 0
    for i, scene in enumerate(scenes):
        observed = scene.agents[scene.target]
        pts = select_map_points(points, observed[-1], cfg.map_radius)
        kept += len(pts)
        pred, xi, _cache = forward(observed, pts, params)
        assert trajectories[i].tobytes() == pred.trajectories.tobytes()
        assert confidences[i].tobytes() == pred.confidences.tobytes()
        assert embeddings[i].tobytes() == xi.tobytes()
    assert (kept > 0) == (source == "hd")


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
    frame = AgentFrame(observed, map_points, future)

    def f(v):
        loss, _, _ = loss_and_grads(frame, ModelParams(v, params.shapes))
        return loss

    _, grads, _ = loss_and_grads(frame, params)
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
    frame = AgentFrame(observed, map_points, future)

    def f(v):
        loss, _, _ = loss_and_grads(
            frame, ModelParams(v, params.shapes),
            alpha=0.7, teacher_embedding=teacher, beta=1.3)
        return loss

    _, grads, _ = loss_and_grads(frame, params, alpha=0.7,
                                 teacher_embedding=teacher, beta=1.3)
    fd = _fd_grad(f, vec)
    np.testing.assert_allclose(grads.flat, fd,
                               rtol=1e-4, atol=1e-7)


def _materialised_map_grads(frame, params, teacher=None, beta=0.0):
    """The map encoder's gradients as a backward that builds the ``(m,
    d)`` key and value gradients computes them: each masked by its ReLU,
    then summed over the points.

    Returns that backward's ``dh_a`` (``b2``'s gradient), its ``wk``,
    ``bk``, ``wv`` and ``bv``, and per field ``|M|^T |R|`` scaled as the
    field is: ``|s * h_a|`` or ``|dxi|`` per unit, times the sum over the
    unit's live points of ``|dscores * F|`` or ``|weights * F|`` (with
    ``F`` a point's offsets, and 1 for a bias).
    """
    xi, cache = _forward_in_frame(frame, params)
    ((_rot, pred), h_a, keys, values, _xi, _agent_cache,
     (offsets, zk, zv), (scale, weights)) = cache
    _loss, m_star = model_loss(pred, frame.future)
    dtraj = 1.0 * 2.0 * (pred.trajectories[m_star] - frame.future) / FUTURE_LEN
    du = np.cumsum(dtraj[::-1], axis=0)[::-1].ravel()
    dxi = params.wdec[m_star].T @ du
    dlogits = 1.0 * pred.confidences
    dlogits[m_star] -= 1.0
    dxi = dxi + params.wconf.T @ dlogits
    if teacher is not None:
        dxi[:teacher.size] += beta * 2.0 * (
            xi[:teacher.size] - teacher) / teacher.size
    dweights = values @ dxi
    dscores = weights * (dweights - weights @ dweights)
    dh_a = dxi + keys.T @ dscores * scale
    key_mask, value_mask = zk > 0.0, zv > 0.0
    dkeys = np.multiply.outer(dscores, h_a) * scale * key_mask
    dvalues = np.multiply.outer(weights, dxi) * value_mask
    grads = {"wk": dkeys.T @ offsets, "bk": dkeys.sum(axis=0),
             "wv": dvalues.T @ offsets, "bv": dvalues.sum(axis=0)}
    features = np.abs(np.column_stack([offsets, np.ones(len(offsets))]))
    key_sums = np.abs(scale * h_a)[:, None] * (
        key_mask.T @ (np.abs(dscores)[:, None] * features))
    value_sums = np.abs(dxi)[:, None] * (
        value_mask.T @ (weights[:, None] * features))
    sums = {"wk": key_sums[:, :2], "bk": key_sums[:, 2],
            "wv": value_sums[:, :2], "bv": value_sums[:, 2]}
    return dh_a, grads, sums


# Contracting the masks reorders the sums over the m points and moves
# the per-unit factor to the end. Along each path a term takes at most 3
# roundings and the sum m - 1 more, so each path is within (m + 2) *
# 2**-53 of the exact sum of |terms|, and the two within (m + 2) * 2**-52
# of each other; c = 4 covers m + 2 <= 3m with room for second-order
# terms and for rounding in the bound itself.
_MAP_GRAD_C = 4


@pytest.mark.parametrize("d", [64, 96])
@pytest.mark.parametrize("teacher", [False, True], ids=["plain", "teacher"])
@pytest.mark.parametrize("case", ["m1", "m2", "hd", "dead-keys"])
def test_map_grads_within_summation_bound_of_materialised_backward(
        batch_world, case, teacher, d):
    rng = np.random.default_rng(d + 3 * teacher + len(case))
    cfg = ModelConfig(d=d, k=6, hidden=16)
    params = init_params(cfg, rng)
    params.flat[...] += rng.normal(0.0, 0.05, params.flat.size)
    if case == "hd":
        points = view_points(batch_world, "hd")
        scenes = generate_scenes(batch_world, 40, seed=4)
        sets = [select_map_points(points, s.agents[s.target][-1], 55.0)
                for s in scenes]
        i = int(np.argmax([len(pts) for pts in sets]))
        frame = AgentFrame(scenes[i].agents[scenes[i].target], sets[i],
                           scenes[i].future)
        assert 250 <= len(sets[i]) <= 400
    else:
        frame = AgentFrame(*_scene(rng, n_map={"m1": 1, "m2": 2}.get(case,
                                                                      12)))
    if case == "dead-keys":
        params.bk[...] = -1e6
    embedding = rng.normal(size=d // 2) if teacher else None
    _, grads, _ = loss_and_grads(frame, params, teacher_embedding=embedding,
                                 beta=0.5)
    dh_a, ref, sums = _materialised_map_grads(frame, params, embedding, 0.5)
    # The reference takes the same upstream gradient: b2 gets dh_a.
    assert grads.b2.tobytes() == dh_a.tobytes()
    m = len(frame.map_offsets)
    for name in ("wk", "bk", "wv", "bv"):
        got = getattr(grads, name)
        assert np.isfinite(got).all(), name
        err = np.abs(got - ref[name])
        bound = _MAP_GRAD_C * m * 2.0 ** -52 * sums[name]
        assert (err <= bound).all(), (name, (err - bound).max())
        # One point takes all the attention, so its score has no
        # gradient; dead key units pass none.
        keys_live = case not in ("m1", "dead-keys")
        assert sums[name].any() == (name in ("wv", "bv") or keys_live)
    if not keys_live:
        assert not grads.wk.any() and not grads.bk.any()


# Both forms of the decoder's step u add d products and the bias: each
# within (d + 1) * 2**-53 of the exact sum of |terms|, so within (d + 1)
# * 2**-52 of each other, and 2 * d covers d + 1 for d >= 2.
_DECODE_C = 2


@pytest.mark.parametrize("d, k", [(8, 3), (64, 6), (96, 6)])
@pytest.mark.parametrize("batch", [(), (5,)], ids=["one", "batch"])
def test_decode_steps_within_summation_bound_of_einsum(d, k, batch):
    rng = np.random.default_rng(d + k + len(batch))
    params = init_params(ModelConfig(d=d, k=k, hidden=8), rng)
    params.flat[...] += rng.normal(0.0, 0.1, params.flat.size)
    xi = rng.normal(0.0, 3.0, size=batch + (d,))
    ref = np.einsum("koj,...j->...ko", params.wdec, xi) + params.bdec
    sums = np.einsum("koj,...j->...ko", np.abs(params.wdec),
                     np.abs(xi)) + np.abs(params.bdec)
    bound = _DECODE_C * d * 2.0 ** -52 * sums
    origin = np.zeros(batch + (2,))
    for t in range(FUTURE_LEN):
        # With every other step's rows zero and the origin as last
        # position, the trajectories from step t on hold step t's u.
        one = zeros_like_params(params)
        one.wdec[:, 2 * t:2 * t + 2] = params.wdec[:, 2 * t:2 * t + 2]
        one.bdec[:, 2 * t:2 * t + 2] = params.bdec[:, 2 * t:2 * t + 2]
        trajectories = decode(xi, origin, one).trajectories
        u = trajectories[..., t, :]
        assert (trajectories[..., t:, :] == u[..., None, :]).all()
        assert not trajectories[..., :t, :].any()
        step = slice(2 * t, 2 * t + 2)
        assert (np.abs(u - ref[..., step]) <= bound[..., step]).all(), t


def test_zero_params_stationary_scene_has_zero_trajectory_grads():
    # All-zero parameters predict "stay at the last observed position"
    # for every mode; for a stationary agent that is exactly right, so
    # every regression-path gradient vanishes and only the (uniform)
    # confidence bias gradient survives.
    cfg = ModelConfig(d=4, k=3, hidden=3)
    params = zeros_like_params(init_params(cfg, np.random.default_rng(0)))
    observed = np.tile(np.array([5.0, -2.0]), (OBSERVED_LEN, 1))
    future = np.tile(np.array([5.0, -2.0]), (FUTURE_LEN, 1))
    loss, grads, _ = loss_and_grads(
        AgentFrame(observed, np.zeros((0, 2)), future), params)
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
    loss_and_grads(AgentFrame(*first), params, teacher_embedding=teacher,
                   beta=0.5, workspace=workspace)
    assert buf.wk.any() and buf.wdec.any()
    frame = AgentFrame(observed, map_points, future)
    fresh = loss_and_grads(frame, params, teacher_embedding=teacher, beta=0.5)
    reused = loss_and_grads(frame, params, teacher_embedding=teacher,
                            beta=0.5, workspace=workspace)
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
        frame = AgentFrame(observed, map_points, future)
        fresh = loss_and_grads(frame, params, teacher_embedding=teacher,
                               beta=0.5)
        reused = loss_and_grads(frame, params, teacher_embedding=teacher,
                                beta=0.5, workspace=workspace)
        assert reused[0] == fresh[0]
        np.testing.assert_array_equal(reused[2], fresh[2])
        assert np.array_equal(reused[1].flat, fresh[1].flat), n_map
        assert np.array_equal(np.signbit(reused[1].flat),
                              np.signbit(fresh[1].flat)), n_map
    assert len(winners) > 1


@pytest.mark.parametrize("cfg", [ModelConfig(d=64, k=6, hidden=64),
                                 ModelConfig(d=8, k=3, hidden=8)],
                         ids=["d64-k6", "d8-k3"])
def test_workspace_reused_over_scaled_steps_matches_fresh(cfg):
    # As in training: one workspace for every step, its gradients scaled
    # in place between steps, either whole or only in the ranges that the
    # step wrote. The winner changes and the map set empties and refills,
    # so stale decoder rows and map-encoder fields must be reset.
    rng = np.random.default_rng(31)
    params = init_params(cfg, rng)
    workspace = Workspace(params, 12)
    live = _live_ranges(params.shapes)
    winners = []
    for step in range(60):
        observed, map_points, future = _scene(
            rng, n_map=(12, 0, 5, 0, 0, 9)[step % 6])
        teacher = rng.normal(size=cfg.d // 2) if step % 3 else None
        frame = AgentFrame(observed, map_points, future)
        fresh = loss_and_grads(frame, params, teacher_embedding=teacher,
                               beta=0.5)
        reused = loss_and_grads(frame, params, teacher_embedding=teacher,
                                beta=0.5, workspace=workspace)
        winners.append(workspace.winner)
        assert reused[0] == fresh[0]
        assert reused[1].flat.tobytes() == fresh[1].flat.tobytes(), step
        assert np.array_equal(np.signbit(reused[1].flat),
                              np.signbit(fresh[1].flat)), step
        # Outside the ranges that this winner's step writes, all is +0.0.
        dead = np.ones(reused[1].flat.size, dtype=bool)
        for a, b in live[workspace.winner]:
            dead[a:b] = False
        assert not np.signbit(reused[1].flat[dead]).any()
        assert not reused[1].flat[dead].any()
        factor = rng.uniform(0.01, 1.0)
        if step % 2:
            workspace.grads.flat *= factor
        else:
            for a, b in live[workspace.winner]:
                workspace.grads.flat[a:b] *= factor
    changes = sum(a != b for a, b in zip(winners, winners[1:]))
    assert len(set(winners)) > 1 and changes >= 5, winners


def test_step_allocation_does_not_grow_with_the_map_set():
    # A step writes its (m, d) work into the workspace. What else grows
    # with the map set is the attention's per-point vectors, six float64
    # (48 B) per point at most alive at once. A broadcast over the points
    # whose numpy iteration buffer grows with them adds about 100 B more.
    cfg = ModelConfig(d=64, k=6, hidden=64)
    rng = np.random.default_rng(41)
    params = init_params(cfg, rng)
    peaks = []
    for n_map in (100, 1000):
        frame = AgentFrame(*_scene(rng, n_map=n_map))
        workspace = Workspace(params, n_map)
        loss_and_grads(frame, params, workspace=workspace)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss_and_grads(frame, params, workspace=workspace)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 48 * 900, peaks


def test_workspace_rejects_what_it_was_not_made_for():
    rng = np.random.default_rng(22)
    params = init_params(SMALL, rng)
    frame = AgentFrame(*_scene(rng, n_map=5))
    with pytest.raises(ValueError, match="exceed"):
        loss_and_grads(frame, params, workspace=Workspace(params, 4))
    wider = init_params(ModelConfig(d=7, k=3, hidden=5), rng)
    with pytest.raises(ValueError, match="layout"):
        loss_and_grads(frame, params, workspace=Workspace(wider, 5))
    with pytest.raises(ValueError, match="no future"):
        loss_and_grads(AgentFrame(*_scene(rng)[:2]), params)


def test_distillation_ignores_unguided_suffix():
    cfg = ModelConfig(d=6, k=2, hidden=3)
    rng = np.random.default_rng(9)
    frame = AgentFrame(*_scene(rng))
    params = init_params(cfg, rng)
    _, _, xi = loss_and_grads(frame, params)
    teacher = xi[:4].copy()  # teacher agrees with the guided prefix
    loss_plain, _, _ = loss_and_grads(frame, params)
    loss_dist, _, _ = loss_and_grads(frame, params,
                                     teacher_embedding=teacher, beta=5.0)
    assert loss_dist == pytest.approx(loss_plain, rel=1e-12)


def test_total_loss_adds_weighted_distill_loss():
    cfg = ModelConfig(d=6, k=2, hidden=3)
    rng = np.random.default_rng(11)
    frame = AgentFrame(*_scene(rng))
    params = init_params(cfg, rng)
    teacher = rng.normal(size=4)
    loss_plain, _, xi = loss_and_grads(frame, params, alpha=0.7)
    loss_dist, _, _ = loss_and_grads(frame, params, alpha=0.7,
                                     teacher_embedding=teacher, beta=1.3)
    assert loss_dist == loss_plain + 1.3 * distill_loss(teacher, xi)


def test_teacher_wider_than_student_rejected():
    cfg = ModelConfig(d=3, k=2, hidden=3)
    rng = np.random.default_rng(10)
    frame = AgentFrame(*_scene(rng))
    params = init_params(cfg, rng)
    with pytest.raises(ValueError):
        loss_and_grads(frame, params,
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


def _assert_grid_matches(points, centers, radius):
    """``MapGrid.select`` equals ``select_map_points`` on every centre,
    for the whole list and for its first 1, 32 and 33 centres."""
    grid = MapGrid(points, radius)
    centers = np.asarray(centers, dtype=float)
    for n in sorted({1, FORWARD_BLOCK, FORWARD_BLOCK + 1, len(centers)}):
        sets = grid.select(centers[:n])
        assert len(sets) == min(n, len(centers))
        for center, got in zip(centers, sets):
            want = select_map_points(points, center, radius)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


_GRID_RADII = (0.0, 1e-300, 0.5, 50.0, 1e308)


@pytest.mark.parametrize("world_spec", [
    WorldSpec(seed=1),
    WorldSpec(seed=1, num_roads=16, lanes_per_road=3),
], ids=["seed1", "16x3"])
@pytest.mark.parametrize("source", ["hd", "nav", "none"])
def test_map_grid_matches_select_map_points(world_spec, source):
    world = generate_world(world_spec)
    points = view_points(world, source)
    scenes = generate_scenes(world, 40, seed=6)
    inside = [s.agents[s.target][-1] for s in scenes]
    lo, hi = (np.array([[-500.0, -500.0], [500.0, 500.0]]) if source == "none"
              else (points.min(axis=0), points.max(axis=0)))
    outside = [lo - 20e3, hi + 20e3, [lo[0] - 20e3, hi[1]],
               [(lo[0] + hi[0]) / 2, hi[1] + 20e3]]
    for radius in _GRID_RADII:
        centers = inside + outside
        if source != "none" and radius <= 50.0:
            grid = MapGrid(points, radius)
            # Centres on cell edges, and one on a corner of four cells.
            edges = grid._origin + grid._cell * np.array(
                [[4, 0.3], [0.7, 6], [9, 9]])
            centers = centers + list(edges) + list(points[:3])
        _assert_grid_matches(points, centers, radius)


def test_map_grid_keeps_points_at_exactly_the_radius():
    world = generate_world(WorldSpec(seed=1))
    points = view_points(world, "hd")
    rng = np.random.default_rng(7)
    cases = [(center, 50.0) for center in _centres_50m_from(points, rng, 12)]
    # A radius set to the exact distance of a chosen point.
    for i in rng.choice(len(points), size=12, replace=False):
        center = points[i] + rng.uniform(-40.0, 40.0, size=2)
        cases.append((center,
                      float(np.linalg.norm(points - center, axis=1)[i])))
    for center, radius in cases:
        on_circle = points[np.linalg.norm(points - center, axis=1) == radius]
        assert len(on_circle)
        kept = {row.tobytes() for row in
                MapGrid(points, radius).select(center[None])[0]}
        assert all(row.tobytes() in kept for row in on_circle)
        _assert_grid_matches(points, [center], radius)


@pytest.mark.parametrize("axis", [0, 1])
def test_map_grid_box_covers_rounding_at_a_cell_edge(axis):
    # 25 - 2**-48 lies just below the cell edge at 25 m (cells are 25 m
    # at radius 50), and its offset from a centre at 75 rounds to exactly
    # -50: the point is kept, though its true distance exceeds 50 and the
    # box edge ``75 - 50`` falls in the next cell.
    near_edge = 25.0 - 2.0 ** -48
    points = np.array([[0.0, 0.0], [near_edge, 0.0], [60.0, 3.0]])
    center = np.array([75.0, 0.0])
    if axis:
        points, center = points[:, ::-1].copy(), center[::-1].copy()
    assert any(np.array_equal(row, points[1])
               for row in select_map_points(points, center, 50.0))
    _assert_grid_matches(points, [center], 50.0)


def test_map_grid_degenerate_views():
    same = np.tile(np.array([3.0, -2.0]), (7, 1))
    centers = [[3.0, -2.0], [3.0, -1.5], [3.5, -2.0], [3.0, 20e3],
               [-20e3, -20e3]]
    for radius in _GRID_RADII:
        _assert_grid_matches(same, centers, radius)
    # Duplicate points keep their view order.
    rng = np.random.default_rng(5)
    base = rng.uniform(-100.0, 100.0, size=(40, 2))
    dup = np.concatenate([base, base[::3], base[:5]])[rng.permutation(59)]
    centers = list(dup[:10]) + list(rng.uniform(-120.0, 120.0, (30, 2)))
    for radius in _GRID_RADII:
        _assert_grid_matches(dup, centers, radius)
    # Offsets whose squares underflow: the reference keeps them at radius 0.
    tiny = np.array([[-1e-170, 0.0], [1e-170, 0.0], [0.0, -1e-170],
                     [0.0, 1e-170], [1.0, 0.0], [0.0, 0.0]])
    for radius in (0.0, 1e-300, 1e-160):
        _assert_grid_matches(tiny, [[0.0, 0.0], [-1e-170, 1e-170]], radius)
    # Cells 2**-511 wide put a cell edge at 0, between the centre and a
    # point 1e-170 away that the reference keeps at radius 0.
    edge = np.array([[-2.0 ** -511, 0.0], [-1e-170, 0.0]])
    for points in (edge, edge[:, ::-1].copy()):
        assert len(select_map_points(points, np.zeros(2), 0.0)) == 1
        _assert_grid_matches(points, [[0.0, 0.0]], 0.0)
    # A view 2000 km wide at radius 0 keeps to the cell cap.
    wide = np.array([[-1e6, -1e6], [1e6, 1e6], [0.0, 0.0]])
    grid = MapGrid(wide, 0.0)
    assert np.prod(grid._shape) <= 3 * 2 ** 14 + 1
    _assert_grid_matches(wide, list(wide), 0.0)


@pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf, -np.inf])
def test_map_grid_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        MapGrid(np.zeros((3, 2)), radius)


@pytest.mark.parametrize("centers", [
    np.zeros(2), np.zeros((3, 3)), np.zeros((2, 2, 2)),
    np.array([[0.0, np.nan]]), np.array([[np.inf, 0.0]]),
], ids=["1d", "3-columns", "3d", "nan", "inf"])
@pytest.mark.parametrize("n_points", [0, 3])
def test_map_grid_rejects_bad_centres(centers, n_points):
    with pytest.raises(ValueError, match="centres"):
        MapGrid(np.zeros((n_points, 2)), 5.0).select(centers)


def test_map_grid_rejects_non_finite_points():
    with pytest.raises(ValueError, match="finite"):
        MapGrid(np.array([[0.0, 0.0], [np.nan, 1.0]]), 5.0)


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
