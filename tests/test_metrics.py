import math

import numpy as np
import pytest

from navpredict.metrics import (
    MISS_DISTANCE,
    _evaluate,
    aggregate,
    fde_histogram,
    format_report_table,
    min_ade,
    min_fde,
    miss_rate,
)
from navpredict.model import PredictionSet
from navpredict.scenario import FUTURE_LEN


def _random_instance(rng, k=6):
    pred = PredictionSet(
        trajectories=rng.normal(0.0, 5.0, size=(k, FUTURE_LEN, 2)),
        confidences=rng.dirichlet(np.ones(k)),
    )
    future = rng.normal(0.0, 5.0, size=(FUTURE_LEN, 2))
    return pred, future


def _split(preds, futures, ks=(1, 6)):
    """(report, per-scene rows, winners) of one pass over a stacked split."""
    return _evaluate(np.array([p.trajectories for p in preds]),
                     np.array([p.confidences for p in preds]),
                     np.array(futures), ks)


def _brute_fde(pred, future, k):
    """Independent evaluator: explicit loops, no shared code paths."""
    order = sorted(range(pred.confidences.size),
                   key=lambda i: (-pred.confidences[i], i))
    chosen = order[:k]
    best_idx, best = None, None
    for idx in sorted(chosen):
        dx = pred.trajectories[idx][-1][0] - future[-1][0]
        dy = pred.trajectories[idx][-1][1] - future[-1][1]
        dist = math.sqrt(dx * dx + dy * dy)
        if best is None or dist < best:
            best, best_idx = dist, idx
    return best, best_idx


def _brute_ade(pred, future, k):
    _, idx = _brute_fde(pred, future, k)
    total = 0.0
    for t in range(FUTURE_LEN):
        dx = pred.trajectories[idx][t][0] - future[t][0]
        dy = pred.trajectories[idx][t][1] - future[t][1]
        total += math.sqrt(dx * dx + dy * dy)
    return total / FUTURE_LEN


@pytest.mark.parametrize("k", [1, 3, 6])
def test_min_fde_and_ade_match_brute_force(k):
    rng = np.random.default_rng(0)
    for _ in range(300):
        pred, future = _random_instance(rng)
        fde, idx = min_fde(pred, future, k)
        bf_fde, bf_idx = _brute_fde(pred, future, k)
        assert idx == bf_idx
        assert fde == pytest.approx(bf_fde, rel=1e-12)
        assert min_ade(pred, future, k) == pytest.approx(
            _brute_ade(pred, future, k), rel=1e-12)


def test_min_fde_three_four_five():
    traj = np.zeros((1, FUTURE_LEN, 2))
    traj[0, -1] = [3.0, 4.0]
    pred = PredictionSet(traj, np.array([1.0]))
    fde, idx = min_fde(pred, np.zeros((FUTURE_LEN, 2)), 1)
    assert fde == 5.0
    assert idx == 0


def test_min_fde_exact_endpoint_zero():
    rng = np.random.default_rng(6)
    pred, future = _random_instance(rng)
    pred.trajectories[3, -1] = future[-1]
    fde, idx = min_fde(pred, future, 6)
    assert fde == 0.0
    assert idx == 3


def test_min_ade_constant_offset_is_one():
    traj = np.zeros((1, FUTURE_LEN, 2))
    traj[0, :, 0] = 1.0
    pred = PredictionSet(traj, np.array([1.0]))
    assert min_ade(pred, np.zeros((FUTURE_LEN, 2)), 1) == pytest.approx(1.0)


def test_metrics_invariant_under_joint_translation():
    rng = np.random.default_rng(7)
    pred, future = _random_instance(rng)
    shift = np.array([250.0, -80.0])
    shifted = PredictionSet(pred.trajectories + shift, pred.confidences)
    for k in (1, 6):
        assert min_fde(shifted, future + shift, k)[0] == pytest.approx(
            min_fde(pred, future, k)[0], rel=1e-12)
        assert min_ade(shifted, future + shift, k) == pytest.approx(
            min_ade(pred, future, k), rel=1e-12)


def test_k1_uses_highest_confidence_mode():
    traj = np.zeros((3, FUTURE_LEN, 2))
    traj[0] += 100.0           # worst endpoint but highest confidence
    traj[2] += 0.5             # best endpoint, lowest confidence
    pred = PredictionSet(traj, np.array([0.6, 0.3, 0.1]))
    fde, idx = min_fde(pred, np.zeros((FUTURE_LEN, 2)), 1)
    assert idx == 0
    assert fde == pytest.approx(100.0 * math.sqrt(2.0))


def test_k1_confidence_tie_breaks_to_lowest_index():
    traj = np.zeros((2, FUTURE_LEN, 2))
    traj[1] += 1.0
    pred = PredictionSet(traj, np.array([0.5, 0.5]))
    _, idx = min_fde(pred, np.full((FUTURE_LEN, 2), 1.0), 1)
    assert idx == 0


def test_min_ade_follows_the_fde_winner_not_the_ade_minimizer():
    # Mode 0 has the better endpoint but a worse average error; minADE
    # must still report mode 0 because selection is by final error.
    future = np.zeros((FUTURE_LEN, 2))
    traj = np.zeros((2, FUTURE_LEN, 2))
    traj[0, :-1, 0] = 50.0     # wild path, perfect endpoint
    traj[0, -1, 0] = 0.0
    traj[1, :, 0] = 1.0        # steady 1 m offset everywhere
    pred = PredictionSet(traj, np.array([0.5, 0.5]))
    fde, idx = min_fde(pred, future, 2)
    assert idx == 0 and fde == 0.0
    assert min_ade(pred, future, 2) == pytest.approx(
        50.0 * (FUTURE_LEN - 1) / FUTURE_LEN)


def test_k_larger_than_modes_rejected():
    pred = PredictionSet(np.zeros((2, FUTURE_LEN, 2)),
                         np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        min_fde(pred, np.zeros((FUTURE_LEN, 2)), 3)


def test_miss_rate_boundary():
    assert MISS_DISTANCE == 2.0
    # exactly 2.0 m is a hit; anything strictly beyond is a miss
    assert miss_rate([2.0, 2.0]) == 0.0
    assert miss_rate([2.0 + 1e-12, 1.0]) == 0.5
    assert miss_rate([5.0, 3.0, 0.0, 2.0]) == 0.5
    with pytest.raises(ValueError):
        miss_rate([])


def test_split_pass_aggregates():
    rng = np.random.default_rng(1)
    preds, futures = zip(*[_random_instance(rng) for _ in range(40)])
    report, rows, _ = _split(preds, futures)
    assert report.scene_count == 40
    assert set(report.values) == {1, 6}
    for k in (1, 6):
        fdes = [min_fde(p, f, k)[0] for p, f in zip(preds, futures)]
        assert report.values[k]["minFDE"] == pytest.approx(np.mean(fdes))
        assert report.values[k]["MR"] == pytest.approx(miss_rate(fdes))
    assert len(rows) == 40
    assert rows[0]["scene"] == 0
    # more modes can only help
    assert report.values[6]["minFDE"] <= report.values[1]["minFDE"]


# The per-scene loop that the split pass replaced, kept as its reference.
def _reference_selected_modes(pred, k):
    order = np.argsort(-pred.confidences, kind="stable")
    return sorted(int(i) for i in order[:k])


def _reference_min_fde(pred, future, k):
    modes = _reference_selected_modes(pred, k)
    best_idx, best = modes[0], math.inf
    for idx in modes:
        dist = float(np.linalg.norm(pred.trajectories[idx][-1] - future[-1]))
        if dist < best:
            best, best_idx = dist, idx
    return best, best_idx


def _reference_ade(pred, future, idx):
    return float(np.linalg.norm(pred.trajectories[idx] - future,
                                axis=1).mean())


def test_split_pass_matches_per_scene_reference():
    # Tolerance: the reference's endpoint norm is a BLAS dot product, whose
    # last bit may differ from sqrt(dx*dx + dy*dy); minADE's arithmetic
    # is unchanged and must match bit for bit.
    rng = np.random.default_rng(11)
    preds, futures = zip(*[_random_instance(rng) for _ in range(2000)])
    ks = (1, 3, 6)
    report, rows, winners = _split(preds, futures, ks)
    assert list(rows[0]) == ["scene", "minADE@1", "minFDE@1", "minADE@3",
                             "minFDE@3", "minADE@6", "minFDE@6"]
    for j, k in enumerate(ks):
        ref_ades = []
        for i, (pred, future) in enumerate(zip(preds, futures)):
            ref_fde, ref_idx = _reference_min_fde(pred, future, k)
            ref_ades.append(_reference_ade(pred, future, ref_idx))
            win = int(winners[j, i])
            fde = rows[i][f"minFDE@{k}"]
            assert abs(fde - ref_fde) <= 2 * np.spacing(ref_fde)
            assert rows[i][f"minADE@{k}"] == _reference_ade(pred, future, win)
            if win != ref_idx:
                assert win in _reference_selected_modes(pred, k)
                other = np.linalg.norm(pred.trajectories[win][-1]
                                       - future[-1])
                assert abs(other - ref_fde) <= 2 * np.spacing(ref_fde)
        assert report.values[k]["minADE"] == float(np.mean(ref_ades))


def test_split_min_fde_is_exact_sqrt_of_brute_force_winner():
    rng = np.random.default_rng(12)
    preds, futures = zip(*[_random_instance(rng) for _ in range(2000)])
    _, rows, _ = _split(preds, futures, (1, 3, 6))
    for k in (1, 3, 6):
        expect = [_brute_fde(p, f, k)[0] for p, f in zip(preds, futures)]
        assert [r[f"minFDE@{k}"] for r in rows] == expect


def test_split_pass_confidence_and_distance_ties():
    # Endpoints of modes 0-2 lie exactly 5 m from the true endpoint, mode
    # 3's on it; mode 0 strays 1 m on each axis before its endpoint.
    traj = np.zeros((4, FUTURE_LEN, 2))
    traj[:3, -1] = [[4.0, 3.0], [3.0, 4.0], [-3.0, -4.0]]
    traj[0, :-1] = 1.0
    future = np.zeros((FUTURE_LEN, 2))
    # Confidence ties: modes 1 and 2 rank first, then 0 and 3, so k=1
    # selects {1}, k=2 {1, 2} and k=3 {0, 1, 2}.
    tied = PredictionSet(traj, np.array([0.2, 0.3, 0.3, 0.2]))
    # Here 0 and 3 rank first: k=1 selects {0}, k=2 {0, 3}.
    other = PredictionSet(traj, np.array([0.3, 0.2, 0.2, 0.3]))
    _, rows, winners = _split([tied, other], [future, future], (1, 2, 3, 4))
    assert winners.tolist() == [[1, 0], [1, 3], [0, 3], [3, 3]]
    straying = _reference_ade(tied, future, 0)
    expect = {1: [(5.0, 5.0 / FUTURE_LEN), (5.0, straying)],
              2: [(5.0, 5.0 / FUTURE_LEN), (0.0, 0.0)],
              3: [(5.0, straying), (0.0, 0.0)],
              4: [(0.0, 0.0), (0.0, 0.0)]}
    for k, scenes in expect.items():
        assert [(r[f"minFDE@{k}"], r[f"minADE@{k}"]) for r in rows] == scenes


def test_k_below_one_rejected():
    pred = PredictionSet(np.zeros((2, FUTURE_LEN, 2)),
                         np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        min_fde(pred, np.zeros((FUTURE_LEN, 2)), 0)


def test_aggregate_reads_per_k_columns():
    report = aggregate([[1.0, 3.0, 2.0], [0.5, 0.5, 0.5]],
                       [[2.0, 4.0, 3.0], [1.0, 1.0, 2.5]], ks=(1, 6))
    assert report.scene_count == 3
    assert report.values[1] == {"minADE": 2.0, "minFDE": 3.0, "MR": 2 / 3}
    assert report.values[6] == {"minADE": 0.5, "minFDE": 1.5, "MR": 1 / 3}
    with pytest.raises(ValueError):
        aggregate([[]], [[]], ks=(6,))


def test_evaluate_model_stationary_scene_all_zero():
    from navpredict.model import ModelConfig, init_params, zeros_like_params
    from navpredict.metrics import evaluate_model
    from navpredict.scenario import OBSERVED_LEN, Scene

    cfg = ModelConfig(d=4, k=2, hidden=3, map_source="none")
    # zero parameters decode to "hold the last observed position"
    params = zeros_like_params(init_params(cfg, np.random.default_rng(0)))
    track = np.tile(np.array([3.0, -1.0]), (OBSERVED_LEN, 1))
    future = np.tile(np.array([3.0, -1.0]), (FUTURE_LEN, 1))
    scene = Scene(scene_id=0, agents=[track], target=0, future=future)
    report, _ = evaluate_model(params, cfg, [scene], np.zeros((0, 2)),
                               ks=(1, 2))
    for k in (1, 2):
        for value in report.values[k].values():
            assert value == 0.0


def test_evaluate_model_matches_per_scene_forward_loop():
    # 33 scenes: one whole block of FORWARD_BLOCK and one of a scene.
    from navpredict.metrics import evaluate_model
    from navpredict.model import (FORWARD_BLOCK, ModelConfig, forward,
                                  init_params, select_map_points)
    from navpredict.scenario import (WorldSpec, generate_scenes,
                                     generate_world, view_points)

    world = generate_world(WorldSpec(seed=2))
    scenes = generate_scenes(world, FORWARD_BLOCK + 1, seed=4)
    cfg = ModelConfig(d=8, k=6, hidden=8, map_source="hd")
    params = init_params(cfg, np.random.default_rng(0))
    points = view_points(world, "hd")
    preds = []
    for scene in scenes:
        observed = scene.agents[scene.target]
        pts = select_map_points(points, observed[-1], cfg.map_radius)
        preds.append(forward(observed, pts, params)[0])
    expected = _split(preds, [scene.future for scene in scenes])
    report, rows = evaluate_model(params, cfg, scenes, points)
    assert report == expected[0]
    assert rows == expected[1]


@pytest.mark.parametrize("source", ["hd", "nav", "none"])
def test_evaluate_model_matches_forward_loop_on_the_16x3_world(source):
    # The large world's map sets come from a MapGrid; 70 scenes make two
    # whole blocks and a short one.
    from navpredict.metrics import evaluate_model
    from navpredict.model import (ModelConfig, forward, init_params,
                                  select_map_points)
    from navpredict.scenario import (WorldSpec, generate_scenes,
                                     generate_world, view_points)

    world = generate_world(WorldSpec(seed=1, num_roads=16, lanes_per_road=3))
    scenes = generate_scenes(world, 70, seed=8)
    cfg = ModelConfig(d=16, k=6, hidden=16, map_source=source)
    params = init_params(cfg, np.random.default_rng(3))
    points = view_points(world, source)
    preds = []
    for scene in scenes:
        observed = scene.agents[scene.target]
        pts = select_map_points(points, observed[-1], cfg.map_radius)
        preds.append(forward(observed, pts, params)[0])
    expected = _split(preds, [scene.future for scene in scenes])
    report, rows = evaluate_model(params, cfg, scenes, points)
    assert report == expected[0]
    assert rows == expected[1]


def test_evaluate_model_rows_carry_scene_ids():
    # Every third scene, in reverse: ids that are neither contiguous nor
    # positions. The rows keep each scene's id and, apart from it, equal
    # the rows of the same scenes numbered by position.
    from dataclasses import replace

    from navpredict.metrics import evaluate_model
    from navpredict.model import ModelConfig, init_params
    from navpredict.scenario import (WorldSpec, generate_scenes,
                                     generate_world, view_points)

    world = generate_world(WorldSpec(seed=2))
    split = generate_scenes(world, 60, seed=4)[::-3]
    ids = [scene.scene_id for scene in split]
    assert ids != list(range(len(ids)))
    cfg = ModelConfig(d=8, k=6, hidden=8, map_source="nav")
    params = init_params(cfg, np.random.default_rng(0))
    points = view_points(world, "nav")
    report, rows = evaluate_model(params, cfg, split, points)
    assert [row["scene"] for row in rows] == ids
    renumbered = [replace(scene, scene_id=i) for i, scene in enumerate(split)]
    report_by_position, rows_by_position = evaluate_model(
        params, cfg, renumbered, points)
    assert report == report_by_position
    assert [{**row, "scene": i} for i, row in enumerate(rows)] == \
        rows_by_position


def test_evaluate_model_rejects_empty_split():
    from navpredict.metrics import evaluate_model
    from navpredict.model import ModelConfig, init_params

    cfg = ModelConfig(d=4, k=2, hidden=3, map_source="none")
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty split"):
        evaluate_model(params, cfg, [], np.zeros((0, 2)))


def test_split_pass_rejects_empty_split():
    with pytest.raises(ValueError):
        _split([], [])


def test_histogram_restricted_to_misses():
    values = [0.5, 1.9, 2.0, 2.5, 3.5, 7.2]   # three retained
    hist = fde_histogram(values)
    assert not hist.empty
    assert hist.bin_edges[0] == MISS_DISTANCE
    assert sum(hist.counts) == pytest.approx(1.0)
    assert hist.bin_edges[-1] >= 7.2
    # bin occupancy: 2.5 -> [2,3), 3.5 -> [3,4), 7.2 -> [7,8)
    assert hist.counts[0] == pytest.approx(1.0 / 3.0)
    assert hist.counts[1] == pytest.approx(1.0 / 3.0)
    assert hist.counts[-1] == pytest.approx(1.0 / 3.0)


def test_histogram_two_bin_example():
    hist = fde_histogram([3.0, 3.0, 5.0], bin_width=2.0)
    assert hist.bin_edges == [2.0, 4.0, 6.0]
    assert hist.counts == pytest.approx([2.0 / 3.0, 1.0 / 3.0])


def test_kde_single_value_peaks_there():
    hist = fde_histogram([4.2])
    peak = hist.kde_grid[int(np.argmax(hist.kde_density))]
    assert peak == pytest.approx(4.2, abs=0.05)


def test_histogram_empty_when_all_hits():
    hist = fde_histogram([0.1, 1.0, 2.0])
    assert hist.empty
    assert hist.counts == []


def test_kde_matches_direct_gaussian_sum():
    values = [2.5, 3.0, 4.5, 6.0, 2.75]
    bw = 0.7
    hist = fde_histogram(values, kde_bandwidth=bw)
    retained = [v for v in values if v > MISS_DISTANCE]
    for x, dens in zip(hist.kde_grid[::25], hist.kde_density[::25]):
        expect = sum(
            math.exp(-0.5 * ((x - v) / bw) ** 2)
            for v in retained
        ) / (len(retained) * bw * math.sqrt(2.0 * math.pi))
        assert dens == pytest.approx(expect, rel=1e-12)


def test_kde_integrates_to_about_one():
    rng = np.random.default_rng(3)
    values = rng.uniform(2.1, 10.0, size=200)
    hist = fde_histogram(values)
    dx = hist.kde_grid[1] - hist.kde_grid[0]
    assert sum(hist.kde_density) * dx == pytest.approx(1.0, abs=1e-3)


def test_histogram_rejects_bad_bin_width():
    with pytest.raises(ValueError):
        fde_histogram([3.0], bin_width=0.0)


@pytest.mark.parametrize("name, value", [
    ("bin_width", -1.0), ("bin_width", math.inf), ("bin_width", math.nan),
    ("kde_bandwidth", 0.0), ("kde_bandwidth", -1.0),
    ("kde_bandwidth", math.inf), ("kde_bandwidth", math.nan),
    ("kde_points", 0), ("kde_points", -3),
])
def test_histogram_rejects_parameters_it_cannot_use(name, value):
    # Before, a zero or NaN bandwidth gave NaN densities, a negative one
    # negative densities, and an infinite bin width counts summing to 0.
    # An empty retained set is rejected too: the check comes first.
    for values in ([3.0, 4.5], [1.0]):
        with pytest.raises(ValueError, match=name):
            fde_histogram(values, **{name: value})


def test_report_table_layout():
    rng = np.random.default_rng(4)
    preds, futures = zip(*[_random_instance(rng) for _ in range(5)])
    report, _, _ = _split(preds, futures)
    text = format_report_table(report)
    lines = text.splitlines()
    assert lines[0].split() == ["k", "minADE", "minFDE", "MR"]
    assert lines[-1] == "scenes: 5"
    assert len(lines) == 4
