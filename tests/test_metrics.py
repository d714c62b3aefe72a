import math

import numpy as np
import pytest

from navpredict.metrics import (
    MISS_DISTANCE,
    evaluate_predictions,
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


def test_evaluate_predictions_aggregates():
    rng = np.random.default_rng(1)
    preds, futures = zip(*[_random_instance(rng) for _ in range(40)])
    report, rows = evaluate_predictions(list(preds), list(futures))
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


def test_evaluate_predictions_selects_modes_once(monkeypatch):
    from navpredict import metrics

    original = metrics._selected_modes
    calls = []

    def counting(pred, k):
        calls.append(k)
        return original(pred, k)

    monkeypatch.setattr(metrics, "_selected_modes", counting)
    rng = np.random.default_rng(3)
    preds, futures = zip(*[_random_instance(rng) for _ in range(5)])
    evaluate_predictions(list(preds), list(futures), ks=(1, 3, 6))
    assert sorted(calls) == [1] * 5 + [3] * 5 + [6] * 5


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


def test_evaluate_predictions_validates_lengths():
    rng = np.random.default_rng(2)
    pred, future = _random_instance(rng)
    with pytest.raises(ValueError):
        evaluate_predictions([pred], [])
    with pytest.raises(ValueError):
        evaluate_predictions([], [])


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


def test_report_table_layout():
    rng = np.random.default_rng(4)
    preds, futures = zip(*[_random_instance(rng) for _ in range(5)])
    report, _ = evaluate_predictions(list(preds), list(futures))
    text = format_report_table(report)
    lines = text.splitlines()
    assert lines[0].split() == ["k", "minADE", "minFDE", "MR"]
    assert lines[-1] == "scenes: 5"
    assert len(lines) == 4
