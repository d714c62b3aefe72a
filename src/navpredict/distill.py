"""Teacher-student knowledge distillation and the training loop.

The teacher is an HD-view model trained first and then frozen. Student
training passes every scene through the teacher once, before the first
epoch: the teacher's embedding (a constant, no gradient flows into it)
guides the first ``d_t`` coordinates of the student's embedding via a
mean squared error term, weighted into the total loss. Any remaining
student coordinates stay unguided and free to encode nav-map-specific
information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as m
from .scenario import MapPair, Scene, view_points

__all__ = [
    "DistillConfig",
    "TrainConfig",
    "TrainResult",
    "prepare_map_inputs",
    "train",
    "train_teacher",
    "train_student",
]


def student_width(d_t: int, variant: str) -> int:
    """Student embedding width for a distillation variant."""
    if variant == "matched":
        return d_t
    if variant == "shared":
        return round(1.5 * d_t)
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class DistillConfig:
    alpha: float = 1.0
    beta: float = 1.0
    variant: str = "shared"          # matched | shared

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be non-negative")
        if self.variant not in ("matched", "shared"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 8
    lr: float = 0.002
    momentum: float = 0.9
    lr_decay: float = 0.7            # per-epoch multiplicative decay
    # A step whose global gradient norm exceeds grad_clip is rescaled to
    # that norm. On criterion 7's set-up the median norm is 32-37, so
    # this fires on 94-97% of steps: it normalises the step length rather
    # than capping rare large gradients. ``train`` defines the norm.
    grad_clip: float = 5.0           # 0 turns clipping off
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        for name, value, ok in (
            ("lr", self.lr, self.lr > 0.0),
            ("momentum", self.momentum, 0.0 <= self.momentum < 1.0),
            ("lr_decay", self.lr_decay, 0.0 < self.lr_decay <= 1.0),
            ("grad_clip", self.grad_clip, self.grad_clip >= 0.0),
        ):
            if not (math.isfinite(value) and ok):
                raise ValueError(f"{name} {value} is out of range")


@dataclass
class TrainResult:
    params: m.ModelParams
    config: m.ModelConfig
    loss_curve: list[float]          # smoothed loss after each epoch

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1]


def prepare_map_inputs(scenes: list[Scene], map_points: np.ndarray,
                       radius: float) -> list[np.ndarray]:
    """Per-scene map point subsets around the target's last observation.

    Each equals ``model.select_map_points`` on the scene's centre; a
    ``model.MapGrid`` built once for the call selects them all.
    """
    centers = np.array([scene.agents[scene.target][-1] for scene in scenes])
    return m.MapGrid(map_points, radius).select(
        centers.reshape(len(scenes), 2))


def _grad_norm(ranges) -> float:
    """Global norm of a step's gradient, from the ``(gradient, velocity)``
    views of the ranges it wrote: one ``np.dot`` per range, added in
    layout order."""
    return math.sqrt(sum([float(np.dot(g, g)) for g, _v in ranges]))


def train(scenes: list[Scene], map_points: np.ndarray,
          config: m.ModelConfig, tcfg: TrainConfig,
          targets: tuple[np.ndarray, DistillConfig] | None = None
          ) -> TrainResult:
    """SGD with momentum over per-scene winner-takes-all losses.

    Before the first epoch, each scene's ``model.AgentFrame`` (its
    observed track, map set and future in the target's heading frame) is
    built once. ``targets`` are one fixed embedding per scene, ``(n,
    d_t)``, and the ``DistillConfig`` of the distillation term toward
    them; without them the loss is the plain model loss. Each step
    writes its gradients and activations into one ``model.Workspace``,
    sized for the largest per-scene map set and reused for the whole run,
    and updates ``params.flat`` in place.

    Under the workspace's sparse-step contract a step's gradient is +0.0
    outside ``workspace.ranges[workspace.winner]``. The clip norm and the
    step's scale and subtraction therefore touch only those four ranges;
    on the rest the dense update would compute ``0 * c == +0.0`` and ``v
    - (+0.0) == v``, so the bits are the same. The momentum decay and the
    parameter update stay dense.

    The global gradient norm is ``sqrt`` of the sum of one ``np.dot(g,
    g)`` per range, added in layout order: within 4 ulp of the per-field
    pairwise sums over the whole buffer. One dot per range keeps the bits
    independent of the BLAS thread count: OpenBLAS splits a dot of more
    than 10,000 entries across threads, and the largest range is 7,040
    entries at d=64 and 9,312 for the d=96 student. The loop is
    single-threaded and bit-reproducible for a fixed seed.
    """
    if not scenes:
        raise ValueError("empty training set")
    xi_targets, dcfg = targets or ([None] * len(scenes),
                                   DistillConfig(beta=0.0))
    if len(xi_targets) != len(scenes):
        raise ValueError(f"{len(xi_targets)} target embeddings for "
                         f"{len(scenes)} scenes")
    rng = np.random.default_rng(tcfg.seed)
    params = m.init_params(config, rng)
    velocity = m.zeros_like_params(params).flat

    frames = [m.AgentFrame(scene.agents[scene.target], points, scene.future)
              for scene, points in zip(scenes, prepare_map_inputs(
                  scenes, map_points, config.map_radius))]
    workspace = m.Workspace(
        params, max(len(frame.map_rows) for frame in frames))
    weights, step = params.flat, workspace.grads.flat
    # Per winning mode, the (gradient, velocity) views of each range that
    # a step with that winner writes.
    live = [[(step[a:b], velocity[a:b]) for a, b in ranges]
            for ranges in workspace.ranges]

    smoothed = None
    curve = []
    lr = tcfg.lr
    order = np.arange(len(scenes))
    # A diverging run overflows on its way to a non-finite value; ignoring
    # the warnings makes it a NumericError under any warnings filter. The
    # last update can overflow after the last check, so one follows.
    with np.errstate(all="ignore"):
        for _epoch in range(tcfg.epochs):
            rng.shuffle(order)
            for idx in order:
                loss, _grads, _xi = m.loss_and_grads(
                    frames[idx], params, alpha=dcfg.alpha,
                    teacher_embedding=xi_targets[idx], beta=dcfg.beta,
                    workspace=workspace,
                )
                ranges = live[workspace.winner]
                gnorm = _grad_norm(ranges)
                if not math.isfinite(gnorm):
                    raise m.NumericError("non-finite gradient norm")
                scale = 1.0
                if tcfg.grad_clip > 0.0 and gnorm > tcfg.grad_clip:
                    scale = tcfg.grad_clip / gnorm
                velocity *= tcfg.momentum
                factor = lr * scale
                for g, v in ranges:
                    g *= factor
                    v -= g
                weights += velocity
                smoothed = loss if smoothed is None else \
                    0.99 * smoothed + 0.01 * loss
                if not np.isfinite(smoothed):
                    raise m.NumericError("training loss diverged")
            curve.append(float(smoothed))
            lr *= tcfg.lr_decay
    if not np.isfinite(weights).all():
        raise m.NumericError("training diverged: non-finite parameters")
    return TrainResult(params=params, config=config, loss_curve=curve)


def train_teacher(scenes: list[Scene], world: MapPair,
                  config: m.ModelConfig, tcfg: TrainConfig) -> TrainResult:
    """Train the HD-view teacher to its epoch budget."""
    if config.map_source != "hd":
        raise ValueError("teacher must use the hd map source")
    return train(scenes, view_points(world, "hd"), config, tcfg)


def train_student(scenes: list[Scene], world: MapPair,
                  teacher: tuple[m.ModelParams, m.ModelConfig],
                  dcfg: DistillConfig, tcfg: TrainConfig,
                  map_radius: float | None = None) -> TrainResult:
    """Train a nav-view student distilled from the embeddings that a frozen
    HD-view teacher gives each scene through ``model.forward_split``. The
    student's config is the teacher's with the variant's width, the nav
    source and, when given, ``map_radius``."""
    t_params, t_config = teacher
    if t_config.map_source != "hd":
        raise ValueError("teacher must use the hd map source")
    xi_teacher = m.forward_split(t_params, t_config, scenes,
                                 view_points(world, "hd"))[2]
    config = replace(
        t_config, d=student_width(t_config.d, dcfg.variant), map_source="nav",
        map_radius=t_config.map_radius if map_radius is None else map_radius)
    return train(scenes, view_points(world, "nav"), config, tcfg,
                 targets=(xi_teacher, dcfg))
