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
from dataclasses import dataclass

import numpy as np

from . import model as m
from .model import distill_loss
from .scenario import MapPair, Scene, view_points

__all__ = [
    "DistillConfig",
    "TrainConfig",
    "TrainResult",
    "distill_loss",
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
    # than capping rare large gradients.
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
    final_loss: float


def prepare_map_inputs(scenes: list[Scene], map_points: np.ndarray,
                       radius: float) -> list[np.ndarray]:
    """Per-scene map point subsets around the target's last observation."""
    out = []
    for scene in scenes:
        center = scene.agents[scene.target][-1]
        out.append(m.select_map_points(map_points, center, radius))
    return out


def train(scenes: list[Scene], map_points: np.ndarray,
          config: m.ModelConfig, tcfg: TrainConfig,
          teacher: tuple[m.ModelParams, m.ModelConfig] | None = None,
          teacher_map_points: np.ndarray | None = None,
          dcfg: DistillConfig | None = None) -> TrainResult:
    """SGD with momentum over per-scene winner-takes-all losses.

    With a teacher, the frozen teacher runs forward once per scene on its
    own (HD) map view before the first epoch; its embeddings are the fixed
    targets of the weighted distillation term. Each step writes its
    gradients and activations into one ``model.Workspace``, sized for the
    largest per-scene map set and reused for the whole run, and updates
    ``params.flat`` in place. The loop is single-threaded and
    bit-reproducible for a fixed seed.
    """
    if not scenes:
        raise ValueError("empty training set")
    rng = np.random.default_rng(tcfg.seed)
    params = m.init_params(config, rng)
    velocity = m.zeros_like_params(params).flat
    squares = m.zeros_like_params(params)
    square_fields = [getattr(squares, name) for name in m.PARAM_FIELDS]

    scene_maps = prepare_map_inputs(scenes, map_points, config.map_radius)
    workspace = m.Workspace(params, max(len(pts) for pts in scene_maps))
    weights, step = params.flat, workspace.grads.flat
    xi_teachers = [None] * len(scenes)
    if teacher is not None:
        t_params, t_config = teacher
        if dcfg is None:
            raise ValueError("teacher given without a distillation config")
        if t_config.map_source != "hd":
            raise ValueError("teacher must use the hd map source")
        if config.d != student_width(t_config.d, dcfg.variant):
            raise ValueError(
                f"student width {config.d} does not match variant "
                f"{dcfg.variant!r} for teacher width {t_config.d}"
            )
        if teacher_map_points is None:
            raise ValueError("teacher given without its map view")
        teacher_maps = prepare_map_inputs(scenes, teacher_map_points,
                                          t_config.map_radius)
        xi_teachers = [
            m.forward(scene.agents[scene.target], t_map, t_params)[1]
            for scene, t_map in zip(scenes, teacher_maps)
        ]

    alpha = dcfg.alpha if dcfg is not None else 1.0
    beta = dcfg.beta if dcfg is not None else 0.0

    smoothed = None
    curve = []
    lr = tcfg.lr
    order = np.arange(len(scenes))
    for _epoch in range(tcfg.epochs):
        rng.shuffle(order)
        for idx in order:
            scene = scenes[idx]
            loss, _grads, _xi = m.loss_and_grads(
                scene.agents[scene.target], scene_maps[idx], scene.future,
                params, alpha=alpha, teacher_embedding=xi_teachers[idx],
                beta=beta, workspace=workspace,
            )
            # Clipping fires on nearly every step, so the norm's last bit
            # reaches every update: sum each field on its own and add the
            # sums in field order, not one dot product over the buffer.
            np.multiply(step, step, out=squares.flat)
            gnorm = math.sqrt(sum([float(sq.sum()) for sq in square_fields]))
            if not math.isfinite(gnorm):
                raise m.NumericError("non-finite gradient norm")
            scale = 1.0
            if tcfg.grad_clip > 0.0 and gnorm > tcfg.grad_clip:
                scale = tcfg.grad_clip / gnorm
            velocity *= tcfg.momentum
            step *= lr * scale
            velocity -= step
            weights += velocity
            smoothed = loss if smoothed is None else \
                0.99 * smoothed + 0.01 * loss
            if not np.isfinite(smoothed):
                raise m.NumericError("training loss diverged")
        curve.append(float(smoothed))
        lr *= tcfg.lr_decay
    return TrainResult(params=params, config=config, loss_curve=curve,
                       final_loss=float(smoothed))


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
    """Train a nav-view student guided by a frozen teacher."""
    t_params, t_config = teacher
    config = m.ModelConfig(
        d=student_width(t_config.d, dcfg.variant),
        k=t_config.k,
        hidden=t_config.hidden,
        map_radius=map_radius if map_radius is not None
        else t_config.map_radius,
        map_source="nav",
    )
    return train(scenes, view_points(world, "nav"), config, tcfg,
                 teacher=teacher,
                 teacher_map_points=view_points(world, "hd"),
                 dcfg=dcfg)
