"""Map-aware multi-modal trajectory predictor with analytic gradients.

Architecture, kept deliberately small and fully transparent:

* agent frame: each scene is rotated about the target's last observed
  position so that its heading (the displacement over the last
  ``HEADING_LAG`` observed steps) points along +x. The observed track,
  the map points and, in training, the future are expressed in this
  frame, so a lane to the agent's left looks the same on every road and
  the modes learn maneuvers rather than compass directions. A target
  that moved less than ``HEADING_MIN_DISPLACEMENT`` meters keeps the
  world axes. The frame depends only on the observations, so parameter
  gradients are unaffected by it; ``forward`` rotates the trajectories
  back to world coordinates;
* agent encoder: the 19 frame-to-frame displacement vectors of the
  observed track (translation invariant), flattened and passed through
  two affine layers with a ReLU in between;
* map encoder: each map point, expressed relative to the last observed
  position, is lifted by affine+ReLU layers to a key and a value vector;
* fusion: single-query scaled dot-product attention of the agent vector
  over the map keys, added residually -- this produces the latent
  embedding that distillation attaches to;
* decoder: one affine head per mode emitting 30 cumulative displacement
  steps, plus an affine head for confidence logits.

Training uses a winner-takes-all loss: squared error of the best mode
plus cross-entropy on its confidence. All gradients are computed by
hand and validated against central finite differences in the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .scenario import FUTURE_LEN, OBSERVED_LEN, _json_int

__all__ = [
    "ModelConfig",
    "ModelParams",
    "PARAM_FIELDS",
    "PredictionSet",
    "NumericError",
    "Workspace",
    "init_params",
    "encode_agent",
    "encode_map",
    "fuse",
    "decode",
    "forward",
    "model_loss",
    "distill_loss",
    "loss_and_grads",
    "select_map_points",
    "zeros_like_params",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
    "HEADING_LAG",
    "HEADING_MIN_DISPLACEMENT",
]

# Version 2: the model works in the target's heading frame. Version 1
# checkpoints have the same layout but were trained in the world frame.
CHECKPOINT_VERSION = 2

# The heading is the displacement over the last HEADING_LAG observed
# steps (0.5 s); below HEADING_MIN_DISPLACEMENT meters (0.2 m/s) the
# target counts as stationary and its frame keeps the world axes.
HEADING_LAG = 5
HEADING_MIN_DISPLACEMENT = 0.1

_N_DELTA_FEATURES = 2 * (OBSERVED_LEN - 1)

# Half-width below which the strip of ``select_map_points`` is not
# narrowed: the square of 2**-511 is the smallest normal float64.
_STRIP_MIN_HALF_WIDTH = 2.0 ** -511


class NumericError(ArithmeticError):
    """A forward or backward pass produced a non-finite value."""


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    k: int = 6
    hidden: int = 64
    map_radius: float = 50.0
    map_source: str = "nav"          # hd | nav | none

    def __post_init__(self):
        if self.d < 1 or self.k < 1 or self.hidden < 1:
            raise ValueError("d, k and hidden must be positive")
        if self.map_source not in ("hd", "nav", "none"):
            raise ValueError(f"unknown map source {self.map_source!r}")
        if not (math.isfinite(self.map_radius) and self.map_radius >= 0.0):
            raise ValueError(f"map radius must be finite and non-negative, "
                             f"got {self.map_radius}")


# Field order doubles as the checkpoint payload order.
PARAM_FIELDS = ("w1", "b1", "w2", "b2", "wk", "bk", "wv", "bv",
                "wdec", "bdec", "wconf", "bconf")


class ModelParams:
    """Model parameters as named views into one contiguous buffer.

    ``flat`` is a 1-D float64 array holding every parameter in
    ``PARAM_FIELDS`` order; each field (``w1``, ``b1``, ...) is a view of
    its slice, so writing into either writes into both. ``shapes`` lists
    the field shapes in the same order. The fields cannot be rebound,
    which would break that link; write into them in place instead.
    """

    __slots__ = ("flat", "shapes") + PARAM_FIELDS

    def __init__(self, flat: np.ndarray, shapes):
        shapes = tuple(tuple(int(n) for n in shape) for shape in shapes)
        if len(shapes) != len(PARAM_FIELDS):
            raise ValueError(f"expected {len(PARAM_FIELDS)} parameter "
                             f"shapes, got {len(shapes)}")
        if (not isinstance(flat, np.ndarray) or flat.dtype != np.float64
                or flat.ndim != 1 or not flat.flags.c_contiguous):
            raise ValueError("parameter vector must be a contiguous 1-D "
                             "float64 array")
        sizes = [math.prod(shape) for shape in shapes]
        if flat.size != sum(sizes):
            raise ValueError(f"parameter vector has {flat.size} entries, "
                             f"expected {sum(sizes)}")
        set_field = object.__setattr__
        set_field(self, "flat", flat)
        set_field(self, "shapes", shapes)
        offset = 0
        for name, shape, size in zip(PARAM_FIELDS, shapes, sizes):
            set_field(self, name, flat[offset:offset + size].reshape(shape))
            offset += size

    def __setattr__(self, name, value):
        # An in-place operator (``params.w1 += x``) assigns the same array.
        if getattr(self, name, None) is not value:
            raise AttributeError(f"cannot rebind ModelParams.{name}; its "
                                 f"fields are views of 'flat'")


@dataclass
class PredictionSet:
    trajectories: np.ndarray             # (k, FUTURE_LEN, 2)
    confidences: np.ndarray              # (k,), on the simplex


def _shapes(config: ModelConfig) -> tuple[tuple[int, ...], ...]:
    """Parameter shapes in ``PARAM_FIELDS`` order."""
    d, h, k = config.d, config.hidden, config.k
    out = 2 * FUTURE_LEN
    return ((h, _N_DELTA_FEATURES), (h,),    # w1, b1
            (d, h), (d,),                    # w2, b2
            (d, 2), (d,),                    # wk, bk
            (d, 2), (d,),                    # wv, bv
            (k, out, d), (k, out),           # wdec, bdec
            (k, d), (k,))                    # wconf, bconf


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero.

    Map encoder weights start an extra factor smaller: their inputs are
    point offsets in meters (up to the map radius), so unit-scale init
    would saturate the attention softmax from the first step.
    """
    map_scale = 1.0 / max(config.map_radius, 1.0)
    shapes = _shapes(config)
    params = ModelParams(np.zeros(sum(map(math.prod, shapes))), shapes)
    for name, shape in zip(PARAM_FIELDS, shapes):
        if name.startswith("b"):
            continue
        fan_in = shape[-1]
        std = 1.0 / np.sqrt(fan_in)
        if name in ("wk", "wv"):
            std *= map_scale
        getattr(params, name)[...] = rng.normal(0.0, std, size=shape)
    return params


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(np.zeros_like(params.flat), params.shapes)


# Per-point arrays of one step: the map encoder's activations, then the
# gradients and ReLU mask of its backward pass.
_MAP_ROWS = ("zk", "keys", "zv", "values", "dkeys", "dvalues", "mask")


class Workspace:
    """Buffers that the training steps of one model reuse.

    ``grads`` has the layout of the parameters the workspace was made
    for and receives each step's gradients. ``rows`` is a
    ``(7, m_max, d)`` array holding, in ``_MAP_ROWS`` order, the
    per-point activations and their gradients; a step on ``m`` map
    points uses the first ``m`` rows of each, so it allocates nothing
    that scales with the map set.
    """

    __slots__ = ("grads", "rows")

    def __init__(self, params: ModelParams, m_max: int):
        self.grads = zeros_like_params(params)
        self.rows = np.empty((len(_MAP_ROWS), m_max, params.wk.shape[0]))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def encode_agent(observed: np.ndarray, params: ModelParams):
    """Observed (OBSERVED_LEN, 2) track -> agent embedding of width d."""
    x = (observed[1:] - observed[:-1]).ravel()
    z1 = params.w1 @ x + params.b1
    a1 = np.maximum(z1, 0.0)
    h_a = params.w2 @ a1 + params.b2
    return h_a, (x, z1, a1)


def encode_map(points: np.ndarray, last_pos: np.ndarray,
               params: ModelParams, out: np.ndarray | None = None):
    """Map points (m, 2) -> per-point key and value vectors (m, d).

    ``out`` holds four ``(m, d)`` arrays that receive the pre-activations
    and activations (``zk``, ``keys``, ``zv``, ``values``); without it
    they are allocated.
    """
    feats = points - last_pos
    if out is None:
        out = np.empty((4, points.shape[0], params.wk.shape[0]))
    zk, keys, zv, values = out
    np.matmul(feats, params.wk.T, out=zk)
    zk += params.bk
    np.maximum(zk, 0.0, out=keys)
    np.matmul(feats, params.wv.T, out=zv)
    zv += params.bv
    np.maximum(zv, 0.0, out=values)
    return keys, values, (feats, zk, zv)


def fuse(h_a: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """Single-query attention over the map set, residual on the agent."""
    if keys.shape[0] == 0:
        return h_a.copy(), None
    scale = 1.0 / np.sqrt(h_a.size)
    scores = keys @ h_a * scale
    weights = _softmax(scores)
    xi = h_a + weights @ values
    return xi, (scale, weights)


def decode(xi: np.ndarray, last_pos: np.ndarray, params: ModelParams):
    """Embedding -> k trajectories (cumulative steps) and confidences."""
    u = np.einsum("koj,j->ko", params.wdec, xi) + params.bdec
    steps = u.reshape(params.wdec.shape[0], FUTURE_LEN, 2)
    trajectories = last_pos + np.cumsum(steps, axis=1)
    logits = params.wconf @ xi + params.bconf
    confidences = _softmax(logits)
    return PredictionSet(trajectories, confidences)


def select_map_points(points: np.ndarray, center: np.ndarray,
                      radius: float) -> np.ndarray:
    """The ``(n, 2)`` map points within ``radius`` of ``center``, in order.

    The result equals ``points[np.linalg.norm(points - center, axis=1)
    <= radius]`` bit for bit: the same points in the same order. A cheap
    column test first keeps the strip ``|dx| <= radius``; only the strip
    gets the exact test ``sqrt(dx*dx + dy*dy) <= radius``, which is the
    arithmetic of ``np.linalg.norm``.

    The strip holds every point of the disc. Rounding and ``sqrt`` are
    monotone, so a point that passes the exact test has
    ``sqrt(dx*dx) <= radius``, and ``sqrt(dx*dx) == |dx|`` in binary
    floating point unless ``dx*dx`` underflows. That happens only for
    ``|dx| < 2**-511``, so the strip is never narrower than that.
    """
    if points.shape[0] == 0:
        return points
    dx = np.abs(points[:, 0] - center[0])
    near = np.flatnonzero(dx <= max(radius, _STRIP_MIN_HALF_WIDTH))
    # ``take`` copies whole rows far faster than fancy indexing does.
    strip = points.take(near, axis=0)
    dx = dx.take(near)
    dy = strip[:, 1] - center[1]
    dist = np.sqrt(dx * dx + dy * dy)
    return strip.take(np.flatnonzero(dist <= radius), axis=0)


def _heading_rotation(observed: np.ndarray) -> np.ndarray:
    """Rotation into the target's heading frame: ``p @ rot``.

    The model sees only offsets from the last observed position, so
    rotating about the world origin is the same as rotating about it.
    """
    if observed.shape != (OBSERVED_LEN, 2):
        raise ValueError(f"observed track must be ({OBSERVED_LEN}, 2), "
                         f"got {observed.shape}")
    dx, dy = (observed[-1] - observed[-1 - HEADING_LAG]).tolist()
    norm = math.hypot(dx, dy)
    if norm < HEADING_MIN_DISPLACEMENT:
        return np.eye(2)
    c, s = dx / norm, dy / norm
    return np.array([[c, -s], [s, c]])


def _forward_in_frame(observed, map_points, params, map_out=None):
    """``forward`` without the rotation back to world coordinates.

    Returns ``(xi, cache)``; ``map_out`` is ``encode_map``'s ``out``.
    """
    rot = _heading_rotation(observed)
    observed = observed @ rot
    last_pos = observed[-1]
    h_a, agent_cache = encode_agent(observed, params)
    keys, values, map_cache = encode_map(map_points @ rot, last_pos, params,
                                         out=map_out)
    xi, fuse_cache = fuse(h_a, keys, values)
    local = decode(xi, last_pos, params)
    cache = ((rot, local), h_a, keys, values, xi,
             agent_cache, map_cache, fuse_cache)
    return xi, cache


def forward(observed: np.ndarray, map_points: np.ndarray,
            params: ModelParams):
    """Full forward pass; returns prediction set, embedding and caches.

    Everything but the returned trajectories is computed in the target's
    heading frame: the caches hold frame-coordinate values, and the first
    cache entry is ``(rot, frame_prediction)``.
    """
    xi, cache = _forward_in_frame(observed, map_points, params)
    rot, local = cache[0]
    pred = PredictionSet(local.trajectories @ rot.T, local.confidences)
    return pred, xi, cache


def model_loss(pred: PredictionSet, future: np.ndarray):
    """Winner-takes-all loss; returns (loss, best mode index).

    The winner is the mode with the lowest average point-wise Euclidean
    error (ties -> lowest index). The loss is its mean squared error over
    all points and coordinates plus the cross-entropy of its confidence.
    """
    if future.shape != (FUTURE_LEN, 2):
        raise ValueError(f"future must be ({FUTURE_LEN}, 2), "
                         f"got {future.shape}")
    diffs = pred.trajectories - future
    # The Euclidean norm over the (x, y) axis and the means over the
    # horizon, summed as np.linalg.norm and np.mean sum them, without
    # their call overhead.
    sq = diffs * diffs
    avg_err = np.sqrt(sq[..., 0] + sq[..., 1]).sum(axis=1) / FUTURE_LEN
    m_star = int(np.argmin(avg_err))
    regression = sq[m_star].sum(axis=1).sum() / FUTURE_LEN
    classification = -np.log(pred.confidences[m_star])
    return float(regression + classification), m_star


def distill_loss(xi_teacher: np.ndarray, xi_student: np.ndarray) -> float:
    """Mean squared error over the guided prefix of the student embedding.

    Student coordinates beyond the teacher width are ignored.
    """
    d_t = xi_teacher.size
    if xi_student.size < d_t:
        raise ValueError(
            f"student embedding width {xi_student.size} is smaller than "
            f"teacher width {d_t}"
        )
    diff = xi_student[:d_t] - xi_teacher
    return float(np.mean(diff * diff))


def _outer(a: np.ndarray, b: np.ndarray, out: np.ndarray,
           scratch: np.ndarray) -> None:
    """``np.multiply.outer(a, b, out=out)`` with the same products.

    A ufunc over broadcast operands allocates iteration buffers of up to
    128 KB per call; broadcast copies into ``out`` and ``scratch`` (both
    ``(len(a), len(b))``) followed by an elementwise product do not.
    """
    np.copyto(scratch, a[:, None])
    np.copyto(out, b)
    np.multiply(scratch, out, out=out)


def loss_and_grads(observed: np.ndarray, map_points: np.ndarray,
                   future: np.ndarray, params: ModelParams,
                   alpha: float = 1.0,
                   teacher_embedding: np.ndarray | None = None,
                   beta: float = 0.0, workspace: Workspace | None = None):
    """Total loss, analytic parameter gradients and the embedding.

    With a teacher embedding, the total loss is
    ``alpha * model_loss + beta * distill_loss``: the distillation term
    guides the first ``len(teacher_embedding)`` embedding coordinates;
    the remaining coordinates are unguided.

    The gradients are written into ``workspace.grads`` (zeroed first) and
    returned, and the activations into the workspace's rows; it must have
    been made for parameters of this layout and at least as many map
    points. Without it, a workspace is allocated for the call. Both give
    the same values, bit for bit.
    """
    m_points = map_points.shape[0]
    if workspace is None:
        workspace = Workspace(params, m_points)
    elif workspace.grads.shapes != params.shapes:
        raise ValueError("workspace was made for another parameter layout")
    elif workspace.rows.shape[1] < m_points:
        raise ValueError(f"{m_points} map points exceed the workspace's "
                         f"{workspace.rows.shape[1]}")
    rows = workspace.rows[:, :m_points]
    xi, cache = _forward_in_frame(observed, map_points, params,
                                  map_out=rows[:4])
    ((rot, pred), h_a, keys, values, _xi,
     agent_cache, map_cache, fuse_cache) = cache
    x, z1, a1 = agent_cache
    feats, zk, zv = map_cache
    # The loss is taken in the agent frame; a rotation keeps distances,
    # so it equals the world-frame loss.
    future = future @ rot

    lm, m_star = model_loss(pred, future)
    total = alpha * lm
    grads = workspace.grads
    grads.flat.fill(0.0)

    # Decoder heads.
    diff_star = pred.trajectories[m_star] - future
    dtraj = alpha * 2.0 * diff_star / FUTURE_LEN
    du = np.cumsum(dtraj[::-1], axis=0)[::-1].ravel()
    np.multiply.outer(du, xi, out=grads.wdec[m_star])
    grads.bdec[m_star] = du
    dxi = params.wdec[m_star].T @ du

    dlogits = alpha * pred.confidences
    dlogits[m_star] -= alpha
    np.multiply.outer(dlogits, xi, out=grads.wconf)
    grads.bconf[...] = dlogits
    dxi = dxi + params.wconf.T @ dlogits

    # Distillation term on the guided prefix of the embedding.
    if teacher_embedding is not None:
        total += beta * distill_loss(teacher_embedding, xi)
        dt = teacher_embedding.size
        dxi[:dt] += beta * 2.0 * (xi[:dt] - teacher_embedding) / dt

    # Fusion. The key and value gradients are masked by their ReLUs in
    # place; the float64 mask multiplies as the boolean one did.
    dh_a = dxi.copy()
    if fuse_cache is not None:
        scale, weights = fuse_cache
        dkeys, dvalues, mask = rows[4:]
        _outer(weights, dxi, dvalues, scratch=mask)
        dweights = values @ dxi
        dscores = weights * (dweights - weights @ dweights)
        dh_a += keys.T @ dscores * scale
        _outer(dscores, h_a, dkeys, scratch=mask)
        dkeys *= scale

        np.greater(zk, 0.0, out=mask)
        dkeys *= mask
        np.matmul(dkeys.T, feats, out=grads.wk)
        dkeys.sum(axis=0, out=grads.bk)
        np.greater(zv, 0.0, out=mask)
        dvalues *= mask
        np.matmul(dvalues.T, feats, out=grads.wv)
        dvalues.sum(axis=0, out=grads.bv)

    # Agent encoder.
    np.multiply.outer(dh_a, a1, out=grads.w2)
    grads.b2[...] = dh_a
    da1 = params.w2.T @ dh_a
    dz1 = da1 * (z1 > 0.0)
    np.multiply.outer(dz1, x, out=grads.w1)
    grads.b1[...] = dz1

    if not np.isfinite(total):
        raise NumericError("non-finite total loss (decoder/loss block)")
    return total, grads, xi


def save_checkpoint(path, params: ModelParams, config: ModelConfig):
    """Write a checkpoint: JSON header line + row-major float64 payload.

    The payload is ``params.flat`` as little-endian float64, that is the
    fields in ``PARAM_FIELDS`` order.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "shapes": [[name, list(shape)]
                   for name, shape in zip(PARAM_FIELDS, params.shapes)],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises ``ValueError`` naming ``path`` on a header that is not a JSON
    object, lacks a key or holds a mistyped field, an unknown version, a
    layout that does not match the config, a truncated payload, bytes
    after the payload and non-finite parameter values.
    """
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            header = json.loads(header_line.decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError("checkpoint header is not a JSON object")
            if header.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {header.get('version')}"
                )
            cfg = header["config"]
            if type(cfg["map_radius"]) not in (int, float):
                raise ValueError(f"map_radius must be a number, got "
                                 f"{cfg['map_radius']!r}")
            config = ModelConfig(
                d=_json_int(cfg["d"], "d"), k=_json_int(cfg["k"], "k"),
                hidden=_json_int(cfg["hidden"], "hidden"),
                map_radius=float(cfg["map_radius"]),
                map_source=str(cfg["map_source"]),
            )
            shapes = _shapes(config)
            expected = [[name, list(shape)]
                        for name, shape in zip(PARAM_FIELDS, shapes)]
            if header["shapes"] != expected:
                raise ValueError(f"checkpoint layout {header['shapes']} does "
                                 f"not match its config, expected {expected}")
            nbytes = 8 * sum(map(math.prod, shapes))
            payload = fh.read(nbytes)
            if len(payload) != nbytes:
                raise ValueError(f"checkpoint truncated: payload has "
                                 f"{len(payload)} bytes, expected {nbytes}")
            if fh.read(1):
                raise ValueError("checkpoint has trailing bytes after its "
                                 "payload")
        flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        if not np.isfinite(flat).all():
            raise ValueError("checkpoint payload holds non-finite values")
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint header has no key "
                         f"{exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{path}: checkpoint header has a mistyped field "
                         f"({exc})") from exc
    except ValueError as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors too.
        raise ValueError(f"{path}: {exc}") from exc
    return ModelParams(flat, shapes), config
