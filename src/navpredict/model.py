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
  gradients are unaffected by it; ``AgentFrame`` is its one definition,
  and ``forward`` rotates the trajectories back to world coordinates;
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
    "AgentFrame",
    "init_params",
    "encode_agent",
    "encode_map",
    "fuse",
    "decode",
    "forward",
    "forward_batch",
    "forward_split",
    "model_loss",
    "distill_loss",
    "loss_and_grads",
    "select_map_points",
    "MapGrid",
    "zeros_like_params",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
    "FORWARD_BLOCK",
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

# Scenes per ``forward_batch`` call in ``forward_split``: enough to spread
# the per-call numpy cost, few enough that a block's map sets and
# intermediates stay small next to the model.
FORWARD_BLOCK = 32

_N_DELTA_FEATURES = 2 * (OBSERVED_LEN - 1)

# Half-width below which the strip of ``select_map_points`` is not
# narrowed: the square of 2**-511 is the smallest normal float64.
_STRIP_MIN_HALF_WIDTH = 2.0 ** -511

# ``MapGrid``: the cell count its cell size keeps to (the grid has at
# most about three times as many), and the relative band that widens a
# centre's cell box past rounding.
_GRID_MAX_CELLS = 2 ** 14
_BOX_BAND = 2.0 ** -40


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


class Workspace:
    """Buffers that the training steps of one model reuse.

    ``grads`` has the layout of the parameters the workspace was made
    for and receives each step's gradients. A step writes every field
    but ``wdec`` and ``bdec`` whole, and of those two only the row of
    its winning mode; ``winner`` is that mode (0 before the first step,
    when every row is zero). Every other row of ``wdec`` and ``bdec``
    stays +0.0 between steps. ``rows`` is a ``(4, m_max, d)`` array of
    what the backward reads per point: keys, values and their ReLU masks
    (pre-activations until the backward makes them masks). A step on
    ``m`` points uses the first ``m`` rows of each, so it allocates
    nothing that scales with the map set. ``_scratch`` holds the dense
    layers' ``_outer`` blocks and the map encoder's factors and sums;
    ``_map_grads`` views ``wk`` to ``bv`` (one slice of ``grads.flat``)
    as ``[wk, bk]``, ``[wv, bv]`` rows, ``(wk.T, wv.T)`` and ``(bk, bv)``.
    """

    __slots__ = ("grads", "rows", "winner", "_map_grads", "_scratch")

    def __init__(self, params: ModelParams, m_max: int):
        self.grads = zeros_like_params(params)
        d = params.wk.shape[0]
        self.rows = np.empty((4, m_max, d))
        self.winner = 0
        lo = sum(getattr(params, name).size for name in PARAM_FIELDS[:4])
        halves = self.grads.flat[lo:lo + 6 * d].reshape(2, 3 * d)
        self._map_grads = (halves, halves[:, :2 * d].reshape(2, d, 2)
                           .swapaxes(1, 2), halves[:, 2 * d:])
        self._scratch = {name: np.empty(getattr(params, name).shape[-2:])
                         for name in ("wdec", "wconf", "w2", "w1")}
        self._scratch.update(factors=np.empty((2, 3, m_max)),
                             sums=np.empty((2, 3, d)))


def _live_ranges(shapes) -> list[list[tuple[int, int]]]:
    """Per mode, the ``(start, stop)`` ranges of ``flat`` that a step
    with that winning mode writes: the fields ``w1`` to ``bv``, the
    mode's rows of ``wdec`` and ``bdec``, and ``wconf`` and ``bconf``."""
    starts = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    field = dict(zip(PARAM_FIELDS, starts))
    k, out = shapes[PARAM_FIELDS.index("bdec")]
    d = shapes[PARAM_FIELDS.index("wdec")][2]
    return [[(0, field["wdec"]),
             (field["wdec"] + j * out * d, field["wdec"] + (j + 1) * out * d),
             (field["bdec"] + j * out, field["bdec"] + (j + 1) * out),
             (field["wconf"], starts[-1])] for j in range(k)]


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` for each vector along ``x``'s last axis.

    Every vector takes the matrix-vector BLAS call that ``w @ x`` makes
    for one, so a batch gets the bits of one-vector calls. One vector
    skips the stacking views, which cost a one-scene forward about a
    microsecond.
    """
    if x.ndim == 1:
        return w @ x
    return np.matmul(w, x[..., None])[..., 0]


def encode_agent(observed: np.ndarray, params: ModelParams):
    """Observed (..., OBSERVED_LEN, 2) tracks -> agent embeddings (..., d)."""
    x = (observed[..., 1:, :] - observed[..., :-1, :]).reshape(
        observed.shape[:-2] + (_N_DELTA_FEATURES,))
    z1 = _matvec(params.w1, x) + params.b1
    a1 = np.maximum(z1, 0.0)
    h_a = _matvec(params.w2, a1) + params.b2
    return h_a, (x, z1, a1)


def encode_map(offsets: np.ndarray, params: ModelParams,
               out: np.ndarray | None = None):
    """Map point offsets (m, 2) -> per-point key and value vectors (m, d).

    ``offsets`` are the map points relative to the last observed
    position, as ``AgentFrame.map_offsets`` holds them. ``out`` holds four
    ``(m, d)`` arrays, in ``Workspace.rows`` order, that receive the keys,
    the values and their pre-activations ``zk`` and ``zv``; without it
    they are allocated. The cache is ``(offsets, zk, zv)``.
    """
    if out is None:
        out = np.empty((4, offsets.shape[0], params.wk.shape[0]))
    keys, values, zk, zv = out
    # Each bias is copied into the activation block before the add: a
    # broadcast ``pre += b`` allocates a numpy iteration buffer half the
    # size of a block, a same-shape add nothing. The sums are the same.
    for w, b, pre, act in ((params.wk, params.bk, zk, keys),
                           (params.wv, params.bv, zv, values)):
        np.matmul(offsets, w.T, out=pre)
        np.copyto(act, b)
        pre += act
        np.maximum(pre, 0.0, out=act)
    return keys, values, (offsets, zk, zv)


def fuse(h_a: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """Single-query attention over the map set, residual on the agent."""
    if keys.shape[0] == 0:
        return h_a.copy(), None
    scale = 1.0 / np.sqrt(h_a.size)
    weights = _softmax(keys @ h_a * scale)
    xi = h_a + weights @ values
    return xi, (scale, weights)


def decode(xi: np.ndarray, last_pos: np.ndarray, params: ModelParams):
    """Embeddings (..., d) -> k trajectories (cumulative steps) and
    confidences each, ``(..., k, FUTURE_LEN, 2)`` and ``(..., k)``. The
    steps are one ``_matvec`` over ``wdec`` as a ``(k * 2 * FUTURE_LEN,
    d)`` matrix."""
    u = _matvec(params.wdec.reshape(-1, xi.shape[-1]), xi)
    steps = u.reshape(xi.shape[:-1] + (-1, FUTURE_LEN, 2))
    steps += params.bdec.reshape(-1, FUTURE_LEN, 2)
    trajectories = last_pos[..., None, None, :] + np.cumsum(steps, axis=-2)
    logits = _matvec(params.wconf, xi) + params.bconf
    confidences = _softmax(logits)
    return PredictionSet(trajectories, confidences)


def _in_disc(points, cx, cy, radius):
    """Indices, ascending, of the ``(m, 2)`` points within ``radius`` of
    ``(cx, cy)``; the centre is one pair, or one pair per point as two
    arrays.

    A cheap column test first keeps the strip ``|dx| <= radius``; only
    the strip gets the exact test ``sqrt(dx*dx + dy*dy) <= radius``, which
    is the arithmetic of ``np.linalg.norm``.

    The strip holds every point of the disc. Rounding and ``sqrt`` are
    monotone, so a point that passes the exact test has
    ``sqrt(dx*dx) <= radius``, and ``sqrt(dx*dx) == |dx|`` in binary
    floating point unless ``dx*dx`` underflows. That happens only for
    ``|dx| < 2**-511``, so the strip is never narrower than that.
    """
    dx = np.abs(points[:, 0] - cx)
    near = np.flatnonzero(dx <= max(radius, _STRIP_MIN_HALF_WIDTH))
    # ``take`` copies whole rows far faster than fancy indexing does.
    dx = dx.take(near)
    dy = points.take(near, axis=0)[:, 1] - (
        cy.take(near) if np.ndim(cy) else cy)
    return near[np.sqrt(dx * dx + dy * dy) <= radius]


def select_map_points(points: np.ndarray, center: np.ndarray,
                      radius: float) -> np.ndarray:
    """The ``(n, 2)`` map points within ``radius`` of ``center``, in order.

    The result equals ``points[np.linalg.norm(points - center, axis=1)
    <= radius]`` bit for bit: the same points in the same order, through
    the disc test of ``_in_disc``. This is the definition of a map set;
    ``MapGrid`` returns the same sets for many centres at once.
    """
    if points.shape[0] == 0:
        return points
    return points.take(_in_disc(points, center[0], center[1], radius),
                       axis=0)


class MapGrid:
    """A cell grid over one map view that returns the map sets of many
    centres: ``select(centers)[i]`` equals ``select_map_points(points,
    centers[i], radius)`` bit for bit, the same points in the same order.

    The build sorts the points by cell, column-major, with a stable
    argsort, so each cell holds its rows in ascending order and the cells
    ``(x, y0..y1)`` of one column are one contiguous run. Cells are
    ``radius / 2`` wide, and never so small that the grid has more than
    about ``3 * _GRID_MAX_CELLS`` of them.

    ``select`` takes, per centre, the cells that the box ``|dx|, |dy| <=
    reach`` touches, with ``reach = max(radius, 2**-511)`` plus a band of
    ``2**-40 * (|c| + reach)`` on each axis. That box holds every point
    the exact test keeps. Such a point has computed offsets ``|dx|, |dy|
    <= max(radius, 2**-511)`` (see ``_in_disc``), and a computed
    difference is off from the true one by at most one rounding, relative
    to ``|c| + reach``; so is each edge ``c -/+ reach`` the box computes.
    The band covers both with room to spare. A point's cell and the
    box's cells go through the same monotone arithmetic,
    ``floor((x - origin) / cell)``, so a point inside the box lies in one
    of its cells. The candidates then get the exact test of ``_in_disc``
    all at once, and one sort by ``(centre, row)`` restores view order.
    ``select`` handles ``FORWARD_BLOCK`` centres per pass, so that its
    temporaries stay small.
    """

    __slots__ = ("points", "radius", "_origin", "_cell", "_shape",
                 "_starts", "_order", "_sorted")

    def __init__(self, points: np.ndarray, radius: float):
        if not (math.isfinite(radius) and radius >= 0.0):
            raise ValueError(f"map radius must be finite and non-negative, "
                             f"got {radius}")
        self.points, self.radius = points, radius
        if points.shape[0] == 0:
            return
        x, y = points.T.copy()      # contiguous columns: faster passes
        x0, y0 = x.min(), y.min()
        width, height = float(x.max() - x0), float(y.max() - y0)
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError("map points must be finite")
        cell = max(radius / 2.0,
                   math.sqrt(width) * math.sqrt(height / _GRID_MAX_CELLS),
                   max(width, height) / _GRID_MAX_CELLS,
                   _STRIP_MIN_HALF_WIDTH)
        nx = math.floor(width / cell) + 1
        ny = math.floor(height / cell) + 1
        # Fewer than 2**16 cells: a uint16 key takes numpy's radix sort.
        key = np.floor((x - x0) / cell)
        key *= ny
        key += np.floor((y - y0) / cell)
        key = key.astype(np.uint16)
        order = np.argsort(key, kind="stable")
        starts = np.zeros(nx * ny + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=nx * ny), out=starts[1:])
        self._origin, self._cell = np.array([x0, y0]), cell
        self._shape = np.array([nx, ny])
        self._starts, self._order = starts, order
        self._sorted = points.take(order, axis=0)

    def select(self, centers: np.ndarray) -> list[np.ndarray]:
        """The map sets of ``(n, 2)`` centres, one ``(m, 2)`` array each."""
        centers = np.asarray(centers, dtype=np.float64)
        if (centers.ndim != 2 or centers.shape[1] != 2
                or not np.isfinite(centers).all()):
            raise ValueError(f"centres must be finite (n, 2), got shape "
                             f"{centers.shape}")
        if self.points.shape[0] == 0:
            return [self.points] * len(centers)
        out = []
        for lo in range(0, len(centers), FORWARD_BLOCK):
            out += self._select_block(centers[lo:lo + FORWARD_BLOCK])
        return out

    def _cells(self, centers):
        """First and last cell index, ``(n, 2)`` each, of each centre's box
        along x and y; first > last where the box misses the grid."""
        half = max(self.radius, _STRIP_MIN_HALF_WIDTH)
        # Offsets past the float range become infinities, which clip.
        with np.errstate(over="ignore"):
            reach = half + (np.abs(centers) + half) * _BOX_BAND
            first = np.floor((centers - reach - self._origin) / self._cell)
            last = np.floor((centers + reach - self._origin) / self._cell)
        return (first.clip(0, self._shape).astype(np.intp),
                last.clip(-1, self._shape - 1).astype(np.intp))

    def _select_block(self, centers):
        first, last = self._cells(centers)
        (x_first, y_first), (x_last, y_last) = first.T, last.T
        n_centers, n_points = len(centers), self.points.shape[0]
        # One run of sorted rows per centre and cell column of its box.
        columns = np.where(y_first <= y_last,
                           np.maximum(x_last - x_first + 1, 0), 0)
        run_owner = np.repeat(np.arange(n_centers), columns)
        run_column = np.arange(run_owner.size) - np.repeat(
            np.cumsum(columns) - columns - x_first, columns)
        cell = run_column * self._shape[1] + y_first.take(run_owner)
        begin = self._starts.take(cell)
        lengths = self._starts.take(
            cell + (y_last - y_first + 1).take(run_owner)) - begin
        at = np.arange(lengths.sum()) - np.repeat(
            np.cumsum(lengths) - lengths - begin, lengths)
        run_centers = centers.take(run_owner, axis=0)
        kept = _in_disc(self._sorted.take(at, axis=0),
                        np.repeat(run_centers[:, 0], lengths),
                        np.repeat(run_centers[:, 1], lengths), self.radius)
        # Keys ``centre * n_points + row`` sort into view order per centre.
        rows = np.repeat(run_owner * n_points, lengths).take(kept)
        rows += self._order.take(at.take(kept))
        rows.sort()
        ends = np.searchsorted(rows, np.arange(1, n_centers + 1) * n_points)
        rows -= np.repeat(np.arange(n_centers) * n_points,
                          np.diff(ends, prepend=0))
        sets = self.points.take(rows, axis=0)
        ends = ends.tolist()
        return [sets[a:b] for a, b in zip([0] + ends, ends)]


def _heading_rotations(observed: np.ndarray) -> np.ndarray:
    """Rotations ``(..., 2, 2)`` into the heading frames of ``(...,
    OBSERVED_LEN, 2)`` tracks: ``p @ rot``. The model sees only offsets
    from the last observed position, so rotating about the world origin
    is the same as rotating about it. A heading's norm is ``math.hypot``.
    """
    if observed.shape[-2:] != (OBSERVED_LEN, 2):
        raise ValueError(f"observed track must be ({OBSERVED_LEN}, 2), "
                         f"got {observed.shape}")
    headings = observed[..., -1, :] - observed[..., -1 - HEADING_LAG, :]
    rots = []
    for dx, dy in headings.reshape(-1, 2).tolist():
        norm = math.hypot(dx, dy)
        if norm < HEADING_MIN_DISPLACEMENT:
            rots += (1.0, 0.0, 0.0, 1.0)
        else:
            c, s = dx / norm, dy / norm
            rots += (c, -s, s, c)
    return np.array(rots).reshape(observed.shape[:-2] + (2, 2))


class AgentFrame:
    """One scene's model inputs in its target's heading frame.

    ``rot`` is the ``(2, 2)`` rotation ``p @ rot`` into the frame;
    ``observed`` the rotated ``(OBSERVED_LEN, 2)`` track and ``last_pos``
    its last position; ``map_offsets`` the ``(m, 2)`` map points as
    ``(map_points @ rot) - last_pos``; ``future`` the rotated ``(FUTURE_LEN,
    2)`` future, or ``None`` when none is given. This is the one
    definition of the frame: ``forward`` and ``loss_and_grads`` read their
    inputs from it, ``distill.train`` builds each scene's once per run,
    and ``forward_batch`` builds a batch's with the same arithmetic.
    """

    __slots__ = ("rot", "observed", "last_pos", "map_offsets", "future")

    def __init__(self, observed: np.ndarray, map_points: np.ndarray,
                 future: np.ndarray | None = None):
        self.rot = rot = _heading_rotations(observed)
        self.observed = observed @ rot
        self.last_pos = self.observed[-1]
        # A map-free scene skips the two array calls on its empty set.
        self.map_offsets = (map_points @ rot - self.last_pos
                            if len(map_points) else map_points)
        self.future = None if future is None else future @ rot


def _forward_in_frame(frame: AgentFrame, params, map_out=None):
    """``forward`` without the rotation back to world coordinates.

    Returns ``(xi, cache)``; ``map_out`` is ``encode_map``'s ``out``. An
    empty map set skips the map encoder, and its cache entry is ``None``.
    """
    h_a, agent_cache = encode_agent(frame.observed, params)
    if len(frame.map_offsets):
        keys, values, map_cache = encode_map(frame.map_offsets, params,
                                             out=map_out)
    else:
        # ``fuse`` returns ``h_a`` for an empty set; nothing to encode.
        keys = values = np.empty((0, params.wk.shape[0]))
        map_cache = None
    xi, fuse_cache = fuse(h_a, keys, values)
    local = decode(xi, frame.last_pos, params)
    return xi, ((frame.rot, local), h_a, keys, values, xi,
                agent_cache, map_cache, fuse_cache)


def forward(observed: np.ndarray, map_points: np.ndarray,
            params: ModelParams):
    """Full forward pass; returns prediction set, embedding and caches.

    Everything but the returned trajectories is computed in the target's
    heading frame: the caches hold frame-coordinate values, and the first
    cache entry is ``(rot, frame_prediction)``.
    """
    xi, cache = _forward_in_frame(AgentFrame(observed, map_points), params)
    rot, local = cache[0]
    pred = PredictionSet(local.trajectories @ rot.T, local.confidences)
    return pred, xi, cache


def forward_batch(observed: np.ndarray, map_sets, params: ModelParams):
    """``forward`` over n scenes, without caches.

    ``observed`` is ``(n, OBSERVED_LEN, 2)`` and ``map_sets`` holds each
    scene's ``(m, 2)`` map points. Returns the trajectories ``(n, k,
    FUTURE_LEN, 2)``, the confidences ``(n, k)`` and the embeddings
    ``(n, d)``; each scene's rows equal ``forward``'s outputs bit for bit.

    The batch's frames are built in one pass. Each scene's map encoder and
    fusion run on their own, because the order of their additions depends
    on the size of the map set. The rest runs once over the batch, through
    calls that add in the same order per scene as the one-scene calls. A
    batch holds its whole intermediates; ``forward_split`` passes
    ``FORWARD_BLOCK`` scenes.
    """
    if observed.ndim != 3 or len(map_sets) != observed.shape[0]:
        raise ValueError(f"expected (n, {OBSERVED_LEN}, 2) tracks and n map "
                         f"sets, got {observed.shape} and {len(map_sets)}")
    rots = _heading_rotations(observed)
    tracks = np.matmul(observed, rots)
    last_pos = tracks[:, -1]
    h_a, _agent_cache = encode_agent(tracks, params)
    xi = h_a.copy()
    map_out = np.empty((4, max(map(len, map_sets), default=0),
                        params.wk.shape[0]))
    for i, points in enumerate(map_sets):
        if len(points):
            keys, values, _map_cache = encode_map(
                points @ rots[i] - last_pos[i], params,
                out=map_out[:, :len(points)])
            xi[i] = fuse(h_a[i], keys, values)[0]
    local = decode(xi, last_pos, params)
    trajectories = np.matmul(local.trajectories,
                             rots.swapaxes(1, 2)[:, None])
    return trajectories, local.confidences, xi


def forward_split(params: ModelParams, config: ModelConfig, scenes,
                  map_points: np.ndarray):
    """``forward_batch`` over a split, ``FORWARD_BLOCK`` scenes at a time.

    Returns every scene's trajectories ``(n, k, FUTURE_LEN, 2)``,
    confidences ``(n, k)`` and embeddings ``(n, d)``, each equal to
    ``forward`` on its target's track and ``select_map_points`` set. One
    ``MapGrid`` per call selects each block's map sets.
    """
    grid = MapGrid(map_points, config.map_radius)
    trajectories = np.empty((len(scenes), config.k, FUTURE_LEN, 2))
    confidences = np.empty((len(scenes), config.k))
    embeddings = np.empty((len(scenes), config.d))
    for lo in range(0, len(scenes), FORWARD_BLOCK):
        block = slice(lo, lo + FORWARD_BLOCK)
        observed = np.array([scene.agents[scene.target]
                             for scene in scenes[block]])
        trajectories[block], confidences[block], embeddings[block] = \
            forward_batch(observed, grid.select(observed[:, -1]), params)
    return trajectories, confidences, embeddings


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


def loss_and_grads(frame: AgentFrame, params: ModelParams,
                   alpha: float = 1.0,
                   teacher_embedding: np.ndarray | None = None,
                   beta: float = 0.0, workspace: Workspace | None = None):
    """Total loss, analytic parameter gradients and the embedding.

    ``frame`` is the scene's ``AgentFrame``, built with its future. The
    loss is taken in the frame; a rotation keeps distances, so it equals
    the world-frame loss. With a teacher embedding, the total loss is
    ``alpha * model_loss + beta * distill_loss``: the distillation term
    guides the first ``len(teacher_embedding)`` embedding coordinates;
    the remaining coordinates are unguided.

    The gradients are written into ``workspace.grads`` and returned, and
    the activations into the workspace's rows; it must have been made for
    parameters of this layout and at least as many map points. Without
    it, a workspace is allocated for the call. The map encoder's
    gradients contract the ReLU masks with per-point factors (see the
    body), so each is within ``4 * m * 2**-52`` times the sum of its
    terms' magnitudes of the sum over masked ``(m, d)`` gradient blocks.

    The call does not clear ``workspace.grads``. It rewrites every field
    but ``wdec`` and ``bdec`` whole, writes only the winning mode's row
    of those two, and resets the previous call's winner row to +0.0. So
    between calls a caller may scale the buffer in place by a finite,
    non-negative factor, or write into what the last call wrote, but
    must not write into the rows that it did not write. Within that
    contract a reused workspace gives the same values as a fresh one,
    bit for bit.
    """
    future = frame.future
    if future is None:
        raise ValueError("the frame holds no future to take the loss on")
    m_points = frame.map_offsets.shape[0]
    if workspace is None:
        workspace = Workspace(params, m_points)
    elif workspace.grads.shapes != params.shapes:
        raise ValueError("workspace was made for another parameter layout")
    elif workspace.rows.shape[1] < m_points:
        raise ValueError(f"{m_points} map points exceed the workspace's "
                         f"{workspace.rows.shape[1]}")
    rows = workspace.rows[:, :m_points]
    xi, cache = _forward_in_frame(frame, params, map_out=rows)
    ((_rot, pred), h_a, keys, values, _xi,
     agent_cache, map_cache, fuse_cache) = cache
    x, z1, a1 = agent_cache

    lm, m_star = model_loss(pred, future)
    total = alpha * lm
    grads, scratch = workspace.grads, workspace._scratch
    # Of the decoder heads only the winner's rows get a gradient: the
    # last call's winner rows go back to +0.0, as every other row is.
    if workspace.winner != m_star:
        grads.wdec[workspace.winner] = 0.0
        grads.bdec[workspace.winner] = 0.0
        workspace.winner = m_star

    # Decoder heads.
    dtraj = alpha * 2.0 * (pred.trajectories[m_star] - future) / FUTURE_LEN
    du = np.cumsum(dtraj[::-1], axis=0)[::-1].ravel()
    _outer(du, xi, grads.wdec[m_star], scratch["wdec"])
    grads.bdec[m_star] = du
    dxi = params.wdec[m_star].T @ du

    dlogits = alpha * pred.confidences
    dlogits[m_star] -= alpha
    _outer(dlogits, xi, grads.wconf, scratch["wconf"])
    grads.bconf[...] = dlogits
    dxi = dxi + params.wconf.T @ dlogits

    # Distillation term on the guided prefix of the embedding.
    if teacher_embedding is not None:
        total += beta * distill_loss(teacher_embedding, xi)
        dt = teacher_embedding.size
        dxi[:dt] += beta * 2.0 * (xi[:dt] - teacher_embedding) / dt

    # Fusion and the map encoder. Key j's pre-activation at point i has
    # the gradient ``Mk[i, j] * dscores[i] * s * h_a[j]``, value j's
    # ``Mv[i, j] * weights[i] * dxi[j]``, with ReLU masks ``Mk``, ``Mv``.
    # One stacked matmul sums the masks against ``[dscores * F, dscores]``
    # and ``[weights * F, weights]`` (offsets ``F``); ``s * h_a``, ``dxi``
    # scale the sums. No ``(m, d)`` gradient is built.
    dh_a = dxi.copy()
    map_grads, map_weights, map_biases = workspace._map_grads
    if fuse_cache is None:
        map_grads.fill(0.0)
    else:
        offsets, masks = map_cache[0], rows[2:]
        scale, weights = fuse_cache
        factors = scratch["factors"][:, :, :m_points]
        dweights = values @ dxi
        dscores = np.multiply(weights, dweights - weights @ dweights,
                              out=factors[0, 2])
        dh_a += keys.T @ dscores * scale
        np.greater(masks, 0.0, out=masks)
        factors[1, 2] = weights
        for side in factors:    # one broadcast over both would allocate
            np.multiply(offsets.T, side[2], out=side[:2])
        sums = np.matmul(factors, masks, out=scratch["sums"])
        units = np.array((scale * h_a, dxi))
        np.multiply(sums[:, :2], units[:, None], out=map_weights)
        np.multiply(sums[:, 2], units, out=map_biases)

    # Agent encoder.
    _outer(dh_a, a1, grads.w2, scratch["w2"])
    grads.b2[...] = dh_a
    dz1 = params.w2.T @ dh_a * (z1 > 0.0)
    _outer(dz1, x, grads.w1, scratch["w1"])
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
