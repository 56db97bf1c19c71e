"""Traffic grade prediction network.

Per (resolution, graph) combination a two-layer GCN with weights shared
across the speed and flow channels feeds an elementwise channel fusion and a
temporal self-attention pass, yielding one embedding per combination.  The
stacked combinations go through a multi-head attention layer whose score
tensor keeps a per-feature axis, then a fully connected head emits per-road
grade logits trained with negative log likelihood.

One forward covers a mini-batch: every operator takes a leading batch axis,
and the four graphs (in GRAPH_KEYS order) share one stacked axis.  Only the
resolutions, whose window widths differ, are a loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .data import Samples, read_versioned, write_json
from .errors import DataError, NumericError
from .graphs import GraphSet, GRAPH_KEYS, GRAPH_LETTERS
from .optim import ParamSet, adam_step
from .tensor import Tensor, attention, concat, glorot_uniform

RESOLUTION_KEYS = ("hour", "day", "week")
RESOLUTION_LETTERS = {"hour": "h", "day": "d", "week": "w"}

CHECKPOINT_FORMAT = "roadgrade-checkpoint"
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ModelConfig:
    n_roads: int
    n_grades: int
    hidden1: int
    hidden2: int
    heads: int
    window_hours: int
    window_days: int
    window_weeks: int
    resolutions: tuple[str, ...]
    learning_rate: float
    batch_size: int
    epochs: int

    def __post_init__(self):
        object.__setattr__(self, "resolutions", tuple(self.resolutions))
        if self.n_roads < 1 or self.n_grades < 2:
            raise ValueError("need >= 1 road and >= 2 grades")
        if min(self.hidden1, self.hidden2) < 1:
            raise ValueError("hidden widths must be positive")
        if self.heads < 1 or self.n_roads % self.heads != 0:
            raise ValueError(
                f"head count {self.heads} must divide road count "
                f"{self.n_roads}")
        if not self.resolutions:
            raise ValueError("at least one resolution required")
        for res in self.resolutions:
            if res not in RESOLUTION_KEYS:
                raise ValueError(f"unknown resolution {res!r}")

    @property
    def n_combinations(self) -> int:
        return len(self.resolutions) * len(GRAPH_KEYS)

    def window(self, resolution: str) -> int:
        return {"hour": self.window_hours, "day": self.window_days,
                "week": self.window_weeks}[resolution]

    def combination_labels(self) -> list[str]:
        return [f"{GRAPH_LETTERS[g]}_{RESOLUTION_LETTERS[r]}"
                for r in self.resolutions for g in GRAPH_KEYS]


@dataclass
class ModelState:
    config: ModelConfig
    params: ParamSet
    seed: int


def init_state(config: ModelConfig, seed: int = 0) -> ModelState:
    """Fresh parameters from a seeded generator, stacked per resolution.

    Values are drawn one (resolution, graph) block at a time in canonical
    order and then stacked along a graph axis, so a seed gives the same
    numbers as drawing each per-graph matrix on its own.
    """
    rng = np.random.default_rng([seed, 0])
    n, d = config.n_roads, config.hidden2
    values: dict[str, np.ndarray] = {}
    for res in config.resolutions:
        drawn = [(glorot_uniform((config.window(res), config.hidden1), rng),
                  glorot_uniform((config.hidden1, d), rng),
                  glorot_uniform((n, d), rng), glorot_uniform((n, d), rng))
                 for _ in GRAPH_KEYS]
        gcn1, gcn2, speed, flow = (np.stack(per_graph)
                                   for per_graph in zip(*drawn))
        values[f"gcn1/{res}"] = gcn1                   # (graphs, w, hidden1)
        values[f"gcn2/{res}"] = gcn2                   # (graphs, hidden1, d)
        values[f"fuse/{res}"] = np.stack([speed, flow])  # (2, graphs, n, d)
    for name in ("query", "key", "value", "output"):
        values[f"attn/{name}"] = glorot_uniform((n, n), rng)
    values["head/weight"] = glorot_uniform(
        (config.n_combinations * d, config.n_grades), rng)
    values["head/bias"] = np.zeros(config.n_grades)
    params = ParamSet({name: Tensor(value) for name, value in values.items()})
    return ModelState(config=config, params=params, seed=seed)


# -- forward operators -----------------------------------------------------------


def shared_gcn_layer(z: Tensor, a_norm: Tensor, w: Tensor) -> Tensor:
    """One graph convolution per graph, one kernel for both channels.

    `z` is (batch, channels, graphs or 1, roads, f), `a_norm` the stacked
    (graphs, roads, roads) adjacencies and `w` the (graphs, f, h) kernels;
    the result is (batch, channels, graphs, roads, h).
    """
    return (a_norm @ z @ w).relu()


def channel_fuse(z: Tensor, w: Tensor) -> Tensor:
    """Elementwise-weighted sum over the channel axis.

    `z` is (batch, channels, graphs, roads, d) and `w` the matching
    (channels, graphs, roads, d) weights.
    """
    if z.shape[1:] != w.shape:
        raise ValueError(f"fusion weights {w.shape} do not match the "
                         f"embeddings {z.shape}")
    return (w * z).sum(axis=1)


def temporal_attention(x: Tensor) -> Tensor:
    """Self-attention over the feature columns of (..., roads, d) embeddings.

    The embedding is transposed so its d columns form the sequence and each
    element is described by the road axis; scores are scaled by sqrt(roads).
    """
    n_roads = x.shape[-2]
    swap = (*range(x.ndim - 2), x.ndim - 1, x.ndim - 2)
    seq = x.transpose(swap)                      # (..., d, roads)
    mixed, _ = attention(seq, x, seq, 1.0 / math.sqrt(n_roads))
    return mixed.transpose(swap)


def build_combinations(samples: Samples, graphs: GraphSet,
                       state: ModelState) -> Tensor:
    """The (resolution x graph) embeddings, (batch, comb, roads, d).

    Order is resolution-major (hour, day, week) with graphs cycling
    (topological, weighted, pattern, attribute) within each resolution.
    """
    params = state.params
    a_norm = Tensor(graphs.normalized)
    out: list[Tensor] = []
    for res in state.config.resolutions:
        history = samples.history[res]                        # (B, n, w, 2)
        z = Tensor(np.moveaxis(history, -1, 1)[:, :, None])   # (B, 2, 1, n, w)
        h1 = shared_gcn_layer(z, a_norm, params[f"gcn1/{res}"])
        h2 = shared_gcn_layer(h1, a_norm, params[f"gcn2/{res}"])
        out.append(temporal_attention(channel_fuse(h2, params[f"fuse/{res}"])))
    return concat(out, axis=1)


def highdim_attention(x: Tensor, state: ModelState
                      ) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention over stacked combinations with per-feature scores.

    `x` has shape (batch, combinations, roads, d).  The road axis is mapped
    linearly and split into contiguous head blocks; scores are per-feature
    dot products along the block axis, normalized over the
    attended-combination axis, so the returned scores have shape
    (batch, heads, comb, comb, d).
    """
    b, tp, n, d = x.shape
    heads = state.config.heads
    if n % heads != 0:
        raise ValueError(f"head count {heads} must divide road count {n}")
    block = n // heads
    params = state.params

    def project_and_split(name: str, axes: tuple[int, ...]) -> Tensor:
        projected = params[name] @ x             # (b, tp, n, d)
        return projected.reshape(b, tp, heads, block, d).transpose(axes)

    q = project_and_split("attn/query", (0, 2, 4, 1, 3))  # (b, h, d, tp, blk)
    k = project_and_split("attn/key", (0, 2, 4, 3, 1))    # (b, h, d, blk, tp)
    v = project_and_split("attn/value", (0, 2, 4, 1, 3))  # (b, h, d, tp, blk)
    mixed, attn = attention(q, k, v, 1.0 / math.sqrt(block))
    mixed = mixed.transpose((0, 3, 1, 4, 2)).reshape(b, tp, n, d)
    fused = params["attn/output"] @ mixed
    return fused, np.moveaxis(attn, 2, -1)


def fc_head(x_fused: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Road-major flattening followed by one rectified affine layer."""
    batch, tp, n, d = x_fused.shape
    flat = x_fused.transpose((0, 2, 1, 3)).reshape(batch, n, tp * d)
    return (flat @ w + b).relu()


def nll_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log likelihood of 1-based grade targets, mean over roads.

    `logits` is (..., roads, grades) and `targets` (..., roads); the mean
    runs over every leading axis too, e.g. the samples of a batch.
    """
    n_classes = logits.shape[-1]
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError("one target grade per road required")
    if targets.min() < 1 or targets.max() > n_classes:
        raise ValueError(f"targets must lie in [1, {n_classes}]")
    log_probs = logits.log_softmax(axis=-1)
    mask = (targets[..., None] == np.arange(1, n_classes + 1)).astype(float)
    return -(log_probs * mask).sum() / targets.size


def forward(state: ModelState, samples: Samples,
            graphs: GraphSet) -> tuple[Tensor, np.ndarray]:
    """Logits (batch, roads, grades) and attention (batch, heads, comb,
    comb, d) for a batch of samples."""
    combinations = build_combinations(samples, graphs, state)
    fused, attn = highdim_attention(combinations, state)
    logits = fc_head(fused, state.params["head/weight"],
                     state.params["head/bias"])
    return logits, attn


def predict_many(state: ModelState, samples: Samples,
                 graphs: GraphSet) -> tuple[np.ndarray, np.ndarray]:
    """Grades (samples, roads) and the mean attention tensor.

    Runs `batch_size` samples per forward, with no autodiff tape.  Each
    road's grade is the argmax of its logits, ties to the lowest grade.
    """
    if not samples:
        raise ValueError("no samples to predict")
    step = state.config.batch_size
    preds = []
    attn_total = 0.0
    with state.params.frozen():
        for lo in range(0, len(samples), step):
            logits, attn = forward(state, samples.take(slice(lo, lo + step)),
                                   graphs)
            preds.append(np.argmax(logits.data, axis=-1) + 1)
            attn_total = attn_total + attn.sum(axis=0)
    return np.concatenate(preds), attn_total / len(samples)


# -- training ----------------------------------------------------------------------


# divergence is NumericError from the finite checks, not a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def train(state: ModelState, train_samples: Samples, val_samples: Samples,
          graphs: GraphSet) -> list[dict]:
    """Mini-batch Adam; retains the best-validation-accuracy parameters.

    Returns one {"epoch", "train_loss", "val_accuracy"} record per epoch,
    with val_accuracy None when there are no validation samples.
    """
    if not train_samples:
        raise ValueError("empty training set")
    cfg = state.config
    rng = np.random.default_rng([state.seed, 1])
    log: list[dict] = []
    best_acc = -1.0
    best_values = state.params.copy_values()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = train_samples.take(order[lo:lo + cfg.batch_size])
            state.params.zero_grad()
            loss = nll_loss(forward(state, batch, graphs)[0], batch.target)
            if not math.isfinite(loss.item()):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch starting {lo}")
            loss.backward()
            adam_step(state.params, state.params.gradients(),
                      lr=cfg.learning_rate)
            epoch_loss += loss.item() * len(batch)
            del loss  # free this batch's autodiff graph before the next one
        epoch_loss /= len(order)
        val_acc = None
        if val_samples:
            preds, _ = predict_many(state, val_samples, graphs)
            val_acc = float((preds == val_samples.target).mean())
            if val_acc > best_acc:
                best_acc = val_acc
                best_values = state.params.copy_values()
        log.append({"epoch": epoch, "train_loss": epoch_loss,
                    "val_accuracy": val_acc})
    if val_samples:
        state.params.load_values(best_values)
    return log


# -- checkpointing -------------------------------------------------------------------


def _pack(arrays: dict[str, np.ndarray]) -> dict:
    return {name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
            for name, arr in arrays.items()}


def _unpack(packed: dict) -> dict[str, np.ndarray]:
    return {name: np.array(entry["values"]).reshape(entry["shape"])
            for name, entry in packed.items()}


def save_checkpoint(path, state: ModelState) -> None:
    config = asdict(state.config)
    config["resolutions"] = list(config["resolutions"])
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "seed": state.seed,
        "config": config,
        "params": _pack({n: p.data for n, p in state.params.params.items()}),
    }
    write_json(path, payload, indent=None)


def load_checkpoint(path, expected_config: ModelConfig) -> ModelState:
    """The state saved at `path`, whose config must be `expected_config`
    and whose parameter values must all be finite."""
    payload = read_versioned(path, "checkpoint", CHECKPOINT_FORMAT,
                             CHECKPOINT_VERSION)
    try:
        raw_config = dict(payload["config"])
        raw_config["resolutions"] = tuple(raw_config["resolutions"])
        if ModelConfig(**raw_config) != expected_config:
            raise DataError(f"checkpoint config in {path} does not match "
                            "the requested configuration")
        values = _unpack(payload["params"])
        for name, value in values.items():
            if not np.all(np.isfinite(value)):
                raise DataError(f"{path}: parameter {name!r} is not finite")
        state = init_state(expected_config, seed=payload["seed"])
        state.params.load_values(values)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from None
    return state
