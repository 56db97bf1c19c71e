"""Traffic grade prediction network.

Per (resolution, graph) combination a two-layer GCN with weights shared
across the speed and flow channels feeds an elementwise channel fusion.  A
temporal self-attention pass over each fused combination yields one
embedding per combination.  The stacked combinations go through a
multi-head attention layer whose score tensor keeps a per-feature axis, then
a fully connected head emits per-road grade logits trained with negative log
likelihood.

One forward covers a mini-batch: every operator takes a leading batch axis,
and the four graphs (in GRAPH_KEYS order) share one stacked axis.  Only the
resolutions, whose window widths differ, are a loop, which ends at channel
fusion; the temporal and the high-dimensional attention each run once per
forward, over every combination.  Each GCN layer, channel fusion and
attention block is one autodiff node, bitwise its chain of elementary
nodes, so a batch records 51 tape nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .data import Samples, check_artifact, decode_floats, encode_floats, \
    read_json_object, write_json
from .errors import DataError, NumericError
from .graphs import GraphSet, GRAPH_KEYS
from .optim import ParamSet, adam_step
from .tensor import (Tensor, _accumulate, _unbroadcast, attention, concat,
                     glorot_uniform)

RESOLUTION_KEYS = ("hour", "day", "week")
RESOLUTION_LETTERS = {"hour": "h", "day": "d", "week": "w"}
GRAPH_LETTERS = {"topological": "r", "weighted": "w", "pattern": "p",
                 "attribute": "s"}

# the full model's (resolution, graph) combinations in forward order, as
# graph letter _ resolution letter, e.g. "r_h"
COMBINATION_LABELS = tuple(f"{GRAPH_LETTERS[g]}_{RESOLUTION_LETTERS[r]}"
                           for r in RESOLUTION_KEYS for g in GRAPH_KEYS)

CHECKPOINT_FORMAT = "roadgrade-checkpoint"
CHECKPOINT_VERSION = 4


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
        if self.heads < 1 or self.n_roads % self.heads != 0:
            raise ValueError(
                f"head count {self.heads} must divide road count "
                f"{self.n_roads}")

    @property
    def n_combinations(self) -> int:
        return len(self.resolutions) * len(GRAPH_KEYS)

    def window(self, resolution: str) -> int:
        return {"hour": self.window_hours, "day": self.window_days,
                "week": self.window_weeks}[resolution]


@dataclass
class ModelState:
    config: ModelConfig
    params: ParamSet
    seed: int


def init_state(config: ModelConfig, seed: int) -> ModelState:
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
    """One graph convolution per graph, one kernel for both channels:
    relu(a_norm @ z @ w) as one node, bitwise the chain of three.

    `z` is (batch, channels, graphs or 1, roads, f), `a_norm` the stacked
    (graphs, roads, roads) adjacencies, a constant, and `w` the (graphs, f,
    h) kernels; the result is (batch, channels, graphs, roads, h).
    """
    az = a_norm.data @ z.data
    pre = az @ w.data
    mask = pre > 0  # gradient at exactly 0 is defined as 0

    def backward(grads, g):
        g = g * mask
        gw = np.swapaxes(az, -1, -2) @ g
        _accumulate(grads, w, _unbroadcast(gw, w.shape))
        if z.requires_grad:
            gz = np.swapaxes(a_norm.data, -1, -2) @ (
                g @ np.swapaxes(w.data, -1, -2))
            _accumulate(grads, z, _unbroadcast(gz, z.shape))

    return Tensor._node(np.where(mask, pre, 0.0), (z, w), backward)


def channel_fuse(z: Tensor, w: Tensor) -> Tensor:
    """Elementwise-weighted sum over the channel axis, as one node that is
    bitwise a mul, sum chain.

    `z` is (batch, channels, graphs, roads, d) and `w` the matching
    (channels, graphs, roads, d) weights.
    """

    def backward(grads, g):
        g = np.expand_dims(g, 1)
        _accumulate(grads, w, _unbroadcast(g * z.data, w.shape))
        if z.requires_grad:
            _accumulate(grads, z, g * w.data)

    return Tensor._node((w.data * z.data).sum(axis=1), (z, w), backward)


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
        out.append(channel_fuse(h2, params[f"fuse/{res}"]))
    # each softmax row lies within one combination: one pass for them all
    return temporal_attention(concat(out, axis=1))


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


def _keep_tape_pages(loss: Tensor) -> None:
    """Keep the heap's pages for tapes like `loss`'s between batches.

    glibc trims the heap top once twice its largest freed mmap block lies
    free there (mallopt(3)), so each batch would fault its tape in again;
    freeing one untouched block of the tape's size (<= 31 MB) raises that."""
    nbytes, seen, todo = 0, {id(loss)}, [loss]
    while todo:
        node = todo.pop()
        nbytes += node.data.nbytes
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    np.empty(min(nbytes, 31 << 20) // 8)


# divergence is NumericError from the finite checks, not a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def train(state: ModelState, train_samples: Samples, val_samples: Samples,
          graphs: GraphSet) -> list[dict]:
    """Mini-batch Adam; retains the best-validation-accuracy parameters.

    Returns one {"epoch", "train_loss", "val_accuracy"} record per epoch,
    with val_accuracy None when there are no validation samples.
    """
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
            if epoch == 1 and lo == 0:
                _keep_tape_pages(loss)
            loss.backward()
            adam_step(state.params, lr=cfg.learning_rate)
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


def save_checkpoint(path, state: ModelState) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "seed": state.seed,
        "config": asdict(state.config),  # tuples as JSON lists
        "params": {name: {"shape": list(p.shape),
                          "values": encode_floats(p.data)}
                   for name, p in state.params.params.items()},
    }
    write_json(path, payload, indent=None)


def load_checkpoint(path, expected_config: ModelConfig) -> ModelState:
    """The state saved at `path`, whose config, parameter names and shapes
    must be `expected_config`'s and whose values must all be finite."""
    payload = read_json_object(path, "checkpoint")
    check_artifact(path, payload, {"format": CHECKPOINT_FORMAT,
                                   "version": CHECKPOINT_VERSION}, "train")
    try:
        state = init_state(expected_config, seed=payload["seed"])
        params = payload["params"]
        check_artifact(path, {**payload["config"], "params": {
            name: entry["shape"] for name, entry in params.items()}},
            {**asdict(expected_config), "params": {
                name: p.shape for name, p in state.params.params.items()}},
            "train")
        values = [decode_floats(params[name]["values"], p.shape)
                  for name, p in state.params.params.items()]
        for name, value in zip(state.params.params, values):
            if not np.all(np.isfinite(value)):
                raise DataError(f"{path}: parameter {name!r} is not finite")
        state.params.load_values(np.concatenate(values, axis=None))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from None
    return state
