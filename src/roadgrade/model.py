"""Traffic grade prediction network.

Per (resolution, graph) combination a two-layer GCN with weights shared
across the speed and flow channels feeds an elementwise channel fusion and a
temporal self-attention pass, yielding one embedding per combination.  The
stacked combinations go through a multi-head attention layer whose score
tensor keeps a per-feature axis, then a fully connected head emits per-road
grade logits trained with negative log likelihood.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .data import ResolutionSample, SPEED, FLOW, read_json_object
from .errors import DataError, NumericError
from .graphs import GraphSet, GRAPH_KEYS, GRAPH_LETTERS
from .optim import ParamSet, adam_step
from .tensor import Tensor, glorot_uniform, stack

RESOLUTION_KEYS = ("hour", "day", "week")
RESOLUTION_LETTERS = {"hour": "h", "day": "d", "week": "w"}

CHECKPOINT_FORMAT = "roadgrade-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    n_roads: int
    n_grades: int = 5
    hidden1: int = 32
    hidden2: int = 32
    heads: int = 3
    window_hours: int = 24
    window_days: int = 7
    window_weeks: int = 3
    resolutions: tuple[str, ...] = RESOLUTION_KEYS
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 500

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

    @property
    def windows(self) -> tuple[int, int, int]:
        return (self.window_hours, self.window_days, self.window_weeks)

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
    """Fresh parameters from a seeded generator, in a fixed name order."""
    rng = np.random.default_rng([seed, 0])
    params: dict[str, Tensor] = {}

    def add(name: str, shape: tuple[int, ...]) -> None:
        params[name] = Tensor(glorot_uniform(shape, rng), requires_grad=True)

    n, d = config.n_roads, config.hidden2
    for res in config.resolutions:
        for g in GRAPH_KEYS:
            add(f"gcn1/{res}/{g}", (config.window(res), config.hidden1))
            add(f"gcn2/{res}/{g}", (config.hidden1, d))
            add(f"fuse_speed/{res}/{g}", (n, d))
            add(f"fuse_flow/{res}/{g}", (n, d))
    add("attn/query", (n, n))
    add("attn/key", (n, n))
    add("attn/value", (n, n))
    add("attn/output", (n, n))
    add("head/weight", (config.n_combinations * d, config.n_grades))
    params["head/bias"] = Tensor(np.zeros(config.n_grades),
                                 requires_grad=True)
    return ModelState(config=config, params=ParamSet(params), seed=seed)


# -- forward operators -----------------------------------------------------------


def shared_gcn_layer(z_speed: Tensor, z_flow: Tensor, a_norm: Tensor,
                     w: Tensor) -> tuple[Tensor, Tensor]:
    """One graph convolution applying the same kernel to both channels."""
    if z_speed.shape != z_flow.shape:
        raise ValueError("channel shapes must match")
    out_speed = (a_norm @ z_speed @ w).relu()
    out_flow = (a_norm @ z_flow @ w).relu()
    return out_speed, out_flow


def channel_fuse(z_speed: Tensor, z_flow: Tensor, w_speed: Tensor,
                 w_flow: Tensor) -> Tensor:
    """Elementwise-weighted sum of the two channel embeddings."""
    shapes = {z_speed.shape, z_flow.shape, w_speed.shape, w_flow.shape}
    if len(shapes) != 1:
        raise ValueError(f"all fusion operands must share a shape: {shapes}")
    return w_speed * z_speed + w_flow * z_flow


def temporal_attention(x: Tensor) -> Tensor:
    """Self-attention over the feature columns of a (roads, d) embedding.

    The embedding is transposed so its d columns form the sequence and each
    element is described by the road axis; scores are scaled by sqrt(roads).
    """
    n_roads = x.shape[0]
    seq = x.T                                    # (d, roads)
    scores = (seq @ seq.T) / math.sqrt(n_roads)
    weights = scores.softmax(axis=-1)
    return (weights @ seq).T


def build_combinations(sample: ResolutionSample, graphs: GraphSet,
                       state: ModelState) -> list[Tensor]:
    """The (resolution x graph) embeddings in canonical order.

    Order is resolution-major (hour, day, week) with graphs cycling
    (topological, weighted, pattern, attribute) within each resolution.
    """
    cfg = state.config
    params = state.params
    out: list[Tensor] = []
    for res in cfg.resolutions:
        history = sample.history(res)
        z_speed = Tensor(history[:, :, SPEED])
        z_flow = Tensor(history[:, :, FLOW])
        for g in GRAPH_KEYS:
            a_norm = Tensor(graphs.norm(g))
            s1, f1 = shared_gcn_layer(z_speed, z_flow, a_norm,
                                      params[f"gcn1/{res}/{g}"])
            s2, f2 = shared_gcn_layer(s1, f1, a_norm,
                                      params[f"gcn2/{res}/{g}"])
            fused = channel_fuse(s2, f2, params[f"fuse_speed/{res}/{g}"],
                                 params[f"fuse_flow/{res}/{g}"])
            out.append(temporal_attention(fused))
    return out


def highdim_attention(x: Tensor, state: ModelState
                      ) -> tuple[Tensor, Tensor]:
    """Multi-head attention over stacked combinations with per-feature scores.

    `x` has shape (combinations, roads, d).  The road axis is mapped linearly
    and split into contiguous head blocks; scores are per-feature dot
    products along the block axis, normalized over the attended-combination
    axis, so the score tensor has shape (heads, comb, comb, d).
    """
    tp, n, d = x.shape
    heads = state.config.heads
    if n % heads != 0:
        raise ValueError(f"head count {heads} must divide road count {n}")
    block = n // heads
    params = state.params

    def project_and_split(name: str) -> Tensor:
        projected = params[name] @ x             # (tp, n, d)
        return projected.reshape(tp, heads, block, d).transpose((1, 0, 2, 3))

    q = project_and_split("attn/query")
    k = project_and_split("attn/key")
    v = project_and_split("attn/value")
    scores = (q.reshape(heads, tp, 1, block, d)
              * k.reshape(heads, 1, tp, block, d)).sum(axis=3)
    scores = scores / math.sqrt(block)
    attn = scores.softmax(axis=2)                # (heads, tp, tp, d)
    mixed = (attn.reshape(heads, tp, tp, 1, d)
             * v.reshape(heads, 1, tp, block, d)).sum(axis=2)
    merged = mixed.transpose((1, 0, 2, 3)).reshape(tp, n, d)
    fused = params["attn/output"] @ merged
    return fused, attn


def fc_head(x_fused: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Road-major flattening followed by one rectified affine layer."""
    tp, n, d = x_fused.shape
    flat = x_fused.transpose((1, 0, 2)).reshape(n, tp * d)
    return (flat @ w + b).relu()


def nll_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log likelihood of 1-based grade targets."""
    n, n_classes = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ValueError("one target grade per road required")
    if targets.min() < 1 or targets.max() > n_classes:
        raise ValueError(f"targets must lie in [1, {n_classes}]")
    log_probs = logits.log_softmax(axis=-1)
    mask = np.zeros((n, n_classes))
    mask[np.arange(n), targets - 1] = 1.0
    return -(log_probs * mask).sum() / n


@dataclass
class ForwardPass:
    logits: Tensor       # (roads, grades)
    attention: Tensor    # (heads, comb, comb, d)


def forward(state: ModelState, sample: ResolutionSample,
            graphs: GraphSet) -> ForwardPass:
    combinations = build_combinations(sample, graphs, state)
    fused, attn = highdim_attention(stack(combinations, axis=0), state)
    logits = fc_head(fused, state.params["head/weight"],
                     state.params["head/bias"])
    return ForwardPass(logits=logits, attention=attn)


def predict_many(state: ModelState, samples: list[ResolutionSample],
                 graphs: GraphSet) -> tuple[np.ndarray, np.ndarray]:
    """Grades (samples, roads) and the mean attention tensor.

    Each road's grade is the argmax of its logits, ties to the lowest grade.
    """
    if not samples:
        raise ValueError("no samples to predict")
    preds = []
    attn_total = None
    for sample in samples:
        run = forward(state, sample, graphs)
        preds.append(np.argmax(run.logits.data, axis=1) + 1)
        attn = run.attention.data
        attn_total = attn if attn_total is None else attn_total + attn
        del run  # free this sample's autodiff graph before the next forward
    return np.stack(preds), attn_total / len(samples)


# -- training ----------------------------------------------------------------------


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float | None


def train(state: ModelState, train_samples: list[ResolutionSample],
          val_samples: list[ResolutionSample], graphs: GraphSet
          ) -> list[EpochStats]:
    """Mini-batch Adam; retains the best-validation-accuracy parameters."""
    if not train_samples:
        raise ValueError("empty training set")
    cfg = state.config
    rng = np.random.default_rng([state.seed, 1])
    log: list[EpochStats] = []
    best_acc = -1.0
    best_values = state.params.copy_values()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            state.params.zero_grad()
            total = None
            for i in batch:
                sample = train_samples[i]
                loss = nll_loss(forward(state, sample, graphs).logits,
                                sample.target)
                total = loss if total is None else total + loss
            total = total / len(batch)
            if not math.isfinite(total.item()):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch starting {lo}")
            total.backward()
            adam_step(state.params, state.params.gradients(),
                      lr=cfg.learning_rate)
            epoch_loss += total.item() * len(batch)
        epoch_loss /= len(order)
        val_acc = None
        if val_samples:
            preds, _ = predict_many(state, val_samples, graphs)
            truth = np.stack([s.target for s in val_samples])
            val_acc = float((preds == truth).mean())
            if val_acc > best_acc:
                best_acc = val_acc
                best_values = state.params.copy_values()
        log.append(EpochStats(epoch, epoch_loss, val_acc))
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
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path, expected_config: ModelConfig | None = None
                    ) -> ModelState:
    payload = read_json_object(path, "checkpoint")
    if (payload.get("format") != CHECKPOINT_FORMAT
            or payload.get("version") != CHECKPOINT_VERSION):
        raise DataError(f"{path} is not a version-{CHECKPOINT_VERSION} "
                        "checkpoint")
    try:
        raw_config = dict(payload["config"])
        raw_config["resolutions"] = tuple(raw_config["resolutions"])
        config = ModelConfig(**raw_config)
        if expected_config is not None and config != expected_config:
            raise DataError(f"checkpoint config in {path} does not match "
                            "the requested configuration")
        state = init_state(config, seed=payload["seed"])
        state.params.load_values(_unpack(payload["params"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from None
    return state
