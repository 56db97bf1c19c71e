"""Combination-importance analysis of the attention score tensor.

The fusion layer's score tensor (heads, comb, comb, d) is collapsed to a
comb x comb heatmap, normalized so all cells sum to one, and reduced to
simplex vectors: importance per combination, per temporal resolution and per
graph type.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import read_versioned, write_json
from .errors import DataError
from .graphs import GRAPH_KEYS, GRAPH_LETTERS
from .model import RESOLUTION_KEYS, RESOLUTION_LETTERS
from .tensor import softmax

TRACE_FORMAT = "roadgrade-attention"
TRACE_VERSION = 1

_RESOLUTION_BY_LETTER = {letter: key
                         for key, letter in RESOLUTION_LETTERS.items()}
_GRAPH_BY_LETTER = {letter: key for key, letter in GRAPH_LETTERS.items()}


@dataclass(frozen=True)
class AttentionRecord:
    """Score tensor for one prediction-length setting plus its labels."""

    attention: np.ndarray          # (heads, comb, comb, d)
    labels: tuple[str, ...]
    prediction_length: int

    def __post_init__(self):
        attention = np.asarray(self.attention, dtype=np.float64)
        object.__setattr__(self, "attention", attention)
        object.__setattr__(self, "labels", tuple(self.labels))
        if attention.ndim != 4 or attention.shape[1] != attention.shape[2]:
            raise ValueError("attention must have shape (h, comb, comb, d)")
        if len(self.labels) != attention.shape[1]:
            raise ValueError("one label per combination required")
        for label in self.labels:
            if not isinstance(label, str):
                raise ValueError(f"combination label {label!r} is not a string")
            _split_label(label)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("combination labels must be distinct")
        sums = attention.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise ValueError("attention is not normalized over the attended "
                             "combination axis")


def aggregate_attention(attention: np.ndarray) -> np.ndarray:
    """Sum the score tensor over heads and features to a comb x comb matrix."""
    attention = np.asarray(attention)
    if attention.ndim != 4:
        raise ValueError("expected a (heads, comb, comb, d) tensor")
    return attention.sum(axis=(0, 3))


def normalize_heatmap(aggregated: np.ndarray) -> np.ndarray:
    """Softmax over all cells, so the whole heatmap carries unit mass."""
    aggregated = np.asarray(aggregated)
    flat = softmax(aggregated.reshape(-1))
    return flat.reshape(aggregated.shape)


def combination_importance(heatmap: np.ndarray) -> np.ndarray:
    """Per-combination importance: column sums, then softmax.

    Columns index the attended-to combination.
    """
    return softmax(np.asarray(heatmap).sum(axis=0))


def _split_label(label: str) -> tuple[str, str]:
    try:
        graph_letter, res_letter = label.split("_")
        return _GRAPH_BY_LETTER[graph_letter], _RESOLUTION_BY_LETTER[res_letter]
    except (ValueError, KeyError):
        raise ValueError(f"malformed combination label {label!r}") from None


def decouple(importance: np.ndarray, labels: tuple[str, ...],
             axis: str) -> dict[str, float]:
    """Group the combination importance by resolution or by graph type.

    Members of each group are summed and the group sums renormalized with a
    softmax; the result maps group names to importance.
    """
    importance = np.asarray(importance)
    if importance.shape != (len(labels),):
        raise ValueError("importance and labels disagree")
    if axis == "resolution":
        group_of = {label: _split_label(label)[1] for label in labels}
        order = [r for r in RESOLUTION_KEYS if r in set(group_of.values())]
    elif axis == "graph":
        group_of = {label: _split_label(label)[0] for label in labels}
        order = [g for g in GRAPH_KEYS if g in set(group_of.values())]
    else:
        raise ValueError(f"unknown axis {axis!r}")
    sums = np.array([
        sum(value for label, value in zip(labels, importance)
            if group_of[label] == name)
        for name in order])
    weights = softmax(sums)
    return {name: float(w) for name, w in zip(order, weights)}


def build_report(record: AttentionRecord) -> dict:
    """All importance views for one prediction length, as the report file
    holds them; the heatmap is normalized so its cells sum to 1."""
    heatmap = normalize_heatmap(aggregate_attention(record.attention))
    importance = combination_importance(heatmap)
    return {
        "prediction_length": record.prediction_length,
        "labels": list(record.labels),
        "heatmap": heatmap.tolist(),
        "combination_importance": {
            label: float(v) for label, v in zip(record.labels, importance)},
        "resolution_importance": decouple(importance, record.labels,
                                          "resolution"),
        "graph_importance": decouple(importance, record.labels, "graph"),
    }


# -- artifacts -------------------------------------------------------------------


def write_attention_record(path, record: AttentionRecord) -> None:
    payload = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "prediction_length": record.prediction_length,
        "labels": list(record.labels),
        "shape": list(record.attention.shape),
        "values": record.attention.ravel().tolist(),
    }
    write_json(path, payload, indent=None)


def read_attention_record(path) -> AttentionRecord:
    payload = read_versioned(path, "attention record", TRACE_FORMAT,
                             TRACE_VERSION)
    try:
        attention = np.array(payload["values"]).reshape(payload["shape"])
        return AttentionRecord(attention, tuple(payload["labels"]),
                               payload["prediction_length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed attention record {path}: {exc!r}") \
            from None


def write_report_csv(path, report: dict) -> None:
    """Heatmap in long format: one (row, col, value) line per cell."""
    labels = report["labels"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for row_label, row in zip(labels, report["heatmap"]):
            for col_label, value in zip(labels, row):
                writer.writerow([row_label, col_label, repr(value)])
