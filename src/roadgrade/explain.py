"""Combination-importance analysis of the attention score tensor.

The fusion layer's score tensor (heads, comb, comb, d) is collapsed to a
comb x comb heatmap, normalized so all cells sum to one, and reduced to
simplex vectors: importance per combination, per temporal resolution and per
graph type.
"""

from __future__ import annotations

import numpy as np

from .data import check_artifact, decode_floats, encode_floats, \
    read_json_object, write_json, write_table
from .errors import DataError
from .graphs import GRAPH_KEYS
from .model import COMBINATION_LABELS, RESOLUTION_KEYS
from .tensor import softmax

TRACE_FORMAT = "roadgrade-attention"
TRACE_VERSION = 2


def aggregate_attention(attention: np.ndarray) -> np.ndarray:
    """Sum the score tensor over heads and features to a comb x comb matrix."""
    return np.asarray(attention).sum(axis=(0, 3))


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


def decouple(importance: np.ndarray
             ) -> tuple[dict[str, float], dict[str, float]]:
    """The combination importance grouped by resolution and by graph type.

    In COMBINATION_LABELS order the importance is a (resolution, graph)
    grid; each view sums the grid's rows or columns and renormalizes the
    sums with a softmax.
    """
    grid = np.asarray(importance).reshape(len(RESOLUTION_KEYS),
                                          len(GRAPH_KEYS))
    return ({key: float(w)
             for key, w in zip(RESOLUTION_KEYS, softmax(grid.sum(axis=1)))},
            {key: float(w)
             for key, w in zip(GRAPH_KEYS, softmax(grid.sum(axis=0)))})


def build_report(attention: np.ndarray, prediction_length: int) -> dict:
    """All importance views for one prediction length, as the report file
    holds them; the heatmap is normalized so its cells sum to 1."""
    heatmap = normalize_heatmap(aggregate_attention(attention))
    importance = combination_importance(heatmap)
    resolution, graph = decouple(importance)
    return {
        "prediction_length": prediction_length,
        "labels": list(COMBINATION_LABELS),
        "heatmap": heatmap.tolist(),
        "combination_importance": {
            label: float(v) for label, v in zip(COMBINATION_LABELS,
                                                importance)},
        "resolution_importance": resolution,
        "graph_importance": graph,
    }


# -- artifacts -------------------------------------------------------------------


def write_attention_record(path, attention: np.ndarray,
                           prediction_length: int) -> None:
    payload = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "prediction_length": prediction_length,
        "labels": list(COMBINATION_LABELS),
        "shape": list(attention.shape),
        "values": encode_floats(attention),
    }
    write_json(path, payload, indent=None)


def read_attention_record(path, prediction_length: int,
                          shape: tuple[int, ...]) -> np.ndarray:
    """The score tensor at `path`; the record must hold COMBINATION_LABELS,
    `prediction_length` and `shape`, normalized over the attended axis."""
    payload = read_json_object(path, "attention record")
    check_artifact(path, payload, {
        "format": TRACE_FORMAT, "version": TRACE_VERSION,
        "labels": COMBINATION_LABELS, "prediction_length": prediction_length,
        "shape": shape}, "predict")
    try:
        attention = decode_floats(payload["values"], shape)
        if not np.allclose(attention.sum(axis=2), 1.0, atol=1e-6):
            raise ValueError("attention is not normalized over the attended "
                             "combination axis")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed attention record {path}: {exc!r}") \
            from None
    return attention


def write_report_csv(path, report: dict) -> None:
    """Heatmap in long format: one (row, col, value) line per cell."""
    labels = report["labels"]
    write_table(path, ["row", "col", "value"],
                ([row_label, col_label, value]
                 for row_label, row in zip(labels, report["heatmap"])
                 for col_label, value in zip(labels, row)))
