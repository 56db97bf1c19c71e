"""Checks on the artifacts one pass of the command sequence writes.

Each check names the command whose output it inspects, so a failed check
counts as a failed operation of that command.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from roadgrade.graphs import GRAPH_KEYS
from roadgrade.pipeline import RunConfig

# artifact file name -> the CLI command that writes it (horizon 1)
ARTIFACT_OWNER = {
    **{f"adjacency_{key}.csv": "graphs" for key in GRAPH_KEYS},
    "moran_report.json": "graphs",
    "grades_h1.csv": "label",
    "checkpoint_h1.json": "train",
    "training_log_h1.json": "train",
    "predictions_h1.csv": "predict",
    "attention_h1.json": "predict",
    "metrics_h1.json": "evaluate",
    "mae_series_h1.csv": "evaluate",
    "importance_h1.json": "explain",
    "importance_h1.csv": "explain",
}


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _check_adjacency(path: Path, n_roads: int) -> str | None:
    rows = _rows(path)
    w = np.array([[float(v) for v in row] for row in rows[1:]])
    if w.shape != (n_roads, n_roads):
        return f"shape {w.shape}, expected {(n_roads, n_roads)}"
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        return "negative or non-finite entries"
    if np.any(np.diag(w) != 0):
        return "non-zero diagonal"
    if not np.allclose(w, w.T, rtol=0.0, atol=1e-12):
        return "not symmetric"
    return None


def _grade_column(path: Path, n_grades: int
                  ) -> tuple[list[list[str]], str | None]:
    rows = _rows(path)[1:]
    grades = [int(row[2]) for row in rows]
    if not grades or min(grades) < 1 or max(grades) > n_grades:
        return rows, f"grades outside [1, {n_grades}]"
    return rows, None


def _check_grades(path: Path, cfg: RunConfig) -> str | None:
    rows, problem = _grade_column(path, cfg.n_grades)
    hours = cfg.synth_weeks * 168
    if problem is None and len(rows) != cfg.synth_roads * hours:
        problem = f"{len(rows)} rows, expected {cfg.synth_roads * hours}"
    return problem


def _check_predictions(path: Path, cfg: RunConfig) -> str | None:
    rows, problem = _grade_column(path, cfg.n_grades)
    if problem:
        return problem
    test = cfg.test_size
    per_road: dict[str, int] = {}
    for row in rows:
        per_road[row[0]] = per_road.get(row[0], 0) + 1
    stamps = {row[1] for row in rows}
    if (len(per_road) != cfg.synth_roads or len(stamps) != test
            or set(per_road.values()) != {test}):
        return f"does not cover the {test}-sample test split on every road"
    return None


def _check_metrics(path: Path) -> str | None:
    with open(path) as fh:
        payload = json.load(fh)
    acc, qwk = payload["accuracy"], payload["quadratic_weighted_kappa"]
    if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
        return f"accuracy {acc} outside [0, 1]"
    if not (math.isfinite(qwk) and -1.0 <= qwk <= 1.0):
        return f"kappa {qwk} outside [-1, 1]"
    return None


def check_artifacts(out_dir: Path, cfg: RunConfig,
                    reference: Path | None = None) -> dict[str, str]:
    """Problems found, keyed by artifact file name; empty when all pass.

    With ``reference``, every artifact must also be byte-identical to the
    file of the same name there.
    """
    problems: dict[str, str] = {}
    if reference is not None:
        for name in ARTIFACT_OWNER:
            mine, theirs = out_dir / name, reference / name
            if (mine.is_file() and theirs.is_file()
                    and mine.read_bytes() != theirs.read_bytes()):
                problems[name] = "differs from the reference file"
    for name in ARTIFACT_OWNER:
        if not (out_dir / name).is_file():
            problems[name] = "missing"
    checks = {f"adjacency_{key}.csv": lambda p: _check_adjacency(
        p, cfg.synth_roads) for key in GRAPH_KEYS}
    checks["grades_h1.csv"] = lambda p: _check_grades(p, cfg)
    checks["predictions_h1.csv"] = lambda p: _check_predictions(p, cfg)
    checks["metrics_h1.json"] = _check_metrics
    for name, check in checks.items():
        if name in problems:
            continue
        try:
            problem = check(out_dir / name)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable: {exc}"
        if problem:
            problems[name] = problem
    return problems
