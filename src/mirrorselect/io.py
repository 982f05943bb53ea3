"""CSV and JSON reading/writing with stable, diff-friendly formatting.

All floats are written with repr-level precision (%.17g) and all JSON
objects with sorted keys, so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import InvalidDataError
from .simulate import BenchmarkResult, RocCurve


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _resolve_response_column(header, response, path) -> int:
    # Header-name match wins; integers (or digit strings) are positions.
    if isinstance(response, str) and response in header:
        return header.index(response)
    index = None
    if isinstance(response, int) and not isinstance(response, bool):
        index = response
    elif isinstance(response, str):
        try:
            index = int(response)
        except ValueError:
            index = None
    if index is not None:
        if not 0 <= index < len(header):
            raise InvalidDataError(
                f"{path}: response column index {index} out of range "
                f"for {len(header)} columns"
            )
        return index
    raise InvalidDataError(
        f"{path}: response column {response!r} not found; "
        f"available: {', '.join(header)}"
    )


def load_csv(path, response="y") -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    ``response`` names the response column; a header name is looked up
    first, and an integer (or all-digit string) falls back to a 0-based
    column position.  Every other column is a feature.  Parse failures
    name the offending cell by data row (1-based) and column name.
    Constant feature columns are logged at WARNING; they stay in the
    dataset but downstream selection never scores them.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidDataError(f"{path}: file is empty") from None
            rows = list(reader)
    except OSError as err:
        raise InvalidDataError(f"cannot read {path}: {err}") from err

    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise InvalidDataError(f"{path}: header has empty column names")
    if len(set(header)) != len(header):
        raise InvalidDataError(f"{path}: duplicate column names in header")
    y_col = _resolve_response_column(header, response, path)
    if len(header) < 2:
        raise InvalidDataError(f"{path}: need at least one feature column")
    if not rows:
        raise InvalidDataError(f"{path}: no data rows")
    values = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise InvalidDataError(
                f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
            )
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise InvalidDataError(
                    f"{path}: row {i}, column {header[j]!r}: "
                    f"cannot parse {cell.strip()!r} as a number"
                ) from None
            if not math.isfinite(v):
                raise InvalidDataError(
                    f"{path}: row {i}, column {header[j]!r}: non-finite value {cell.strip()!r}"
                )
            values[i - 1, j] = v

    feature_cols = [j for j in range(len(header)) if j != y_col]
    names = tuple(header[j] for j in feature_cols)
    dataset = Dataset(
        values[:, feature_cols],
        values[:, y_col],
        names,
        response_name=header[y_col],
    )
    const = dataset.constant_columns()
    if const.any():
        const_names = [names[j] for j in np.flatnonzero(const)]
        logging.getLogger(__name__).warning(
            "%s: constant feature columns will never be selected: %s",
            path,
            ", ".join(const_names),
        )
    return dataset


def load_truth(path) -> frozenset[int]:
    """Read the true support from a JSON document with a ``support`` key."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise InvalidDataError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InvalidDataError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict) or "support" not in doc:
        raise InvalidDataError(f"{path}: expected an object with a 'support' key")
    support = doc["support"]
    if not isinstance(support, list) or not all(
        isinstance(j, int) and not isinstance(j, bool) for j in support
    ):
        raise InvalidDataError(f"{path}: 'support' must be a list of integers")
    return frozenset(support)


def write_json(doc, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_dataset_csv(dataset: Dataset, path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.names) + [dataset.response_name])
        for i in range(dataset.n):
            writer.writerow(
                [_fmt(v) for v in dataset.x[i]] + [_fmt(dataset.y[i])]
            )


def write_benchmark_csv(result: BenchmarkResult, path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "fdp", "power", "fpr", "threshold", "runtime_ms"])
        for row in result.rows:
            writer.writerow(
                [
                    row.seed_label,
                    _fmt(row.fdp),
                    _fmt(row.power),
                    _fmt(row.fpr),
                    "" if row.threshold is None else _fmt(row.threshold),
                    format(row.runtime_ms, ".3f"),
                ]
            )


def write_roc_csv(curve: RocCurve, path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in curve.points:
            writer.writerow([_fmt(fpr), _fmt(tpr)])
