"""CSV and JSON reading/writing with stable, diff-friendly formatting.

All floats are written with repr-level precision (%.17g) and all JSON
objects with sorted keys, so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import warnings
from array import array
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


def _parse_fast(fh, n_cols: int):
    """Parse the rest of ``fh`` with numpy's C reader, or None if unsure.

    ``np.loadtxt`` converts a cell exactly as ``float()`` does when both
    accept it, but it rejects some cells ``float()`` accepts (``1_000``,
    non-ASCII digits, quoted cells), skips blank lines, and accepts nan,
    inf and numbers padded with the ASCII separators ``\\x1c``-``\\x1f``.
    So any such character, parse error or warning, fewer rows than the
    lines it was fed, a row width other than the header's, or a
    non-finite value returns None, and the caller reparses row by row.
    """
    lines = 0

    def counted():
        nonlocal lines
        for line in fh:
            if any(sep in line for sep in "\x1c\x1d\x1e\x1f"):
                raise ValueError("ASCII separator in a data line")
            lines += 1
            yield line

    with warnings.catch_warnings():
        # an empty or all-blank body parses to no rows, with a warning
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(counted(), delimiter=",", dtype=float, ndmin=2,
                                comments=None)
        except (ValueError, Warning):
            return None
    if values.shape != (lines, n_cols) or not np.isfinite(values).all():
        return None
    return values


def _parse_rows(reader, header, path) -> np.ndarray:
    """Parse data rows one by one, naming the first bad cell in file order."""
    # Each row's cell strings are dropped once parsed: holding every row's
    # (~30 MB on a 4000x101 file) would set the process's peak RSS.
    flat = array("d")
    for i, row in enumerate(reader, start=1):
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
                    f"{path}: row {i}, column {header[j]!r}: "
                    f"non-finite value {cell.strip()!r}"
                )
            flat.append(v)
    return np.array(flat).reshape(-1, len(header))


def _not_utf8(path: Path, err: UnicodeDecodeError) -> InvalidDataError:
    return InvalidDataError(
        f"{path}: not UTF-8 text: cannot decode byte 0x{err.object[err.start]:02x}"
    )


def load_csv(path, response="y") -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    ``response`` names the response column; a header name is looked up
    first, and an integer (or all-digit string) falls back to a 0-based
    column position.  Every other column is a feature.  The file must be
    UTF-8 (a byte order mark is skipped), and every data cell a finite
    number as ``float()`` reads it.  Parse failures (blank or ragged
    rows, unparsable or non-finite cells) name the first offending row
    (1-based) and, for a cell, its column name.  Constant feature
    columns are logged at WARNING; they stay in the dataset but
    downstream selection never scores them.

    The body is parsed with ``np.loadtxt`` in one pass.  Where it cannot
    vouch for the file, the rows are parsed again one by one with
    ``csv`` and ``float()``, which give the same values and name the
    error.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidDataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            if any(not h for h in header):
                raise InvalidDataError(f"{path}: header has empty column names")
            if len(set(header)) != len(header):
                raise InvalidDataError(f"{path}: duplicate column names in header")
            y_col = _resolve_response_column(header, response, path)
            if len(header) < 2:
                raise InvalidDataError(f"{path}: need at least one feature column")
            values = _parse_fast(fh, len(header))
            if values is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                values = _parse_rows(reader, header, path)
    except UnicodeDecodeError as err:
        # _parse_fast gives up on it, and the header or row parser raises it
        raise _not_utf8(path, err) from None
    except OSError as err:
        raise InvalidDataError(f"cannot read {path}: {err}") from err
    if not len(values):
        raise InvalidDataError(f"{path}: no data rows")

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
        with path.open(encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
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
        csv.writer(fh).writerow(list(dataset.names) + [dataset.response_name])
        np.savetxt(fh, np.column_stack([dataset.x, dataset.y]),
                   fmt="%.17g", delimiter=",", newline="\r\n")


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
