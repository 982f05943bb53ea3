"""In-memory tabular dataset: design matrix, response, column names."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDataError, _set_fields

# Columns whose standard deviation falls below this are treated as constant.
_CONST_TOL = 1e-12


def default_names(p: int) -> tuple[str, ...]:
    return tuple(f"x{j}" for j in range(p))


@dataclass(frozen=True)
class Dataset:
    """Design matrix ``x`` of shape (n, p), response ``y`` of shape (n,).

    Arrays are validated once at construction and treated as immutable
    afterwards.
    """

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] = ()
    response_name: str = "y"

    def __post_init__(self):
        # private copies, frozen below so views handed out stay stable; C
        # order, so reductions over x do not depend on the caller's layout
        x = np.array(self.x, dtype=float, order="C")
        y = np.array(self.y, dtype=float)
        if x.ndim != 2:
            raise InvalidDataError(f"design matrix must be 2-d, got {x.ndim}-d")
        if y.ndim != 1:
            raise InvalidDataError(f"response must be 1-d, got {y.ndim}-d")
        if x.shape[0] != y.shape[0]:
            raise InvalidDataError(
                f"design has {x.shape[0]} rows but response has {y.shape[0]}"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise InvalidDataError("dataset must have at least one row and column")
        if not np.all(np.isfinite(x)):
            raise InvalidDataError("design matrix contains non-finite values")
        if not np.all(np.isfinite(y)):
            raise InvalidDataError("response contains non-finite values")
        names = tuple(self.names) if self.names else default_names(x.shape[1])
        if len(names) != x.shape[1]:
            raise InvalidDataError(
                f"got {len(names)} names for {x.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise InvalidDataError("column names must be unique")
        x.setflags(write=False)
        y.setflags(write=False)
        _set_fields(self, x=x, y=y, names=names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def take_rows(self, rows) -> "Dataset":
        rows = np.asarray(rows)
        return replace(self, x=self.x[rows], y=self.y[rows])

    def select_columns(self, cols) -> "Dataset":
        cols = [int(c) for c in cols]
        return replace(
            self, x=self.x[:, cols], names=tuple(self.names[c] for c in cols)
        )

    def constant_columns(self) -> np.ndarray:
        """Boolean mask of columns with (numerically) zero variance."""
        return self.x.std(axis=0) < _CONST_TOL

    def standardized(self) -> "Dataset":
        """Copy with each non-constant column centered and scaled to unit
        standard deviation.  Constant columns are centered only.  The
        response is left untouched."""
        mean = self.x.mean(axis=0)
        scale = self.x.std(axis=0)
        scale = np.where(scale < _CONST_TOL, 1.0, scale)
        return replace(self, x=(self.x - mean) / scale)
