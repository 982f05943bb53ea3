"""Exception hierarchy shared across the package, and the setting checks.

Every error carries an ``exit_code`` used by the command line front end:
2 for configuration problems, 3 for bad input data, 4 for numerical
failures, 5 for training failures.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from functools import partial


class MirrorSelectError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigurationError(MirrorSelectError):
    """A parameter is outside its allowed domain (bad kernel family,
    nonpositive bandwidth, q outside (0, 1), and so on)."""

    exit_code = 2


class InvalidDataError(MirrorSelectError):
    """Input data is malformed: wrong shapes, non-finite values,
    unparseable cells, inconsistent lengths."""

    exit_code = 3


class NumericalError(MirrorSelectError):
    """A computation produced a non-finite or impossible value."""

    exit_code = 4


class DegeneratePerturbationError(NumericalError):
    """The perturbation-scale objective is flat or its denominator
    vanishes, so no finite optimal scale exists."""


class TrainingError(MirrorSelectError):
    """Network training failed.  Carries the loss trace up to its first
    non-finite entry (per-epoch mean minibatch losses, then the full-data
    loss after the last epoch) and, for a per-feature net, the feature's
    index."""

    exit_code = 5

    def __init__(self, message, trace=None, feature_index=None):
        super().__init__(message)
        self.trace = None if trace is None else [float(v) for v in trace]
        self.feature_index = feature_index


def _check_number(value, name: str, low=-math.inf, high=math.inf, strict=False, integer=False):
    """``value`` as a Python float (int if ``integer``): a finite real (an
    integer), numpy scalars included but not bools or strings, at least
    ``low`` (above it if ``strict``) and below ``high``, or ConfigurationError."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a real number"
        raise ConfigurationError(f"{name} must be {noun}, got {value!r}")
    value = int(value) if integer else float(value)
    if abs(value) < math.inf and (low < value if strict else low <= value) and value < high:
        return value
    if high < math.inf:
        rule = f"lie in {'(' if strict else '['}{low}, {high})"
    elif low == 0 and not integer:
        rule = f"be {'positive' if strict else 'nonnegative'} and finite"
    else:
        rule = f"be at least {low}" if low > -math.inf else "be finite"
    raise ConfigurationError(f"{name} must {rule}, got {value!r}")


_check_integer = partial(_check_number, integer=True)


def _check_choice(value, name: str, choices) -> str:
    """``value`` as a Python str, if it is a string among ``choices``;
    anything else raises ConfigurationError listing them."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigurationError(f"unknown {name} {value!r}; expected one of {sorted(choices)}")
    return str(value)


def _check_type(value, name: str, kind: type, error=ConfigurationError):
    """``value`` if it is a ``kind`` (a config object, a seed, a Dataset);
    anything else raises ``error``, a ConfigurationError unless given."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOR" else "a"  # an RngSeed
        raise error(f"{name} must be {article} {kind.__name__}, got {reprlib.repr(value)}")
    return value


def _set_fields(obj, **values) -> None:
    """Store checked values on a frozen dataclass instance."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)
