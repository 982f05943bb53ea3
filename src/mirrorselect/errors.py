"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the command line front end:
2 for configuration problems, 3 for bad input data, 4 for numerical
failures, 5 for training failures.
"""

from __future__ import annotations


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
