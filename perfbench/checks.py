"""Output checks and behaviour fingerprints for the benchmark.

Every check recomputes what it verifies through mirrorselect's public
functions, so a change that alters the selection rule, the threshold or
the statistics shows up as a failed check rather than a silent speed-up.
"""

from __future__ import annotations

import hashlib
import json
import math

from mirrorselect import selection

_TIMING_KEYS = {"timing", "timings"}


def check_selection(m, c, selected, threshold, q: float) -> list[str]:
    """Failure messages for one selection; empty when it is consistent.

    ``threshold`` must be the smallest candidate with estimated FDP at
    most ``q`` (None when none qualifies), and ``selected`` exactly the
    features whose statistic reaches it.
    """
    m = [float(v) for v in m]
    c = [float(v) for v in c]
    failures = []
    if not all(math.isfinite(v) for v in m):
        failures.append("non-finite mirror statistic")
    if not all(math.isfinite(v) and v >= 0.0 for v in c):
        failures.append("perturbation scale negative or non-finite")
    if failures:
        return failures
    expected = None
    for t in selection.threshold_candidates(m):
        if selection.estimate_fdp(m, t) <= q:
            expected = float(t)
            break
    if threshold != expected:
        failures.append(f"threshold {threshold!r} != recomputed {expected!r}")
    reach = set() if expected is None else {j for j, v in enumerate(m) if v >= expected}
    if set(selected) != reach:
        failures.append(
            f"selected {sorted(selected)} != features reaching the threshold {sorted(reach)}"
        )
    return failures


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def selection_fingerprint(m, c, selected, threshold) -> str:
    """sha256 of (selected, m, c, threshold) with floats in exact hex form."""
    return _digest(
        {
            "selected": sorted(int(j) for j in selected),
            "m": [float(v).hex() for v in m],
            "c": [float(v).hex() for v in c],
            "threshold": None if threshold is None else float(threshold).hex(),
        }
    )


def strip_timing(doc):
    """Drop every ``timing``/``timings`` key, at any depth."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k not in _TIMING_KEYS}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def document_fingerprint(doc) -> str:
    """sha256 of a JSON-like document with its timing keys dropped."""
    return _digest(strip_timing(doc))
