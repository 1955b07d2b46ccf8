"""Helpers shared by the drivers and the CLI: the monotone-ladder test,
the power-law fit, and deterministic CSV and JSON text."""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from .errors import RangeError


def strictly_monotone(values: Sequence[float]) -> bool:
    """Whether values strictly increase or strictly decrease (true for fewer than two)."""
    diffs = np.diff(np.asarray(values, dtype=np.float64))
    return bool(np.all(diffs > 0) or np.all(diffs < 0))


def fit_power_law(values: np.ndarray, observables: np.ndarray) -> dict:
    """Least-squares fit of log(observable) against log(value), both positive."""
    x, y = (np.asarray(a, dtype=np.float64) for a in (values, observables))
    if not all(np.all((a > 0) & np.isfinite(a)) for a in (x, y)):
        raise RangeError(f"power-law fit needs positive finite data: {x.tolist()}, {y.tolist()}")
    x, y = np.log(x), np.log(y)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = np.sum((y - y.mean()) ** 2)
    r_sq = 1.0 - float(np.sum(resid**2) / total) if np.ptp(y) > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r_sq}


def format_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line per row with every number
    in 17 significant digits and None as an empty field."""
    lines = [",".join(header)]
    lines += [",".join("" if x is None else f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance.  A NaN or
    an infinity, which JSON cannot hold, is a RangeError."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False
        )
    except ValueError as exc:
        raise RangeError(f"a non-finite number cannot be written as JSON: {exc}") from exc
