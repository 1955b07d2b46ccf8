"""Parameter-sweep result records and deterministic serialization helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError, RangeError


@dataclass(frozen=True)
class SweepReport:
    """One observable recorded along a monotone parameter ladder.

    ``observables[i]`` is a plain-dict record aligned with ``values[i]``;
    ``crossover_estimate`` is the interpolated sign change of a fitted
    exponent when one exists.
    """

    parameter: str
    values: tuple[float, ...]
    observables: tuple[dict, ...]
    meta: dict = field(default_factory=dict)
    crossover_estimate: float | None = None

    def __post_init__(self):
        if len(self.values) != len(self.observables):
            raise ContractViolationError("values and observables must align")
        if not strictly_monotone(self.values):
            raise ContractViolationError("sweep values must be strictly monotone")

    def to_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "observables": list(self.observables),
            "meta": self.meta,
            "crossover_estimate": self.crossover_estimate,
        }


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
    r_sq = 1.0 - float(np.sum(resid**2) / total) if total > 0 else 1.0
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
