"""Parameter-sweep result records and deterministic serialization helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError


@dataclass(frozen=True)
class SweepReport:
    """One observable recorded along a monotone parameter ladder.

    ``observables[i]`` is a plain-dict record aligned with ``values[i]``;
    ``fit`` carries {slope, intercept, r_squared} when a power law was
    fitted, and ``crossover_estimate`` the interpolated sign change of a
    fitted exponent when one exists.
    """

    parameter: str
    values: tuple[float, ...]
    observables: tuple[dict, ...]
    fit: dict | None
    seed: int
    meta: dict = field(default_factory=dict)
    crossover_estimate: float | None = None

    def __post_init__(self):
        if len(self.values) != len(self.observables):
            raise ContractViolationError("values and observables must align")
        diffs = np.diff(np.asarray(self.values, dtype=np.float64))
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ContractViolationError("sweep values must be strictly monotone")

    def to_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "observables": list(self.observables),
            "fit": self.fit,
            "seed": self.seed,
            "meta": self.meta,
            "crossover_estimate": self.crossover_estimate,
        }


def fit_power_law(values: np.ndarray, observables: np.ndarray) -> dict:
    """Least-squares fit of log(observable) against log(value)."""
    x = np.log(np.asarray(values, dtype=np.float64))
    y = np.log(np.asarray(observables, dtype=np.float64))
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
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
