"""The free flow: the stepping core with its quadratic term switched off."""

import contextlib

import pytest

from kdvb import evolve


def _zero_square(grid, shape):
    """Stands in for ``evolve._half_square``: a square that fills out with zeros."""

    def sq(h, out):
        out.fill(0.0)
        return out

    return sq


@contextlib.contextmanager
def free_flow():
    """Within the block every stepper built squares to zero, so N = 0 and
    ``step`` and ``solve`` follow the linear flow alone, on the folded
    tableau that production runs.  It patches through
    ``pytest.MonkeyPatch.context()``, not the function-scoped fixture, so
    that it also undoes itself per example inside ``@given`` tests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_half_square", _zero_square)
        yield
