"""Centralized numeric tolerances used across the package."""

from __future__ import annotations

import math
from numbers import Real
from dataclasses import dataclass, asdict, replace

# The least ``unitary`` tolerance: every matrix and state the package computes
# misses exactness by up to a few ulps (the largest deviations measured:
# 3.55e-15 for a substitution search's strategy, 2.44e-15 for a certainty
# attack and for halmos_dilation, 2.0e-15 for a Haar draw, 2.2e-16 for the
# norm of the no-message witness).  Below this floor the package's own
# witnesses would fail its re-checks, so a valid input could exit 2.
UNITARY_FLOOR = 1e-13


def check_real(value, name: str, low: float = -math.inf, high: float = math.inf,
               ends: str = "[]") -> float:
    """The package's one number rule: ``value`` as a Python float, checked to
    be a ``numbers.Real`` other than a bool, convertible to a float and in
    the interval from ``low`` to ``high``, each end closed or open as
    ``ends`` ("[]", "[)", "(]" or "()") marks it.  Anything else, NaN
    included, raises ``ValueError("<name> must be a real number in [0, 1],
    got <value>")`` for ``ends``, ``low`` and ``high`` as given.  Here rather
    than next to :func:`~qmac.linalg.check_count` because ``linalg`` imports
    this module, whose :class:`Tolerances` calls it."""
    # Floats first, numpy's float64 (a float subclass) among them: the ABC
    # check isinstance(value, Real) costs several times as much.
    if isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.nan
        if ((low <= x if ends[0] == "[" else low < x)
                and (x <= high if ends[1] == "]" else x < high)):
            return x
    raise ValueError(f"{name} must be a real number in {ends[0]}{low:g}, {high:g}{ends[1]}, "
                     f"got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """All comparison thresholds in one place.

    Attributes
    ----------
    unitary : max-norm threshold on ``U†U - I``, and on the norm error of
        an injected no-message state.
    strict : margin used for the strict inequalities of the security
        conditions (a quantity is "strictly less than c" iff < c - strict).
    phase_equiv : threshold of the M0 column swap test (condition 3).

    Each is checked by :func:`check_real`, and stored as the Python float
    it returns.  ``unitary`` must be below 1: a matrix with a zero
    column puts -1 on the diagonal of ``U†U - I``, so below 1 it can never
    pass as unitary.  ``unitary`` must also be at least
    ``UNITARY_FLOOR``, the rounding the package's own results carry.

    A :class:`~qmac.protocol.TaggingUnitary` carries the tolerances it was
    built with; every check on it reads them from there.
    """

    unitary: float = 1e-10
    strict: float = 1e-9
    phase_equiv: float = 1e-9

    def __post_init__(self):
        for name, value in self.as_dict().items():
            value = check_real(value, f"tolerance {name!r}", 0, math.inf, "[)")
            object.__setattr__(self, name, value)
        if self.unitary >= 1:
            raise ValueError(f"tolerance 'unitary' must be below 1, got {self.unitary!r}")
        if self.unitary < UNITARY_FLOOR:
            raise ValueError(f"tolerance 'unitary' must be at least {UNITARY_FLOOR!r}, "
                             f"got {self.unitary!r}")

    def as_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
