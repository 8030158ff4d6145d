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

    Each must be a real number, not a bool, finite and >= 0, and is stored
    as a Python float.  ``unitary`` must be below 1: a matrix with a zero
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
            if not (isinstance(value, Real) and not isinstance(value, bool)
                    and math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {name!r} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))
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
