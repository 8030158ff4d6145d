"""Centralized numeric tolerances used across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace


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

    Each must be finite and >= 0, and ``unitary`` below 1: a matrix with a
    zero column puts -1 on the diagonal of ``U†U - I``, so below 1 it can
    never pass as unitary.

    A :class:`~qmac.protocol.TaggingUnitary` carries the tolerances it was
    built with; every check on it reads them from there.
    """

    unitary: float = 1e-10
    strict: float = 1e-9
    phase_equiv: float = 1e-9

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {name!r} must be finite and >= 0, got {value!r}")
        if self.unitary >= 1:
            raise ValueError(f"tolerance 'unitary' must be below 1, got {self.unitary!r}")

    def as_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
