"""Centralized numeric tolerances used across the package."""

from __future__ import annotations

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
    phase_equiv : threshold for deciding phase-equivalence of vectors.

    A :class:`~qmac.protocol.TaggingUnitary` carries the tolerances it was
    built with; every check on it reads them from there.
    """

    unitary: float = 1e-10
    strict: float = 1e-9
    phase_equiv: float = 1e-9

    def as_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
