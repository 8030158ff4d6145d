"""The four security conditions for a candidate tagging unitary.

All strict inequalities are decided with a declared margin so borderline
unitaries surface in the report instead of being silently classified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversary import (
    best_message_attack,
    key_distinguishability,
    no_message_optimal,
    perfect_message_attack,
    row_parameters,
    swap_mismatch,
)
from .protocol import as_tagging_unitary


def ec_gorda_lhs(x: float, y: float, z: float) -> float:
    """Left-hand side of the overlapping-rows bound (must be < 1).

    (1/2) x {1 + (x/y)[1 + (x/y)^2]^(-1/2)} + (1/2) y [1 + (x/y)^2]^(1/2) + z
    """
    if y <= 0:
        raise ValueError("y must be positive; y = 0 routes to case 1")
    r = x / y
    s = np.sqrt(1 + r * r)
    return float(0.5 * x * (1 + r / s) + 0.5 * y * s + z)


@dataclass(frozen=True)
class ConditionCheck:
    satisfied: bool
    margin: Optional[float]  # None when the check does not apply
    applies: bool = True
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "applies": self.applies,
            "margin": self.margin,
            "details": self.details,
        }


def check_case1(u) -> ConditionCheck:
    """Non-overlapping rows: both M0 row norms must stay strictly below 1."""
    u = as_tagging_unitary(u)
    x, y, z = row_parameters(u)
    applies = y <= u.tol.strict
    n0sq = float(np.linalg.norm(u.row(0, 0)) ** 2)
    n1sq = float(np.linalg.norm(u.row(0, 1)) ** 2)
    margin = min(1 - n0sq, 1 - n1sq)
    return ConditionCheck(
        satisfied=applies and margin > u.tol.strict,
        margin=margin,
        applies=applies,
        details={"row0_norm_sq": n0sq, "row1_norm_sq": n1sq, "y": y},
    )


def check_case2(u) -> ConditionCheck:
    """Overlapping rows: the closed-form maximum must stay strictly below 1.

    The verdict uses the paper's formula as printed (:func:`ec_gorda_lhs`).
    The details also carry the exact restricted optimum's criterion,
    ``sigma_max_sq`` = sigma_max(M0)^2 < 1 - ``tol.strict``, and
    ``disagrees``: whether the two tests reach different answers.  The
    printed formula is never below sigma_max(M0)^2, so a disagreement is a
    rejection the exact criterion would pass.
    """
    u = as_tagging_unitary(u)
    x, y, z = row_parameters(u)
    applies = y > u.tol.strict
    if not applies:
        return ConditionCheck(
            satisfied=False, margin=None, applies=False, details={"y": y}
        )
    lhs = ec_gorda_lhs(x, y, z)
    sigma_max_sq = float(np.linalg.norm(u.block(0), 2) ** 2)
    satisfied = lhs < 1 - u.tol.strict
    return ConditionCheck(
        satisfied=satisfied,
        margin=1 - lhs,
        applies=True,
        details={
            "lhs": lhs, "x": x, "y": y, "z": z,
            "sigma_max_sq": sigma_max_sq,
            "disagrees": satisfied != (sigma_max_sq < 1 - u.tol.strict),
        },
    )


def check_condition3(u) -> ConditionCheck:
    """No certainty substitution attack.

    Satisfied when the M0 columns are NOT phase-equivalent under the
    phase-shifted swap, decided on ``tol.phase_equiv`` by the same
    :func:`~qmac.adversary.swap_mismatch` test that gates
    :func:`~qmac.adversary.perfect_message_attack`.  When they are exactly
    phase-equivalent, a certainty attack is always constructible (the
    bottom-block completion exists for every unitary, so the paper's
    auxiliary M2-column clause never rescues security).  ``margin`` is the
    swap mismatch.
    Under a loosened ``phase_equiv`` the two can disagree: the condition
    fails while ``perfect_message_attack`` returns None, because its
    constructed attack must still reach pf >= 1 - ``tol.strict``.  The
    ``perfect_attack_constructed`` detail says whether it was built.
    """
    u = as_tagging_unitary(u)
    mismatch = swap_mismatch(u)
    return ConditionCheck(
        satisfied=mismatch > u.tol.phase_equiv,
        margin=mismatch,
        details={"perfect_attack_constructed": perfect_message_attack(u) is not None},
    )


def check_condition4(u) -> ConditionCheck:
    """The key cannot be pinned down by measurement: the M0 block is nonzero.

    Decided by :func:`~qmac.adversary.key_distinguishability`'s test, so the
    two never disagree; ``margin`` is the largest |M0 entry| it compares
    with ``tol.strict``.  Implied by condition 3 when ``phase_equiv >=
    strict``, since the swap mismatch never exceeds the largest |M0 entry|;
    kept as an explicit cross-check.
    """
    u = as_tagging_unitary(u)
    dist = key_distinguishability(u)
    return ConditionCheck(
        satisfied=not dist.distinguishable,
        margin=float(np.abs(dist.gram).max()),
    )


@dataclass(frozen=True)
class ConditionReport:
    case1: ConditionCheck
    case2: ConditionCheck
    condition3: ConditionCheck
    condition4: ConditionCheck
    overall_secure: bool
    advisory: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "case1": self.case1.to_json(),
            "case2": self.case2.to_json(),
            "condition3": self.condition3.to_json(),
            "condition4": self.condition4.to_json(),
            "overall_secure": self.overall_secure,
            "advisory": self.advisory,
        }


def validate(
    u,
    attack_budget: int = 2000,
    seed: int = 0,
    include_attacks: bool = True,
) -> ConditionReport:
    """Aggregate all security checks for a candidate tagging unitary.

    ``overall_secure`` requires the applicable row case (1 or 2) and
    condition 3; condition 4 is reported but does not decide it.  Advisory
    fields carry the optimal no-message forgery probability and a searched
    substitution attack snapshot.
    """
    tu = as_tagging_unitary(u)

    c1 = check_case1(tu)
    c2 = check_case2(tu)
    c3 = check_condition3(tu)
    c4 = check_condition4(tu)
    row_ok = c1.satisfied if c1.applies else c2.satisfied
    secure = bool(row_ok and c3.satisfied)

    advisory = {}
    if include_attacks:
        opt = no_message_optimal(tu)
        rng = np.random.default_rng(seed)
        search = best_message_attack(tu, budget=attack_budget, rng=rng)
        advisory = {
            "no_message_pf_optimal": opt.probability,
            "message_attack_pf_best": search.probability,
            "attack_budget": attack_budget,
            "seed": seed,
        }
    return ConditionReport(
        case1=c1, case2=c2, condition3=c3, condition4=c4,
        overall_secure=secure, advisory=advisory,
    )
