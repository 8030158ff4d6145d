"""The four security conditions for a candidate tagging unitary.

All strict inequalities are decided with a declared margin so borderline
unitaries surface in the report instead of being silently classified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Optional

import numpy as np

from .adversary import (
    best_message_attack,
    key_distinguishability,
    no_message_optimal,
    perfect_message_attack,
)
from .config import check_real
from .linalg import check_count, check_rng
from .protocol import as_tagging_unitary


def ec_gorda_lhs(x: float, y: float, z: float) -> float:
    """Left-hand side of the overlapping-rows bound (must be < 1).

    (1/2) x {1 + (x/y)[1 + (x/y)^2]^(-1/2)} + (1/2) y [1 + (x/y)^2]^(1/2) + z,

    evaluated through h = hypot(x, y) = y [1 + (x/y)^2]^(1/2), so that
    (x/y)[1 + (x/y)^2]^(-1/2) = x/h and a tiny y cannot overflow (x/y)^2.
    x, y and z are checked by :func:`~qmac.config.check_real`; y must be
    above 0, since y = 0 routes to case 1.
    """
    x = check_real(x, "x", -inf, inf, "()")
    y = check_real(y, "y", 0, inf, "()")
    z = check_real(z, "z", -inf, inf, "()")
    h = np.hypot(x, y)
    return float(0.5 * x * (1 + x / h) + 0.5 * h + z)


@dataclass(frozen=True)
class ConditionCheck:
    satisfied: bool
    margin: Optional[float]  # None when the check does not apply
    applies: bool = True
    details: dict = field(default_factory=dict)


def check_case1(u) -> ConditionCheck:
    """Non-overlapping rows: both M0 row norms must stay strictly below 1."""
    u = as_tagging_unitary(u)
    _, y, _ = u.row_parameters
    applies = y <= u.tol.strict
    n0sq, n1sq = u.row_norms_sq
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
    ``sigma_max_sq`` = sigma_max(M0)^2 < 1 - ``tol.strict``, with sigma_max
    from the SVD behind :func:`~qmac.adversary.no_message_optimal`, and
    ``disagrees``: whether the two tests reach different answers.  The
    printed formula is never below sigma_max(M0)^2, so a disagreement is a
    rejection the exact criterion would pass.
    """
    u = as_tagging_unitary(u)
    x, y, z = u.row_parameters
    applies = y > u.tol.strict
    if not applies:
        return ConditionCheck(
            satisfied=False, margin=None, applies=False, details={"y": y}
        )
    lhs = ec_gorda_lhs(x, y, z)
    # The full decomposition no_message_optimal takes, not norm(M0, 2)'s
    # values-only one, which can differ in the last bit.
    sigma_max_sq = float(u.m0_svd[1][0] ** 2)
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

    Satisfied when the M0 columns are NOT phase-equivalent under the swap,
    decided on ``tol.phase_equiv`` by the same
    :attr:`~qmac.protocol.TaggingUnitary.swap_mismatch` test that gates
    :func:`~qmac.adversary.perfect_message_attack`.  A certainty attack maps
    each ray b_k of Eve's substitution objective to e^{i theta_k} a_k; a
    unitary doing so exists exactly when the Gram matrices of the a_k and
    the b_k agree up to those phases, and M0 alone builds both.  So a swap
    mismatch of 0 always admits the attack, the polar factor of
    sum_k e^{i theta_k} |a_k><b_k|, and the paper's auxiliary M2-column
    clause never rescues security.  ``margin`` is the swap mismatch.
    Under a loosened ``phase_equiv`` the condition can fail at a nonzero
    mismatch, where the built attack falls short of pf >= 1 -
    ``tol.strict`` and none is returned; the ``perfect_attack_constructed``
    detail says whether it was built.
    """
    u = as_tagging_unitary(u)
    mismatch = u.swap_mismatch
    return ConditionCheck(
        satisfied=mismatch > u.tol.phase_equiv,
        margin=mismatch,
        details={"perfect_attack_constructed": perfect_message_attack(u) is not None},
    )


def check_condition4(u) -> ConditionCheck:
    """The key cannot be pinned down by measurement: the M0 block is nonzero.

    Decided by :func:`~qmac.adversary.key_distinguishability`'s test, so the
    two never disagree; ``margin`` is the largest of
    :attr:`~qmac.protocol.TaggingUnitary.m0_moduli`, which it compares with
    ``tol.strict``.  Implied by condition 3 when ``phase_equiv >=
    strict``, since the swap mismatch never exceeds the largest |M0 entry|;
    kept as an explicit cross-check.
    """
    u = as_tagging_unitary(u)
    return ConditionCheck(
        satisfied=not key_distinguishability(u).distinguishable,
        margin=max(u.m0_moduli),
    )


@dataclass(frozen=True)
class ConditionReport:
    case1: ConditionCheck
    case2: ConditionCheck
    condition3: ConditionCheck
    condition4: ConditionCheck
    overall_secure: bool
    advisory: dict = field(default_factory=dict)


def validate(
    u,
    attack_budget: int = 2000,
    seed=0,
    include_attacks: bool = True,
) -> ConditionReport:
    """Aggregate all security checks for a candidate tagging unitary.

    ``overall_secure`` requires the applicable row case (1 or 2) and
    condition 3; condition 4 is reported but does not decide it.  Advisory
    fields carry the optimal no-message forgery probability and a searched
    substitution attack snapshot, with the seed :func:`~qmac.linalg.check_rng`
    returns: an integer seed as a Python int, and None for a Generator, whose
    stream belongs to the caller.  ``attack_budget`` and ``seed`` are
    checked whether or not ``include_attacks`` runs the search.
    """
    seed = check_rng(seed, "seed")
    tu = as_tagging_unitary(u)
    attack_budget = check_count(attack_budget, "attack_budget", 1)

    c1 = check_case1(tu)
    c2 = check_case2(tu)
    c3 = check_condition3(tu)
    c4 = check_condition4(tu)
    row_ok = c1.satisfied if c1.applies else c2.satisfied
    secure = bool(row_ok and c3.satisfied)

    advisory = {}
    if include_attacks:
        opt = no_message_optimal(tu)
        search = best_message_attack(tu, budget=attack_budget, rng=seed)
        advisory = {
            "no_message_pf_optimal": opt.probability,
            "message_attack_pf_best": search.probability,
            "attack_budget": attack_budget,
            "seed": None if isinstance(seed, np.random.Generator) else seed,
        }
    return ConditionReport(
        case1=c1, case2=c2, condition3=c3, condition4=c4,
        overall_secure=secure, advisory=advisory,
    )
