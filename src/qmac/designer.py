"""Heuristic search for tagging unitaries balancing the attack families.

No optimality criterion exists for the tagging operation; the scalar
score used here (worst case over the two attack families) is explicitly
heuristic and labeled as such in all emitted metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversary import best_message_attack, no_message_optimal
from .conditions import validate
from .config import DEFAULT_TOL, Tolerances
from .linalg import haar_random_unitary, halmos_dilation
from .protocol import TaggingUnitary, as_tagging_unitary

INSECURE = float("inf")
_DRAWS = 51  # a restart's first draw and up to 50 redraws of insecure ones
_REFINE_STEPS = 24  # score evaluations in a restart's coordinate descent


@dataclass(frozen=True)
class SecurityScore:
    pf_no_message: float
    pf_message_best: Optional[float]  # None: insecure or pruned, so never attacked
    secure: bool
    score: float


def security_score(
    u,
    budget: int = 2000,
    rng=None,
    ceiling: float = INSECURE,
) -> SecurityScore:
    """Validate a candidate and score it by its attack probabilities.

    Insecure candidates get an infinite sentinel score and no substitution
    search.  A secure candidate whose score cannot fall below ``ceiling`` is
    pruned: with ``pf_no_message >= ceiling`` it is not searched at all
    (``pf_message_best`` is None), otherwise its search stops once it reaches
    ``ceiling``.  A pruned score is at least ``ceiling`` and only a lower
    bound on the full one, and so is its ``pf_message_best``; a score below
    ``ceiling`` is exactly the unpruned score.  ``rng`` goes to
    :func:`~qmac.adversary.best_message_attack`: a Generator, a seed, or
    None for seed 0.  ``budget`` is checked first, so a candidate that is
    never searched rejects it too.  Deterministic for a fixed seed and budget.
    """
    u = as_tagging_unitary(u)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pf_nm = no_message_optimal(u).probability
    if not validate(u, include_attacks=False).overall_secure:
        return SecurityScore(pf_nm, None, False, INSECURE)
    if pf_nm >= ceiling:
        return SecurityScore(pf_nm, None, True, pf_nm)
    pf_msg = best_message_attack(u, budget=budget, rng=rng, stop_at=ceiling).probability
    return SecurityScore(pf_nm, pf_msg, True, max(pf_nm, pf_msg))


@dataclass
class DesignResult:
    unitary: np.ndarray
    score: SecurityScore
    trace: list = field(default_factory=list)  # (restart, iter, score) tuples


def optimize(
    restarts: int = 8,
    budget: int = 500,
    rng: Optional[np.random.Generator] = None,
    warm_start: Optional[np.ndarray] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> DesignResult:
    """Multi-start search for a secure tagging unitary with low score.

    Every attack sees a tagging only through its block M0 = U[:2,:2], so
    the search runs on M0's 8 real entries and scores the Halmos dilation
    :func:`~qmac.linalg.halmos_dilation` of each point.  Each restart
    starts from the M0 of a Haar draw, or of ``warm_start`` for the first;
    insecure draws are discarded, not penalized.  The start is refined by
    coordinate-wise descent, moving one real or imaginary entry of M0 at a
    time, and the result is the dilation of the best M0.  ``budget`` is
    the attack-search budget per score evaluation; a refine candidate's
    score is pruned at the incumbent's (see :func:`security_score`), so its
    search stops once the candidate cannot be accepted, and the result is
    the same as with every search run in full.  ``warm_start`` and every
    candidate are checked under ``tol``.  Reproducible per seed; ties
    between restarts break toward the lowest restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    warm = TaggingUnitary(warm_start, tol) if warm_start is not None else None
    rng = rng if rng is not None else np.random.default_rng(0)
    moves = np.eye(8).view(complex).reshape(8, 2, 2)  # Re and Im of each entry

    def evaluate(m0, seed, ceiling=INSECURE):
        try:
            tu = TaggingUnitary(halmos_dilation(m0), tol)
        except ValueError:  # sigma_max(M0) > 1, so no dilation exists
            return SecurityScore(1.0, None, False, INSECURE)
        return security_score(tu, budget=budget, rng=seed, ceiling=ceiling)

    trace = []
    best: Optional[tuple] = None  # (M0, SecurityScore)
    for restart in range(restarts):
        for draw in range(_DRAWS):
            if draw == 0 and restart == 0 and warm is not None:
                m0 = warm.m0
            else:
                m0 = haar_random_unitary(4, rng)[:2, :2]
            sc = evaluate(m0, seed=restart)
            if sc.secure:
                break
        if not sc.secure:
            continue
        trace.append((restart, 0, sc.score))
        step = 0.2
        it = 0
        order = rng.permutation(len(moves))
        while it < _REFINE_STEPS and step > 1e-4:
            k = int(order[it % len(moves)])
            improved = False
            for sign in (1.0, -1.0):
                q = m0 + sign * step * moves[k]
                # A candidate is kept only below this cutoff, so its score
                # may stop at the cutoff.
                cutoff = sc.score - 1e-12
                cand = evaluate(q, seed=restart, ceiling=cutoff)
                it += 1
                if cand.secure and cand.score < cutoff:
                    m0, sc = q, cand
                    trace.append((restart, it, sc.score))
                    improved = True
                    break
                if it >= _REFINE_STEPS:
                    break
            if not improved:
                step *= 0.5
        if best is None or sc.score < best[1].score - 1e-15:
            best = (m0, sc)

    if best is None:
        raise RuntimeError("no secure candidate found; increase restarts")
    m0, sc = best
    return DesignResult(unitary=halmos_dilation(m0), score=sc, trace=trace)
