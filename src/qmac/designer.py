"""Heuristic search for tagging unitaries balancing the attack families.

No optimality criterion exists for the tagging operation; the scalar
score used here (worst case over the two attack families) is explicitly
heuristic and labeled as such in all emitted metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversary import best_message_attack, no_message_optimal, no_message_probability
from .conditions import validate
from .config import DEFAULT_TOL, Tolerances, check_real
from .linalg import _SVD_ERRORS, _svd, check_count, check_rng, haar_random_unitary
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
    :func:`~qmac.adversary.best_message_attack`.  ``budget``, ``rng`` (by
    :func:`~qmac.linalg.check_rng`) and ``ceiling`` (by
    :func:`~qmac.config.check_real`) are checked first, so a candidate that
    is never searched rejects them too.  Deterministic for a
    fixed seed and budget.  :func:`optimize` rejects a candidate whose
    ``pf_no_message`` reaches ``ceiling`` on M0's SVD, before it builds the
    tagging this function takes.
    """
    rng = check_rng(rng)
    u = as_tagging_unitary(u)
    budget = check_count(budget, "budget", 1)
    ceiling = check_real(ceiling, "ceiling")
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
    rng=None,
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
    the same as with every search run in full.  Each candidate takes one
    SVD of its M0: a candidate whose no-message optimum (1 + σ_max(M0))/2
    already reaches the incumbent's score is rejected on it, with no
    dilation, tagging, condition check or search, and any other candidate's
    dilation and tagging are built from it.  ``warm_start`` and every
    candidate are checked under ``tol``, which must be a
    :class:`~qmac.config.Tolerances`, and ``rng`` by
    :func:`~qmac.linalg.check_rng`.  Restart r's searches take the seed r.
    Reproducible per seed; ties between restarts break toward the lowest
    restart index.
    """
    rng = np.random.default_rng(check_rng(rng))
    restarts = check_count(restarts, "restarts", 1)
    budget = check_count(budget, "budget", 1)
    warm = TaggingUnitary(warm_start, tol) if warm_start is not None else None
    moves = np.eye(8).view(complex).reshape(8, 2, 2)  # Re and Im of each entry

    def evaluate(m0, seed, ceiling=INSECURE):
        # (tagging, score) of M0's dilation if it is secure, else None.  A
        # no-message optimum at ceiling rejects M0 on its SVD alone: insecure
        # or pruned, its score could not fall below ceiling.
        with np.errstate(**_SVD_ERRORS):
            svd = _svd(m0)
        if no_message_probability(svd[1][0]) >= ceiling:
            return None
        try:
            tu = TaggingUnitary.dilation(m0, svd, tol)
        except ValueError:  # sigma_max(M0) > 1, so no dilation exists
            return None
        sc = security_score(tu, budget=budget, rng=seed, ceiling=ceiling)
        return (tu, sc) if sc.secure else None

    trace = []
    best: Optional[tuple] = None  # (tagging, SecurityScore)
    for restart in range(restarts):
        for draw in range(_DRAWS):
            if draw == 0 and restart == 0 and warm is not None:
                m0 = warm.m0
            else:
                m0 = haar_random_unitary(4, rng)[:2, :2]
            found = evaluate(m0, seed=restart)
            if found is not None:
                break
        else:
            continue
        tu, sc = found
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
                if cand is not None and cand[1].score < cutoff:
                    m0, (tu, sc) = q, cand
                    trace.append((restart, it, sc.score))
                    improved = True
                    break
                if it >= _REFINE_STEPS:
                    break
            if not improved:
                step *= 0.5
        if best is None or sc.score < best[1].score - 1e-15:
            best = (tu, sc)

    if best is None:
        raise RuntimeError("no secure candidate found; increase restarts")
    tu, sc = best
    return DesignResult(unitary=tu.u.copy(), score=sc, trace=trace)
