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
from .linalg import dagger, haar_random_unitary, matrix_to_json
from .protocol import TaggingUnitary, as_tagging_unitary

INSECURE = float("inf")
_DRAWS = 51  # a restart's first draw and up to 50 redraws of insecure ones
_REFINE_STEPS = 24  # score evaluations in a restart's coordinate descent


def _chart_basis() -> np.ndarray:
    """The 16 coordinate directions of the exp(iH) chart, as 4x4 Hermitians.

    4 diagonal entries, then each strictly-upper entry (i, j) as a real
    and an imaginary direction.
    """
    basis = np.zeros((16, 4, 4), dtype=complex)
    for k in range(4):
        basis[k, k, k] = 1
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for k, (i, j) in enumerate(pairs):
        basis[4 + 2 * k, i, j] = basis[4 + 2 * k, j, i] = 1
        basis[5 + 2 * k, i, j], basis[5 + 2 * k, j, i] = 1j, -1j
    return basis


BASIS = _chart_basis()


def unitary_of_hermitian(h: np.ndarray) -> np.ndarray:
    """V = exp(iH) for a Hermitian generator H."""
    w, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * w)) @ dagger(vecs)


def hermitian_of_unitary(v: np.ndarray) -> np.ndarray:
    """A Hermitian logarithm H of a unitary, exp(iH) = V."""
    w, vecs = np.linalg.eig(v)
    h = (vecs * np.angle(w)) @ np.linalg.inv(vecs)
    return (h + dagger(h)) / 2


@dataclass(frozen=True)
class SecurityScore:
    pf_no_message: float
    pf_message_best: Optional[float]  # None: insecure or pruned, so never attacked
    secure: bool
    score: float

    def to_json(self) -> dict:
        return {
            "pf_no_message": self.pf_no_message,
            "pf_message_best": self.pf_message_best,
            "secure": self.secure,
            "score": self.score if self.secure else None,
            "score_kind": "heuristic-worst-case",
        }


def security_score(
    u,
    budget: int = 2000,
    rng: Optional[np.random.Generator] = None,
    ceiling: float = INSECURE,
) -> SecurityScore:
    """Validate a candidate and score it by its attack probabilities.

    Insecure candidates get an infinite sentinel score and no substitution
    search.  A secure candidate whose score cannot fall below ``ceiling`` is
    pruned: with ``pf_no_message >= ceiling`` it is not searched at all
    (``pf_message_best`` is None), otherwise its search stops once it reaches
    ``ceiling``.  A pruned score is at least ``ceiling`` and only a lower
    bound on the full one, and so is its ``pf_message_best``; a score below
    ``ceiling`` is exactly the unpruned score.  Deterministic for a fixed
    rng seed and budget.
    """
    u = as_tagging_unitary(u)
    rng = rng if rng is not None else np.random.default_rng(0)
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

    def to_json(self) -> dict:
        return {
            "unitary": matrix_to_json(self.unitary),
            "score": self.score.to_json(),
            "trace_length": len(self.trace),
        }


def optimize(
    restarts: int = 8,
    budget: int = 500,
    rng: Optional[np.random.Generator] = None,
    warm_start: Optional[np.ndarray] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> DesignResult:
    """Multi-start search for a secure tagging unitary with low score.

    Haar restarts are filtered through the validator (insecure samples are
    discarded, not penalized); each surviving candidate is refined by
    coordinate-wise descent on the exp(iH) chart, moving H along
    one :data:`BASIS` direction at a time.  ``budget`` is the
    attack-search budget per score evaluation; a refine candidate's score
    is pruned at the incumbent's (see :func:`security_score`), so its search
    stops once the candidate cannot be accepted, and the result is the same
    as with every search run in full.  Every candidate is checked under
    ``tol``.  Reproducible per seed; ties between restarts break toward the
    lowest restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)

    def evaluate(mat, seed, ceiling=INSECURE):
        try:
            tu = TaggingUnitary(mat, tol)
        except ValueError:  # the chart point is not unitary within tol.unitary
            return SecurityScore(1.0, None, False, INSECURE)
        return security_score(
            tu, budget=budget, rng=np.random.default_rng(seed), ceiling=ceiling
        )

    trace = []
    best: Optional[tuple] = None  # (score value, restart idx, H, SecurityScore)
    for restart in range(restarts):
        for draw in range(_DRAWS):
            if draw == 0 and restart == 0 and warm_start is not None:
                candidate = np.asarray(warm_start, dtype=complex)
            else:
                candidate = haar_random_unitary(4, rng)
            h = hermitian_of_unitary(candidate)
            sc = evaluate(unitary_of_hermitian(h), seed=restart)
            if sc.secure:
                break
        if not sc.secure:
            continue
        trace.append((restart, 0, sc.score))
        step = 0.2
        it = 0
        order = rng.permutation(16)
        while it < _REFINE_STEPS and step > 1e-4:
            k = int(order[it % 16])
            improved = False
            for sign in (1.0, -1.0):
                q = h + sign * step * BASIS[k]
                # A candidate is kept only below this cutoff, so its score
                # may stop at the cutoff.
                cutoff = sc.score - 1e-12
                cand = evaluate(unitary_of_hermitian(q), seed=restart, ceiling=cutoff)
                it += 1
                if cand.secure and cand.score < cutoff:
                    h, sc = q, cand
                    trace.append((restart, it, sc.score))
                    improved = True
                    break
                if it >= _REFINE_STEPS:
                    break
            if not improved:
                step *= 0.5
        if best is None or sc.score < best[0] - 1e-15:
            best = (sc.score, restart, h, sc)

    if best is None:
        raise RuntimeError("no secure candidate found; increase restarts")
    _, _, h, sc = best
    return DesignResult(unitary=unitary_of_hermitian(h), score=sc, trace=trace)
