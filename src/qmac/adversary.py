"""Attack families against the tagging protocol and their optimization.

Covers: no-message forgery (closed form, restricted two-parameter form,
and the exact optimum (1 + sigma_max(M0))/2), message substitution
(perfect-attack construction and polar-decomposition ascent over
unitaries), the key-distinguishing measurement attack, and key-reuse
entangling attacks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    dagger,
    haar_random_unitary,
    is_unitary,
    matrix_to_json,
    tensor,
)
from .protocol import (
    ACCEPT_PROJECTOR,
    I2,
    I4,
    TaggingUnitary,
    as_tagging_unitary,
    decode,
    encode,
    key_fidelity,
    measurement_distribution,
    singlet,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_ASCENT_GAIN = 1e-13  # a substitution-ascent step gaining no more has converged
_FIXED_POINT = 1e-9  # a polar step moving a start's weighted overlaps no more has settled it
_PRIOR_SUM_SLACK = 1e-12  # priors typed in decimal can miss 1 by rounding
_ACCEPT_FLOOR = 1e-15  # acceptance this small is rounding: do not condition on it


def phase_shift(beta: float) -> np.ndarray:
    """S(beta) = diag(1, e^{i beta})."""
    return np.diag([1.0, np.exp(1j * beta)]).astype(complex)


@dataclass(frozen=True)
class AttackResult:
    """A forgery probability with its witnessing strategy."""

    probability: float
    strategy: np.ndarray  # state vector or attack unitary
    method: str  # closed_form | polar_ascent
    budget: Optional[int] = None
    # Evaluations made, summed over the starts (each start and SQUAREM
    # iterate); each start takes at most budget // starts, so at most budget.
    iterations: Optional[int] = None
    converged: Optional[bool] = None  # the last step moved f by <= _ASCENT_GAIN
    # The rule that ended the search: fixed_point (every start settled: a polar
    # step from its cycle base moved its weighted overlaps by <= _FIXED_POINT),
    # certain, stop_at or budget (a start still stepping took its share).
    stop: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "probability": self.probability,
            "method": self.method,
            "strategy": matrix_to_json(self.strategy),
            "budget": self.budget,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop": self.stop,
        }


# --- no-message attack -------------------------------------------------------

def no_message_pf(u, eve: np.ndarray) -> float:
    """Forgery probability of injecting the pure state ``eve``.

    Evaluates (1/2) sum_{i=0,1} (|e_i|^2 + |<eve|U|phi_i>|^2).  ``eve``
    must be normalised to within ``u.tol.unitary``.
    """
    u = as_tagging_unitary(u)
    eve = np.asarray(eve, dtype=complex).reshape(4)
    nrm = np.linalg.norm(eve)
    if abs(nrm - 1) > u.tol.unitary:
        raise ValueError(f"Eve's state must be normalized (norm {nrm})")
    return float(no_message_pf_batch(u, eve[:, None])[0])


def no_message_pf_batch(u, states: np.ndarray) -> np.ndarray:
    """Vectorized :func:`no_message_pf` over columns of a 4×N array."""
    u = as_tagging_unitary(u)
    direct = (np.abs(states[:2]) ** 2).sum(axis=0)
    overlaps = (np.abs(dagger(u.u) @ states)[:2] ** 2).sum(axis=0)
    return 0.5 * (direct + overlaps)


def row_parameters(u) -> tuple:
    """(x, y, z) from the first-block rows of the tagging unitary."""
    u = as_tagging_unitary(u)
    r0, r1 = u.row(0, 0), u.row(0, 1)
    x = float(np.linalg.norm(r0) ** 2 - np.linalg.norm(r1) ** 2)
    y = float(2 * abs(r1 @ r0.conj()))
    z = float(np.linalg.norm(r1) ** 2)
    return x, y, z


def no_message_pf_restricted(u, abs_e0: float, theta: float) -> float:
    """The two-parameter restricted form (e2 = e3 = 0).

    Decision variables are |e0| and the relative phase angle; the first
    closed-form term equals 1/2 under the restriction.
    """
    if not 0 <= abs_e0 <= 1:
        raise ValueError("abs_e0 must lie in [0, 1]")
    x, y, z = row_parameters(u)
    second = 0.5 * (
        x * abs_e0**2
        + y * abs_e0 * np.sqrt(max(0.0, 1 - abs_e0**2)) * np.cos(theta)
        + z
    )
    return float(0.5 + second)


def eve_state_from_restricted(u, abs_e0: float, theta: float) -> np.ndarray:
    """Explicit injected state realizing the restricted parameters."""
    u = as_tagging_unitary(u)
    g = u.row(0, 0) @ u.row(0, 1).conj()  # cross-row coupling, phase matters
    phase = theta - np.angle(g) if abs(g) > 0 else theta
    e1 = np.sqrt(max(0.0, 1 - abs_e0**2)) * np.exp(1j * phase)
    return np.array([abs_e0, e1, 0, 0], dtype=complex)


def forgery_operator(u) -> np.ndarray:
    """Q = U P U† + P with P the accept projector."""
    u = as_tagging_unitary(u)
    return u.u @ ACCEPT_PROJECTOR @ dagger(u.u) + ACCEPT_PROJECTOR


def no_message_optimal(u) -> AttackResult:
    """Exact optimum over all injected states: (1 + s0)/2, s0 = sigma_max(M0).

    It is lambda_max(Q)/2 in closed form: Q is the sum of the projectors
    onto the accept plane A and onto U A, whose spectrum is 1 +- cos of the
    principal angles between the two planes, and those cosines are the
    singular values of M0 (Halmos, "Two subspaces", Trans. AMS 144 (1969)).
    The witnessing strategy is (|a> + U|v>)/sqrt(2 + 2 s0) for the top
    singular pair M0 v = s0 a.
    """
    u = as_tagging_unitary(u)
    left, s, right = np.linalg.svd(u.block(0))
    eve = u.u[:, :2] @ right[0].conj()
    eve[:2] += left[:, 0]
    return AttackResult(
        probability=float((1 + s[0]) / 2),
        strategy=eve / np.linalg.norm(eve),
        method="closed_form",
    )


def injected_acceptance_distribution(u, eve: np.ndarray) -> np.ndarray:
    """Bob's outcome distribution when Eve injects ``eve`` with no message.

    Full 16-dim simulation: the key is still the untouched singlet.
    """
    u = as_tagging_unitary(u)
    state = tensor(singlet(), np.asarray(eve, dtype=complex).reshape(4))
    return measurement_distribution(decode(u, state))


def no_message_attack_sim(u, eve, trials: int, rng: np.random.Generator) -> float:
    """Monte Carlo acceptance frequency for an injected state."""
    _check_trials(trials)
    probs = injected_acceptance_distribution(u, eve)
    outcomes = rng.choice(4, size=trials, p=probs / probs.sum())
    return float((outcomes < 2).mean())


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


# --- message (substitution) attack ------------------------------------------

def _check_priors(p0: float, p1: float):
    # Phrased so that a NaN prior fails it.
    if not (p0 >= 0 and p1 >= 0 and abs(p0 + p1 - 1) <= _PRIOR_SUM_SLACK):
        raise ValueError(f"priors must be nonnegative and sum to 1, got {p0}, {p1}")


def message_attack_pf(u, v: np.ndarray, p0: float = 0.5, p1: float = 0.5) -> float:
    """Probability that applying ``v`` in the channel flips the decoded bit.

    sum_i p_i (1/2)(|<phi_j|V|phi_i>|^2 + |<phi_j|U†VU|phi_i>|^2), j != i.
    """
    u = as_tagging_unitary(u)
    _check_priors(p0, p1)
    v = np.asarray(v, dtype=complex)
    ok, dev = is_unitary(v, u.tol.unitary)
    if not ok:
        raise ValueError(f"attack operation must be unitary (deviation {dev:.3e})")
    w = dagger(u.u) @ v @ u.u
    total = 0.0
    for i, p in ((0, p0), (1, p1)):
        j = 1 - i
        total += p * 0.5 * (abs(v[j, i]) ** 2 + abs(w[j, i]) ** 2)
    return float(total)


def message_attack_distribution(u, v: np.ndarray, message: int) -> np.ndarray:
    """Bob's outcome distribution when Eve applies ``v`` to an honest round."""
    u = as_tagging_unitary(u)
    state = encode(u, message)
    state = tensor(I2, I2, np.asarray(v, dtype=complex)) @ state
    return measurement_distribution(decode(u, state))


def message_attack_sim(
    u, v, trials: int, rng: np.random.Generator, p0: float = 0.5, p1: float = 0.5
) -> float:
    """Monte Carlo frequency of successful substitution (flip accepted)."""
    _check_priors(p0, p1)
    _check_trials(trials)
    dists = [message_attack_distribution(u, v, i) for i in (0, 1)]
    messages = rng.choice(2, size=trials, p=[p0, p1])
    hits = 0
    for i in (0, 1):
        n = int((messages == i).sum())
        if n == 0:
            continue
        outcomes = rng.choice(4, size=n, p=dists[i] / dists[i].sum())
        hits += int((outcomes == 1 - i).sum())
    return hits / trials


def swap_mismatch(u) -> float:
    """Distance of the M0 columns from the relation c0 = e^{ig} S(d) sigma_x c1.

    With both phases free the relation reduces to moduli equality between
    swapped components; the return value is the worst moduli mismatch
    (0 means the relation is satisfiable).
    """
    u = as_tagging_unitary(u)
    c0, c1 = u.col(0, 0), u.col(0, 1)
    return float(max(abs(abs(c0[0]) - abs(c1[1])), abs(abs(c0[1]) - abs(c1[0]))))


def perfect_message_attack(u) -> Optional[np.ndarray]:
    """Construct a certainty substitution attack if one exists.

    A perfect attack forces V to be block diagonal with an anti-diagonal
    top block, and exists precisely when the two columns of the M0 block
    are phase-equivalent under S(delta) sigma_x, i.e. when
    |M0^0[0]| = |M0^1[1]| and |M0^0[1]| = |M0^1[0]|.  The bottom block of
    V is the polar factor of T S†, which maps the M2 columns S = [c20, c21]
    onto T = [e^{i theta0} c21, e^{i theta1} c20], their swap with the
    phases the top block forces.  Column orthogonality of U makes the Gram
    matrices S†S and T†T agree, so the polar factor maps S onto T at any
    rank.  Returns None when :func:`swap_mismatch` exceeds
    ``tol.phase_equiv`` or the constructed V reaches pf < 1 - ``tol.strict``;
    under a loosened ``phase_equiv`` the second can happen while condition 3
    reports a certainty attack.
    """
    u = as_tagging_unitary(u)
    tol = u.tol.phase_equiv
    if swap_mismatch(u) > tol:
        return None
    c00, c01 = u.col(0, 0), u.col(0, 1)
    c20, c21 = u.col(2, 0), u.col(2, 1)
    gamma = np.angle(c00[0] / c01[1]) if abs(c01[1]) > tol else 0.0
    gd = np.angle(c00[1] / c01[0]) if abs(c01[0]) > tol else gamma
    delta = gd - gamma
    m0e = np.exp(-1j * (gamma + delta)) * phase_shift(delta) @ SIGMA_X
    # Global phases forced on the bottom block by the top block.
    t0 = m0e @ c00
    theta0 = np.angle(np.vdot(c01, t0)) if np.linalg.norm(c01) > tol else 0.0
    t1 = m0e @ c01
    theta1 = np.angle(np.vdot(c00, t1)) if np.linalg.norm(c00) > tol else 0.0
    sources = np.stack([c20, c21], axis=1)
    targets = np.stack([np.exp(1j * theta0) * c21, np.exp(1j * theta1) * c20], axis=1)
    left, _, right = np.linalg.svd(targets @ dagger(sources))
    v = np.zeros((4, 4), dtype=complex)
    v[:2, :2] = m0e
    v[2:, 2:] = left @ right
    if message_attack_pf(u, v) < 1 - u.tol.strict:
        return None
    return v


def best_message_attack(
    u,
    p0: float = 0.5,
    p1: float = 0.5,
    budget: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    stop_at: float = np.inf,
) -> AttackResult:
    """Maximize :func:`message_attack_pf` over unitaries by multi-start
    polar-decomposition ascent.

    f(V) = sum_k w_k |<a_k|V|b_k>|^2 is convex in V, so the polar map F,
    which takes V to the polar factor W Z† of G = sum_k w_k <a_k|V|b_k>
    |a_k><b_k| = W S Z† (the maximizer of f's linearisation at V), cannot
    lower f.  Each F is one SVD; the overlaps <a_k|V|b_k> are
    ``V.reshape(16) @ K`` with K[ij, k] = conj(a_k[i]) b_k[j], and G is the
    overlaps times ``w_k K[:, k]†``, both taken start by start, so a start's
    iterates do not depend on how many starts run.  The live starts step
    through one batched SVD.

    Plain steps V <- F(V) converge only linearly, so the search runs SQUAREM
    cycles of F (Varadhan & Roland, Scand. J. Stat. 35 (2008) 335) on the
    overlaps, which are linear in V and all that F reads: from a base V0 with
    overlaps c0, V1 = F(V0) and V2 = F(V1) give c1 and c2; with r = c1 - c0,
    d = c2 - 2 c1 + c0 and alpha = min(-|sqrt(w) r|/|sqrt(w) d|, -1) (-1 when
    d = 0, which makes the cycle plain steps), V3 is F taken at the overlaps
    c0 - 2 alpha r + alpha^2 d.  The safeguard: the next base is V3 unless f(V3) < f(V2),
    when it is V2.  Every iterate is a polar factor, hence a unitary, so the
    reported probability is an exact witness.  Each evaluated iterate (V1,
    V2, V3, and the start) is one step of its start, and each start takes
    at most ``budget // n`` steps (n starts), so ``iterations``, the
    evaluations made summed over the starts, is at most ``budget``.

    A start settles at a fixed point of F once the step V1 = F(V0) from its
    cycle base moved its weighted overlaps by ||sqrt(w) (c1 - c0)|| <=
    ``_FIXED_POINT``.  A settled start has nothing left to compute: it
    leaves the batch with its best iterate and takes no further step, and
    the search stops once no start is left.  Both this test and alpha read
    the weighted overlaps, not V: at priors 0 or 1 two weights vanish, G has
    rank 2, and the SVD's free null-space part moves V at every step without
    moving f.  The threshold 1e-9 was measured, not derived: over the three
    builtins and Haar taggings 5000-5299 at priors 0.5, 0.7, 1, 0 and 0.999
    and budgets 500 and 2,000, the 3,030 searches took 300,487 evaluations
    and all but one converged; 1.5e-8 (sqrt(eps)) took 269,215 but ended up
    to 8.2e-15 lower, and three more searches ended unconverged.  The other
    stops are a certainty attack (f <= 1, so once a start is within
    ``_ASCENT_GAIN`` of 1 and the last step gained no more, nothing is left
    to gain), ``stop_at`` (the search ends once any start's best f reaches
    it) and ``budget`` (a start still live took its share of the budget).
    The stop rules are read after every step and over every start, settled
    or live.  Each start keeps its best iterate, so the reported probability
    never falls during the search; a result cut by ``stop_at`` is at least
    ``stop_at`` and only a lower end of what the search would find without
    it.  ``converged`` says whether the last step
    moved the f of every start that took it by no more than
    ``_ASCENT_GAIN`` either way (a start that left the batch is settled), so
    an extrapolation that fell below the best does not read as convergence;
    a polar step never lowers f beyond rounding, so on it this is the gain.
    ``stop`` names the rule that ended the search: ``fixed_point``,
    ``certain``, ``stop_at`` or ``budget``.

    Deterministic for a given rng seed.  The perfect-attack construction,
    when available, is a start, so no known certainty attack is missed.
    """
    u = as_tagging_unitary(u)
    _check_priors(p0, p1)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)

    # Terms (a_k, b_k, w_k): the bit flip on the bare message, then under U.
    a = np.stack([I4[1], u.u[:, 1], I4[0], u.u[:, 0]])
    b = np.stack([I4[0], u.u[:, 0], I4[1], u.u[:, 1]])
    w = 0.5 * np.array([p0, p0, p1, p1])
    k_mat = (a.conj()[:, :, None] * b[:, None, :]).reshape(4, 16).T
    g_mat = w[:, None] * k_mat.T.conj()

    starts = [I4[[1, 0, 2, 3]]]  # sigma_x on the message bit
    perfect = perfect_message_attack(u)
    if perfect is not None:
        starts.append(perfect)
    n_restarts = max(len(starts), min(12, budget // 300))
    while len(starts) < n_restarts:
        starts.append(haar_random_unitary(4, rng))

    step = np.stack(starts[:budget])
    n = len(step)

    # Overlaps and G row by row, so a start's arithmetic is the same at any n.
    def polar(c):
        left, _, right = np.linalg.svd((c[:, None] @ g_mat).reshape(-1, 4, 4))
        return left @ right

    # np.linalg.norm(root_w * x, axis=-1): its own arithmetic for a complex
    # vector norm, without its argument handling.
    def weighted_norm(x):
        x = root_w * x
        return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))

    # A step is flat if it moved f by at most _ASCENT_GAIN either way, so an
    # extrapolation that fell below the best does not read as converged.
    def flat():
        return bool(np.all(np.abs(f_step - before) <= _ASCENT_GAIN))

    # The live starts (indices `live`) with their best iterate v and f; a
    # settled start leaves them for best_v and best_f.
    live, v, f = np.arange(n), step.copy(), np.full(n, -np.inf)
    best_v, best_f = v.copy(), f.copy()
    top, evals, root_w, stop = -np.inf, 0, np.sqrt(w), "budget"
    # The SQUAREM cycle so far: the overlaps and f of its base V0, then V1 and V2.
    cycle = []
    for _ in range(budget // n):
        if len(cycle) == 3:
            (c0, _), (c1, _), (c2, _) = cycle
            r, d = c1 - c0, c2 - 2 * c1 + c0
            r_norm, d_norm = weighted_norm(r), weighted_norm(d)
            # alpha = min(-|sqrt(w) r|/|sqrt(w) d|, -1), and -1 when d = 0.
            alpha = -np.divide(np.maximum(r_norm, d_norm), d_norm,
                               out=np.ones(len(live)), where=d_norm > 0)[:, None]
            step = polar(c0 - 2 * alpha * r + alpha**2 * d)
        elif cycle:
            step = polar(cycle[-1][0])
        c = (step.reshape(-1, 1, 16) @ k_mat)[:, 0]
        f_step = np.add.reduce(np.abs(c) ** 2 * w, axis=-1)
        evals += len(live)
        cycle.append((c, f_step))
        if len(cycle) == 4:
            # Keep the extrapolated V3 as the next base unless it fell below V2.
            c2, f2 = cycle[2]
            keep = f_step >= f2
            cycle = [(c, f_step) if keep.all() else
                     (np.where(keep[:, None], c, c2), np.where(keep, f_step, f2))]
        # Keep each start's first best iterate: at a fixed point rounding can dip f.
        gained, before = f_step > f, f
        np.copyto(v, step, where=gained[:, None, None])
        f = np.where(gained, f_step, f)
        f_top = f.max()
        if f_top > top:
            top = f_top
        if len(cycle) == 2:
            # A settled start has nothing left to compute: it leaves the batch.
            settled = weighted_norm(c - cycle[0][0]) <= _FIXED_POINT
            if settled.any():
                best_v[live[settled]], best_f[live[settled]] = v[settled], f[settled]
                keep = ~settled
                live, v, f = live[keep], v[keep], f[keep]
                cycle = [(c_x[keep], f_x[keep]) for c_x, f_x in cycle]
        if top >= stop_at:
            stop = "stop_at"
        elif top >= 1 - _ASCENT_GAIN and flat():
            stop = "certain"
        elif not len(live):
            stop = "fixed_point"
        if stop != "budget":
            break

    best_v[live], best_f[live] = v, f
    top_start = int(np.argmax(best_f))
    return AttackResult(
        probability=float(best_f[top_start]),
        strategy=best_v[top_start],
        method="polar_ascent",
        budget=budget,
        iterations=evals,
        # Starts that left the batch have settled; the last step's starts decide.
        converged=flat(),
        stop=stop,
    )


# --- measurement (key-distinguishing) attack --------------------------------

@dataclass(frozen=True)
class KeyDistinguishabilityReport:
    distinguishable: bool
    gram: np.ndarray  # <phi_i|U|phi_j> for i, j in {0, 1}

    def to_json(self) -> dict:
        return {
            "distinguishable": self.distinguishable,
            "gram": matrix_to_json(self.gram),
        }


def key_distinguishability(u) -> KeyDistinguishabilityReport:
    """Can Eve perfectly identify which channel branch occurred?

    She can iff <phi_i|U|phi_j> = 0 for all i, j in {0, 1}, i.e. the M0
    block vanishes.
    """
    u = as_tagging_unitary(u)
    gram = u.block(0).copy()
    return KeyDistinguishabilityReport(
        distinguishable=bool(np.abs(gram).max() <= u.tol.strict), gram=gram
    )


# --- key reuse ---------------------------------------------------------------

@dataclass(frozen=True)
class KeyReuseFeasibilityReport:
    ruled_out: bool
    witness: Optional[int]  # message index with <phi_i|U|phi_i> != 0
    diagonal_overlaps: tuple

    def to_json(self) -> dict:
        return {
            "ruled_out": self.ruled_out,
            "witness": self.witness,
            "diagonal_overlaps": list(self.diagonal_overlaps),
        }


def key_reuse_feasibility(u) -> KeyReuseFeasibilityReport:
    """Is the certainty key-entangling attack impossible for this tagging?

    Ruled out when <phi_i|U|phi_i> != 0 for some i in {0, 1}: the attack
    unitary would have to map non-orthogonal inputs to orthogonal outputs.
    """
    u = as_tagging_unitary(u)
    diag = (abs(complex(u.u[0, 0])), abs(complex(u.u[1, 1])))
    witness = next((i for i in (0, 1) if diag[i] > u.tol.strict), None)
    return KeyReuseFeasibilityReport(
        ruled_out=witness is not None, witness=witness, diagonal_overlaps=diag
    )


@dataclass
class KeyReuseStats:
    per_round_acceptance: list
    final_key_fidelity: float
    forgery_attempts: int
    forgery_successes: int

    @property
    def forgery_success_rate(self) -> float:
        if self.forgery_attempts == 0:
            return float("nan")
        return self.forgery_successes / self.forgery_attempts

    def to_json(self) -> dict:
        """Plain floats, with null for a round no trial reached and for the
        fidelity and rate of a run with no forgery attempt (NaN fields)."""
        return {
            "per_round_acceptance": [_json_float(a) for a in self.per_round_acceptance],
            "final_key_fidelity": _json_float(self.final_key_fidelity),
            "forgery_attempts": self.forgery_attempts,
            "forgery_successes": self.forgery_successes,
            "forgery_success_rate": _json_float(self.forgery_success_rate),
        }


def _json_float(x: float) -> Optional[float]:
    return None if np.isnan(x) else float(x)


# psi[a, b, e] before the first round: the singlet key, Eve's ancilla in |0>.
_START = np.multiply.outer(singlet().reshape(2, 2), [1, 0])


def _reuse_kernel(u: TaggingUnitary, interaction: np.ndarray, forge_bit: int):
    """One round of the key-reuse attack as maps on psi[a, b, e].

    Once Bob has measured, the message register is a basis state, so all
    that carries over between rounds lives on key A ⊗ key B ⊗ Eve's ancilla.
    ``maps[i, k, a, b]`` is the 2×2 ancilla map of an honest round with
    Alice's bit i and Bob's outcome k on the key basis state |ab>:
    (<k|⊗I)(D_b⊗I) W (E_a⊗I)(|i>⊗I), with Alice's E_a = U^a, Bob's
    D_0 = U†, D_1 = I and Eve's interaction W on message ⊗ ancilla.
    ``forge[k, b, e] = |<k|D_b U^e|f>|^2`` is Bob's outcome distribution
    after Eve loads |f> = |phi_forge_bit> and tags it with U controlled on
    her ancilla, which leaves (a, b, e) untouched.
    """
    w = np.asarray(interaction, dtype=complex)
    if w.shape != (8, 8):
        raise ValueError("Eve's interaction must act on message ⊗ ancilla (8-dim)")
    ok, dev = is_unitary(w, u.tol.unitary)
    if not ok:
        raise ValueError(f"Eve's interaction must be unitary (deviation {dev:.3e})")
    if forge_bit not in (0, 1):
        raise ValueError("forge_bit must be 0 or 1")
    enc = np.stack([I4, u.u])
    dec = np.stack([dagger(u.u), I4])
    maps = np.einsum("bkp,pfme,ami->ikabfe", dec, w.reshape(4, 2, 4, 2), enc[:, :, :2])
    forge = np.abs(np.einsum("bkm,em->kbe", dec, enc[:, :, forge_bit])) ** 2
    return maps, forge


def _outcome_cdf(probs: np.ndarray) -> list:
    """The CDF ``Generator.choice(4, p=probs / probs.sum())`` builds.

    ``bisect_right(cdf, rng.random())`` then draws the outcome that call
    would, from the same single uniform, at a fraction of its cost.
    """
    cdf = np.cumsum(probs / probs.sum())
    return (cdf / cdf[-1]).tolist()


def simulate_key_reuse(
    u,
    rounds: int,
    interaction: np.ndarray,
    rng: np.random.Generator,
    trials: int = 1000,
    forge_bit: int = 0,
) -> KeyReuseStats:
    """Sequential honest rounds with Eve in the channel, then a reuse forgery.

    Each trial runs ``rounds`` honest rounds (Alice's bit drawn uniformly,
    Eve applies ``interaction`` on message ⊗ ancilla in flight, key kept
    only on acceptance), then Eve attempts a forgery against the reused
    key: she loads |phi_forge_bit>, re-runs the tagging controlled on her
    ancilla, and Bob verifies.  Each round samples Bob's outcome from the
    maps of :func:`_reuse_kernel` and renormalises the key ⊗ ancilla state.

    That state depends only on the trial's history of (bit, outcome) pairs,
    so each history's state, outcome CDF, key fidelity and forgery CDF are
    worked out once per call; a trial only draws.  Each draw inverts a CDF
    with one ``rng.random()``, as ``Generator.choice`` does, so the random
    stream and the counts are those of sampling every trial afresh.
    """
    u = as_tagging_unitary(u)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    _check_trials(trials)
    maps, forge = _reuse_kernel(u, interaction, forge_bit)

    # Keyed by the history of (bit, outcome) pairs: its normalised
    # psi[a, b, e]; with the next bit appended, phi[k] (the state after
    # outcome k, unnormalised) and the outcome CDF; for a history that passed
    # every round, its key fidelity and forgery-outcome CDF.
    states, branches, leaves = {(): _START}, {}, {}
    accept_counts = np.zeros(rounds, dtype=int)
    round_attempts = np.zeros(rounds, dtype=int)
    attempts = successes = 0
    fidelities = []
    for _ in range(trials):
        history = ()
        for r in range(rounds):
            branch = history + (int(rng.integers(2)),)
            if branch not in branches:
                phi = (maps[branch[-1]] @ states[history][..., None])[..., 0]
                branches[branch] = phi, _outcome_cdf((np.abs(phi) ** 2).sum(axis=(1, 2, 3)))
            phi, cdf = branches[branch]
            outcome = bisect_right(cdf, rng.random())
            round_attempts[r] += 1
            if outcome > 1:
                break
            accept_counts[r] += 1
            history = branch + (outcome,)
            if history not in states:
                states[history] = phi[outcome] / np.linalg.norm(phi[outcome])
        else:
            if history not in leaves:
                psi = states[history]
                leaves[history] = (
                    key_fidelity(psi.reshape(8)),
                    _outcome_cdf(np.einsum("kbe,abe->k", forge, np.abs(psi) ** 2)),
                )
            fidelity, cdf = leaves[history]
            fidelities.append(fidelity)
            attempts += 1
            successes += bisect_right(cdf, rng.random()) < 2

    per_round = [
        accept_counts[r] / round_attempts[r] if round_attempts[r] else float("nan")
        for r in range(rounds)
    ]
    return KeyReuseStats(
        per_round_acceptance=per_round,
        final_key_fidelity=float(np.mean(fidelities)) if fidelities else float("nan"),
        forgery_attempts=attempts,
        forgery_successes=successes,
    )


def reuse_forgery_probability(
    u, interaction: np.ndarray, honest_bit: Optional[int] = None, forge_bit: int = 0
) -> float:
    """Exact success probability of the single-round reuse forgery.

    One honest round with Eve's interaction, conditioned on acceptance;
    then the probability that Eve's ancilla-controlled forgery passes,
    averaged over Bob's accepted first-round outcomes.  ``honest_bit``
    None averages over a uniformly random honest message.
    """
    u = as_tagging_unitary(u)
    if honest_bit not in (None, 0, 1):
        raise ValueError("honest_bit must be None, 0 or 1")
    maps, forge = _reuse_kernel(u, interaction, forge_bit)
    bits = [0, 1] if honest_bit is None else [honest_bit]
    # |psi|^2 after each accepted first round (bit i, outcome k), weighted by
    # the bit's prior: its total is the acceptance probability.
    dens = np.abs(maps[bits, :2] @ _START[..., None])[..., 0] ** 2 / len(bits)
    accepted = dens.sum()
    if accepted <= _ACCEPT_FLOOR:
        return 0.0
    return float(np.einsum("kbe,ijabe->", forge[:2], dens) / accepted)
