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
from math import inf, sqrt
from typing import Optional

import numpy as np

from .config import check_real
from .linalg import (
    _SVD_ERRORS,
    _svd,
    check_count,
    check_rng,
    dagger,
    haar_random_unitary,
    tensor,
    unitary_operand,
)
from .protocol import (
    ACCEPT_PROJECTOR,
    I2,
    I4,
    TaggingUnitary,
    as_tagging_unitary,
    check_bit,
    decode,
    encode,
    key_fidelity,
    measurement_distribution,
    singlet,
)

_ASCENT_GAIN = 1e-13  # a substitution-ascent step gaining no more has converged
_FIXED_POINT = 1e-9  # a polar step moving a start's weighted overlaps no more has settled it
_PRIOR_SUM_SLACK = 1e-12  # priors typed in decimal can miss 1 by rounding
_ACCEPT_FLOOR = 1e-15  # acceptance this small is rounding: do not condition on it


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


# --- no-message attack -------------------------------------------------------

def no_message_pf(u, eve: np.ndarray):
    """Forgery probability of injecting the pure state ``eve``.

    Evaluates (1/2) sum_{i=0,1} (|e_i|^2 + |<eve|U|phi_i>|^2) for one 4-vector
    (a float) or each column of a 4×N array, each normalised to within ``u.tol.unitary``.
    """
    u = as_tagging_unitary(u)
    states = _injected_state(u, eve)
    direct = (np.abs(states[:2]) ** 2).sum(axis=0)
    overlaps = (np.abs(dagger(u.u) @ states)[:2] ** 2).sum(axis=0)
    pf = 0.5 * (direct + overlaps)
    return float(pf[0]) if np.ndim(eve) == 1 else pf


def _injected_state(u: TaggingUnitary, eve) -> np.ndarray:
    """``eve`` as 4×N columns, each checked normalised to within ``u.tol.unitary``."""
    eve = np.asarray(eve, dtype=complex)
    if eve.ndim not in (1, 2) or eve.shape[0] != 4:
        raise ValueError(f"Eve's state must have 4 rows, got shape {eve.shape}")
    states = eve.reshape(4, -1)
    dev = np.abs(np.linalg.norm(states, axis=0) - 1).max(initial=0.0)
    if not dev <= u.tol.unitary:  # phrased so that a NaN norm fails it
        raise ValueError(f"Eve's state must be normalized (deviation {dev:.3e})")
    return states


def no_message_pf_restricted(u, abs_e0: float, theta: float) -> float:
    """The two-parameter restricted form (e2 = e3 = 0).

    Decision variables are |e0| and the relative phase angle; the first
    closed-form term equals 1/2 under the restriction; (x, y, z) is
    :attr:`~qmac.protocol.TaggingUnitary.row_parameters`.  ``abs_e0`` and
    ``theta`` are checked by :func:`~qmac.config.check_real`.
    """
    abs_e0 = check_real(abs_e0, "abs_e0", 0, 1)
    theta = check_real(theta, "theta", -inf, inf, "()")
    x, y, z = as_tagging_unitary(u).row_parameters
    second = 0.5 * (
        x * abs_e0**2
        + y * abs_e0 * np.sqrt(max(0.0, 1 - abs_e0**2)) * np.cos(theta)
        + z
    )
    return float(0.5 + second)


def eve_state_from_restricted(u, abs_e0: float, theta: float) -> np.ndarray:
    """Explicit injected state realizing the restricted parameters, checked
    as :func:`no_message_pf_restricted` checks them."""
    abs_e0 = check_real(abs_e0, "abs_e0", 0, 1)
    theta = check_real(theta, "theta", -inf, inf, "()")
    u = as_tagging_unitary(u)
    r0, r1 = u.m0
    g = r0 @ r1.conj()  # cross-row coupling, phase matters
    phase = theta - np.angle(g) if abs(g) > 0 else theta
    e1 = np.sqrt(max(0.0, 1 - abs_e0**2)) * np.exp(1j * phase)
    return np.array([abs_e0, e1, 0, 0], dtype=complex)


def forgery_operator(u) -> np.ndarray:
    """Q = U P U† + P with P the accept projector."""
    u = as_tagging_unitary(u)
    return u.u @ ACCEPT_PROJECTOR @ dagger(u.u) + ACCEPT_PROJECTOR


def no_message_probability(sigma_max) -> float:
    """The no-message optimum (1 + sigma_max(M0))/2, from M0's top singular value."""
    return float((1 + sigma_max) / 2)


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
    left, s, right = u.m0_svd
    eve = u.u[:, :2] @ right[0].conj()
    eve[:2] += left[:, 0]
    return AttackResult(
        probability=no_message_probability(s[0]),
        strategy=eve / np.linalg.norm(eve),
        method="closed_form",
    )


def injected_acceptance_distribution(u, eve: np.ndarray) -> np.ndarray:
    """Bob's outcome distribution when Eve injects ``eve`` with no message.

    Full 16-dim simulation: the key is still the untouched singlet.
    """
    u = as_tagging_unitary(u)
    if np.ndim(eve) != 1:
        raise ValueError(f"Eve's state must be one 4-vector, got shape {np.shape(eve)}")
    state = tensor(singlet(), _injected_state(u, eve)[:, 0])
    return measurement_distribution(decode(u, state))


def no_message_attack_sim(u, eve, trials: int, rng) -> float:
    """Monte Carlo acceptance frequency for an injected state.  ``rng`` is
    checked by :func:`~qmac.linalg.check_rng`."""
    rng = np.random.default_rng(check_rng(rng))
    trials = check_count(trials, "trials", 1)
    probs = injected_acceptance_distribution(u, eve)
    outcomes = rng.choice(4, size=trials, p=probs / probs.sum())
    return float((outcomes < 2).mean())


# --- message (substitution) attack ------------------------------------------

def _check_priors(p0, p1) -> tuple:
    """(p0, p1) as Python floats, each checked by
    :func:`~qmac.config.check_real`, and summing to 1 to within
    ``_PRIOR_SUM_SLACK``."""
    p0, p1 = check_real(p0, "p0", 0, 1), check_real(p1, "p1", 0, 1)
    if not abs(p0 + p1 - 1) <= _PRIOR_SUM_SLACK:
        raise ValueError(f"priors must be nonnegative and sum to 1, got {p0}, {p1}")
    return p0, p1


def message_attack_pf(u, v: np.ndarray, p0: float = 0.5, p1: float = 0.5) -> float:
    """Probability that applying ``v`` in the channel flips the decoded bit.

    sum_i p_i (1/2)(|<phi_j|V|phi_i>|^2 + |<phi_j|U†VU|phi_i>|^2), j != i,
    evaluated by :func:`_substitution_objective`'s evaluator, the one the
    ascent reads, so a reported strategy re-evaluates to its probability.
    The priors are checked by :func:`_check_priors`.
    """
    u = as_tagging_unitary(u)
    p0, p1 = _check_priors(p0, p1)
    v = unitary_operand(v, "attack operation", 4, u.tol.unitary)
    _, evaluate, _ = _substitution_objective(u, p0, p1)
    return evaluate(v)[1][0]


def message_attack_distribution(u, v: np.ndarray, message: int) -> np.ndarray:
    """Bob's outcome distribution when Eve applies ``v`` to an honest round."""
    u = as_tagging_unitary(u)
    v = unitary_operand(v, "attack operation", 4, u.tol.unitary)
    state = tensor(I2, I2, v) @ encode(u, message)
    return measurement_distribution(decode(u, state))


def message_attack_sim(u, v, trials: int, rng, p0: float = 0.5, p1: float = 0.5) -> float:
    """Monte Carlo frequency of successful substitution (flip accepted).
    ``rng`` is checked by :func:`~qmac.linalg.check_rng` and the priors by
    :func:`_check_priors`."""
    rng = np.random.default_rng(check_rng(rng))
    p0, p1 = _check_priors(p0, p1)
    trials = check_count(trials, "trials", 1)
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


def _substitution_objective(u: TaggingUnitary, p0: float, p1: float):
    """Eve's substitution objective f(V) = sum_k w_k |<a_k|V|b_k>|^2, with
    a = (e1, Ue1, e0, Ue0), b = (e0, Ue0, e1, Ue1) and w = (p0, p0, p1, p1)/2.

    Returns w, the evaluator and the polar map.  The evaluator takes a stack
    of V to their overlaps c_k = <a_k|V|b_k> (``V.reshape(16) @ K`` with
    K[ij, k] = conj(a_k[i]) b_k[j]) and their f, each the left-to-right
    Python-float sum of |c_k| |c_k| w_k.  The polar map takes overlaps c,
    one row per start, to the polar factors of G = sum_k w_k c_k |a_k><b_k|.
    """
    # Terms (a_k, b_k, w_k): the bit flip on the bare message, then under U.
    a = np.array([I4[1], u.u[:, 1], I4[0], u.u[:, 0]])
    b = np.array([I4[0], u.u[:, 0], I4[1], u.u[:, 1]])
    w = 0.5 * np.array([p0, p0, p1, p1])
    k_mat = (a.conj()[:, :, None] * b[:, None, :]).reshape(4, 16).T
    g_mat = w[:, None] * k_mat.T.conj()
    w0, w1, w2, w3 = w.tolist()

    # Overlaps and G row by row, so a start's arithmetic is the same at any n.
    def evaluate(v):
        c = (v.reshape(-1, 1, 16) @ k_mat)[:, 0]
        return c, [m0 * m0 * w0 + m1 * m1 * w1 + m2 * m2 * w2 + m3 * m3 * w3
                   for m0, m1, m2, m3 in np.abs(c).tolist()]

    # Callers run it under np.errstate(**_SVD_ERRORS).
    def polar(c):
        left, _, right = _svd((c[:, None] @ g_mat).reshape(-1, 4, 4))
        return left @ right

    return w, evaluate, polar


def perfect_message_attack(u) -> Optional[np.ndarray]:
    """Construct a certainty substitution attack if one exists.

    In the terms of :func:`_substitution_objective`, V is certain (pf = 1)
    exactly when it maps each b_k to e^{i theta_k} a_k.  A unitary does that
    exactly when the Gram matrices agree, <b_j|b_k> = e^{i(theta_k -
    theta_j)} <a_j|a_k>, and M0 builds both: <b_0|b_1> = m00 against m11,
    <b_0|b_3> = m01 against m10.  With theta_0 = 0 this forces theta = (0,
    arg m00 conj(m11), theta_1 + theta_3, arg m01 conj(m10)) and needs
    :attr:`~qmac.protocol.TaggingUnitary.swap_mismatch` = 0.  At equal
    priors G = sum_k w_k e^{i theta_k} |a_k><b_k| = V B with B = sum_k w_k
    |b_k><b_k| >= 0, so G's polar factor, one step of the polar map, agrees
    with V on span{b_k}, all pf reads.
    Returns None when the swap mismatch exceeds its tolerance (the gate
    below) or the built V reaches pf < 1 - ``tol.strict``; under a loosened
    swap tolerance the second can happen while condition 3 fails.  pf is
    read by the same objective's evaluator, the one
    :func:`message_attack_pf` calls, so V, a polar factor the function built
    itself, is not re-checked as a caller's operand.
    """
    u = as_tagging_unitary(u)
    if u.swap_mismatch > u.tol.phase_equiv:
        return None
    (m00, m01), (m10, m11) = u.m0
    theta1, theta3 = np.angle(m00 * np.conj(m11)), np.angle(m01 * np.conj(m10))
    _, evaluate, polar = _substitution_objective(u, 0.5, 0.5)
    with np.errstate(**_SVD_ERRORS):
        v = polar(np.exp(1j * np.array([[0, theta1, theta1 + theta3, theta3]])))
    if evaluate(v)[1][0] < 1 - u.tol.strict:
        return None
    return v[0]


def best_message_attack(
    u,
    p0: float = 0.5,
    p1: float = 0.5,
    budget: int = 10_000,
    rng=None,
    stop_at: float = np.inf,
) -> AttackResult:
    """Maximize :func:`message_attack_pf` over unitaries by multi-start
    polar-decomposition ascent.

    f(V) = sum_k w_k |<a_k|V|b_k>|^2 is convex in V, so the polar map F,
    which takes V to the polar factor W Z† of G = sum_k w_k <a_k|V|b_k>
    |a_k><b_k| = W S Z† (the maximizer of f's linearisation at V), cannot
    lower f.  Each F is one SVD; the overlaps <a_k|V|b_k> and f come from
    :func:`_substitution_objective`'s evaluator, which
    :func:`message_attack_pf` also calls, and G is the overlaps times
    ``w_k K[:, k]†``, both taken start by start, so a start's
    iterates do not depend on how many starts run.  The live starts step
    through one batched SVD.  numpy does the array work: the G and overlap
    products, the SVD, |c|, the weighted norms and the extrapolation below.
    Each start's f, alpha, safeguard, best iterate and stop tests are Python
    floats, with numpy's order of operations, so they round as numpy's would.

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

    The starts are sigma_x on the message bit, the perfect-attack
    construction when available (so no known certainty attack is missed),
    and Haar draws up to min(12, budget // 300) starts, drawn as one stack
    by a single :func:`~qmac.linalg.haar_random_unitary` call (the same
    matrices and stream as one call per start).  ``rng`` is checked by
    :func:`~qmac.linalg.check_rng` before the search, and a seed's Generator
    is built only when a Haar start is drawn.  ``budget`` must be an
    integer of at least 1, the priors pass :func:`_check_priors`, and
    ``stop_at`` is checked by :func:`~qmac.config.check_real`.
    Deterministic for a given seed.
    """
    rng = check_rng(rng)
    u = as_tagging_unitary(u)
    p0, p1 = _check_priors(p0, p1)
    budget = check_count(budget, "budget", 1)
    stop_at = check_real(stop_at, "stop_at")

    w, evaluate, polar = _substitution_objective(u, p0, p1)

    starts = [I4[[1, 0, 2, 3]]]  # sigma_x on the message bit
    perfect = perfect_message_attack(u)
    if perfect is not None:
        starts.append(perfect)
    n_restarts = max(len(starts), min(12, budget // 300))
    if len(starts) < n_restarts:
        starts.extend(haar_random_unitary(4, rng, n_restarts - len(starts)))

    step = np.array(starts[:budget])
    n = len(step)
    # Complex, so that each weighted norm multiplies without casting sqrt(w).
    root_w = np.sqrt(w).astype(complex)
    gain, settle = _ASCENT_GAIN, _FIXED_POINT

    # np.linalg.norm(root_w * x, axis=-1) as a list: its own arithmetic for a
    # complex vector norm, without its argument handling.
    def weighted_norms(x):
        x = root_w * x
        return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1)).tolist()

    # Each start's best iterate and f; `live` lists the starts still stepping,
    # one per row of the batch.  best_v holds views of the steps, each a new array.
    best_v, best_f, live = list(step), [-inf] * n, list(range(n))
    top, evals, stop = -inf, 0, "budget"
    # The SQUAREM cycle so far: the overlaps of its base V0, then of V1 and V2.
    # Set at V1: r = c1 - c0 and its weighted norms; at V2: f2 = f(V2).
    cycle = []

    # A step is flat if it moved f by at most _ASCENT_GAIN either way, so an
    # extrapolation that fell below the best does not read as converged.
    def flat():
        return all(abs(f_s - f_b) <= gain for f_s, f_b in zip(f_step, before))

    with np.errstate(**_SVD_ERRORS):
        for _ in range(budget // n):
            if len(cycle) == 3:
                c0, c1, c2 = cycle
                d = c2 - 2 * c1 + c0
                # alpha = min(-|sqrt(w) r|/|sqrt(w) d|, -1), and -1 when d = 0.
                alpha = np.array([[-max(r_norm, d_norm) / d_norm if d_norm > 0 else -1.0]
                                  for r_norm, d_norm in zip(r_norms, weighted_norms(d))])
                step = polar(c0 - 2 * alpha * r + alpha**2 * d)
            elif cycle:
                step = polar(cycle[-1])
            c, f_step = evaluate(step)
            evals += len(live)
            if len(cycle) == 3:
                # Keep the extrapolated V3 as the next base unless it fell below V2.
                fell = [f3 < f2_s for f3, f2_s in zip(f_step, f2)]
                cycle = [np.where(np.array(fell)[:, None], c2, c) if any(fell) else c]
            else:
                cycle.append(c)
                if len(cycle) == 3:
                    f2 = f_step
            # Keep each start's first best iterate: at a fixed point rounding can dip f.
            before = [best_f[start] for start in live]
            for i, (start, f_s, f_b) in enumerate(zip(live, f_step, before)):
                if f_s > f_b:
                    best_v[start], best_f[start] = step[i], f_s
            top = max(top, *f_step)
            if len(cycle) == 2:
                # ||sqrt(w) r|| is both the settle test and alpha's numerator.
                r = c - cycle[0]
                r_norms = weighted_norms(r)
                # A settled start has nothing left to compute: it leaves the batch.
                keep = [i for i, r_norm in enumerate(r_norms) if not r_norm <= settle]
                if len(keep) < len(live):
                    live, r_norms = [live[i] for i in keep], [r_norms[i] for i in keep]
                    cycle, r = [x[keep] for x in cycle], r[keep]
            if top >= stop_at:
                stop = "stop_at"
            elif top >= 1 - gain and flat():
                stop = "certain"
            elif not live:
                stop = "fixed_point"
            if stop != "budget":
                break

    top_start = best_f.index(max(best_f))
    return AttackResult(
        probability=best_f[top_start],
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


def key_distinguishability(u) -> KeyDistinguishabilityReport:
    """Can Eve perfectly identify which channel branch occurred?

    She can iff <phi_i|U|phi_j> = 0 for all i, j in {0, 1}, i.e. the M0
    block vanishes: the largest of
    :attr:`~qmac.protocol.TaggingUnitary.m0_moduli` is at most ``tol.strict``.
    """
    u = as_tagging_unitary(u)
    return KeyDistinguishabilityReport(
        distinguishable=max(u.m0_moduli) <= u.tol.strict, gram=u.m0.copy()
    )


# --- key reuse ---------------------------------------------------------------

@dataclass(frozen=True)
class KeyReuseFeasibilityReport:
    ruled_out: bool
    witness: Optional[int]  # message index with <phi_i|U|phi_i> != 0
    diagonal_overlaps: tuple


def key_reuse_feasibility(u) -> KeyReuseFeasibilityReport:
    """Is the certainty key-entangling attack impossible for this tagging?

    Ruled out when <phi_i|U|phi_i> != 0 for some i in {0, 1}: the attack
    unitary would have to map non-orthogonal inputs to orthogonal outputs.
    """
    u = as_tagging_unitary(u)
    a00, _, _, a11 = u.m0_moduli
    diag = (a00, a11)
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
    w = unitary_operand(interaction, "Eve's interaction", 8, u.tol.unitary)
    forge_bit = check_bit(forge_bit, "forge_bit")
    enc = np.stack([I4, u.u])
    dec = np.stack([dagger(u.u), I4])
    maps = np.einsum("bkp,pfme,ami->ikabfe", dec, w.reshape(4, 2, 4, 2), enc[:, :, :2])
    forge = np.abs(np.einsum("bkm,em->kbe", dec, enc[:, :, forge_bit])) ** 2
    return maps, forge


def _outcome_cdf(probs: list) -> list:
    """The CDF ``Generator.choice(4, p=probs / probs.sum())`` builds, in
    Python floats with numpy's association: the sequential sum, the running
    sum of p_k / total, then each entry divided by the last.

    ``bisect_right(cdf, rng.random())`` then draws the outcome that call
    would, from the same single uniform, at a fraction of its cost.
    """
    p0, p1, p2, p3 = probs
    total = p0 + p1 + p2 + p3
    c0 = p0 / total
    c1 = c0 + p1 / total
    c2 = c1 + p2 / total
    c3 = c2 + p3 / total
    return [c0 / c3, c1 / c3, c2 / c3, c3 / c3]


def simulate_key_reuse(
    u,
    rounds: int,
    interaction: np.ndarray,
    rng,
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
    so the histories form a tree: each node is built from its normalised
    state when a trial first reaches it, in its parent's child slot
    ``2 * bit + outcome``, and a trial only walks the tree and draws.  Each
    draw inverts a CDF with one uniform, as ``Generator.choice`` does, so
    the random stream and the counts are those of sampling every trial
    afresh.  The draws read the bit generator directly: each uniform is its
    ``next_double``, the value ``rng.random()`` returns, and each honest
    bit is the one ``rng.integers(2)`` gives.  They run under the bit
    generator's lock, which is held for the whole call, so another thread
    sharing ``rng`` waits until the call returns.  ``rounds`` and
    ``trials`` must be integers of at least 1, and ``rng`` is checked by
    :func:`~qmac.linalg.check_rng`.
    """
    rng = np.random.default_rng(check_rng(rng))
    u = as_tagging_unitary(u)
    rounds = check_count(rounds, "rounds", 1)
    trials = check_count(trials, "trials", 1)
    maps, forge = _reuse_kernel(u, interaction, forge_bit)
    # int(rng.integers(2)) draws by Lemire's method on the bit generator's
    # buffered 32-bit word x, which for two outcomes is (2x) >> 32, the top
    # bit of x; rng.random() returns next_double.  Reading both through the
    # bit generator's ctypes interface, under the lock the Generator's own
    # draws take, gives the same values from the same stream without the
    # calls' argument handling.
    bits = rng.bit_generator.ctypes
    next_uint32, next_double, state = bits.next_uint32, bits.next_double, bits.state

    def node(psi, completed):
        """A completed history's key fidelity and forgery-outcome CDF; any
        other's (phi, cdfs, children): phi[i, k] the state after bit i and
        outcome k (unnormalised), the outcome CDF of each bit, and the
        child slots 2 * i + k, each None until a trial reaches it."""
        if completed:
            probs = np.einsum("kbe,abe->k", forge, np.abs(psi) ** 2).tolist()
            return key_fidelity(psi.reshape(8)), _outcome_cdf(probs)
        phi = (maps @ psi[..., None])[..., 0]
        probs = (np.abs(phi) ** 2).sum(axis=(2, 3, 4)).tolist()
        return phi, [_outcome_cdf(p) for p in probs], [None] * 4

    root = node(_START, False)
    accept_counts = [0] * rounds
    successes = 0
    fidelities = []
    with rng.bit_generator.lock:
        for _ in range(trials):
            at = root
            for r in range(rounds):
                bit = next_uint32(state) >> 31
                phi, cdfs, children = at
                outcome = bisect_right(cdfs[bit], next_double(state))
                if outcome > 1:
                    break
                accept_counts[r] += 1
                slot = 2 * bit + outcome
                at = children[slot]
                if at is None:
                    # Divided by np.linalg.norm's own arithmetic, without its wrapper.
                    kept = phi[bit, outcome]
                    x = kept.ravel()
                    psi = kept / sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
                    at = children[slot] = node(psi, r + 1 == rounds)
            else:
                fidelity, cdf = at
                fidelities.append(fidelity)
                successes += bisect_right(cdf, next_double(state)) < 2

    # Every trial reaches round 1, and round r + 1 exactly when round r accepted.
    per_round = [
        accepted / reached if reached else float("nan")
        for accepted, reached in zip(accept_counts, [trials, *accept_counts[:-1]])
    ]
    return KeyReuseStats(
        per_round_acceptance=per_round,
        final_key_fidelity=float(np.mean(fidelities)) if fidelities else float("nan"),
        forgery_attempts=len(fidelities),
        forgery_successes=successes,
    )


def reuse_forgery_probability(u, interaction: np.ndarray, forge_bit: int = 0) -> float:
    """Exact success probability of the single-round reuse forgery.

    One honest round with a uniformly random message and Eve's
    interaction, conditioned on acceptance; then the probability that
    Eve's ancilla-controlled forgery passes, averaged over Bob's accepted
    first-round outcomes.
    """
    u = as_tagging_unitary(u)
    maps, forge = _reuse_kernel(u, interaction, forge_bit)
    # |psi|^2 after each accepted first round (bit i, outcome k), weighted by
    # the bit's prior 1/2: its total is the acceptance probability.  Indexed by
    # a list, not a slice: einsum sums in memory order, which a slice changes.
    dens = np.abs(maps[[0, 1], :2] @ _START[..., None])[..., 0] ** 2 / 2
    accepted = dens.sum()
    if accepted <= _ACCEPT_FLOOR:
        return 0.0
    return float(np.einsum("kbe,ijabe->", forge[:2], dens) / accepted)
