"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Oracles used here are local re-implementations so that package code is
checked against independent arithmetic, not against itself.
"""

import json

import numpy as np
import pytest

from qmac.adversary import (
    best_message_attack,
    forgery_operator,
    key_reuse_feasibility,
    message_attack_pf,
    message_attack_sim,
    no_message_attack_sim,
    no_message_optimal,
    no_message_pf,
    no_message_pf_restricted,
    eve_state_from_restricted,
    perfect_message_attack,
    reuse_forgery_probability,
    simulate_key_reuse,
)
from qmac.cli import main
from qmac.conditions import check_condition3, check_condition4, ec_gorda_lhs, validate
from qmac.fixtures import secure_example_unitary, x_block_unitary
from qmac.linalg import dagger, haar_random_unitary, matrix_to_json, partial_trace, tensor
from qmac.protocol import (
    ACCEPT_PROJECTOR,
    MESSAGE_BASIS,
    TaggingUnitary,
    channel_density,
    decode,
    encode,
    key_fidelity,
    simulate_honest_batch,
    singlet,
)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _pf_oracle(u: np.ndarray, states: np.ndarray) -> np.ndarray:
    # independent of the package: 1/2(|P e|^2 + |P U† e|^2) per column
    direct = (np.abs(states[:2]) ** 2).sum(axis=0)
    rotated = (np.abs(u.conj().T @ states)[:2] ** 2).sum(axis=0)
    return 0.5 * (direct + rotated)


def _power_iteration_top(q: np.ndarray, iters: int = 500) -> float:
    v = np.ones(q.shape[0], dtype=complex) + 0.1j
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = q @ v
        n = np.linalg.norm(w)
        if n == 0:
            return 0.0
        v = w / n
    return float(np.real(np.vdot(v, q @ v)))


def test_criterion_01_honest_determinism():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        u = haar_random_unitary(4, rng)
        for bit in (0, 1):
            outcomes, fid = simulate_honest_batch(u, bit, 1000, rng)
            ok &= bool((outcomes == bit).all())
            ok &= abs(fid - 1.0) < 1e-10
    _report(1, "honest decode always correct, key fidelity 1 within 1e-10", ok)


def test_criterion_02_channel_density_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        u = TaggingUnitary(haar_random_unitary(4, rng))
        for bit in (0, 1):
            rho = channel_density(u, bit)
            full = encode(u, bit)
            traced = partial_trace(np.outer(full, full.conj()), (2, 2, 4), keep=(2,))
            worst = max(worst, float(np.abs(rho - traced).max()))
    _report(2, "channel density equals traced-out simulation within 1e-10",
            worst < 1e-10, f"max deviation {worst:.2e}")


def test_criterion_03_no_message_optimum():
    ok = abs(no_message_optimal(x_block_unitary()).probability - 0.5) < 1e-12
    ok &= abs(no_message_optimal(np.eye(4)).probability - 1.0) < 1e-12

    rng = np.random.default_rng(103)
    a_grid = np.linspace(0, 1, 101)
    th_grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    worst_dom, worst_match = -np.inf, 0.0
    for _ in range(50):
        u = haar_random_unitary(4, rng)
        opt = no_message_optimal(u).probability
        raw = rng.normal(size=(4, 100_000)) + 1j * rng.normal(size=(4, 100_000))
        random_states = raw / np.linalg.norm(raw, axis=0)
        best_random = float(_pf_oracle(u, random_states).max())
        # grid oracle: explicit restricted states evaluated independently
        tu = TaggingUnitary(u)
        grid_states = np.stack(
            [eve_state_from_restricted(tu, a, t) for a in a_grid for t in th_grid],
            axis=1,
        )
        best_grid = float(_pf_oracle(u, grid_states).max())
        worst_dom = max(worst_dom, best_random - opt, best_grid - opt)
        # closed form cross-checked against a power-iteration oracle on Q
        pi = 0.5 * _power_iteration_top(forgery_operator(tu))
        worst_match = max(worst_match, abs(opt - pi))
    ok &= worst_dom < 1e-9
    ok &= worst_match < 1e-3
    _report(3, "no-message optimum pins, dominates oracles, matches power iteration",
            ok, f"dominance slack {worst_dom:.2e}, match gap {worst_match:.2e}")


def test_criterion_04_restricted_form_consistency():
    rng = np.random.default_rng(104)
    a_grid = np.linspace(0, 1, 101)
    th_grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    worst = 0.0
    for _ in range(50):
        u = TaggingUnitary(haar_random_unitary(4, rng))
        states, closed = [], []
        for a in a_grid:
            for t in th_grid:
                states.append(eve_state_from_restricted(u, a, t))
                closed.append(no_message_pf_restricted(u, a, t))
        explicit = no_message_pf(u, np.stack(states, axis=1))
        worst = max(worst, float(np.abs(explicit - np.array(closed)).max()))
    _report(4, "restricted closed form matches explicit states within 1e-12",
            worst < 1e-12, f"max gap {worst:.2e}")


def test_criterion_05_message_attack_certainties():
    swap_strategy = np.zeros((4, 4), complex)
    swap_strategy[0, 1] = swap_strategy[1, 0] = 1
    swap_strategy[2, 2] = swap_strategy[3, 3] = 1
    ok = abs(message_attack_pf(np.eye(4), swap_strategy) - 1.0) < 1e-12

    xb = x_block_unitary()
    v = perfect_message_attack(xb)
    ok &= v is not None and abs(message_attack_pf(xb, v) - 1.0) < 1e-9

    sec = secure_example_unitary()
    ok &= perfect_message_attack(sec) is None
    best = best_message_attack(sec, budget=10_000, rng=np.random.default_rng(0))
    ok &= best.probability <= 1 - 1e-4
    _report(5, "substitution certainties and secure-example bound",
            ok, f"secure-example best {best.probability:.6f}")


def test_criterion_06_conditions_checklist():
    ok = not validate(np.eye(4), include_attacks=False).overall_secure
    ok &= not validate(x_block_unitary(), include_attacks=False).overall_secure
    ok &= validate(secure_example_unitary(), include_attacks=False).overall_secure

    rng = np.random.default_rng(106)
    counterexamples = 0
    for _ in range(1000):
        u = TaggingUnitary(haar_random_unitary(4, rng))
        if check_condition3(u).satisfied and not check_condition4(u).satisfied:
            counterexamples += 1
    ok &= counterexamples == 0
    _report(6, "fixture classifications and condition-3 => condition-4",
            ok, f"{counterexamples} counterexamples / 1000")


def test_criterion_07_ec_gorda_spot_values():
    ok = abs(ec_gorda_lhs(0, 1, 0) - 0.5) < 1e-12
    x, y, z = 0.5, 0.5, 0.25
    ratio = x / y
    root = np.sqrt(1 + ratio**2)
    reference = 0.5 * x * (1 + ratio / root) + 0.5 * y * root + z
    ok &= abs(ec_gorda_lhs(x, y, z) - reference) < 1e-9
    _report(7, "inequality left-hand side spot values", ok)


def test_criterion_08_key_reuse_impossibility():
    u = secure_example_unitary()
    feas = key_reuse_feasibility(u)
    ok = feas.ruled_out and max(feas.diagonal_overlaps) > 1e-9

    rng = np.random.default_rng(108)
    probs = [
        reuse_forgery_probability(u, haar_random_unitary(8, rng))
        for _ in range(1000)
    ]
    worst = max(probs)
    ok &= worst < 1.0

    # sampled run against the strongest of those interactions
    rng = np.random.default_rng(108)
    best_interaction, best_p = None, -1.0
    for _ in range(1000):
        w = haar_random_unitary(8, rng)
        p = reuse_forgery_probability(u, w)
        if p > best_p:
            best_interaction, best_p = w, p
    stats = simulate_key_reuse(u, rounds=1, interaction=best_interaction,
                               rng=np.random.default_rng(8), trials=10_000)
    ok &= stats.forgery_attempts > 0
    ok &= stats.forgery_success_rate < 1.0
    _report(8, "reuse forgery never certain when a diagonal tag overlap survives",
            ok, f"max analytic {worst:.4f}, sampled {stats.forgery_success_rate:.4f}")


def test_criterion_09_monte_carlo_agreement():
    u = secure_example_unitary()
    n = 100_000
    band = lambda p: 3 * np.sqrt(max(p * (1 - p), 1e-12 if p in (0, 1) else 0) / n)
    ok = True

    outcomes, _ = simulate_honest_batch(u, 0, n, np.random.default_rng(91))
    accept_freq = float((outcomes < 2).mean())
    ok &= abs(accept_freq - 1.0) <= band(1.0)

    nm = no_message_optimal(u)
    freq = no_message_attack_sim(u, nm.strategy, n, np.random.default_rng(92))
    ok &= abs(freq - nm.probability) <= band(nm.probability)

    best = best_message_attack(u, budget=2000, rng=np.random.default_rng(0))
    mfreq = message_attack_sim(u, best.strategy, n, np.random.default_rng(93))
    ok &= abs(mfreq - best.probability) <= band(best.probability)
    _report(9, "seeded N=1e5 simulations inside 3-sigma of analytic values", ok)


def test_criterion_10_reproducibility(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_json(secure_example_unitary())))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["attack", "--input", str(path), "--seed", "9",
                     "--trials", "2000", "--budget", "300", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    _report(10, "identical invocations produce byte-identical reports",
            outs[0] == outs[1])
