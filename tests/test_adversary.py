import dataclasses
import json
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmac import adversary, cli, designer, linalg
from qmac.adversary import (
    AttackResult,
    best_message_attack,
    eve_state_from_restricted,
    forgery_operator,
    injected_acceptance_distribution,
    key_distinguishability,
    key_reuse_feasibility,
    message_attack_distribution,
    message_attack_pf,
    message_attack_sim,
    no_message_attack_sim,
    no_message_optimal,
    no_message_pf,
    no_message_pf_restricted,
    perfect_message_attack,
    reuse_forgery_probability,
    simulate_key_reuse,
)
from qmac.conditions import ec_gorda_lhs, validate
from qmac.config import DEFAULT_TOL, UNITARY_FLOOR, Tolerances
from qmac.fixtures import BUILTIN, secure_example_unitary
from qmac.linalg import haar_random_unitary, halmos_dilation, is_unitary, tensor
from qmac.protocol import (
    MESSAGE_BASIS,
    TaggingUnitary,
    key_fidelity,
    simulate_honest_batch,
    singlet,
)

E = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP01 = np.zeros((4, 4), complex)
SWAP01[:2, :2] = SIGMA_X
SWAP01[2:, 2:] = np.eye(2)


def haar_states(n, rng):
    z = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    return z / np.linalg.norm(z, axis=0)


class TestNoMessagePf:
    def test_identity_phi0(self, u_identity):
        assert no_message_pf(u_identity, E[:, 0]) == pytest.approx(1.0, abs=1e-15)

    def test_identity_phi2(self, u_identity):
        assert no_message_pf(u_identity, E[:, 2]) == pytest.approx(0.0, abs=1e-15)

    def test_secure_example_phi0(self, u_secure):
        # Hand evaluation: (1 + |U00|^2 + |U01|^2)/2 = (1 + 0.25 + 0.25)/2.
        assert no_message_pf(u_secure, E[:, 0]) == pytest.approx(0.75, abs=1e-12)

    def test_matches_full_simulation(self, rng):
        for _ in range(20):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            eve = haar_states(1, rng)[:, 0]
            analytic = no_message_pf(u, eve)
            sim = injected_acceptance_distribution(u, eve)[:2].sum()
            assert abs(analytic - sim) < 1e-10

    def test_mixed_state_linearity(self, rng):
        # Acceptance of a mixture is the prior-weighted pure-state value.
        u = TaggingUnitary(haar_random_unitary(4, rng))
        states = haar_states(3, rng)
        probs = np.array([0.5, 0.3, 0.2])
        mixture_accept = sum(
            p * injected_acceptance_distribution(u, states[:, k])[:2].sum()
            for k, p in enumerate(probs)
        )
        weighted = sum(
            p * no_message_pf(u, states[:, k]) for k, p in enumerate(probs)
        )
        assert abs(mixture_accept - weighted) < 1e-10

    def test_rejects_unnormalized(self, u_identity):
        with pytest.raises(ValueError):
            no_message_pf(u_identity, np.array([1, 1, 0, 0], complex))

    @pytest.mark.parametrize("eve", [[3, 0, 0, 0], [0, 0, 0, 0], [np.nan, 0, 0, 0]],
                             ids=["norm-3", "zero", "nan"])
    def test_simulations_reject_unnormalized(self, u_secure, eve):
        eve = np.array(eve, complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: no_message_pf(u_secure, eve),
                lambda: injected_acceptance_distribution(u_secure, eve),
                lambda: no_message_attack_sim(u_secure, eve, 100, np.random.default_rng(0)),
            ):
                with pytest.raises(ValueError, match="Eve's state must be normalized"):
                    call()

    def test_normalisation_tolerance_from_unitary(self, u_secure):
        eve = E[:, 0] * (1 + 1e-6)
        with pytest.raises(ValueError, match="normalized"):
            no_message_pf(u_secure, eve)
        loose = TaggingUnitary(u_secure.u, DEFAULT_TOL.override(unitary=1e-5))
        assert no_message_pf(loose, eve) == pytest.approx(0.75, abs=1e-5)
        tight = TaggingUnitary(u_secure.u, DEFAULT_TOL.override(unitary=UNITARY_FLOOR))
        with pytest.raises(ValueError, match="normalized"):
            no_message_pf(tight, E[:, 0] * (1 + 1e-12))


class TestRestrictedForm:
    def test_identity_is_one_everywhere(self, u_identity):
        for e0 in (0.0, 0.3, 1.0):
            for th in (0.0, 1.0, np.pi):
                assert no_message_pf_restricted(u_identity, e0, th) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_cosine_maximized_at_zero(self, rng):
        u = TaggingUnitary(haar_random_unitary(4, rng))
        assert no_message_pf_restricted(u, 0.6, 0.0) >= no_message_pf_restricted(
            u, 0.6, np.pi
        ) - 1e-15

    def test_secure_example_endpoint(self, u_secure):
        val = no_message_pf_restricted(u_secure, 1.0, 0.0)
        assert val == pytest.approx(0.75, abs=1e-12)
        assert val == pytest.approx(no_message_pf(u_secure, E[:, 0]), abs=1e-12)

    def test_agrees_with_explicit_state(self, rng):
        for _ in range(10):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            for e0 in np.linspace(0, 1, 7):
                for th in np.linspace(0, 2 * np.pi, 5):
                    eve = eve_state_from_restricted(u, e0, th)
                    assert abs(
                        no_message_pf_restricted(u, e0, th) - no_message_pf(u, eve)
                    ) < 1e-12

    def test_optimum_is_sigma_max_squared(self, rng):
        # The restricted maximum (1 + sigma_max(M0)^2)/2 sits at
        # |e0|^2 = (1 + x / sqrt(x^2 + y^2))/2 and theta = 0.
        grid_e0 = np.linspace(0, 1, 101)
        grid_th = np.linspace(0, 2 * np.pi, 37)
        for _ in range(50):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            x, y, _ = u.row_parameters
            optimum = (1 + np.linalg.norm(u.m0, 2) ** 2) / 2
            e0 = np.sqrt((1 + x / np.hypot(x, y)) / 2)
            assert no_message_pf_restricted(u, e0, 0.0) == pytest.approx(optimum, abs=1e-12)
            assert max(no_message_pf_restricted(u, a, th)
                       for a in grid_e0 for th in grid_th) <= optimum + 1e-12


class TestNoMessageOptimal:
    def test_identity(self, u_identity):
        assert no_message_optimal(u_identity).probability == pytest.approx(
            1.0, abs=1e-12
        )

    def test_xblock_exact_half(self, u_xblock):
        assert no_message_optimal(u_xblock).probability == pytest.approx(
            0.5, abs=1e-12
        )

    def test_secure_example_value(self, u_secure):
        # (2 + sqrt 2)/4, frozen from the power-iteration oracle.
        assert no_message_optimal(u_secure).probability == pytest.approx(
            (2 + np.sqrt(2)) / 4, abs=1e-12
        )

    @pytest.mark.parametrize("name", ["identity", "x_block", "secure_example", "haar"])
    def test_witness_attains_value(self, name, rng):
        # identity has s0 = 1 and x_block s0 = 0, the two ends of the range.
        if name == "haar":
            mats = [haar_random_unitary(4, rng) for _ in range(20)]
        else:
            mats = [BUILTIN[name]()]
        for m in mats:
            u = TaggingUnitary(m)
            res = no_message_optimal(u)
            assert res.method == "closed_form"
            assert no_message_pf(u, res.strategy) == pytest.approx(
                res.probability, abs=1e-12
            )

    def test_dominates_sampled_states(self, rng):
        for _ in range(20):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            best = no_message_pf(u, haar_states(2000, rng)).max()
            assert no_message_optimal(u).probability >= best - 1e-9

    def test_lambda_max_range(self, rng):
        for _ in range(200):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            pf = no_message_optimal(u).probability
            assert 1 - 1e-10 <= 2 * pf <= 2 + 1e-10
            lam = np.linalg.eigvalsh(forgery_operator(u))[-1]
            assert pf == pytest.approx(lam / 2, abs=1e-12)


class TestMessageAttack:
    def test_identity_swap(self, u_identity):
        assert message_attack_pf(u_identity, SWAP01) == pytest.approx(1.0, abs=1e-15)

    def test_xblock_double_swap(self, u_xblock):
        v = tensor(np.eye(2), SIGMA_X)  # sigma_x on both blocks
        assert message_attack_pf(u_xblock, v) == pytest.approx(1.0, abs=1e-12)

    def test_secure_example_swap_below_one(self, u_secure):
        analytic = message_attack_pf(u_secure, SWAP01)
        # Full 16-dim simulation as oracle.
        sim = sum(
            0.5 * message_attack_distribution(u_secure, SWAP01, i)[1 - i]
            for i in (0, 1)
        )
        assert analytic == pytest.approx(sim, abs=1e-10)
        assert analytic < 1

    def test_invalid_priors(self, u_identity):
        with pytest.raises(ValueError):
            message_attack_pf(u_identity, SWAP01, p0=0.7, p1=0.7)

    @pytest.mark.parametrize("p0, p1", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.0)])
    def test_non_finite_priors_rejected(self, u_secure, p0, p1):
        with pytest.raises(ValueError, match=r"p[01] must be a real number in \[0, 1\], got"):
            message_attack_pf(u_secure, SWAP01, p0=p0, p1=p1)
        with pytest.raises(ValueError, match=r"p[01] must be a real number in \[0, 1\], got"):
            best_message_attack(u_secure, p0=p0, p1=p1, budget=10)

    def test_non_unitary_attack_rejected(self, u_identity):
        with pytest.raises(ValueError):
            message_attack_pf(u_identity, np.diag([1, 1, 1, 2.0]))

    @pytest.mark.parametrize("v", [np.diag([1, 1, 1, 2.0]), 2 * E], ids=["diag", "2I"])
    def test_simulations_reject_non_unitary_attack(self, u_secure, rng, v):
        with pytest.raises(ValueError, match="attack operation must be unitary"):
            message_attack_distribution(u_secure, v, 0)
        with pytest.raises(ValueError, match="attack operation must be unitary"):
            message_attack_sim(u_secure, v, 100, rng)

    def test_huge_attack_rejected_without_overflow(self, u_identity):
        with pytest.raises(ValueError, match=r"must be unitary \(deviation inf\)"):
            message_attack_pf(u_identity, np.diag([1, 1, 1, 1e200]))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_simulations_need_a_trial(self, u_secure, rng, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            message_attack_sim(u_secure, SWAP01, trials, rng)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            no_message_attack_sim(u_secure, E[:, 0], trials, rng)

    @pytest.mark.parametrize("p0, p1", [(1, 0), (0, 1)])
    def test_simulation_at_a_certain_prior(self, u_identity, rng, p0, p1):
        # Every draw is one message: the other's branch has no trials.
        assert message_attack_sim(u_identity, SWAP01, 100, rng, p0=p0, p1=p1) == 1.0
        assert message_attack_sim(u_identity, E, 100, rng, p0=p0, p1=p1) == 0.0

    def test_matches_simulation_frequency(self, u_secure, rng):
        p = message_attack_pf(u_secure, SWAP01)
        n = 20_000
        freq = message_attack_sim(u_secure, SWAP01, n, rng)
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / n)


class TestPerfectMessageAttack:
    def test_identity(self, u_identity):
        v = perfect_message_attack(u_identity)
        assert v is not None
        assert message_attack_pf(u_identity, v) == pytest.approx(1.0, abs=1e-9)

    def test_xblock(self, u_xblock):
        v = perfect_message_attack(u_xblock)
        assert v is not None
        assert message_attack_pf(u_xblock, v) == pytest.approx(1.0, abs=1e-9)

    def test_secure_example_has_none(self, u_secure):
        assert perfect_message_attack(u_secure) is None

    def test_one_objective_builds_and_scores_the_attack(self, monkeypatch, rng):
        taggings = [TaggingUnitary(BUILTIN[name]()) for name in ("identity", "x_block")]
        taggings += [TaggingUnitary(swap_related_tagging(
            rng.random(2), rng.uniform(0, 2 * np.pi, 4), rng.uniform(0.01, 0.99), False,
            seed)) for seed in range(3)]
        expected = [perfect_message_attack(u) for u in taggings]
        assert all(message_attack_pf(u, v) >= 1 - u.tol.strict
                   for u, v in zip(taggings, expected))
        builds = []
        objective = adversary._substitution_objective
        monkeypatch.setattr(adversary, "_substitution_objective",
                            lambda *args: builds.append(args) or objective(*args))

        def refuse(*args):
            raise AssertionError("the certainty attack is scored by a second objective")

        monkeypatch.setattr(adversary, "message_attack_pf", refuse)
        for calls, (u, v) in enumerate(zip(taggings, expected), start=1):
            assert perfect_message_attack(u).tobytes() == v.tobytes()
            assert len(builds) == calls

    def test_constructed_attack_on_swap_related_unitaries(self, rng):
        # Any unitary whose first block columns are phase-swap related
        # admits a certainty attack, whatever its bottom blocks look like.
        built = 0
        while built < 20:
            g, d = rng.uniform(0, 2 * np.pi, 2)
            m01 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            m01 *= rng.uniform(0.1, 0.7) / np.linalg.norm(m01)
            s = np.diag([1, np.exp(1j * d)])
            m00 = np.exp(1j * g) * s @ SIGMA_X @ m01
            # Bottom halves: prescribed norms and inner product, otherwise free.
            n0 = np.sqrt(1 - np.linalg.norm(m00) ** 2)
            n1 = np.sqrt(1 - np.linalg.norm(m01) ** 2)
            t = -np.vdot(m00, m01)  # column orthogonality of the full matrix
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w /= np.linalg.norm(w)
            wperp = np.array([-np.conj(w[1]), np.conj(w[0])])
            b0 = n0 * w
            a = t / n0
            rem = n1**2 - abs(a) ** 2
            if rem < 1e-6:
                continue
            b1 = a * w + np.sqrt(rem) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * wperp
            cols = [np.concatenate([m00, b0]), np.concatenate([m01, b1])]
            for e in np.eye(4, dtype=complex):
                v = e.copy()
                for c in cols:
                    v = v - np.vdot(c, v) * c
                n = np.linalg.norm(v)
                if n > 1e-8:
                    cols.append(v / n)
                if len(cols) == 4:
                    break
            u = TaggingUnitary(np.stack(cols, axis=1))
            v = perfect_message_attack(u)
            assert v is not None
            assert message_attack_pf(u, v) == pytest.approx(1.0, abs=1e-9)
            built += 1

    def test_rank_one_bottom_frame(self, rng):
        # Reflections I - 2vv† with |v0| = |v1|: the M0 columns are swap
        # related and both M2 columns are parallel to v's bottom half.
        for _ in range(50):
            top = rng.uniform(0, np.sqrt(0.5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            bottom = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            bottom *= np.sqrt(1 - 2 * abs(top[0]) ** 2) / np.linalg.norm(bottom)
            vec = np.concatenate([top, bottom])
            u = TaggingUnitary(np.eye(4) - 2 * np.outer(vec, vec.conj()))
            assert np.linalg.matrix_rank(u.u[2:, :2], tol=1e-9) <= 1
            v = perfect_message_attack(u)
            assert v is not None
            assert message_attack_pf(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_haar_random_has_none(self, rng):
        for _ in range(20):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            assert perfect_message_attack(u) is None

    @pytest.mark.parametrize("phase_equiv", [0.05, 0.1, 0.3, 0.6])
    def test_loosened_phase_equiv_still_builds(self, phase_equiv, rng):
        # phase_equiv gates the swap test only: on exactly swap-related
        # taggings the attack is built whatever its value.
        tol = DEFAULT_TOL.override(phase_equiv=phase_equiv)
        for _ in range(100):
            moduli, angles = rng.random(2), rng.uniform(0, 2 * np.pi, 4)
            m = swap_related_tagging(moduli, angles, rng.uniform(0.01, 0.99), False,
                                     int(rng.integers(2**32)))
            u = TaggingUnitary(m, tol)
            v = perfect_message_attack(u)
            assert v is not None
            assert message_attack_pf(u, v) >= 1 - 1e-12


def swap_related_tagging(moduli, angles, scale, unitary_m0, seed):
    """A tagging whose M0 columns are exactly swap related, |m00| = |m11| and
    |m01| = |m10|: M0 is a 2x2 unitary (every one is) or has the given moduli
    and phases scaled to sigma_max = ``scale``, and its completion is
    recompleted by diagonal phases and unitaries on the lower block."""
    rng = np.random.default_rng(seed)
    if unitary_m0:
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2], m[2:, 2:] = haar_random_unitary(2, rng), haar_random_unitary(2, rng)
    else:
        # Bring the moduli to at most 1 first: dividing by a subnormal
        # sigma_max would overflow.
        moduli = np.asarray(moduli, dtype=float)
        big = moduli.max()
        (r0, r1), p = moduli / big if big > 0 else moduli, np.exp(1j * np.asarray(angles))
        m0 = np.array([[r0 * p[0], r1 * p[1]], [r1 * p[2], r0 * p[3]]])
        top = np.linalg.norm(m0, 2)
        m = halmos_dilation(m0 * (scale / top) if top > 0 else m0)
    r1, r2 = (lower(haar_random_unitary(2, rng)) for _ in range(2))
    return phases(rng) @ r1 @ m @ r2 @ phases(rng)


def phases(rng):
    return np.diag(np.exp(2j * np.pi * rng.random(4)))


def lower(r):
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = r
    return out


@settings(max_examples=200, deadline=None)
@given(
    moduli=st.tuples(*[st.just(0.0) | st.floats(0, 1)] * 2),
    angles=st.tuples(*[st.floats(0, 2 * np.pi)] * 4),
    scale=st.sampled_from([1e-12, 1e-8, 1e-4, 0.5, 1 - 1e-9]) | st.floats(1e-12, 0.999),
    unitary_m0=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(moduli=(0.0, 5e-324), angles=(0.0,) * 4, scale=1e-12, unitary_m0=False, seed=0)
def test_perfect_attack_on_swap_related_draws(moduli, angles, scale, unitary_m0, seed):
    u = TaggingUnitary(swap_related_tagging(moduli, angles, scale, unitary_m0, seed))
    v = perfect_message_attack(u)
    assert v is not None
    assert is_unitary(v, 1e-12)[0]
    assert message_attack_pf(u, v) >= 1 - 1e-12


class TestBestMessageAttack:
    def test_identity_reaches_one(self, u_identity, rng):
        res = best_message_attack(u_identity, budget=500, rng=rng)
        assert res.probability > 1 - 1e-6

    def test_xblock_reaches_one(self, u_xblock, rng):
        res = best_message_attack(u_xblock, budget=500, rng=rng)
        assert res.probability > 1 - 1e-6

    def test_secure_example_regression(self, u_secure):
        res = best_message_attack(u_secure, budget=2000, rng=np.random.default_rng(0))
        # Regression band frozen from a much larger independent search
        # (1e6 random unitaries + long local refinement -> 0.85998).
        assert 0.85 < res.probability <= 0.8601

    def test_numpy_integer_budget(self, u_secure):
        # The search and its result are those of the Python int, budget included,
        # so the result serialises.
        a = best_message_attack(u_secure, budget=np.int64(700))
        b = best_message_attack(u_secure, budget=700)
        assert a.probability == b.probability
        assert a.strategy.tobytes() == b.strategy.tobytes()
        assert (a.iterations, a.converged, a.stop) == (b.iterations, b.converged, b.stop)
        assert type(a.budget) is int
        assert json.dumps(a, default=cli._json_default) == json.dumps(b, default=cli._json_default)

    def test_deterministic_per_seed(self, u_secure):
        a = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(3))
        b = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(3))
        assert a.probability == b.probability
        assert np.array_equal(a.strategy, b.strategy)

    def test_strategy_attains_probability(self, u_secure):
        res = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(1))
        assert message_attack_pf(u_secure, res.strategy) == res.probability


def witness_grid():
    """The three builtins and Haar taggings 1000-1039 at four priors and four
    budgets: 688 searches."""
    taggings = [TaggingUnitary(BUILTIN[name]()) for name in sorted(BUILTIN)] + [
        TaggingUnitary(haar_random_unitary(4, np.random.default_rng(1000 + k)))
        for k in range(40)
    ]
    for u in taggings:
        for p0 in (0.5, 0.8, 1.0, 0.0):
            for budget in (1, 65, 500, 2000):
                yield u, p0, best_message_attack(u, p0, 1 - p0, budget,
                                                 np.random.default_rng(7))


def test_reported_strategy_re_evaluates_to_its_probability():
    # message_attack_pf and the ascent share one evaluator, so the witness
    # reproduces the reported float exactly, not merely to rounding.
    misses = [(u.u[0, 0], p0, r.iterations) for u, p0, r in witness_grid()
              if message_attack_pf(u, r.strategy, p0, 1 - p0) != r.probability]
    assert misses == []


# best_message_attack(u, budget=2000, rng=default_rng(0)).probability as
# found by the coordinate search the polar ascent replaced, for
# secure_example and then haar_random_unitary(4, default_rng(k)), k = 0..9.
COORDINATE_SEARCH_PF = [
    0.858126060102347,
    0.8937106773194885,
    0.8672501370239649,
    0.9817327470481383,
    0.9346606838486207,
    0.978323347243176,
    0.9848280028266281,
    0.9646037795265385,
    0.8552919055468328,
    0.9625264927894482,
    0.874327929001182,
]


def ascent_unitaries():
    return [TaggingUnitary(secure_example_unitary())] + [
        TaggingUnitary(haar_random_unitary(4, np.random.default_rng(k)))
        for k in range(10)
    ]


class TestPolarAscent:
    def test_never_weaker_than_coordinate_search(self):
        for u, frozen in zip(ascent_unitaries(), COORDINATE_SEARCH_PF):
            res = best_message_attack(u, budget=2000, rng=np.random.default_rng(0))
            assert res.probability >= frozen - 1e-12

    def test_monotone_in_budget(self):
        # budget < 300 keeps a single start, so a larger budget only adds steps.
        u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(21)))
        probs = [
            best_message_attack(u, budget=b, rng=np.random.default_rng(0)).probability
            for b in range(1, 41)
        ]
        assert all(later >= earlier for earlier, later in zip(probs, probs[1:]))
        assert probs[-1] > probs[0]

    @pytest.mark.parametrize("p0, p1", [(0.5, 0.5), (0.8, 0.2)])
    def test_strategy_is_unitary_and_attains_probability(self, p0, p1):
        for u in ascent_unitaries():
            res = best_message_attack(
                u, p0=p0, p1=p1, budget=2000, rng=np.random.default_rng(0)
            )
            assert is_unitary(res.strategy, 1e-12)[0]
            assert message_attack_pf(u, res.strategy, p0, p1) == res.probability
            assert res.method == "polar_ascent"
            assert res.iterations <= 2000

    def test_secure_example_small_budget(self, u_secure):
        res = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(0))
        assert res.probability >= 0.85997
        assert res.converged

    def test_stops_once_settled_or_certain(self, u_secure, u_identity):
        # Without a certainty attack the ascent stops once every start has
        # settled at a fixed point of the polar map; with one it stops once it
        # is certain.
        for budget in (300, 12_000):
            res = best_message_attack(u_secure, budget=budget)
            assert res.iterations < budget and res.converged
            assert same_attack(res, reference_ascent(u_secure, budget))
        res = best_message_attack(u_identity, budget=300)
        assert res.iterations == 4 and res.converged
        # A start's steps do not depend on how many starts run, so a budget
        # that adds starts without cutting the steps per start never returns
        # less: budgets 1-599 run one start here, 600 two (300 steps each),
        # 900 three, and 3,600 on twelve.
        for budgets in ((1, 64, 65, 300, 599), (300, 600, 900, 3_600, 12_000, 36_000)):
            probs = [best_message_attack(u_secure, budget=b).probability for b in budgets]
            assert all(later >= earlier for earlier, later in zip(probs, probs[1:]))

    def test_converges_within_budget(self):
        # Plain polar steps hit budget 2,000 unconverged on three of these.
        for u in ascent_unitaries():
            res = best_message_attack(u, budget=2_000)
            assert res.converged and res.iterations < 2_000

    def test_fallen_extrapolation_is_not_converged(self):
        # The tenth evaluation is an extrapolated V3 that fell below V2 and was
        # dropped: it gained nothing, but these searches are far from done.
        for k in (25, 34):
            u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(k)))
            res = best_message_attack(u, budget=10)
            assert res.probability == best_message_attack(u, budget=9).probability
            assert res.probability < best_message_attack(u, budget=599).probability - 1e-4
            assert not res.converged

    def test_budget_caps_evaluations(self, u_identity):
        # identity has two starts (swap, perfect attack): one budget unit
        # evaluates only the first and takes no step.
        res = best_message_attack(u_identity, budget=1, rng=np.random.default_rng(0))
        assert res.iterations == 1 and not res.converged
        assert res.probability == pytest.approx(1.0, abs=1e-15)

    def test_fixed_point_stop_at_degenerate_prior(self, u_secure):
        # At p0 = 1 two weights vanish, so G has rank 2 and the SVD's free
        # null-space part lets V drift at every step; the weighted overlaps,
        # all that the polar map reads, settle all the same.
        res = best_message_attack(u_secure, p0=1.0, p1=0.0, budget=2_000)
        assert res.iterations < 200 and res.converged
        assert res.stop == "fixed_point"

    def test_stop_names_the_rule(self, u_secure, u_identity):
        assert best_message_attack(u_secure, budget=2_000).stop == "fixed_point"
        assert best_message_attack(u_identity, budget=300).stop == "certain"
        assert best_message_attack(u_identity, budget=1).stop == "budget"
        half = best_message_attack(u_secure, budget=30).probability
        cut = best_message_attack(u_secure, budget=2_000, stop_at=half)
        assert cut.stop == "stop_at"
        assert json.loads(json.dumps(cut, default=cli._json_default))["stop"] == "stop_at"

    @pytest.mark.parametrize("budget", [300, 500, 2_000])
    def test_no_polar_step_past_the_stop(self, budget, monkeypatch):
        # One SVD'd matrix per evaluation after the starts, none beyond; a
        # settled start leaves the batch, so the batch never grows.
        batches = svd_batches(monkeypatch)
        n = max(1, budget // 300)  # starts: no perfect attack on a Haar draw
        for k in range(40):
            u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(k)))
            batches.clear()
            res = best_message_attack(u, budget=budget)
            assert sum(batches) == res.iterations - n
            assert batches[0] == n and batches == sorted(batches, reverse=True)
            # Every search here settles, and not all its starts at one step.
            assert n == 1 or batches[-1] < n

    def test_settled_starts_leave_the_batch(self, u_secure, monkeypatch):
        # Twelve starts.  With every start stepping until the slowest one
        # settled, this search took 780 evaluations.
        batches = svd_batches(monkeypatch)
        res = best_message_attack(u_secure, budget=20_000)
        assert res.iterations < 1_000 and res.stop == "fixed_point" and res.converged
        assert abs(res.probability - 0.8599751046455918) <= 1e-14
        assert batches[0] == 12 and batches[-1] == 1
        assert batches == sorted(batches, reverse=True)


def svd_batches(monkeypatch):
    """Record the number of matrices in each call of the ascent's SVD kernel."""
    batches = []
    svd = adversary._svd

    def counted(a, *args, **kwargs):
        batches.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(adversary, "_svd", counted)
    return batches


@pytest.mark.parametrize("n", [1, 2, 6, 12])
def test_svd_kernel_equals_linalg_svd(n):
    # Stacks of the ascent's 4x4 G and of 2x2 blocks like M0.
    rng = np.random.default_rng(n)
    for dim in (4, 2):
        for _ in range(50):
            g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
            for got, want in zip(linalg._svd(g), np.linalg.svd(g)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_one_svd_of_m0_per_tagging(u_secure, m0_svds):
    # Condition 2, the no-message optimum and the score read one cached SVD.
    seen = m0_svds
    u = TaggingUnitary(u_secure.u)
    score = designer.security_score(u, budget=500)
    assert score.secure and score.pf_message_best is not None
    assert len(seen) == 1 and np.array_equal(seen[0], u.m0)

    seen.clear()
    u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(3)))
    validate(u, include_attacks=False)
    no_message_optimal(u)
    validate(u, attack_budget=700)
    assert len(seen) == 1

    # A dilation tagging built by hand: the dilation's SVD and its tagging's.
    seen.clear()
    m0 = secure_example_unitary()[:2, :2]
    designer.security_score(TaggingUnitary(halmos_dilation(m0)), budget=500)
    assert len(seen) == 2

    # A designer candidate: its dilation and tagging take the SVD it was judged on.
    seen.clear()
    designer.security_score(TaggingUnitary.dilation(m0, linalg._svd(m0)), budget=500)
    assert len(seen) == 1


def test_failed_svd_raises_linalg_error(u_identity, monkeypatch):
    # The kernel runs under np.linalg.svd's error handling, so a G holding NaN
    # raises LinAlgError, in the ascent and in the certainty construction.
    svd = adversary._svd

    def poisoned(g):
        g = g.copy()
        g[:, 0, 0] = np.nan
        return svd(g)

    monkeypatch.setattr(adversary, "_svd", poisoned)
    u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(0)))
    assert perfect_message_attack(u) is None  # so the ascent's own step raises
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        best_message_attack(u, budget=2)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        perfect_message_attack(u_identity)


def same_attack(a, b):
    return (a.probability == b.probability and np.array_equal(a.strategy, b.strategy)
            and a.iterations == b.iterations and a.converged == b.converged)


@pytest.mark.parametrize("budget", [500, 2_000])
def test_rng_seed_equals_its_generator(u_secure, budget):
    # rng takes a Generator or a seed (linalg.check_rng), None meaning 0.
    # A Generator advances as it draws, so each call gets a fresh one.
    def run(rng):
        rng_attack, rng_score = rng(), rng()
        attack = best_message_attack(u_secure, budget=budget, rng=rng_attack)
        score = designer.security_score(u_secure, budget=budget, rng=rng_score)
        assert score.pf_message_best is not None
        return (attack.probability.hex(), attack.strategy.tobytes(), attack.iterations,
                attack.converged, attack.stop, score.pf_no_message.hex(),
                score.pf_message_best.hex(), score.score.hex(), score.secure)

    assert run(lambda: 7) == run(lambda: np.random.default_rng(7))
    assert run(lambda: None) == run(lambda: np.random.default_rng(0))


# Calls that once returned without checking budget or rng: a search below
# budget 600 draws no Haar start, an insecure or pruned candidate is never
# searched, so its score never reaches the search's checks, and validate
# without attacks runs no search.
UNCHECKED_BEFORE_RETURN = {
    "attack-negative-seed": (ValueError, lambda u: best_message_attack(u, budget=500, rng=-1)),
    "attack-str-seed": (TypeError, lambda u: best_message_attack(u, budget=500, rng="abc")),
    "attack-float-seed": (TypeError, lambda u: best_message_attack(u, budget=500, rng=1.5)),
    "validate-negative-seed": (ValueError, lambda u: validate(u, attack_budget=500, seed=-1)),
    "insecure-score-zero-budget": (
        ValueError, lambda u: designer.security_score(BUILTIN["x_block"](), budget=0)),
    "pruned-score-zero-budget": (
        ValueError, lambda u: designer.security_score(u, budget=0, ceiling=0.5)),
    "insecure-score-negative-seed": (
        ValueError, lambda u: designer.security_score(BUILTIN["x_block"](), rng=-1)),
    "pruned-score-negative-seed": (
        ValueError, lambda u: designer.security_score(u, rng=-1, ceiling=0.5)),
    "validate-no-attacks-negative-seed": (
        ValueError, lambda u: validate(u, seed=-1, include_attacks=False)),
    "validate-no-attacks-zero-budget": (
        ValueError, lambda u: validate(u, attack_budget=0, include_attacks=False)),
}


@pytest.mark.parametrize("case", UNCHECKED_BEFORE_RETURN)
def test_budget_and_rng_checked_before_any_early_return(u_secure, case):
    error, call = UNCHECKED_BEFORE_RETURN[case]
    with pytest.raises(error):
        call(u_secure)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_stop_at_is_exact(seed):
    # Budgets below 600 keep the same starts (no Haar draws), so a search cut
    # at a smaller budget is a prefix of the full one.
    u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(seed)))
    full = best_message_attack(u, budget=500)
    assert same_attack(full, best_message_attack(u, budget=500, stop_at=np.inf))
    above = np.nextafter(full.probability, np.inf)
    assert same_attack(full, best_message_attack(u, budget=500, stop_at=above))

    half = best_message_attack(u, budget=250)
    stopped = best_message_attack(u, budget=500, stop_at=half.probability)
    assert stopped.probability >= half.probability
    assert stopped.iterations <= half.iterations < 500
    assert same_attack(stopped, best_message_attack(u, budget=stopped.iterations))


def reference_ascent(u, budget, stop_at=np.inf, p0=0.5, settle=True, squarem=True,
                     einsum=False, retire=True):
    """best_message_attack at rng seed 0, with the stop rules and the running
    best checked after every evaluation.  The iterates are the SQUAREM cycles
    of the polar map F on the overlaps c: from a base V0, V1 = F(c0), V2 =
    F(c1) and V3 = F(c0 - 2 alpha r + alpha^2 d), with r = c1 - c0, d = c2 -
    2 c1 + c0 and alpha = min(-|sqrt(w) r|/|sqrt(w) d|, -1); the next base is
    V3 unless f(V3) < f(V2).  ``squarem=False`` takes plain steps V <- F(V)
    instead.  A start settles once the step V1 = F(V0) from its base moves
    its overlaps, weighted by sqrt(w), by at most 1e-9 in norm; it then
    stops stepping and keeps its best, and the search stops once every start
    has settled.  ``retire=False`` keeps settled starts stepping until then.
    ``settle=False`` drops both rules, so every start runs to the budget or
    to another stop.  ``einsum=True``
    takes the overlaps and the linearisation by 3-operand einsums instead of
    the K contraction.  Otherwise each start's overlaps and linearisation are
    taken on their own, so a bit-identical match also shows that a start's
    arithmetic does not depend on how many starts run."""
    a = np.stack([E[1], u.u[:, 1], E[0], u.u[:, 0]])
    b = np.stack([E[0], u.u[:, 0], E[1], u.u[:, 1]])
    w = 0.5 * np.array([p0, p0, 1 - p0, 1 - p0])
    k_mat = (a.conj()[:, :, None] * b[:, None, :]).reshape(4, 16).T
    g_mat = w[:, None] * k_mat.T.conj()
    perfect = perfect_message_attack(u)
    starts = [E[[1, 0, 2, 3]]] + ([] if perfect is None else [perfect])
    rng = np.random.default_rng(0)
    while len(starts) < min(12, budget // 300):
        starts.append(haar_random_unitary(4, rng))
    start = np.stack(starts[:budget])
    n = len(start)

    def overlaps(x):
        if einsum:
            return np.einsum("ki,sij,kj->sk", a.conj(), x, b)
        return np.stack([x[s].reshape(1, 16) @ k_mat for s in range(n)])[:, 0]

    def value(c):
        return (np.abs(c) ** 2 * w).sum(axis=-1)

    def polar(c):
        if einsum:
            g = np.einsum("sk,ki,kj->sij", w * c, a, b.conj())
        else:
            g = np.stack([(c[s] @ g_mat).reshape(4, 4) for s in range(n)])
        left, _, right = np.linalg.svd(g)
        v = left @ right
        return v, overlaps(v)

    def evaluated():
        # Each iterate with its overlaps, and its cycle base's when it is V1 = F(V0).
        v0, c0 = start, overlaps(start)
        yield v0, c0, None
        while True:
            v1, c1 = polar(c0)
            yield v1, c1, c0
            v2, c2 = polar(c1)
            yield v2, c2, None
            if not squarem:
                c0 = c2
                continue
            r, d = c1 - c0, c2 - 2 * c1 + c0
            r_norm, d_norm = (np.linalg.norm(np.sqrt(w) * x, axis=-1) for x in (r, d))
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = np.where(d_norm > 0, np.minimum(-r_norm / d_norm, -1), -1)
            alpha = alpha[:, None]
            v3, c3 = polar(c0 - 2 * alpha * r + alpha**2 * d)
            yield v3, c3, None
            c0 = np.where((value(c3) >= value(c2))[:, None], c3, c2)

    v, f = start, np.full(n, -np.inf)
    evals, converged, stop = 0, False, "budget"
    live, settled = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    for taken, (step, c, base) in enumerate(evaluated(), 1):
        if taken > budget // n:
            break
        # Only the live starts step: the others' iterates are dropped.
        f_step = value(c)
        evals += int(live.sum())
        if base is not None and settle:
            settled |= np.linalg.norm(np.sqrt(w) * (c - base), axis=-1) <= 1e-9
        converged = bool(np.abs(f_step - f)[live].max() <= 1e-13)
        gained = live & (f_step > f)
        v, f = np.where(gained[:, None, None], step, v), np.where(gained, f_step, f)
        if f.max() >= stop_at:
            stop = "stop_at"
        elif converged and f.max() >= 1 - 1e-13:
            stop = "certain"
        elif settled.all():
            stop = "fixed_point"
        if stop != "budget":
            break
        if retire:
            live = ~settled
    best = int(np.argmax(f))
    return AttackResult(float(f[best]), v[best], "polar_ascent", budget, evals, converged,
                        stop)


def oracle_unitaries():
    builtins = ("identity", "x_block", "secure_example")
    haar = [haar_random_unitary(4, np.random.default_rng(100 + k)) for k in range(10)]
    return [TaggingUnitary(m) for m in [BUILTIN[name]() for name in builtins] + haar]


# Budgets over the first SQUAREM cycle (1-3 steps at one start), around 64 and
# 128 steps at one start, then longer searches on one, six and twelve starts.
REFERENCE_BUDGETS = [1, 2, 3, 63, 64, 65, 127, 128, 129, 500, 2000, 3600]


@pytest.mark.parametrize("budget", REFERENCE_BUDGETS)
def test_stop_rules_match_per_step_reference(budget):
    for u in oracle_unitaries():
        full = best_message_attack(u, budget=budget)
        limits = [np.inf, full.probability, np.nextafter(full.probability, np.inf),
                  0.9 * full.probability]
        for stop_at in limits:
            res, ref = (best_message_attack(u, budget=budget, stop_at=stop_at),
                        reference_ascent(u, budget, stop_at))
            assert same_attack(res, ref) and res.stop == ref.stop
        # The einsum contraction sums in another order: last bits only.
        old = reference_ascent(u, budget, einsum=True)
        assert abs(full.probability - old.probability) <= 1e-14


@pytest.mark.parametrize("budget", [3, 65, 500, 2000])
@pytest.mark.parametrize("p0", [0.8, 1.0, 0.0])
def test_stop_rules_match_per_step_reference_at_unequal_priors(budget, p0):
    # At p0 = 1 or 0 two weights vanish: G has rank 2, and d = 0 makes alpha -1.
    for u in oracle_unitaries():
        full = best_message_attack(u, p0, 1 - p0, budget=budget)
        for stop_at in (np.inf, full.probability, 0.9 * full.probability):
            res = best_message_attack(u, p0, 1 - p0, budget=budget, stop_at=stop_at)
            ref = reference_ascent(u, budget, stop_at, p0=p0)
            assert same_attack(res, ref) and res.stop == ref.stop


@pytest.mark.parametrize("budget", [1, 500, 599, 600, 899, 900, 2000, 3600])
def test_haar_starts_drawn_in_one_call(budget, monkeypatch):
    # A search that draws takes all of its Haar starts from one call; below
    # budget 600, min(12, budget // 300) <= 1 and no start is drawn.
    calls = []

    def spy(dim, rng, count=None):
        calls.append((dim, count))
        return haar_random_unitary(dim, rng, count)

    monkeypatch.setattr(adversary, "haar_random_unitary", spy)
    for u in oracle_unitaries():
        calls.clear()
        best_message_attack(u, budget=budget)
        draws = min(12, budget // 300) - 1 - (perfect_message_attack(u) is not None)
        assert calls == ([(4, draws)] if draws > 0 else [])
        assert budget >= 600 or not calls


def grid_unitaries():
    builtins = ("identity", "x_block", "secure_example")
    haar = [haar_random_unitary(4, np.random.default_rng(1000 + k)) for k in range(60)]
    return [TaggingUnitary(m) for m in [BUILTIN[name]() for name in builtins] + haar]


@pytest.mark.parametrize("p0", [0.5, 0.8])
@pytest.mark.parametrize("budget", [300, 500, 2_000, 12_000])
def test_settle_rule_never_weaker(budget, p0):
    # Against the same ascent run until its budget or another stop.
    for u in grid_unitaries():
        res = best_message_attack(u, p0=p0, p1=1 - p0, budget=budget)
        full = reference_ascent(u, budget, p0=p0, settle=False, squarem=False)
        assert res.probability >= full.probability - 1e-14
        assert res.iterations <= full.iterations
        assert res.converged or res.iterations == full.iterations


def test_retiring_settled_starts_never_weaker():
    # Against the same search with settled starts stepping until every start
    # has settled: rounding at a fixed point may raise f by an ulp, no more.
    for u in grid_unitaries():
        res = best_message_attack(u, budget=2_000)
        kept = reference_ascent(u, 2_000, retire=False)
        assert res.probability >= kept.probability - 1e-14
        assert res.iterations <= kept.iterations
        assert (res.converged, res.stop) == (kept.converged, kept.stop)


@pytest.mark.parametrize("p0", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("budget", [300, 2_000])
def test_fixed_point_stop_never_weaker_than_full_cycles(budget, p0):
    # The fixed-point stop fires only where the search has nothing left to
    # gain beyond rounding: against the same cycles run to the budget.
    for u in ascent_unitaries():
        res = best_message_attack(u, p0=p0, p1=1 - p0, budget=budget)
        full = reference_ascent(u, budget, p0=p0, settle=False)
        assert res.iterations <= full.iterations
        assert res.probability >= full.probability - 1e-14


@pytest.mark.parametrize("p0", [1.0, 0.0])
@pytest.mark.parametrize("budget", [500, 2_000])
def test_degenerate_priors_reach_a_fixed_point(budget, p0):
    # At priors 1,0 and 0,1 V drifts along a null space that f never sees.  The
    # step length reads only the weighted overlaps, so every search settles;
    # with it taken on V, Haar 1002 at p0 = 1 ran to budget 2,000 unconverged.
    for k in range(1000, 1060):
        u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(k)))
        res = best_message_attack(u, p0=p0, p1=1 - p0, budget=budget)
        assert res.stop == "fixed_point" and res.converged
        if k == 1002 and p0 == 1.0:
            assert res.iterations < 500


def test_working_memory_does_not_grow_with_budget(monkeypatch):
    # Both budgets run 12 starts.  With no gain or overlap step small enough to
    # stop on, no fixed-point or certainty stop fires, so each run takes its
    # whole budget.
    monkeypatch.setattr(adversary, "_ASCENT_GAIN", -1.0)
    monkeypatch.setattr(adversary, "_FIXED_POINT", -1.0)
    u = TaggingUnitary(haar_random_unitary(4, np.random.default_rng(34)))
    best_message_attack(u, budget=3_600)
    tracemalloc.start()
    try:
        short_run = best_message_attack(u, budget=3_600)
        _, short = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        long_run = best_message_attack(u, budget=36_000)
        _, long = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert long_run.iterations >= 5 * short_run.iterations
    assert long <= 1.5 * short


def same_m0_variants(m, rng):
    """Taggings with m's attack optima at equal priors.  Every optimum over
    Eve's actions sees U only through the Gram matrix of the rays e0, e1,
    Ue0, Ue1, which M0 fixes; diagonal phases only rephase those rays, and U†
    gives the same rays with the halves swapped.  At equal priors, swapping
    e0 with e1 (SWAP01) on either side of U only relabels the messages, and
    conj(U) conjugates every amplitude, which no probability sees."""
    def recompletion():
        r1, r2 = (lower(haar_random_unitary(2, rng)) for _ in range(2))
        return phases(rng) @ r1 @ m @ r2 @ phases(rng)

    return [halmos_dilation(m[:2, :2]), m.conj().T, recompletion(), recompletion(),
            SWAP01 @ m, m @ SWAP01, SWAP01 @ m @ SWAP01, m.conj()]


REFLECTION_VEC = np.array([0.2, 0.2j, np.sqrt(0.92), 0])  # M0 columns swap related

METAMORPHIC_TAGGINGS = {
    "secure_example": secure_example_unitary(),
    "reflection": np.eye(4) - 2 * np.outer(REFLECTION_VEC, REFLECTION_VEC.conj()),
    **{f"haar{k}": haar_random_unitary(4, np.random.default_rng(k)) for k in range(6)},
}


@pytest.mark.parametrize("name", list(METAMORPHIC_TAGGINGS))
def test_optima_depend_only_on_m0(name):
    m = METAMORPHIC_TAGGINGS[name]
    u = TaggingUnitary(m)
    no_message = no_message_optimal(u).probability
    substitution = best_message_attack(u, budget=12_000).probability
    certain = perfect_message_attack(u) is not None
    for variant in map(TaggingUnitary, same_m0_variants(m, np.random.default_rng(7))):
        assert (perfect_message_attack(variant) is not None) == certain
        assert abs(no_message_optimal(variant).probability - no_message) <= 1e-12
        assert abs(best_message_attack(variant, budget=12_000).probability
                   - substitution) <= 1e-9


class TestKeyDistinguishability:
    def test_identity_not_distinguishable(self, u_identity):
        assert not key_distinguishability(u_identity).distinguishable

    def test_xblock_distinguishable(self, u_xblock):
        rep = key_distinguishability(u_xblock)
        assert rep.distinguishable
        assert np.abs(rep.gram).max() < 1e-12

    def test_secure_example(self, u_secure):
        rep = key_distinguishability(u_secure)
        assert not rep.distinguishable
        assert rep.gram[0, 0] == pytest.approx(0.5)

    def test_strict_tolerance_from_unitary(self, u_secure):
        loose = TaggingUnitary(u_secure.u, DEFAULT_TOL.override(strict=1.0))
        assert key_distinguishability(loose).distinguishable
        assert not key_reuse_feasibility(loose).ruled_out


class TestKeyReuseFeasibility:
    def test_identity_ruled_out(self, u_identity):
        rep = key_reuse_feasibility(u_identity)
        assert rep.ruled_out and rep.witness == 0

    def test_xblock_not_ruled_out(self, u_xblock):
        assert not key_reuse_feasibility(u_xblock).ruled_out

    def test_secure_example_ruled_out(self, u_secure):
        rep = key_reuse_feasibility(u_secure)
        assert rep.ruled_out and rep.witness == 0


class TestKeyReuseSimulation:
    def test_eve_absent(self, u_secure, rng):
        stats = simulate_key_reuse(
            u_secure, rounds=3, interaction=np.eye(8), rng=rng, trials=50
        )
        assert all(acc == 1.0 for acc in stats.per_round_acceptance)
        assert stats.final_key_fidelity == pytest.approx(1.0, abs=1e-10)
        # Eve's ancilla is uncorrelated, so her "forgery" is an honest-style
        # encode controlled on |0>: message goes through untagged.
        assert stats.forgery_attempts == 50

    def test_honest_reuse_second_round(self, u_secure, rng):
        stats = simulate_key_reuse(
            u_secure, rounds=2, interaction=np.eye(8), rng=rng, trials=30
        )
        assert stats.per_round_acceptance[1] == 1.0

    def test_random_interaction_forgery_below_one(self, u_secure, rng):
        p_max = 0.0
        for _ in range(30):
            w = haar_random_unitary(8, rng)
            p = reuse_forgery_probability(u_secure, w)
            assert p < 1 - 1e-6
            p_max = max(p_max, p)
        assert p_max <= 1

    def test_simulated_frequency_matches_probability(self, u_secure):
        rng = np.random.default_rng(9)
        w = haar_random_unitary(8, rng)
        p = reuse_forgery_probability(u_secure, w)
        stats = simulate_key_reuse(u_secure, 1, w, rng, trials=3000)
        if stats.forgery_attempts > 0:
            n = stats.forgery_attempts
            band = 4 * np.sqrt(max(p * (1 - p), 1e-6) / n)
            assert abs(stats.forgery_success_rate - p) < band

    def test_non_unitary_interaction_rejected(self, u_secure, rng):
        with pytest.raises(ValueError):
            simulate_key_reuse(u_secure, 1, np.eye(8) * 2, rng, trials=1)

    def test_huge_interaction_rejected_without_overflow(self, u_secure):
        with pytest.raises(ValueError, match=r"must be unitary \(deviation inf\)"):
            reuse_forgery_probability(u_secure, np.eye(8) * 1e200)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, u_secure, rng, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            simulate_key_reuse(u_secure, 2, np.eye(8), rng, trials=trials)


def reuse_forgery_oracle(u, w, forge_bit):
    """The single-round reuse forgery on key A ⊗ key B ⊗ message ⊗ ancilla
    (32-dim), with every operator built by kron."""
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    i2, i4 = np.eye(2), np.eye(4)
    enc = tensor(p0, i2, i4, i2) + tensor(p1, i2, u, i2)
    dec = tensor(i2, p0, u.conj().T, i2) + tensor(i2, p1, i4, i2)
    eve = tensor(i2, i2, w)
    forge = tensor(i2, i2, tensor(i4, p0) + tensor(u, p1))
    accepted = forged = 0.0
    for bit in (0, 1):
        start = tensor(singlet(), MESSAGE_BASIS[:, bit], np.array([1, 0]))
        amps = (dec @ eve @ enc @ start).reshape(2, 2, 4, 2)
        for k in (0, 1):
            # Bob accepted outcome k; Eve swaps in |phi_forge_bit> and forges.
            reload = np.zeros_like(amps)
            reload[:, :, forge_bit, :] = amps[:, :, k, :]
            final = (dec @ forge @ reload.reshape(-1)).reshape(2, 2, 4, 2)
            accepted += (np.abs(amps[:, :, k, :]) ** 2).sum()
            forged += (np.abs(final[:, :, :2, :]) ** 2).sum()
    return forged / accepted


class TestKeyReuseOracle:
    @pytest.mark.parametrize("forge_bit", [0, 1])
    def test_exact_matches_joint_simulation(self, forge_bit):
        rng = np.random.default_rng(17)
        taggings = [secure_example_unitary()] + [haar_random_unitary(4, rng) for _ in range(5)]
        for u in taggings:
            for w in [np.eye(8)] + [haar_random_unitary(8, rng) for _ in range(3)]:
                p = reuse_forgery_probability(u, w, forge_bit)
                assert p == pytest.approx(reuse_forgery_oracle(u, w, forge_bit), abs=1e-12)

    def test_bad_bits_rejected(self, u_secure):
        with pytest.raises(ValueError, match="forge_bit"):
            simulate_key_reuse(u_secure, 1, np.eye(8), np.random.default_rng(0), forge_bit=-1)


# simulate_key_reuse(u, rounds, w, default_rng(100 + seed), trials=60) from the
# 32-dim joint simulation: forgery attempts, successes, per-round acceptance and
# final key fidelity.  u is secure_example for seeds 0 and 1 and
# haar_random_unitary(4, rng) for seed 2, then w = haar_random_unitary(8, rng),
# with rng = default_rng(seed).
REUSE_32_DIM_STATS = {
    (0, 1): (25, 12, [0.4166666666666667], 0.499406327353149),
    (0, 3): (6, 4, [0.4666666666666667, 0.4642857142857143, 0.46153846153846156],
             0.38635476263629664),
    (1, 1): (42, 27, [0.7], 0.6176967434419319),
    (1, 3): (6, 2, [0.65, 0.46153846153846156, 0.3333333333333333], 0.4759160320938776),
    (2, 1): (19, 17, [0.31666666666666665], 0.49067556369691784),
    (2, 3): (4, 3, [0.31666666666666665, 0.42105263157894735, 0.5], 0.3925124929106301),
}


@pytest.mark.parametrize("seed, rounds", sorted(REUSE_32_DIM_STATS))
def test_key_reuse_simulation_frozen(seed, rounds):
    rng = np.random.default_rng(seed)
    u = secure_example_unitary() if seed != 2 else haar_random_unitary(4, rng)
    w = haar_random_unitary(8, rng)
    stats = simulate_key_reuse(u, rounds, w, np.random.default_rng(100 + seed), trials=60)
    attempts, successes, acceptance, fidelity = REUSE_32_DIM_STATS[seed, rounds]
    assert (stats.forgery_attempts, stats.forgery_successes) == (attempts, successes)
    assert stats.per_round_acceptance == pytest.approx(acceptance, abs=1e-12)
    assert stats.final_key_fidelity == pytest.approx(fidelity, abs=1e-12)


def reuse_rounds_oracle(u, w, rounds, forge_bit):
    """Exact multi-round key reuse: the unnormalised 8×8 key ⊗ ancilla density
    pushed through the rounds, each round averaging Alice's two bits and
    keeping Bob's outcomes 0 and 1, with every operator built by kron on
    key A ⊗ key B ⊗ message ⊗ ancilla (32-dim).  Returns the per-round
    acceptance, then the key fidelity and the forgery success rate given
    that every round was accepted."""
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    i2, i4 = np.eye(2), np.eye(4)
    enc = tensor(p0, i2, i4, i2) + tensor(p1, i2, u, i2)
    dec = tensor(i2, p0, u.conj().T, i2) + tensor(i2, p1, i4, i2)
    eve = tensor(i2, i2, w)
    forge = tensor(i2, i2, tensor(i4, p0) + tensor(u, p1))

    def slot(m):  # key ⊗ ancilla -> key ⊗ |m> ⊗ ancilla
        return tensor(i2, i2, MESSAGE_BASIS[:, [m]], i2)

    honest = [np.sqrt(0.5) * slot(k).T @ dec @ eve @ enc @ slot(i)
              for i in (0, 1) for k in (0, 1)]
    forged = [slot(k).T @ dec @ forge @ slot(forge_bit) for k in (0, 1)]
    start = tensor(singlet(), np.array([1, 0]))
    rho = np.outer(start, start.conj())
    acceptance = []
    for _ in range(rounds):
        after = sum(op @ rho @ op.conj().T for op in honest)
        acceptance.append(np.trace(after).real / np.trace(rho).real)
        rho = after
    accepted = np.trace(rho).real
    key = np.trace(rho.reshape(4, 2, 4, 2), axis1=1, axis2=3)
    fidelity = (singlet().conj() @ key @ singlet()).real / accepted
    rate = sum(np.trace(op @ rho @ op.conj().T).real for op in forged) / accepted
    return acceptance, fidelity, rate


@pytest.mark.parametrize("forge_bit", [0, 1])
def test_key_reuse_sampler_matches_exact_propagation(forge_bit):
    trials, rounds = 4000, 3
    rng = np.random.default_rng(23)
    for u in [secure_example_unitary()] + [haar_random_unitary(4, rng) for _ in range(2)]:
        w = haar_random_unitary(8, rng)
        # One round of the oracle is the single-round exact probability.
        assert reuse_rounds_oracle(u, w, 1, forge_bit)[2] == pytest.approx(
            reuse_forgery_probability(u, w, forge_bit), abs=1e-12
        )
        acceptance, fidelity, rate = reuse_rounds_oracle(u, w, rounds, forge_bit)
        stats = simulate_key_reuse(u, rounds, w, rng, trials=trials, forge_bit=forge_bit)
        reached = trials
        for sampled, p in zip(stats.per_round_acceptance, acceptance):
            assert abs(sampled - p) < 4 * np.sqrt(p * (1 - p) / reached)
            reached = round(sampled * reached)
        n = stats.forgery_attempts
        assert n == reached > 100
        # A fidelity lies in [0, 1], so its standard deviation is at most 1/2.
        assert abs(stats.final_key_fidelity - fidelity) < 4 * 0.5 / np.sqrt(n)
        assert abs(stats.forgery_success_rate - rate) < 4 * np.sqrt(rate * (1 - rate) / n)


# simulate_key_reuse(BUILTIN[name](), 3, w, default_rng(5), trials=200) before
# the sampler cached each outcome history: forgery attempts and successes, and
# the final key fidelity, for either forge bit; every round accepted every
# trial.  These interactions leave outcomes of probability zero.
ZERO_BRANCH_STATS = {
    ("identity", "none"): (200, 200, 1.0),
    ("identity", "swap"): (200, 200, 1.0),
    ("x_block", "none"): (200, 110, 1.0),
    ("x_block", "swap"): (200, 90, 0.49999999999999994),
}


@pytest.mark.parametrize("name, eve", sorted(ZERO_BRANCH_STATS))
@pytest.mark.parametrize("forge_bit", [0, 1])
def test_key_reuse_zero_probability_branches(name, eve, forge_bit):
    w = tensor(SWAP01 if eve == "swap" else E, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stats = simulate_key_reuse(
            BUILTIN[name](), 3, w, np.random.default_rng(5), trials=200, forge_bit=forge_bit
        )
    attempts, successes, fidelity = ZERO_BRANCH_STATS[name, eve]
    assert (stats.forgery_attempts, stats.forgery_successes) == (attempts, successes)
    assert stats.per_round_acceptance == [1.0, 1.0, 1.0]
    assert stats.final_key_fidelity == fidelity


def reference_key_reuse(u, rounds, w, rng, trials, forge_bit):
    """simulate_key_reuse with no caching: each trial runs afresh from
    _START through _reuse_kernel's maps and draws with Generator.choice.
    Returns the forgery counts, per-round acceptance and final key fidelity,
    with None for NaN, and the set of (bit, outcome) histories the trials
    reached, the empty one included."""
    u = TaggingUnitary(u)
    maps, forge = adversary._reuse_kernel(u, w, forge_bit)
    accepted, reached = [0] * rounds, [0] * rounds
    successes, fidelities = 0, []
    visited = {()}
    for _ in range(trials):
        psi, history = adversary._START, ()
        for r in range(rounds):
            bit = int(rng.integers(2))
            phi = (maps[bit] @ psi[..., None])[..., 0]
            probs = (np.abs(phi) ** 2).sum(axis=(1, 2, 3))
            outcome = rng.choice(4, p=probs / probs.sum())
            reached[r] += 1
            if outcome > 1:
                break
            accepted[r] += 1
            psi = phi[outcome] / np.linalg.norm(phi[outcome])
            history += (bit, int(outcome))
            visited.add(history)
        else:
            fidelities.append(key_fidelity(psi.reshape(8)))
            probs = np.einsum("kbe,abe->k", forge, np.abs(psi) ** 2)
            successes += int(rng.choice(4, p=probs / probs.sum()) < 2)
    acceptance = [a / n if n else None for a, n in zip(accepted, reached)]
    fidelity = float(np.mean(fidelities)) if fidelities else None
    return (len(fidelities), successes, acceptance, fidelity), visited


def sampler_summary(stats):
    def plain(x):
        return None if np.isnan(x) else x

    return (stats.forgery_attempts, stats.forgery_successes,
            [plain(a) for a in stats.per_round_acceptance], plain(stats.final_key_fidelity))


@pytest.mark.parametrize("forge_bit", [0, 1])
def test_key_reuse_sampler_equals_uncached_reference(forge_bit):
    # The same random stream as sampling every trial afresh, so the counts,
    # the per-round acceptance and the fidelity are equal, not just close.
    rng = np.random.default_rng(31)
    taggings = [BUILTIN[name]() for name in ("identity", "x_block", "secure_example")]
    taggings += [haar_random_unitary(4, rng) for _ in range(2)]
    cases = [(u, haar_random_unitary(8, rng), rounds, int(rng.integers(2**31)))
             for u in taggings for rounds in (1, 2, 3, 4)]
    # The interactions that leave outcomes of probability zero.
    cases += [(BUILTIN[name](), tensor(eve, np.eye(2)), 3, 5)
              for name in ("identity", "x_block") for eve in (E, SWAP01)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, w, rounds, seed in cases:
            stats = simulate_key_reuse(u, rounds, w, np.random.default_rng(seed),
                                       trials=100, forge_bit=forge_bit)
            ref, _ = reference_key_reuse(u, rounds, w, np.random.default_rng(seed),
                                         100, forge_bit)
            assert sampler_summary(stats) == ref


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM,
                                           np.random.MT19937, np.random.Philox,
                                           np.random.SFC64])
def test_key_reuse_bits_on_every_bit_generator(bit_generator):
    # Each honest bit is read off the bit generator's buffered 32-bit word;
    # it must be int(rng.integers(2))'s bit, interleaved with the uniforms
    # of the outcome draws, whatever the bit generator.
    rng = np.random.default_rng(41)
    for rounds in (1, 3):
        u, w = haar_random_unitary(4, rng), haar_random_unitary(8, rng)
        seed = int(rng.integers(2**31))
        stats = simulate_key_reuse(u, rounds, w, np.random.Generator(bit_generator(seed)),
                                   trials=100)
        ref, _ = reference_key_reuse(u, rounds, w, np.random.Generator(bit_generator(seed)),
                                     100, 0)
        assert sampler_summary(stats) == ref


@pytest.mark.parametrize("forge_bit", [0, 1])
@pytest.mark.parametrize("case", ["haar", "zero_branch"])
def test_key_reuse_builds_each_reached_node_once(monkeypatch, case, forge_bit):
    # One node per history a trial reached, each built once: a completed
    # history costs one key fidelity and one forgery CDF, any other history
    # one outcome CDF per honest bit.
    rounds, seed = 3, 7
    if case == "haar":
        u = secure_example_unitary()
        w = haar_random_unitary(8, np.random.default_rng(seed))
    else:
        u, w = BUILTIN["x_block"](), tensor(SWAP01, np.eye(2))
    _, visited = reference_key_reuse(u, rounds, w, np.random.default_rng(seed), 100, forge_bit)
    completed = sum(len(h) == 2 * rounds for h in visited)
    calls = {"key_fidelity": 0, "_outcome_cdf": 0}

    def counted(name):
        real = getattr(adversary, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(adversary, name, counted(name))
    simulate_key_reuse(u, rounds, w, np.random.default_rng(seed), trials=100,
                       forge_bit=forge_bit)
    assert completed > 1
    assert calls == {
        "key_fidelity": completed,
        "_outcome_cdf": 2 * (len(visited) - completed) + completed,
    }


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


def plain(x):
    """``x``, a result or a bit generator's state, as plain data that
    compares by ==, bit for bit: arrays as their bytes, floats as hex,
    dataclasses as their fields."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [plain(y) for y in x]
    if isinstance(x, dict):
        return {key: plain(value) for key, value in x.items()}
    if dataclasses.is_dataclass(x):
        return plain(vars(x))
    return x


@pytest.mark.parametrize("rounds", [1, 3])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_key_reuse_leaves_the_reference_stream_position(bit_generator, rounds):
    # The raw draws take the words the Generator's own calls would: after the
    # call its full state, the buffered 32-bit word of the honest bits
    # included, is the uncached reference's.
    rng = np.random.default_rng(43)
    buffered = set()
    for trials in range(36, 46):
        u, w = haar_random_unitary(4, rng), haar_random_unitary(8, rng)
        seed = int(rng.integers(2**31))
        sampled, reference = (np.random.Generator(bit_generator(seed)) for _ in "ab")
        simulate_key_reuse(u, rounds, w, sampled, trials=trials)
        reference_key_reuse(u, rounds, w, reference, trials, 0)
        state = plain(sampled.bit_generator.state)
        assert state == plain(reference.bit_generator.state)
        buffered.add(state.get("has_uint32"))
    # Both buffer states were reached, where the bit generator has a buffer.
    assert buffered == ({None} if bit_generator is np.random.MT19937 else {0, 1})


def lock_is_free(lock) -> bool:
    """Whether a thread other than this one can take ``lock`` at once."""
    taken = []

    def take():
        taken.append(lock.acquire(blocking=False))
        if taken[0]:
            lock.release()

    thread = threading.Thread(target=take)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return taken[0]


def test_key_reuse_releases_the_generator_lock(monkeypatch, u_secure):
    rng = np.random.default_rng(0)
    lock = rng.bit_generator.lock
    with lock:
        assert not lock_is_free(lock)
    w = haar_random_unitary(8, rng)
    simulate_key_reuse(u_secure, 2, w, rng, trials=20)
    assert lock_is_free(lock)

    # An error inside the draw loop propagates, and the lock, held there, is freed.
    held = []

    def fails(state):
        held.append(not lock_is_free(lock))
        raise RuntimeError("no key fidelity")

    monkeypatch.setattr(adversary, "key_fidelity", fails)
    with pytest.raises(RuntimeError, match="no key fidelity"):
        simulate_key_reuse(u_secure, 2, w, rng, trials=20)
    assert held == [True]
    assert lock_is_free(lock)


# Every function that draws, called with ``rng`` and otherwise valid
# arguments, each drawing at least once.  A budget of 900 gives each search
# a Haar start; validate's result is what its seed decides.
DRAWS = {
    "haar_random_unitary": lambda u, rng: haar_random_unitary(4, rng, 2),
    "simulate_honest_batch": lambda u, rng: simulate_honest_batch(u, 0, 5, rng),
    "no_message_attack_sim": lambda u, rng: no_message_attack_sim(u, E[:, 0], 5, rng),
    "message_attack_sim": lambda u, rng: message_attack_sim(u, E, 5, rng),
    "simulate_key_reuse": lambda u, rng: simulate_key_reuse(u, 1, np.eye(8), rng, trials=5),
    "best_message_attack": lambda u, rng: best_message_attack(u, budget=900, rng=rng),
    "security_score": lambda u, rng: designer.security_score(u, budget=900, rng=rng),
    "validate": lambda u, rng: validate(u, attack_budget=900, seed=rng).advisory[
        "message_attack_pf_best"],
    "optimize": lambda u, rng: designer.optimize(restarts=1, budget=50, rng=rng),
}
# Each accepted rng and the seed of the Generator it stands for.
SEEDS = {
    "Generator": (lambda: np.random.default_rng(7), 7),
    "int": (lambda: 7, 7),
    "numpy-int": (lambda: np.int64(7), 7),
    "None": (lambda: None, 0),
}
NOT_RNGS = {
    "bool": lambda: True,
    "float": lambda: 2.5,
    "str": lambda: "7",
    "negative": lambda: -1,
    "RandomState": lambda: np.random.RandomState(0),
    "PCG64": lambda: np.random.PCG64(3),
    "SeedSequence": lambda: np.random.SeedSequence(3),
    "sequence": lambda: [7],
}


def check_rng_accepted(u, function, kind):
    # The result, and a passed Generator's state after it, are those of an
    # explicit Generator from the seed.
    make, seed = SEEDS[kind]
    rng, reference = make(), np.random.default_rng(seed)
    fresh = plain(reference.bit_generator.state)
    want = plain(DRAWS[function](u, reference))
    assert plain(reference.bit_generator.state) != fresh  # the call draws
    assert plain(DRAWS[function](u, rng)) == want
    if kind == "Generator":
        assert plain(rng.bit_generator.state) == plain(reference.bit_generator.state)


def check_rng_rejected(u, function, kind):
    # The named error, raised before any draw.
    rng = NOT_RNGS[kind]()
    name = "seed" if function == "validate" else "rng"
    if kind == "negative":
        error, message = ValueError, rf"^{name} must be >= 0, got -1$"
    else:
        error, message = TypeError, (rf"^{name} must be a numpy Generator or a non-negative "
                                     rf"integer seed, got {type(rng).__name__}$")
    before = plain(rng.get_state(legacy=False)) if kind == "RandomState" else None
    with pytest.raises(error, match=message):
        DRAWS[function](u, rng)
    if before is not None:
        assert plain(rng.get_state(legacy=False)) == before


@pytest.mark.parametrize("function", sorted(DRAWS))
@pytest.mark.parametrize("kind", sorted(SEEDS))
def test_rng_accepted(u_secure, function, kind):
    check_rng_accepted(u_secure, function, kind)


@pytest.mark.parametrize("function", sorted(DRAWS))
@pytest.mark.parametrize("kind", sorted(NOT_RNGS))
def test_rng_rejected(u_secure, function, kind):
    check_rng_rejected(u_secure, function, kind)


# The four samplers against None, an int seed, a RandomState and a bare
# BitGenerator: the first two are accepted and the others rejected, as in
# the two tables above.
SAMPLERS = ("message_attack_sim", "no_message_attack_sim", "simulate_honest_batch",
            "simulate_key_reuse")
NOT_GENERATORS = {"NoneType": "None", "int": "int", "RandomState": "RandomState",
                  "PCG64": "PCG64"}


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("kind", sorted(NOT_GENERATORS))
def test_samplers_need_a_generator(u_secure, sampler, kind):
    kind = NOT_GENERATORS[kind]
    check = check_rng_accepted if kind in SEEDS else check_rng_rejected
    check(u_secure, sampler, kind)


# Every real-valued argument, checked by config.check_real: its name and
# interval as the message states them, a call that passes it x with every
# other argument valid, a value outside the interval (None when every real
# number up to inf is in it), and a valid Python float.
REALS = {
    "attack-p0": ("p0", "[0, 1]", lambda u, x: best_message_attack(u, x, 0.0, budget=50),
                  1.5, 1.0),
    "attack-p1": ("p1", "[0, 1]", lambda u, x: best_message_attack(u, 0.0, x, budget=50),
                  -0.5, 1.0),
    "attack-stop_at": ("stop_at", "[-inf, inf]",
                       lambda u, x: best_message_attack(u, budget=50, stop_at=x), None, 0.0),
    "pf-p0": ("p0", "[0, 1]", lambda u, x: message_attack_pf(u, SWAP01, x, 0.0), 1.5, 1.0),
    "pf-p1": ("p1", "[0, 1]", lambda u, x: message_attack_pf(u, SWAP01, 0.0, x), -0.5, 1.0),
    "sim-p0": ("p0", "[0, 1]", lambda u, x: message_attack_sim(
        u, SWAP01, 5, np.random.default_rng(0), x, 0.0), 1.5, 1.0),
    "sim-p1": ("p1", "[0, 1]", lambda u, x: message_attack_sim(
        u, SWAP01, 5, np.random.default_rng(0), 0.0, x), -0.5, 1.0),
    "score-ceiling": ("ceiling", "[-inf, inf]",
                      lambda u, x: designer.security_score(u, budget=50, ceiling=x), None, 1.0),
    "restricted-abs_e0": ("abs_e0", "[0, 1]", lambda u, x: no_message_pf_restricted(u, x, 0.3),
                          1.5, 0.75),
    "restricted-theta": ("theta", "(-inf, inf)",
                         lambda u, x: no_message_pf_restricted(u, 0.5, x), np.inf, 3.0),
    "state-abs_e0": ("abs_e0", "[0, 1]", lambda u, x: eve_state_from_restricted(u, x, 0.3),
                     -0.5, 1.0),
    "state-theta": ("theta", "(-inf, inf)",
                    lambda u, x: eve_state_from_restricted(u, 0.5, x), -np.inf, 0.25),
    "lhs-x": ("x", "(-inf, inf)", lambda u, x: ec_gorda_lhs(x, 1.0, 0.25), np.inf, 0.5),
    "lhs-y": ("y", "(0, inf)", lambda u, x: ec_gorda_lhs(0.5, x, 0.25), 0, 2.0),
    "lhs-z": ("z", "(-inf, inf)", lambda u, x: ec_gorda_lhs(0.5, 1.0, x), -np.inf, 0.25),
    "tol-unitary": ("tolerance 'unitary'", "[0, inf)", lambda u, x: Tolerances(unitary=x),
                    -1, 0.5),
    "tol-strict": ("tolerance 'strict'", "[0, inf)", lambda u, x: Tolerances(strict=x),
                   np.inf, 1.0),
    "tol-phase_equiv": ("tolerance 'phase_equiv'", "[0, inf)",
                        lambda u, x: Tolerances(phase_equiv=x), -1e-9, 0.0),
}
NOT_REALS = {
    "bool": True,
    "numpy-bool": np.True_,
    "complex": 0.5 + 0j,
    "str": "0.5",
    "None": None,
    "nan": np.nan,
    "huge-int": 10**400,
}


@pytest.mark.parametrize("case, bad", [
    pytest.param(case, bad, id=f"{case}-{kind}")
    for case, (_, _, _, outside, _) in sorted(REALS.items())
    for kind, bad in [*NOT_REALS.items(), ("out-of-range", outside)]
    if bad is not None or kind == "None"
])
def test_real_rejected(u_secure, case, bad):
    name, interval, call, _, _ = REALS[case]
    message = f"{name} must be a real number in {interval}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(u_secure, bad)


# Each valid value's exact numpy and integer forms.
REAL_FORMS = {"float64": np.float64, "float32": np.float32, "int": int}


@pytest.mark.parametrize("case, kind", [
    (case, kind) for case, (_, _, _, _, value) in sorted(REALS.items())
    for kind, form in REAL_FORMS.items() if form(value) == value
])
def test_real_accepted(u_secure, case, kind):
    # Each form gives the Python float's result, bit for bit.
    _, _, call, _, value = REALS[case]
    x = REAL_FORMS[kind](value)
    assert plain(call(u_secure, x)) == plain(call(u_secure, value))


@pytest.mark.parametrize("call", [
    pytest.param(lambda u: TaggingUnitary(u.u, None), id="tagging-None"),
    pytest.param(lambda u: TaggingUnitary(u.u, {"unitary": 1e-10}), id="tagging-dict"),
    pytest.param(lambda u: designer.optimize(restarts=1, budget=50, tol=None), id="optimize-None"),
])
def test_tol_must_be_tolerances(u_secure, call):
    with pytest.raises(TypeError, match=r"^tol must be a Tolerances, got (NoneType|dict)$"):
        call(u_secure)


def test_validate_advisory_of_a_generator(u_secure):
    # A Generator's stream belongs to the caller: the advisory records no
    # seed for it, serialises, and holds the explicit Generator's search.
    report = validate(u_secure, attack_budget=900, seed=np.random.default_rng(1))
    advisory = json.loads(json.dumps(report.advisory, default=cli._json_default))
    search = best_message_attack(u_secure, budget=900, rng=np.random.default_rng(1))
    assert advisory["seed"] is None
    assert advisory["message_attack_pf_best"] == search.probability
    seed = validate(u_secure, attack_budget=900, seed=np.int64(1)).advisory["seed"]
    assert seed == 1 and type(seed) is int


probability_entries = st.one_of(
    st.just(0.0), st.floats(0, 1e-300), st.floats(0, 1), st.floats(0, 1e300)
)


@given(st.lists(probability_entries, min_size=4, max_size=4).filter(any))
def test_outcome_cdf_is_generator_choice_cdf(probs):
    p = np.array(probs)
    cdf = np.cumsum(p / p.sum())
    want = (cdf / cdf[-1]).tolist()
    assert [x.hex() for x in adversary._outcome_cdf(probs)] == [x.hex() for x in want]


class TestKeyReuseStats:
    def test_unreached_rounds_are_nan(self, u_identity):
        # Eve moves the message out of the accept plane: round 1 always fails.
        w = tensor(np.roll(E, 2, axis=0), np.eye(2))
        stats = simulate_key_reuse(u_identity, 2, w, np.random.default_rng(0), trials=10)
        first, second = stats.per_round_acceptance
        assert first == 0.0 and np.isnan(second)
        assert np.isnan(stats.final_key_fidelity)
        assert stats.forgery_attempts == stats.forgery_successes == 0
        assert np.isnan(stats.forgery_success_rate)

    def test_zero_acceptance_forgery_is_zero(self, u_identity):
        # The accept/reject swap: no first round is ever accepted.
        w = tensor(np.roll(E, 2, axis=0), np.eye(2))
        assert reuse_forgery_probability(u_identity, w) == 0.0

    def test_plain_floats(self, u_secure):
        w = haar_random_unitary(8, np.random.default_rng(4))
        stats = simulate_key_reuse(u_secure, 2, w, np.random.default_rng(4), trials=50)
        numbers = stats.per_round_acceptance + [
            stats.final_key_fidelity, stats.forgery_success_rate
        ]
        assert all(type(x) is float for x in numbers)


# Every count argument: its name, its floor and a call that passes it n.
COUNTS = {
    "honest-trials": ("trials", 0, lambda u, n: simulate_honest_batch(
        u, 0, n, np.random.default_rng(0))),
    "no-message-sim-trials": ("trials", 1, lambda u, n: no_message_attack_sim(
        u, E[:, 0], n, np.random.default_rng(0))),
    "message-sim-trials": ("trials", 1, lambda u, n: message_attack_sim(
        u, E, n, np.random.default_rng(0))),
    "reuse-rounds": ("rounds", 1, lambda u, n: simulate_key_reuse(
        u, n, np.eye(8), np.random.default_rng(0))),
    "reuse-trials": ("trials", 1, lambda u, n: simulate_key_reuse(
        u, 1, np.eye(8), np.random.default_rng(0), trials=n)),
    "attack-budget": ("budget", 1, lambda u, n: best_message_attack(u, budget=n)),
    "score-budget": ("budget", 1, lambda u, n: designer.security_score(u, budget=n)),
    "validate-budget": ("attack_budget", 1, lambda u, n: validate(u, attack_budget=n)),
    "validate-no-attacks-budget": ("attack_budget", 1, lambda u, n: validate(
        u, attack_budget=n, include_attacks=False)),
    "optimize-restarts": ("restarts", 1, lambda u, n: designer.optimize(restarts=n)),
    "optimize-budget": ("budget", 1, lambda u, n: designer.optimize(restarts=1, budget=n)),
    "haar-dim": ("dim", 1, lambda u, n: haar_random_unitary(n, np.random.default_rng(0))),
    "haar-count": ("count", 1, lambda u, n: haar_random_unitary(
        4, np.random.default_rng(0), n)),
}

# Each count rejects a float, a bool, a string and its floor - 1, in a
# ValueError that names it.
BAD_COUNTS = [
    pytest.param(lambda u, call=call, n=bad: call(u, n), "^" + re.escape(message),
                 id=f"{case}-{kind}")
    for case, (name, floor, call) in COUNTS.items()
    for kind, bad, message in [
        ("float", 2.5, f"{name} must be an integer, got 2.5"),
        ("bool", True, f"{name} must be an integer, got True"),
        ("str", "5", f"{name} must be an integer, got '5'"),
        ("below-floor", floor - 1, f"{name} must be >= {floor}, got {floor - 1}"),
    ]
]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda u: no_message_pf_restricted(u, -0.1, 0.0), "abs_e0 must be a real",
                 id="abs_e0-below-0"),
    pytest.param(lambda u: no_message_pf_restricted(u, 1.1, 0.0), "abs_e0 must be a real",
                 id="abs_e0-above-1"),
    pytest.param(lambda u: no_message_pf_restricted(u, 0.5, np.nan), "theta must be a real",
                 id="theta-nan"),
    pytest.param(lambda u: eve_state_from_restricted(u, 2.0, 0.3), "abs_e0 must be a real",
                 id="state-abs_e0-above-1"),
    pytest.param(lambda u: eve_state_from_restricted(u, np.nan, 0.3), "abs_e0 must be a real",
                 id="state-abs_e0-nan"),
    pytest.param(lambda u: eve_state_from_restricted(u, 0.5, np.inf), "theta must be a real",
                 id="state-theta-inf"),
    pytest.param(lambda u: message_attack_distribution(u, np.eye(3), 0),
                 r"must be 4x4, got \(3, 3\)", id="attack-distribution-3x3"),
    pytest.param(lambda u: no_message_pf(u, [[3], [0], [0], [0]]),
                 "Eve's state must be normalized", id="batch-norm-3"),
    pytest.param(lambda u: no_message_pf(u, np.eye(4)[:, :2] * [1, 1.1]),
                 "Eve's state must be normalized", id="batch-column-scaled"),
    pytest.param(lambda u: no_message_pf(u, np.eye(4)[:3, :2]), "must have 4 rows",
                 id="batch-3-rows"),
    pytest.param(lambda u: no_message_attack_sim(u, np.eye(4)[:, :2], 10,
                                                 np.random.default_rng(0)),
                 "must be one 4-vector", id="sim-batch"),
    pytest.param(lambda u: best_message_attack(u, budget=0), "budget must be >= 1",
                 id="budget-0"),
    pytest.param(lambda u: simulate_key_reuse(u, 0, np.eye(8), np.random.default_rng(0)),
                 "rounds must be >= 1", id="rounds-0"),
] + BAD_COUNTS)
def test_bad_input_rejected(u_secure, call, match):
    with pytest.raises(ValueError, match=match):
        call(u_secure)


def with_entry(n, value):
    m = np.eye(n, dtype=complex)
    m[0, 0] = value
    return m


# The operand, its size, a smaller size a caller may hand in by mistake (for
# the interaction, a 4x4 attack operation) and how a caller hands it in.
OPERANDS = {
    "tagging unitary": (4, 3, lambda u, m: TaggingUnitary(m)),
    "attack operation": (4, 3, lambda u, m: message_attack_pf(u, m)),
    "Eve's interaction": (8, 4, lambda u, m: reuse_forgery_probability(u, m)),
}


@pytest.mark.parametrize("name", list(OPERANDS))
@pytest.mark.parametrize("bad, match", [
    pytest.param(lambda n, k: np.eye(n + 1), r"must be {n}x{n}, got \({m}, {m}\)",
                 id="shape"),
    pytest.param(lambda n, k: np.eye(k), r"must be {n}x{n}, got \({m}, {m}\)",
                 id="smaller-shape"),
    pytest.param(lambda n, k: with_entry(n, 2),
                 r"must be unitary \(deviation 3\.000e\+00\)", id="not-unitary"),
    pytest.param(lambda n, k: with_entry(n, np.nan), r"must be unitary \(deviation nan\)",
                 id="nan"),
    pytest.param(lambda n, k: with_entry(n, 1e200), r"must be unitary \(deviation inf\)",
                 id="huge"),
])
def test_unitary_operand_checked_in_one_format(u_secure, name, bad, match):
    n, smaller, call = OPERANDS[name]
    m = bad(n, smaller)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} " + match.format(n=n, m=len(m)) + "$"):
            call(u_secure, m)
