import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmac import adversary
from qmac.adversary import (
    SIGMA_X,
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
    no_message_pf_batch,
    no_message_pf_restricted,
    perfect_message_attack,
    reuse_forgery_probability,
    row_parameters,
    simulate_key_reuse,
)
from qmac.config import DEFAULT_TOL
from qmac.fixtures import BUILTIN, secure_example_unitary
from qmac.linalg import haar_random_unitary, halmos_dilation, is_unitary, tensor
from qmac.protocol import MESSAGE_BASIS, TaggingUnitary, singlet

E = np.eye(4, dtype=complex)
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

    def test_normalisation_tolerance_from_unitary(self, u_secure):
        eve = E[:, 0] * (1 + 1e-6)
        with pytest.raises(ValueError, match="normalized"):
            no_message_pf(u_secure, eve)
        loose = TaggingUnitary(u_secure.u, DEFAULT_TOL.override(unitary=1e-5))
        assert no_message_pf(loose, eve) == pytest.approx(0.75, abs=1e-5)
        tight = TaggingUnitary(u_secure.u, DEFAULT_TOL.override(unitary=1e-14))
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
            x, y, _ = row_parameters(u)
            optimum = (1 + np.linalg.norm(u.block(0), 2) ** 2) / 2
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
            best = no_message_pf_batch(u, haar_states(2000, rng)).max()
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
        with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
            message_attack_pf(u_secure, SWAP01, p0=p0, p1=p1)
        with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
            best_message_attack(u_secure, p0=p0, p1=p1, budget=10)

    def test_non_unitary_attack_rejected(self, u_identity):
        with pytest.raises(ValueError):
            message_attack_pf(u_identity, np.diag([1, 1, 1, 2.0]))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_simulations_need_a_trial(self, u_secure, rng, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            message_attack_sim(u_secure, SWAP01, trials, rng)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            no_message_attack_sim(u_secure, E[:, 0], trials, rng)

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
            assert np.linalg.matrix_rank(u.block(2), tol=1e-9) <= 1
            v = perfect_message_attack(u)
            assert v is not None
            assert message_attack_pf(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_haar_random_has_none(self, rng):
        for _ in range(20):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            assert perfect_message_attack(u) is None


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

    def test_deterministic_per_seed(self, u_secure):
        a = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(3))
        b = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(3))
        assert a.probability == b.probability
        assert np.array_equal(a.strategy, b.strategy)

    def test_strategy_attains_probability(self, u_secure):
        res = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(1))
        assert message_attack_pf(u_secure, res.strategy) == pytest.approx(
            res.probability, abs=1e-9
        )


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
            assert message_attack_pf(u, res.strategy, p0, p1) == pytest.approx(
                res.probability, abs=1e-12
            )
            assert res.method == "polar_ascent"
            assert res.iterations <= 2000

    def test_secure_example_small_budget(self, u_secure):
        res = best_message_attack(u_secure, budget=300, rng=np.random.default_rng(0))
        assert res.probability >= 0.85997
        assert res.converged

    def test_stops_once_stalled(self, u_secure, u_identity):
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
        assert cut.to_json()["stop"] == "stop_at"

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
    """Record the number of matrices in each np.linalg.svd call."""
    batches = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        batches.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return batches


def same_attack(a, b):
    return (a.probability == b.probability and np.array_equal(a.strategy, b.strategy)
            and a.iterations == b.iterations and a.converged == b.converged)


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
# 128 steps at one start, then longer searches.
CHUNK_EDGE_BUDGETS = [1, 2, 3, 63, 64, 65, 127, 128, 129, 500, 2000]


@pytest.mark.parametrize("budget", CHUNK_EDGE_BUDGETS)
def test_chunked_stop_rules_match_per_step_reference(budget):
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


def grid_unitaries():
    builtins = ("identity", "x_block", "secure_example")
    haar = [haar_random_unitary(4, np.random.default_rng(1000 + k)) for k in range(60)]
    return [TaggingUnitary(m) for m in [BUILTIN[name]() for name in builtins] + haar]


@pytest.mark.parametrize("p0", [0.5, 0.8])
@pytest.mark.parametrize("budget", [300, 500, 2_000, 12_000])
def test_stall_rule_never_weaker(budget, p0):
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
def test_fixed_point_stop_dominates_window(budget, p0):
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
    def phases():
        return np.diag(np.exp(2j * np.pi * rng.random(4)))

    def lower(r):
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = r
        return out

    def recompletion():
        r1, r2 = (lower(haar_random_unitary(2, rng)) for _ in range(2))
        return phases() @ r1 @ m @ r2 @ phases()

    return [halmos_dilation(m[:2, :2]), m.conj().T, recompletion(), recompletion(),
            SWAP01 @ m, m @ SWAP01, SWAP01 @ m @ SWAP01, m.conj()]


METAMORPHIC_TAGGINGS = {
    "secure_example": secure_example_unitary(),
    **{f"haar{k}": haar_random_unitary(4, np.random.default_rng(k)) for k in range(6)},
}


@pytest.mark.parametrize("name", list(METAMORPHIC_TAGGINGS))
def test_optima_depend_only_on_m0(name):
    m = METAMORPHIC_TAGGINGS[name]
    u = TaggingUnitary(m)
    no_message = no_message_optimal(u).probability
    substitution = best_message_attack(u, budget=12_000).probability
    for variant in map(TaggingUnitary, same_m0_variants(m, np.random.default_rng(7))):
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

    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, u_secure, rng, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            simulate_key_reuse(u_secure, 2, np.eye(8), rng, trials=trials)


def reuse_forgery_oracle(u, w, honest_bit, forge_bit):
    """The single-round reuse forgery on key A ⊗ key B ⊗ message ⊗ ancilla
    (32-dim), with every operator built by kron."""
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    i2, i4 = np.eye(2), np.eye(4)
    enc = tensor(p0, i2, i4, i2) + tensor(p1, i2, u, i2)
    dec = tensor(i2, p0, u.conj().T, i2) + tensor(i2, p1, i4, i2)
    eve = tensor(i2, i2, w)
    forge = tensor(i2, i2, tensor(i4, p0) + tensor(u, p1))
    accepted = forged = 0.0
    for bit in (0, 1) if honest_bit is None else (honest_bit,):
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
    @pytest.mark.parametrize("honest_bit", [None, 0, 1])
    @pytest.mark.parametrize("forge_bit", [0, 1])
    def test_exact_matches_joint_simulation(self, honest_bit, forge_bit):
        rng = np.random.default_rng(17)
        taggings = [secure_example_unitary()] + [haar_random_unitary(4, rng) for _ in range(5)]
        for u in taggings:
            for w in [np.eye(8)] + [haar_random_unitary(8, rng) for _ in range(3)]:
                p = reuse_forgery_probability(u, w, honest_bit, forge_bit)
                assert p == pytest.approx(
                    reuse_forgery_oracle(u, w, honest_bit, forge_bit), abs=1e-12
                )

    def test_bad_bits_rejected(self, u_secure):
        with pytest.raises(ValueError, match="honest_bit"):
            reuse_forgery_probability(u_secure, np.eye(8), honest_bit=2)
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
            reuse_forgery_probability(u, w, None, forge_bit), abs=1e-12
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


class TestKeyReuseJson:
    def test_unreached_rounds_are_null(self, u_identity):
        # Eve moves the message out of the accept plane: round 1 always fails.
        w = tensor(np.roll(E, 2, axis=0), np.eye(2))
        stats = simulate_key_reuse(u_identity, 2, w, np.random.default_rng(0), trials=10)
        assert json.loads(json.dumps(stats.to_json(), allow_nan=False)) == {
            "per_round_acceptance": [0.0, None],
            "final_key_fidelity": None,
            "forgery_attempts": 0,
            "forgery_successes": 0,
            "forgery_success_rate": None,
        }

    def test_plain_floats(self, u_secure):
        w = haar_random_unitary(8, np.random.default_rng(4))
        body = simulate_key_reuse(u_secure, 2, w, np.random.default_rng(4), trials=50).to_json()
        numbers = body["per_round_acceptance"] + [
            body["final_key_fidelity"], body["forgery_success_rate"]
        ]
        assert all(type(x) is float for x in numbers)
