import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmac import designer, linalg, protocol
from qmac.adversary import best_message_attack, no_message_optimal
from qmac.conditions import validate
from qmac.config import DEFAULT_TOL
from qmac.designer import _DRAWS, _REFINE_STEPS, INSECURE, SecurityScore, optimize, security_score
from qmac.fixtures import secure_example_unitary, x_block_unitary
from qmac.linalg import haar_random_unitary, halmos_dilation, is_unitary
from qmac.protocol import TaggingUnitary


class TestSecurityScore:
    def test_xblock_sentinel(self, rng):
        sc = security_score(x_block_unitary(), budget=200, rng=rng)
        assert not sc.secure and sc.score == INSECURE
        assert sc.pf_no_message == pytest.approx(0.5)

    def test_insecure_candidate_is_not_attacked(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("substitution search run on an insecure candidate")

        monkeypatch.setattr(designer, "best_message_attack", fail)
        sc = security_score(x_block_unitary())
        assert not sc.secure and sc.score == INSECURE
        assert sc.pf_no_message == pytest.approx(0.5)
        assert sc.pf_message_best is None

    def test_identity_sentinel(self, rng):
        sc = security_score(np.eye(4), budget=200, rng=rng)
        assert not sc.secure and sc.score == INSECURE

    def test_secure_example_finite(self):
        sc = security_score(
            secure_example_unitary(), budget=300, rng=np.random.default_rng(0)
        )
        assert sc.secure
        assert sc.pf_no_message < 1 and sc.pf_message_best < 1
        assert sc.score == max(sc.pf_no_message, sc.pf_message_best)

    def test_deterministic(self):
        a = security_score(secure_example_unitary(), budget=200,
                           rng=np.random.default_rng(5))
        b = security_score(secure_example_unitary(), budget=200,
                           rng=np.random.default_rng(5))
        assert a == b


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ceiling_prunes_exactly(seed):
    u = haar_random_unitary(4, np.random.default_rng(seed))
    full = security_score(u, budget=300)
    if not full.secure:
        assert security_score(u, budget=300, ceiling=0.5) == full
        return
    near = [full.score + d for d in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]
    edges = [np.nextafter(full.score, -np.inf), np.nextafter(full.score, np.inf),
             full.pf_no_message, np.nextafter(full.pf_no_message, -np.inf)]
    for ceiling in near + edges:
        pruned = security_score(u, budget=300, ceiling=ceiling)
        assert (pruned.score < ceiling) == (full.score < ceiling)
        if full.score < ceiling:
            assert pruned == full
        else:
            # Only a lower bound: the search stopped, or never ran.
            assert pruned.secure and pruned.pf_no_message == full.pf_no_message
            assert pruned.pf_message_best is None or (
                ceiling <= pruned.pf_message_best <= full.pf_message_best)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_halmos_dilation_carries_m0(seed):
    # The top-left block of a Haar unitary is a random contraction.
    u = haar_random_unitary(4, np.random.default_rng(seed))
    m0 = u[:2, :2]
    d = halmos_dilation(m0)
    ok, dev = is_unitary(d, 1e-12)
    assert ok, dev
    assert np.array_equal(d[:2, :2], m0)
    assert (validate(d, include_attacks=False).overall_secure
            == validate(u, include_attacks=False).overall_secure)
    assert no_message_optimal(d).probability == no_message_optimal(u).probability
    with pytest.raises(ValueError, match="not a contraction"):
        halmos_dilation(m0 * (1 + 1e-9) / np.linalg.norm(m0, 2))


class TestOptimize:
    def test_warm_start_descent(self):
        warm = secure_example_unitary()
        baseline = security_score(warm, budget=200, rng=np.random.default_rng(0))
        result = optimize(
            restarts=1,
            budget=200,
            rng=np.random.default_rng(0),
            warm_start=warm,
        )
        assert result.score.score <= baseline.score + 1e-9

    @pytest.mark.parametrize("warm", [np.eye(3), 2 * np.eye(4), np.full((4, 4), np.nan)],
                             ids=["3x3", "2I", "nan"])
    def test_malformed_warm_start_rejected(self, warm):
        with pytest.raises(ValueError):
            optimize(restarts=1, budget=100, warm_start=warm)

    def test_loose_unitary_tolerance_keeps_designs_unitary(self, monkeypatch):
        # A move that leaves M0 outside the unit ball has no dilation, so a
        # loose unitary tolerance cannot let a non-unitary design through.
        tried, dilated = [], []

        def svd(m0):
            out = linalg._svd(m0)
            tried.append(out[1][0])
            return out

        def dilation(m0, m0_svd=None):
            out = halmos_dilation(m0, m0_svd)
            dilated.append(m0_svd[1][0])
            return out

        monkeypatch.setattr(designer, "_svd", svd)
        monkeypatch.setattr(protocol, "halmos_dilation", dilation)
        result = optimize(restarts=1, budget=100, rng=np.random.default_rng(12),
                          tol=DEFAULT_TOL.override(unitary=0.5))
        assert max(tried) > 1  # such a move was tried
        assert max(dilated) <= 1  # and none was dilated
        ok, dev = is_unitary(result.unitary, 1e-12)
        assert ok, dev
        assert validate(result.unitary, include_attacks=False).overall_secure

    def test_result_is_secure_unitary(self):
        result = optimize(restarts=2, budget=150, rng=np.random.default_rng(2))
        ok, _ = is_unitary(result.unitary, 1e-10)
        assert ok
        assert validate(result.unitary, include_attacks=False).overall_secure
        assert result.score.score < 1

    def test_monotone_trace_per_restart(self):
        result = optimize(restarts=3, budget=150, rng=np.random.default_rng(4))
        by_restart = {}
        for restart, it, score in result.trace:
            if restart in by_restart:
                assert score <= by_restart[restart] + 1e-12
            by_restart[restart] = score

    def test_reproducible(self):
        kw = dict(restarts=2, budget=100)
        a = optimize(rng=np.random.default_rng(7), **kw)
        b = optimize(rng=np.random.default_rng(7), **kw)
        assert np.array_equal(a.unitary, b.unitary)
        assert a.score == b.score

    def test_tolerance_reaches_candidates(self):
        with pytest.raises(RuntimeError, match="no secure candidate"):
            optimize(restarts=1, budget=100, tol=DEFAULT_TOL.override(strict=0.99))

    def test_invalid_restarts(self):
        with pytest.raises(ValueError):
            optimize(restarts=0)

    def test_invalid_budget(self):
        # Rejected up front, not reported as "no secure candidate" after redraws.
        with pytest.raises(ValueError, match="budget must be >= 1"):
            optimize(restarts=1, budget=0)

    def test_losing_searches_stop_early(self, monkeypatch):
        evals = []

        def spy(*args, **kwargs):
            res = best_message_attack(*args, **kwargs)
            evals.append(res.iterations)
            return res

        monkeypatch.setattr(designer, "best_message_attack", spy)
        optimize(restarts=1, budget=500, rng=np.random.default_rng(3))
        # Unpruned, this runs 25 full searches (the start and 24 refine
        # candidates); pruning skips some and stops others short.
        assert len(evals) < 25 and min(evals) < 500


# Designs of the unpruned search, optimize(restarts, budget,
# rng=default_rng(seed)): (restarts, budget, seed) -> ((pf_no_message,
# pf_message_best, score), trace, unitary).  Pruning must not change them.
FROZEN_DESIGNS = {
    (1, 500, 0): (
        (0.886829592656138, 0.886112473037873, 0.886829592656138),
        [
            (0, 0, 0.897638688954099), (0, 3, 0.896862633358385), (0, 7, 0.896340445152539),
            (0, 8, 0.896071001552589), (0, 12, 0.895557924632195), (0, 13, 0.888251826233455),
            (0, 16, 0.88794458062564), (0, 19, 0.887868056372433), (0, 20, 0.887850110877483),
            (0, 21, 0.887116771161262), (0, 22, 0.886829592656138),
        ],
        [
            [0.045781350505542-0.166927582472172j, -0.004527102795191-0.112627063230272j,
             0.977426865117129+0.0j, 0.044391428900564+0.00015656231526j],
            [-0.113799902199381-0.09055251418616j, 0.236489002588976+0.715684910482136j,
             0.044391428900564-0.00015656231526j, 0.639333450966733+0.0j],
            [0.972203564266398+0.0j, 0.045230072844754+0.040786575340812j,
             -0.045781350505542-0.166927582472172j, 0.113799902199381-0.09055251418616j],
            [0.045230072844754-0.040786575340812j, 0.644556751817465+0.0j,
             0.004527102795191-0.112627063230272j, -0.236489002588976+0.715684910482136j],
        ],
    ),
    (1, 500, 1): (
        (0.895668112019123, 0.894976505180702, 0.895668112019123),
        [
            (0, 0, 0.952743736004592), (0, 4, 0.949970064472548), (0, 5, 0.931111583329054),
            (0, 7, 0.905357436020249), (0, 9, 0.9052282174482), (0, 14, 0.897376764632003),
            (0, 18, 0.89677671522066), (0, 21, 0.895668112019123),
        ],
        [
            [0.102617597092033-0.086768163389074j, 0.648227916916283-0.267915952722143j,
             0.684699248867822+0.0j, 0.019489056192471-0.144116757821828j],
            [0.201583215545478+0.002712242856831j, -0.20166840205107-0.29634369681992j,
             0.019489056192471+0.144116757821828j, 0.899843128951905+0.0j],
            [0.969535582221486+0.0j, -0.030487947816511+0.019209512814155j,
             -0.102617597092033-0.086768163389074j, -0.201583215545478+0.002712242856831j],
            [-0.030487947816511-0.019209512814155j, 0.615006795598241+0.0j,
             -0.648227916916283-0.267915952722143j, 0.20166840205107-0.29634369681992j],
        ],
    ),
    (1, 500, 2): (
        (0.924459895861172, 0.922793611281777, 0.924459895861172),
        [
            (0, 0, 0.990804495678818), (0, 1, 0.972762474117365), (0, 2, 0.96754626848569),
            (0, 5, 0.96317753826116), (0, 7, 0.949769659029534), (0, 8, 0.929748533899942),
            (0, 11, 0.926929007318689), (0, 15, 0.926758172643566), (0, 19, 0.924459919435274),
            (0, 23, 0.924459895861172),
        ],
        [
            [0.114922000676353+0.05600522876647j, -0.363041367155335-0.211687953642679j,
             0.897742217369977+0.0j, 0.031494699702207-0.010607505372379j],
            [0.718029695156931+0.288963831205111j, 0.285644844599514+0.189023332018208j,
             0.031494699702207+0.010607505372379j, 0.531512961793977+0.0j],
            [0.602164547932691+0.0j, -0.144232686640343-0.034415091994571j,
             -0.114922000676353+0.05600522876647j, -0.718029695156931+0.288963831205111j],
            [-0.144232686640343+0.034415091994571j, 0.827090631231262+0.0j,
             0.363041367155335-0.211687953642679j, -0.285644844599514+0.189023332018208j],
        ],
    ),
    (3, 150, 4): (
        (0.895059292820839, 0.893071197276527, 0.895059292820839),
        [
            (0, 0, 0.980012269106732), (0, 1, 0.943423401251183), (0, 3, 0.942808444757439),
            (0, 4, 0.934678676683689), (0, 7, 0.922204285401073), (0, 8, 0.912692248512338),
            (0, 9, 0.89856925657306), (0, 12, 0.898158865694119), (0, 16, 0.89654817709274),
            (0, 17, 0.895279835495735), (0, 24, 0.895059292820839), (1, 0, 0.95074692107122),
            (1, 1, 0.945133839572738), (1, 4, 0.944367387636366), (1, 9, 0.944062594407051),
            (1, 11, 0.943048997302054), (1, 12, 0.942473432976964), (1, 15, 0.939462157647253),
            (1, 19, 0.939266412624734), (1, 20, 0.939102455532546), (1, 23, 0.938317859928513),
            (2, 0, 0.957387512723122), (2, 1, 0.936897934187051), (2, 3, 0.936810807725706),
            (2, 7, 0.923373711964013), (2, 10, 0.919582196454484), (2, 16, 0.917206696634573),
            (2, 20, 0.917182715861948), (2, 22, 0.916938237028091), (2, 24, 0.916326580367957),
        ],
        [
            [-0.182854171022516-0.462417206523689j, 0.044892730549728+0.099601595217354j,
             0.843143762674094+0.0j, -0.155012120097199-0.076672565570653j],
            [-0.460479312149677-0.38411488273058j, -0.236070974400509-0.053927309555471j,
             -0.155012120097199+0.076672565570653j, 0.742879169575053+0.0j],
            [0.623947937722238+0.0j, -0.047385044763779+0.039910747204618j,
             0.182854171022516-0.462417206523689j, 0.460479312149677-0.38411488273058j],
            [-0.047385044763779-0.039910747204618j, 0.96207499452691+0.0j,
             -0.044892730549728+0.099601595217354j, 0.236070974400509-0.053927309555471j],
        ],
    ),
}


@pytest.mark.parametrize("restarts, budget, seed", list(FROZEN_DESIGNS))
def test_frozen_designs(restarts, budget, seed):
    score, trace, unitary = FROZEN_DESIGNS[restarts, budget, seed]
    result = optimize(restarts=restarts, budget=budget, rng=np.random.default_rng(seed))
    sc = result.score
    assert sc.secure
    exact = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose((sc.pf_no_message, sc.pf_message_best, sc.score), score, **exact)
    assert [t[:2] for t in result.trace] == [t[:2] for t in trace]
    np.testing.assert_allclose([t[2] for t in result.trace], [t[2] for t in trace], **exact)
    np.testing.assert_allclose(result.unitary, unitary, **exact)


def reference_optimize(restarts, budget, rng, warm_start=None, tol=DEFAULT_TOL, log=None):
    """optimize with every candidate scored as security_score(TaggingUnitary(
    halmos_dilation(M0), tol), ...), its dilation and tagging built and
    checked whatever its no-message optimum.  ``log`` gets (M0 bytes,
    ceiling, score) per candidate, the score None for an M0 with no dilation."""
    warm = TaggingUnitary(warm_start, tol) if warm_start is not None else None
    moves = np.eye(8).view(complex).reshape(8, 2, 2)

    def evaluate(m0, seed, ceiling=INSECURE):
        try:
            tu = TaggingUnitary(halmos_dilation(m0), tol)
        except ValueError:
            sc = None
        else:
            sc = security_score(tu, budget=budget, rng=seed, ceiling=ceiling)
        if log is not None:
            log.append((m0.tobytes(), ceiling, sc))
        return sc or SecurityScore(1.0, None, False, INSECURE)

    trace, best = [], None
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
        step, it = 0.2, 0
        order = rng.permutation(len(moves))
        while it < _REFINE_STEPS and step > 1e-4:
            k = int(order[it % len(moves)])
            improved = False
            for sign in (1.0, -1.0):
                q = m0 + sign * step * moves[k]
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
    m0, sc = best
    return halmos_dilation(m0), sc, trace


def exact(unitary, score, trace):
    hexed = [x if x is None or isinstance(x, bool) else x.hex() for x in vars(score).values()]
    return unitary.tobytes(), hexed, [(r, i, v.hex()) for r, i, v in trace]


@pytest.mark.parametrize("restarts, budget, seed, kw", [
    (1, 500, 0, {}), (1, 500, 1, {}), (1, 500, 5, {}), (1, 100, 3, {}),
    (2, 100, 4, {}), (2, 500, 6, {}), (1, 700, 2, {}), (2, 700, 7, {}),
    (1, 500, 8, {"warm_start": secure_example_unitary()}),
    (2, 100, 12, {"tol": DEFAULT_TOL.override(unitary=0.5)}),
], ids=lambda x: "-".join(x) if isinstance(x, dict) else None)
def test_optimize_equals_reference_designer(restarts, budget, seed, kw):
    # Rejecting a candidate on M0's SVD changes no design, score or trace.
    got = optimize(restarts=restarts, budget=budget, rng=np.random.default_rng(seed), **kw)
    want = reference_optimize(restarts, budget, np.random.default_rng(seed), **kw)
    assert exact(got.unitary, got.score, got.trace) == exact(*want)


def test_one_svd_per_candidate_and_no_tagging_when_rejected(m0_svds, monkeypatch):
    log = []
    reference_optimize(1, 500, np.random.default_rng(1), log=log)
    # A candidate with no dilation, or whose no-message optimum reaches the
    # incumbent's score, is rejected on M0's SVD alone.
    tagged = [(m0, sc) for m0, ceiling, sc in log if sc and sc.pf_no_message < ceiling]
    assert any(sc and sc.pf_no_message >= ceiling for _, ceiling, sc in log)

    built, checked, attacked = [], [], []
    init = TaggingUnitary.__init__

    def counted_init(self, u, *args, **kwargs):
        built.append(np.asarray(u)[:2, :2].tobytes())
        init(self, u, *args, **kwargs)

    def spy(calls, fn):
        def call(u, *args, **kwargs):
            calls.append(u.m0.tobytes())
            return fn(u, *args, **kwargs)
        return call

    m0_svds.clear()  # the SVDs the reference took
    monkeypatch.setattr(TaggingUnitary, "__init__", counted_init)
    monkeypatch.setattr(designer, "validate", spy(checked, validate))
    monkeypatch.setattr(designer, "best_message_attack", spy(attacked, best_message_attack))
    optimize(restarts=1, budget=500, rng=np.random.default_rng(1))
    assert [m0.tobytes() for m0 in m0_svds] == [m0 for m0, _, _ in log]
    assert built == checked == [m0 for m0, _ in tagged]
    assert attacked == [m0 for m0, sc in tagged if sc.pf_message_best is not None]
