import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmac import designer
from qmac.adversary import best_message_attack
from qmac.conditions import validate
from qmac.config import DEFAULT_TOL
from qmac.designer import INSECURE, optimize, security_score, unitary_of_hermitian
from qmac.fixtures import secure_example_unitary, x_block_unitary
from qmac.linalg import haar_random_unitary, is_unitary


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


def test_chart_produces_unitaries(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = unitary_of_hermitian(a + a.conj().T)
    assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-10


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
        (0.893189432577651, 0.892170423548126, 0.893189432577651),
        [
            (0, 0, 0.897638688954098), (0, 7, 0.89725551706785), (0, 8, 0.896971564261769),
            (0, 9, 0.896175618548288), (0, 11, 0.893922315769393), (0, 15, 0.893718019401577),
            (0, 16, 0.893697807431406), (0, 17, 0.893427289156451), (0, 21, 0.893272093623457),
            (0, 23, 0.893257362735719), (0, 24, 0.893189432577651),
        ],
        [
            [0.048334489991984-0.179785458915319j, -0.064665461506541-0.112060609468602j,
             0.227909971452077+0.290656328427869j, -0.182740047310562+0.88248727044642j],
            [-0.180951550069484-0.054485091620485j, 0.231992829404681+0.712706151839003j,
             0.564393444703436-0.10525178708903j, -0.26340043537606-0.059325298889005j],
            [-0.248454097053605+0.324903669710964j, -0.634768151690034-0.027377510432139j,
             0.01993363034242-0.565025851293363j, -0.294905057439857+0.149691273747538j],
            [-0.853186659809146-0.185498161035955j, 0.075771666522686+0.109857117221675j,
             -0.423123441628612+0.187811169646112j, -0.009827327565234+0.073823881349825j],
        ],
    ),
    (1, 500, 1): (
        (0.917933037743244, 0.91661253638173, 0.917933037743244),
        [
            (0, 0, 0.952743736004593), (0, 3, 0.949420321704429), (0, 5, 0.948628517154848),
            (0, 7, 0.944581507078715), (0, 9, 0.943129849187876), (0, 10, 0.938621864888162),
            (0, 11, 0.93276007386351), (0, 13, 0.931351059436162), (0, 15, 0.922336011297631),
            (0, 16, 0.920940129314948), (0, 17, 0.9205683546204), (0, 21, 0.920005340939209),
            (0, 23, 0.917933037743244),
        ],
        [
            [0.134066167796809+0.034906901769913j, 0.650696747980059-0.407248850637908j,
             -0.077832518821773-0.388510731543662j, 0.44998961914408+0.179055130714576j],
            [0.302189097920028+0.05233191870042j, -0.056283965394309-0.253392559272778j,
             -0.213819799028959+0.567300726661686j, -0.061216821086455+0.683572180107196j],
            [0.066660946724155-0.86079653995585j, 0.316679100485634-0.089444359157801j,
             0.071069481687593+0.115957969515853j, -0.349336246046835-0.07593914793214j],
            [-0.344007106997841+0.151643119070299j, 0.466967088277466+0.130469285132891j,
             -0.157931703683253+0.657276916232213j, 0.212420529343614-0.348575859676973j],
        ],
    ),
    (1, 500, 2): (
        (0.9382964645346, 0.9362923855034, 0.9382964645346),
        [
            (0, 0, 0.990804495678818), (0, 2, 0.990470203056076), (0, 3, 0.980866796613091),
            (0, 4, 0.973046104349467), (0, 6, 0.971969991300319), (0, 7, 0.96948813010331),
            (0, 8, 0.962091125309706), (0, 9, 0.958923931474686), (0, 10, 0.949997898067588),
            (0, 12, 0.949068080767814), (0, 15, 0.941729003185014), (0, 16, 0.941294936611471),
            (0, 18, 0.940653181279948), (0, 21, 0.940423036313955), (0, 23, 0.9382964645346),
        ],
        [
            [0.275538729867494+0.178071397498286j, -0.316760979636053-0.444812532967827j,
             0.529230614273419+0.02573721153525j, -0.541748405469298-0.141189574899894j],
            [0.622820299253822+0.478512725253775j, 0.019570538872069+0.041444485935792j,
             0.166029730037948+0.095266025122566j, 0.529215223256846+0.253593288309133j],
            [0.008477515320669-0.186432754508923j, -0.07982566609693+0.64007902501454j,
             0.390711292610355+0.61631841540682j, -0.12818981240075+0.012701700777988j],
            [-0.163175600266835-0.462638212431012j, -0.058805837557165-0.52931296897615j,
             0.183467945871534+0.341243132610598j, 0.303419619240563+0.483258144434987j],
        ],
    ),
    (3, 150, 4): (
        (0.919548840126663, 0.920132523176912, 0.920132523176912),
        [
            (0, 0, 0.980012269106732), (0, 2, 0.976791154814923), (0, 3, 0.975742255999906),
            (0, 4, 0.956711779204301), (0, 5, 0.953047324501216), (0, 6, 0.951557408025396),
            (0, 8, 0.94034133961868), (0, 9, 0.930598037852602), (0, 12, 0.926998346908082),
            (0, 14, 0.926399375363596), (0, 15, 0.925303632935048), (0, 19, 0.924278874237265),
            (0, 20, 0.922764381854227), (0, 21, 0.922082089543283), (0, 23, 0.920732115794397),
            (0, 24, 0.920132523176912), (1, 0, 0.99832213289434), (1, 1, 0.9980480671172),
            (1, 3, 0.997073400332841), (1, 4, 0.99255925477173), (1, 6, 0.989646412276004),
            (1, 7, 0.988583172653513), (1, 8, 0.982422153725713), (1, 9, 0.972188196117035),
            (1, 10, 0.969493009537739), (1, 11, 0.961698274837129), (1, 12, 0.946997019428054),
            (1, 13, 0.941759512818002), (1, 14, 0.928463981929839), (1, 16, 0.92683332213131),
            (1, 17, 0.924107623351134), (1, 22, 0.924040009080385), (1, 23, 0.922373073314895),
            (2, 0, 0.984368309019528), (2, 2, 0.977998913984777), (2, 4, 0.976783972735123),
            (2, 10, 0.97612561950966), (2, 15, 0.975854676313728), (2, 16, 0.975421537468165),
            (2, 18, 0.975067603178013),
        ],
        [
            [-0.069038970722063-0.529794297485569j, -0.104983389649973+0.203934172014583j,
             0.530025953982255-0.332337047580876j, 0.520044442264103+0.010923242942651j],
            [-0.571007973049035-0.260264730929691j, -0.21560603479349-0.305339914303361j,
             -0.262711717796288-0.057149540074517j, -0.046654835377762+0.626125825038419j],
            [-0.368908322189686+0.159630447490927j, -0.141030042026961-0.543913973157543j,
             0.588688946389631+0.182019360017081j, -0.178188823208858-0.333550456998589j],
            [0.329005444582979+0.225707720093336j, 0.246790749414522-0.656531308415251j,
             -0.088703162855941-0.38572928873656j, 0.422325248815637+0.117721954290405j],
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
