import numpy as np
import pytest

from qmac import designer
from qmac.conditions import validate
from qmac.config import DEFAULT_TOL
from qmac.designer import INSECURE, optimize, security_score
from qmac.fixtures import secure_example_unitary, x_block_unitary
from qmac.linalg import is_unitary


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


class TestOptimize:
    def test_warm_start_descent(self):
        warm = secure_example_unitary()
        baseline = security_score(warm, budget=200, rng=np.random.default_rng(0))
        result = optimize(
            restarts=1,
            budget=200,
            rng=np.random.default_rng(0),
            refine_steps=12,
            warm_start=warm,
        )
        assert result.score.score <= baseline.score + 1e-9

    def test_result_is_secure_unitary(self):
        result = optimize(restarts=2, budget=150, rng=np.random.default_rng(2),
                          refine_steps=8)
        ok, _ = is_unitary(result.unitary, 1e-10)
        assert ok
        assert validate(result.unitary, include_attacks=False).overall_secure
        assert result.score.score < 1

    def test_monotone_trace_per_restart(self):
        result = optimize(restarts=3, budget=150, rng=np.random.default_rng(4),
                          refine_steps=10)
        by_restart = {}
        for restart, it, score in result.trace:
            if restart in by_restart:
                assert score <= by_restart[restart] + 1e-12
            by_restart[restart] = score

    def test_reproducible(self):
        kw = dict(restarts=2, budget=100, refine_steps=6)
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
