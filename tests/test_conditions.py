import numpy as np
import pytest

from qmac.adversary import key_distinguishability, no_message_optimal, perfect_message_attack
from qmac.config import DEFAULT_TOL
from qmac.conditions import (
    check_case1,
    check_case2,
    check_condition3,
    check_condition4,
    ec_gorda_lhs,
    row_parameters,
    validate,
)
from qmac.linalg import haar_random_unitary
from qmac.protocol import TaggingUnitary


def ec_gorda_reference(x, y, z):
    """Independent arithmetic re-derivation, term by term."""
    ratio = x / y
    root = (1 + ratio**2) ** 0.5
    term1 = 0.5 * x * (1 + ratio / root)
    term2 = 0.5 * y * root
    return term1 + term2 + z


class TestEcGorda:
    def test_symmetric_point(self):
        assert ec_gorda_lhs(0, 1, 0) == pytest.approx(0.5, abs=1e-12)

    def test_spot_value(self):
        assert ec_gorda_lhs(0.5, 0.5, 0.25) == pytest.approx(
            ec_gorda_reference(0.5, 0.5, 0.25), abs=1e-9
        )
        assert ec_gorda_lhs(0.5, 0.5, 0.25) > 1  # condition fails here

    def test_large_z_always_fails(self, rng):
        for _ in range(50):
            x = rng.uniform(0, 1)
            y = rng.uniform(1e-6, 1)
            z = rng.uniform(1, 2)
            assert ec_gorda_lhs(x, y, z) > 1

    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            ec_gorda_lhs(0.5, 0.0, 0.1)


class TestCases:
    def test_identity_case1_fails(self, u_identity):
        c = check_case1(u_identity)
        assert c.applies and not c.satisfied

    def test_xblock_case1_satisfied(self, u_xblock):
        c = check_case1(u_xblock)
        assert c.applies and c.satisfied

    def test_secure_example_case1_satisfied(self, u_secure):
        c = check_case1(u_secure)
        assert c.applies and c.satisfied
        assert c.details["row0_norm_sq"] == pytest.approx(0.5)

    def test_case2_does_not_apply_when_rows_orthogonal(self, u_identity, u_secure):
        assert not check_case2(u_identity).applies
        assert not check_case2(u_secure).applies

    def test_case2_applies_on_overlapping_rows(self, rng):
        # Construct a unitary whose M0 rows overlap: rows
        # (sqrt(1/2), 0, ...) and (1/2, 0, ...) share support on column 0.
        rows = [
            np.array([np.sqrt(0.5), 0, np.sqrt(0.5), 0], complex),
            np.array([0.5, 0, -0.5, np.sqrt(0.5)], complex),
        ]
        for e in np.eye(4, dtype=complex):
            v = e.copy()
            for r in rows:
                v = v - np.vdot(r, v) * r
            n = np.linalg.norm(v)
            if n > 1e-9:
                rows.append(v / n)
            if len(rows) == 4:
                break
        u = TaggingUnitary(np.array(rows))
        c = check_case2(u)
        assert c.applies
        x, y, z = row_parameters(u)
        assert c.details["lhs"] == pytest.approx(ec_gorda_reference(x, y, z), abs=1e-9)

    def test_case2_flags_disagreement_with_exact_criterion(self):
        # The printed formula rejects 597 of these draws that the exact
        # criterion sigma_max(M0)^2 < 1 - strict passes; with the exponent
        # of its second term's root at -1/2 it is sigma_max(M0)^2 itself.
        rng = np.random.default_rng(7)
        flagged = 0
        for _ in range(2000):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            c = check_case2(u)
            x, y, z = row_parameters(u)
            s2 = c.details["sigma_max_sq"]
            assert s2 == pytest.approx(np.linalg.svd(u.block(0))[1][0] ** 2, abs=1e-12)
            root = np.sqrt(1 + (x / y) ** 2)
            corrected = 0.5 * x * (1 + x / y / root) + 0.5 * y / root + z
            assert s2 == pytest.approx(corrected, abs=1e-12)
            assert c.details["disagrees"] == (c.satisfied != (s2 < 1 - u.tol.strict))
            assert not (c.details["disagrees"] and c.satisfied)
            flagged += c.details["disagrees"]
        assert flagged == 597

    def test_exactly_one_case_applies(self, rng):
        for _ in range(100):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            assert check_case1(u).applies != check_case2(u).applies


class TestCondition3:
    def test_identity_violated(self, u_identity):
        assert not check_condition3(u_identity).satisfied

    def test_xblock_violated(self, u_xblock):
        assert not check_condition3(u_xblock).satisfied

    def test_secure_example_satisfied(self, u_secure):
        assert check_condition3(u_secure).satisfied

    def test_flags_the_constructed_attack(self, u_identity, u_xblock):
        for u in (u_identity, u_xblock):
            assert check_condition3(u).details["perfect_attack_constructed"] is True

    def test_loosened_phase_equiv_flags_no_attack(self, u_secure):
        # secure_example's swap mismatch is 0.5: at phase_equiv 0.6 the
        # condition fails, yet no certainty attack can be built.
        tol = DEFAULT_TOL.override(phase_equiv=0.6)
        c3 = check_condition3(TaggingUnitary(u_secure.u, tol))
        assert not c3.satisfied
        assert c3.details["perfect_attack_constructed"] is False

    def test_failure_implies_perfect_attack(self, rng):
        # Cross-module contract on the fixture corpus plus Haar samples.
        from qmac.fixtures import BUILTIN

        mats = [fn() for fn in BUILTIN.values()]
        mats += [haar_random_unitary(4, rng) for _ in range(50)]
        for m in mats:
            u = TaggingUnitary(m)
            if not check_condition3(u).satisfied:
                assert perfect_message_attack(u) is not None
            else:
                assert perfect_message_attack(u) is None


class TestCondition4:
    def test_identity_satisfied(self, u_identity):
        assert check_condition4(u_identity).satisfied

    def test_xblock_violated(self, u_xblock):
        assert not check_condition4(u_xblock).satisfied

    def test_secure_example_satisfied(self, u_secure):
        c = check_condition4(u_secure)
        assert c.satisfied and c.margin == pytest.approx(0.5)

    def test_redundancy_from_condition3(self, rng):
        for _ in range(300):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            if check_condition3(u).satisfied:
                assert check_condition4(u).satisfied

    def test_agrees_with_key_distinguishability(self, rng):
        # M0 = cH with H the Hadamard: column norms c lie above strict, but
        # every entry c/sqrt(2) lies below it, so the key can be pinned down.
        c = 1.2e-9
        s = np.sqrt(1 - c * c)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        near_zero = np.block([[c * h, s * np.eye(2)], [s * np.eye(2), -c * h]])
        mats = [near_zero] + [haar_random_unitary(4, rng) for _ in range(50)]
        for m in mats:
            u = TaggingUnitary(m)
            c4 = check_condition4(u)
            assert c4.satisfied is not key_distinguishability(u).distinguishable
            assert c4.margin == np.abs(m[:2, :2]).max()
        assert not check_condition4(TaggingUnitary(near_zero)).satisfied


class TestValidate:
    def test_identity_insecure(self, u_identity):
        rep = validate(u_identity, include_attacks=False)
        assert not rep.overall_secure

    def test_xblock_insecure_despite_half_pf(self, u_xblock):
        rep = validate(u_xblock, include_attacks=False)
        assert not rep.overall_secure
        assert no_message_optimal(u_xblock).probability == pytest.approx(0.5)

    def test_secure_example(self, u_secure):
        rep = validate(u_secure, attack_budget=300)
        assert rep.overall_secure
        assert rep.advisory["no_message_pf_optimal"] < 1 - 1e-6
        assert rep.advisory["message_attack_pf_best"] < 1 - 1e-4

    def test_secure_implies_attacks_below_one(self, rng):
        checked = 0
        for _ in range(200):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            rep = validate(u, include_attacks=False)
            if rep.overall_secure:
                assert no_message_optimal(u).probability < 1 - 1e-6
                assert perfect_message_attack(u) is None
                checked += 1
        assert checked > 0  # Haar unitaries are generically secure

    @pytest.mark.parametrize("override", [{"strict": 0.6}, {"phase_equiv": 0.6}])
    def test_tolerance_carried_by_unitary(self, u_secure, override):
        tu = TaggingUnitary(u_secure.u, DEFAULT_TOL.override(**override))
        assert validate(u_secure, include_attacks=False).overall_secure is True
        assert validate(tu, include_attacks=False).overall_secure is False

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            validate(np.diag([1, 1, 1, 2.0]), include_attacks=False)

    def test_report_json_shape(self, u_secure):
        body = validate(u_secure, include_attacks=False).to_json()
        assert body["overall_secure"] is True
        for key in ("case1", "case2", "condition3", "condition4"):
            assert "satisfied" in body[key] and "margin" in body[key]
        assert body["case2"]["applies"] is False and body["case2"]["margin"] is None
