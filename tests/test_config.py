import pytest

from qmac.config import DEFAULT_TOL, Tolerances


@pytest.mark.parametrize("make, name", [
    (lambda: DEFAULT_TOL.override(strict=float("nan")), "strict"),
    (lambda: Tolerances(phase_equiv=-1), "phase_equiv"),
    (lambda: Tolerances(unitary=float("inf")), "unitary"),
])
def test_bad_value_rejected(make, name):
    with pytest.raises(ValueError, match=f"tolerance '{name}' must be finite and >= 0"):
        make()


def test_zero_is_allowed():
    assert Tolerances(unitary=0, strict=0, phase_equiv=0).strict == 0
