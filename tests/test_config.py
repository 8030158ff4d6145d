import json
import re

import numpy as np
import pytest

from qmac.config import DEFAULT_TOL, UNITARY_FLOOR, Tolerances


@pytest.mark.parametrize("make, name", [
    (lambda: DEFAULT_TOL.override(strict=float("nan")), "strict"),
    (lambda: Tolerances(phase_equiv=-1), "phase_equiv"),
    (lambda: Tolerances(unitary=float("inf")), "unitary"),
    pytest.param(lambda: Tolerances(strict=True), "strict", id="strict-bool"),
    pytest.param(lambda: Tolerances(phase_equiv=np.True_), "phase_equiv",
                 id="phase_equiv-numpy-bool"),
    pytest.param(lambda: Tolerances(strict="0.1"), "strict", id="strict-str"),
    pytest.param(lambda: Tolerances(unitary=None), "unitary", id="unitary-none"),
    pytest.param(lambda: Tolerances(strict=1e-9j), "strict", id="strict-complex"),
])
def test_bad_value_rejected(make, name):
    message = f"tolerance '{name}' must be a real number in [0, inf), got"
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_numpy_value_stored_as_float():
    tol = Tolerances(unitary=np.float64(1e-10), strict=np.int64(0),
                     phase_equiv=np.float32(1e-9))
    assert all(type(value) is float for value in tol.as_dict().values())
    assert tol == Tolerances(unitary=1e-10, strict=0.0, phase_equiv=float(np.float32(1e-9)))
    assert json.loads(json.dumps(tol.as_dict()))["strict"] == 0


def test_zero_is_allowed():
    assert Tolerances(unitary=UNITARY_FLOOR, strict=0, phase_equiv=0).strict == 0


@pytest.mark.parametrize("value", [0, 1e-16, UNITARY_FLOOR * 0.99])
def test_unitary_tolerance_below_rounding_rejected(value):
    # Below the floor the package's own witnesses would fail its re-checks.
    with pytest.raises(ValueError, match=f"'unitary' must be at least {UNITARY_FLOOR!r}, got"):
        Tolerances(unitary=value)


@pytest.mark.parametrize("value", [1, 1.0, 1.5])
def test_unitary_tolerance_capped_below_one(value):
    # At 1 or more a matrix with a zero column would pass as unitary.
    with pytest.raises(ValueError, match="tolerance 'unitary' must be below 1"):
        Tolerances(unitary=value)


def test_unitary_tolerance_just_below_one_is_allowed():
    assert DEFAULT_TOL.override(unitary=0.999).unitary == 0.999
