"""Built-in tagging unitaries used as fixtures and CLI demo inputs."""

from __future__ import annotations

import numpy as np


def identity_unitary() -> np.ndarray:
    return np.eye(4, dtype=complex)


def x_block_unitary() -> np.ndarray:
    """Block-anti-diagonal swap of the accept subspace with its complement.

    Optimal against no-message forgery (P_f = 1/2) but fully vulnerable to
    message substitution.
    """
    z = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)
    return np.block([[z, i2], [i2, z]])


def secure_example_unitary() -> np.ndarray:
    """The canonical secure example completion.

    First block rows fixed to (0.5 0.5) and (0 0); the remaining rows are
    a deterministic Gram-Schmidt completion, so every derived fixture is
    pinned to this one concrete real orthogonal matrix.
    """
    rows = [
        np.array([0.5, 0.5, 0.5, 0.5], dtype=complex),
        np.array([0, 0, 1, -1], dtype=complex) / np.sqrt(2),
    ]
    for cand in (1, 2):
        v = np.eye(4, dtype=complex)[cand]
        for r in rows:
            v = v - np.vdot(r, v) * r
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


BUILTIN = {
    "identity": identity_unitary,
    "x_block": x_block_unitary,
    "secure_example": secure_example_unitary,
}
