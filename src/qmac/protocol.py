"""Exact simulation of the singlet-keyed one-bit authentication protocol.

Subsystem ordering is key-A (2) ⊗ key-B (2) ⊗ message E (4); a basis state
has index ``8a + 4b + e``.  The message basis is fixed to the computational
basis e0..e3 of the 4-dim message space: bit states are e0/e1, reject
outcomes e2/e3.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .linalg import (
    _SVD_ERRORS,
    _svd,
    check_count,
    check_rng,
    dagger,
    halmos_dilation,
    is_integer,
    partial_trace,
    tensor,
    unitary_operand,
)


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


# The module's constant arrays are read-only, like a tagging's analysis, so
# a stray write cannot change every later result in the process.
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

#: Columns are the message-basis vectors |phi_0..3>.
MESSAGE_BASIS = np.eye(4, dtype=complex)

#: Accept projector onto span{|phi_0>, |phi_1>}.
ACCEPT_PROJECTOR = np.diag([1, 1, 0, 0]).astype(complex)


def singlet() -> np.ndarray:
    """Two-qubit singlet key (|01> - |10>)/sqrt(2) on A ⊗ B."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / np.sqrt(2)
    psi[2] = -1 / np.sqrt(2)
    return psi


_SINGLET = singlet()
_SINGLET_BRA = _SINGLET.conj()
_read_only((I2, I4, MESSAGE_BASIS, ACCEPT_PROJECTOR, _SINGLET, _SINGLET_BRA))


class TaggingUnitary:
    """The public 4×4 tagging operation and its top-left block M0.

    ``tol`` is the :class:`~qmac.config.Tolerances` in force for every
    check on it; anything else raises ``TypeError``.  Every attack sees the
    tagging through M0, so M0's analysis
    (:attr:`m0_svd`, :attr:`m0_moduli`, :attr:`row_norms_sq`,
    :attr:`row_parameters`, :attr:`swap_mismatch`) is computed on first read
    and kept: U is read-only, and none of it depends on ``tol``.  A tagging
    built by :meth:`dilation` is given its :attr:`m0_svd`.
    """

    def __init__(self, u: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        if not isinstance(tol, Tolerances):
            raise TypeError(f"tol must be a Tolerances, got {type(tol).__name__}")
        u = unitary_operand(u, "tagging unitary", 4, tol.unitary)
        self._u = u.copy()
        self._u.setflags(write=False)
        self.tol = tol
        # Controlled encode/decode operators on the 16-dim joint space:
        # blockdiag(I8, I2 ⊗ U) and I2 ⊗ blockdiag(U†, I4).  Adding 0.0 turns
        # any -0.0 into the +0.0 that the sum of the two controlled branches gives.
        self.encode_op = np.eye(16, dtype=complex)
        self.encode_op[8:, 8:] = tensor(I2, u)
        self.encode_op += 0.0
        decode = np.eye(8, dtype=complex)
        decode[:4, :4] = dagger(u)
        self.decode_op = tensor(I2, decode) + 0.0

    @classmethod
    def dilation(cls, m0: np.ndarray, m0_svd: tuple, tol: Tolerances = DEFAULT_TOL):
        """The tagging of M0's Halmos dilation
        (:func:`~qmac.linalg.halmos_dilation`), built from ``m0_svd``, which
        must be ``_svd(m0)``.  The dilation's M0 is ``m0`` entry for entry,
        so ``m0_svd`` is the SVD a first read of :attr:`m0_svd` would take,
        and it is kept as that, read-only."""
        tu = cls(halmos_dilation(m0, m0_svd), tol)
        tu.__dict__["m0_svd"] = _read_only(m0_svd)  # cached_property's slot
        return tu

    @property
    def u(self) -> np.ndarray:
        return self._u

    @property
    def m0(self) -> np.ndarray:
        """M0 = U[:2, :2], <phi_i|U|phi_j> for i, j in {0, 1}: the block
        every attack sees the tagging through (read-only view)."""
        return self._u[:2, :2]

    @cached_property
    def m0_svd(self) -> tuple:
        """(L, s, R†) with M0 = L diag(s) R†, s descending: np.linalg.svd(M0),
        bit for bit (read-only arrays)."""
        with np.errstate(**_SVD_ERRORS):
            return _read_only(_svd(self.m0))

    @cached_property
    def m0_moduli(self) -> tuple:
        """(|m00|, |m01|, |m10|, |m11|), each Python's abs of the entry: the
        moduli that the swap test, key distinguishability and key reuse read."""
        return tuple(abs(m) for m in self.m0.ravel().tolist())

    @cached_property
    def row_norms_sq(self) -> tuple:
        """(||r0||², ||r1||²) of M0's rows r0, r1, each np.linalg.norm(r) ** 2."""
        return tuple(float(np.linalg.norm(r) ** 2) for r in self.m0)

    @cached_property
    def row_parameters(self) -> tuple:
        """(x, y, z) = (||r0||² - ||r1||², 2 |<r0, r1>|, ||r1||²) from M0's
        rows r0, r1."""
        n0sq, n1sq = self.row_norms_sq
        r0, r1 = self.m0
        return n0sq - n1sq, float(2 * abs(r1 @ r0.conj())), n1sq

    @cached_property
    def swap_mismatch(self) -> float:
        """Distance of the M0 columns from phase equivalence under the swap:
        the worst of ||m00| - |m11|| and ||m01| - |m10||.  It is 0 exactly
        when a certainty substitution attack exists (see
        :func:`~qmac.adversary.perfect_message_attack`)."""
        a00, a01, a10, a11 = self.m0_moduli
        return max(abs(a00 - a11), abs(a01 - a10))


def as_tagging_unitary(u) -> TaggingUnitary:
    return u if isinstance(u, TaggingUnitary) else TaggingUnitary(u)


def check_bit(bit, name: str) -> int:
    """``bit`` as the int 0 or 1.  A Python or numpy integer equal to 0 or 1
    passes; anything else, a bool or a float among them, raises
    ``ValueError("<name> must be 0 or 1")``."""
    if is_integer(bit) and bit in (0, 1):
        return int(bit)
    raise ValueError(f"{name} must be 0 or 1")


def _message_state(message: int) -> np.ndarray:
    """|phi_message> for a message bit 0 or 1."""
    return MESSAGE_BASIS[:, check_bit(message, "message")]


def encode(u, message: int) -> np.ndarray:
    """Alice's tagging operation applied to singlet ⊗ |phi_message>.

    Returns (|01>|phi_i> - |10> U|phi_i>)/sqrt(2).
    """
    u = as_tagging_unitary(u)
    return u.encode_op @ tensor(singlet(), _message_state(message))


def decode(u, state: np.ndarray) -> np.ndarray:
    """Bob's decoding operation, controlled on his key qubit."""
    u = as_tagging_unitary(u)
    state = np.asarray(state, dtype=complex)
    if state.shape != (16,):
        raise ValueError("joint state must be a 16-dim vector")
    return u.decode_op @ state


def channel_density(u, message: int) -> np.ndarray:
    """Density operator of the in-flight message: (rho_i + U rho_i U†)/2.

    It is the mixture of |phi_i> and U|phi_i> over a uniform classical key
    bit, and the singlet key's reduced message state after :func:`encode`.
    """
    u = as_tagging_unitary(u)
    phi = _message_state(message)
    rho = np.outer(phi, phi.conj())
    return (rho + u.u @ rho @ dagger(u.u)) / 2


def measurement_distribution(state: np.ndarray) -> np.ndarray:
    """Outcome probabilities of Bob's projective message measurement."""
    amps = np.asarray(state, dtype=complex).reshape(4, 4)
    return (np.abs(amps) ** 2).sum(axis=0)


def key_fidelity(state: np.ndarray) -> float:
    """Overlap of the reduced key state with the singlet.

    ``state`` is key-A (2) ⊗ key-B (2) ⊗ the rest, flattened.
    """
    state = np.asarray(state, dtype=complex).ravel()
    # np.outer's own broadcast multiply, without its wrapper.
    return density_key_fidelity(state[:, None] * state.conj()[None, :])


def density_key_fidelity(rho: np.ndarray) -> float:
    """Overlap of the reduced key state of the density operator ``rho`` on
    key-A (2) ⊗ key-B (2) ⊗ the rest with the singlet: <s|Tr_rest rho|s>,
    taken as a real part without the ``np.real`` wrapper.  It is linear in
    ``rho``, so on a mixture it is the weighted mean of the parts'
    :func:`key_fidelity`."""
    rho_key = partial_trace(rho, (2, 2, len(rho) // 4), keep={0, 1})
    return float((_SINGLET_BRA @ rho_key @ _SINGLET).real)


def simulate_honest_batch(u, message: int, trials: int, rng):
    """Sample ``trials`` honest-round outcomes of Bob's measurement.

    The decoded state is the same every round, so one encode/decode gives
    the outcome distribution and the key fidelity, and each trial is a
    single Born sample from that distribution.  ``trials`` must be an
    integer of at least 0, and ``rng`` is checked by
    :func:`~qmac.linalg.check_rng`.
    """
    rng = np.random.default_rng(check_rng(rng))
    trials = check_count(trials, "trials", 0)
    u = as_tagging_unitary(u)
    decoded = decode(u, encode(u, message))
    probs = measurement_distribution(decoded)
    fid = key_fidelity(decoded)
    outcomes = rng.choice(4, size=trials, p=probs / probs.sum())
    return outcomes, fid
