"""Machine-speed reference blocks, used to scale measured times.

On a shared host the same code runs up to ~1.9x slower for tens of seconds
at a time, which no run length averages out.  Each workload names the
blocks below whose mix of work is closest to its own.  The runner times
those blocks before and after every operation and scales the operation's
time by nominal / measured (the mean of the two measurements), so times
read as on a host where each block takes its nominal time.  The blocks
do not call qmac, so a change to qmac cannot move them; raw wall times are
printed alongside.
"""

from __future__ import annotations

import json
import time

import numpy as np

_H = np.array([[1.0, 0.2 + 0.1j, 0.3, 0.0], [0.2 - 0.1j, -0.5, 0.1j, 0.4],
               [0.3, -0.1j, 0.7, 0.2], [0.0, 0.4, 0.2, -1.1]])
_Q32 = np.linalg.qr(np.random.default_rng(1).standard_normal((32, 32))
                    + 1j * np.random.default_rng(2).standard_normal((32, 32)))[0]
_SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def search() -> None:
    """4x4 Hermitian eigh, exp(iH), matmul and scalar arithmetic, as in the
    substitution-attack search."""
    h = _H.copy()
    for _ in range(300):
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * w)) @ v.conj().T
        h[0, 1] += 1e-3 * (abs(u[1, 0]) ** 2 + abs(u[0, 1]) ** 2)
        h[1, 0] = h[0, 1].conjugate()


def state() -> None:
    """32-dim kron, matvec, marginal, Born sample and collapse, as in the
    key-reuse simulation."""
    rng = np.random.default_rng(0)
    basis = np.eye(4, dtype=complex)
    ancilla = np.array([1, 0], dtype=complex)
    for k in range(100):
        s = _Q32 @ np.kron(np.kron(_SINGLET, basis[k % 4]), ancilla)
        amps = s.reshape(2, 2, 4, 2)
        p = (np.abs(amps) ** 2).sum(axis=(0, 1, 3))
        amps = amps.copy()
        amps[:, :, int(rng.choice(4, p=p / p.sum())), :] = 0
        s = amps.reshape(-1)
        s /= np.linalg.norm(s) + 1e-300


def emit() -> None:
    """Build and serialize per-trial JSON records, as the CLI does."""
    records = [{"message": i % 2, "outcome": i % 4, "accepted": i % 4 < 2,
                "decoded": None, "key_fidelity": 0.5} for i in range(1000)]
    json.dumps({"records": records}, sort_keys=True, indent=2)


# Nominal seconds per block: their typical time on an Intel Xeon vCPU with
# Python 3.11 and numpy 2.4 (OpenBLAS, one thread).
NOMINAL_S = {search: 0.008, state: 0.010, emit: 0.010}


def measure(blocks) -> float:
    """Seconds the given blocks take now, in total."""
    t0 = time.perf_counter()
    for block in blocks:
        block()
    return time.perf_counter() - t0


def nominal(blocks) -> float:
    return sum(NOMINAL_S[b] for b in blocks)
