"""Dense complex linear algebra helpers for small (2..16 dim) spaces.

Everything operates on plain numpy complex arrays.  Matrices are row-major
2-d arrays; state vectors are 1-d arrays.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .config import DEFAULT_TOL


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron's own single multiply, of an (m, 1, n, 1) view of a by a
    # (1, p, 1, q) view of b, without its expand_dims wrapper.  The operand
    # with fewer dimensions is padded with leading 1s, as np.kron does.
    a, b = np.asarray(a), np.asarray(b)
    nd = max(a.ndim, b.ndim)
    a_shape = (1,) * (nd - a.ndim) + a.shape
    b_shape = (1,) * (nd - b.ndim) + b.shape
    prod = (a.reshape([x for m in a_shape for x in (m, 1)])
            * b.reshape([x for m in b_shape for x in (1, m)]))
    return prod.reshape([m * k for m, k in zip(a_shape, b_shape)])


def tensor(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices / vectors.

    Index convention for ``tensor(a, b)``: row ``i_a * b.rows + i_b``,
    column ``j_a * b.cols + j_b``.  For factors of one or more dimensions
    it equals ``reduce(np.kron, mats)`` bit for bit, in shape, dtype and
    every entry: each pairwise product is the same single multiply np.kron
    makes, without its argument handling.
    """
    if not mats:
        raise ValueError("tensor() needs at least one factor")
    return reduce(_kron, mats)


def partial_trace(rho: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Reduced density operator of ``rho`` on the subsystems in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is a
    collection of subsystem indices to retain.  The trace is preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    total = int(np.prod(dims))
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    if rho.shape[0] != total:
        raise ValueError(
            f"dims {dims} are inconsistent with a {rho.shape[0]}-dim operator"
        )
    keep = sorted(set(keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    # Contract the traced subsystems pairwise.
    for sub in sorted(set(range(n)) - set(keep), reverse=True):
        reshaped = np.trace(reshaped, axis1=sub, axis2=sub + reshaped.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return reshaped.reshape(d_keep, d_keep)


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL.unitary):
    """Return ``(unitary?, max deviation of U†U from I)``."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("is_unitary expects a square matrix")
    dev = np.abs(dagger(u) @ u - np.eye(u.shape[0])).max()
    return bool(dev <= tol), float(dev)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-normalized so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def halmos_dilation(m0: np.ndarray) -> np.ndarray:
    """The unitary [[M0, (I - M0 M0†)^½], [(I - M0† M0)^½, -M0†]] of a 2x2 M0.

    Halmos, Summa Brasil. Math. 2 (1950) 125.  With M0 = L diag(s) R†, the
    square roots are L diag(√(1 - s²)) L† and R diag(√(1 - s²)) R†.  Raises
    ``ValueError`` when σ_max(M0) > 1, where no such unitary exists.
    """
    m0 = np.asarray(m0, dtype=complex)
    left, s, right_h = np.linalg.svd(m0)
    if not s[0] <= 1:
        raise ValueError(f"M0 is not a contraction (sigma_max {s[0]!r})")
    c = np.sqrt(1 - s**2)
    return np.block([[m0, (left * c) @ dagger(left)],
                     [(dagger(right_h) * c) @ right_h, -dagger(m0)]])


# --- matrix JSON interchange -------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to ``{"rows", "cols", "data": [[re, im], ...]}`` row-major."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in m.ravel()],
    }


def _is_json_number(x, kinds=(int, float)) -> bool:
    # bool subclasses int, but a JSON true or false is not a number.
    return isinstance(x, kinds) and not isinstance(x, bool)


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; exact round-trip.

    ``rows`` and ``cols`` must be JSON integers and each entry a pair of
    JSON numbers.
    """
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        pairs = [(re, im) for re, im in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if not (_is_json_number(rows, int) and _is_json_number(cols, int)):
        raise ValueError(f"malformed matrix JSON: rows {rows!r} and cols {cols!r} "
                         "must be integers")
    if not all(_is_json_number(x) for pair in pairs for x in pair):
        raise ValueError("malformed matrix JSON: entries must be [re, im] number pairs")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if len(flat) != rows * cols:
        raise ValueError(f"matrix JSON has {len(flat)} entries, expected {rows * cols}")
    if not np.isfinite(flat.view(float)).all():
        raise ValueError("matrix JSON contains non-finite entries")
    return flat.reshape(rows, cols)
