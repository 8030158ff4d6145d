"""Dense complex linear algebra helpers for small (2..16 dim) spaces.

Everything operates on plain numpy complex arrays.  Matrices are row-major
2-d arrays; state vectors are 1-d arrays.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .config import DEFAULT_TOL, check_real

# The package's one SVD routine: the gufunc np.linalg.svd calls on a stack of
# complex matrices, giving (u, s, vh) for each, bit for bit, without the
# wrapper's argument handling.  Callers run it under np.errstate(**_SVD_ERRORS).
_svd = _umath_linalg.svd_f


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# The floating-point error handling np.linalg.svd runs _svd under: the gufunc
# signals a failed SVD as an invalid operation, which raises LinAlgError.
_SVD_ERRORS = dict(call=_svd_failed, invalid="call", over="ignore", divide="ignore",
                   under="ignore")


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
    n = len(dims)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    if rho.shape[0] != math.prod(dims):
        raise ValueError(
            f"dims {dims} are inconsistent with a {rho.shape[0]}-dim operator"
        )
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    reshaped = rho.reshape(dims + dims)
    # One pass over the subsystems, the last first: each one not kept is
    # contracted out of its (row, column) axis pair.
    for sub in range(n - 1, -1, -1):
        if sub not in keep:
            reshaped = reshaped.trace(axis1=sub, axis2=sub + reshaped.ndim // 2)
    d_keep = math.prod(dims[k] for k in keep)
    return reshaped.reshape(d_keep, d_keep)


# While no real or imaginary part of an entry exceeds this, no sum in U†U
# can overflow, for any dimension that fits in memory.
_UNSCALED_MAX = 1e150


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL.unitary):
    """Return ``(unitary?, max deviation of U†U from I)``.

    A finite matrix with a larger real or imaginary part s than
    ``_UNSCALED_MAX`` is divided by s before the product, and the deviation
    of U†U = s² (U/s)†(U/s) is scaled back in Python floats: it is at least
    1e300, and beyond the float range it is inf, with no overflow warning.
    ``tol`` is checked by :func:`~qmac.config.check_real` to lie in [0, inf).
    """
    tol = check_real(tol, "tol", 0, math.inf, "[)")
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("is_unitary expects a square matrix")
    eye = np.eye(u.shape[0])
    if np.abs(u).max() > _UNSCALED_MAX:  # a modulus may overflow where no part does
        s = float(max(np.abs(u.real).max(), np.abs(u.imag).max()))
        if _UNSCALED_MAX < s < math.inf:
            v = u / s
            dev = float(np.abs(dagger(v) @ v - eye * (1 / s) ** 2).max()) * s * s
            return dev <= tol, dev
    dev = np.abs(dagger(u) @ u - eye).max()
    return bool(dev <= tol), float(dev)


def is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer.  bool subclasses int, but
    True is neither a count, a bit nor a JSON integer."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_count(value, name: str, floor: int) -> int:
    """``value`` as a Python int, checked to be an integer (:func:`is_integer`)
    at least ``floor``; ``name`` names the argument in the ``ValueError``
    either check raises."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")
    return int(value)


def check_rng(rng, name: str = "rng"):
    """The package's one ``rng`` rule: a numpy ``Generator`` comes back as
    it is, and a seed, an integer (:func:`is_integer`) of at least 0, as a
    Python int, None as 0; ``np.random.default_rng`` takes either.  Anything
    else (a bool, a float, a ``RandomState``, a ``BitGenerator``, a
    ``SeedSequence``) raises ``TypeError``, and a negative seed ``ValueError``."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return 0
    if not is_integer(rng):
        raise TypeError(f"{name} must be a numpy Generator or a non-negative integer seed, "
                        f"got {type(rng).__name__}")
    if rng < 0:
        raise ValueError(f"{name} must be >= 0, got {rng}")
    return int(rng)


def unitary_operand(m, name: str, n: int, tol: float) -> np.ndarray:
    """``m`` as a complex array, checked n×n and unitary to within ``tol``;
    ``name`` names the operand in the ``ValueError`` either check raises."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got {m.shape}")
    ok, dev = is_unitary(m, tol)
    if not ok:
        raise ValueError(f"{name} must be unitary (deviation {dev:.3e})")
    return m


def haar_random_unitary(dim: int, rng, count: Optional[int] = None) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-normalized so the distribution is exactly
    Haar rather than QR-convention dependent (Mezzadri, Notices AMS 54
    (2007) 592).  With ``count``, a ``(count, dim, dim)`` stack from one
    ``standard_normal((count, 2, dim, dim))`` draw and one stacked QR: the
    real then the imaginary block of each matrix in turn, so the stack and
    the Generator's state after it equal ``count`` single draws bit for bit.
    ``dim`` and ``count`` must be integers of at least 1, and ``rng`` is
    checked by :func:`check_rng`.
    """
    rng = check_rng(rng)
    dim = check_count(dim, "dim", 1)
    shape = (2, dim, dim) if count is None else (check_count(count, "count", 1), 2, dim, dim)
    x = np.random.default_rng(rng).standard_normal(shape)
    z = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    z /= np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def halmos_dilation(m0: np.ndarray, svd: Optional[tuple] = None) -> np.ndarray:
    """The unitary [[M0, (I - M0 M0†)^½], [(I - M0† M0)^½, -M0†]] of a 2x2 M0.

    Halmos, Summa Brasil. Math. 2 (1950) 125.  With M0 = L diag(s) R†, the
    square roots are L diag(√(1 - s²)) L† and R diag(√(1 - s²)) R†.  ``svd``
    is M0's (L, s, R†) as ``_svd(m0)`` gives it, taken here when None.
    Raises ``ValueError`` when σ_max(M0) > 1, where no such unitary exists.
    """
    m0 = np.asarray(m0, dtype=complex)
    if svd is None:
        with np.errstate(**_SVD_ERRORS):
            svd = _svd(m0)
    left, s, right_h = svd
    if not s[0] <= 1:
        raise ValueError(f"M0 is not a contraction (sigma_max {s[0]!r})")
    c = np.sqrt(1 - s**2)
    n = len(m0)
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = m0
    out[:n, n:] = (left * c) @ dagger(left)
    out[n:, :n] = (dagger(right_h) * c) @ right_h
    out[n:, n:] = -dagger(m0)
    return out


# --- matrix JSON interchange -------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to ``{"rows", "cols", "data": [[re, im], ...]}`` row-major."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in m.ravel()],
    }


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
    if not (is_integer(rows) and is_integer(cols)):
        raise ValueError(f"malformed matrix JSON: rows {rows!r} and cols {cols!r} "
                         "must be integers")
    if not all(isinstance(x, float) or is_integer(x) for pair in pairs for x in pair):
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
