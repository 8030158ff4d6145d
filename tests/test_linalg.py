import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmac.linalg import (
    dagger,
    haar_random_unitary,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    tensor,
)
from qmac.protocol import singlet

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], complex)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_permutation(self):
        e0 = np.eye(4)[:, 0]
        out = tensor(SX, I2) @ e0
        assert np.allclose(out, np.eye(4)[:, 2])

    def test_singlet_with_message_indices(self):
        # Hand index computation under the (i_a * dim_b + i_b) convention:
        # singlet support {1, 2} kron dim-4 e0 lands on {4, 8}.
        vec = tensor(singlet(), np.eye(4)[:, 0])
        expected = np.zeros(16, complex)
        expected[4] = 1 / np.sqrt(2)
        expected[8] = -1 / np.sqrt(2)
        assert np.allclose(vec, expected, atol=1e-15)

    def test_associative(self, rng):
        # Integer entries make float products order-independent, so the
        # comparison can be exact.
        a, b, c = (
            (rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))).astype(
                complex
            )
            for n in (2, 3, 2)
        )
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


# A factor: its 1-d or 2-d shape, its entries' kind and its memory layout.
# Column vectors such as MESSAGE_BASIS[:, [m]] are the 2-d shapes (m, 1);
# transposed and strided views are the layouts of dagger(u) and
# MESSAGE_BASIS[:, m].
FACTORS = st.lists(
    st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=2),
              st.sampled_from(["int", "float", "complex"]),
              st.sampled_from(["contiguous", "transposed", "strided"])),
    min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(FACTORS, st.integers(min_value=0, max_value=2**32 - 1))
# One-entry factors: a product formed in another loop (np.multiply.outer,
# say) can round differently here.
@example([([1], "complex", "contiguous")] * 2, 2)
def test_tensor_equals_kron_bit_for_bit(factors, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for shape, kind, layout in factors:
        if layout == "strided":
            shape = shape[:-1] + [2 * shape[-1]]
        re, im = rng.standard_normal((2, *shape))
        m = {"int": np.rint(3 * re).astype(int), "float": re, "complex": re + 1j * im}[kind]
        mats.append({"contiguous": m, "transposed": m.T, "strided": m[..., ::2]}[layout])
    out, ref = tensor(*mats), reduce(np.kron, mats)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.array_equal(out, ref) and out.tobytes() == ref.tobytes()


class TestPartialTrace:
    def test_singlet_marginal(self):
        psi = singlet()
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace(rho, [2, 2], {0}), I2 / 2, atol=1e-12)

    def test_product_state_factors(self, rng):
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho_a = a @ dagger(a)
            rho_a /= np.trace(rho_a)
            rho_b = b @ dagger(b)
            rho_b /= np.trace(rho_b)
            joint = tensor(rho_a, rho_b)
            assert np.allclose(partial_trace(joint, [2, 3], {0}), rho_a, atol=1e-12)
            assert np.allclose(partial_trace(joint, [2, 3], {1}), rho_b, atol=1e-12)

    def test_trace_preserved(self, rng):
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = a @ dagger(a)
        rho /= np.trace(rho)
        red = partial_trace(rho, [2, 2, 3], {1})
        assert abs(np.trace(red) - 1) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], {0})


class TestIsUnitary:
    def test_identity(self):
        ok, dev = is_unitary(np.eye(4), 1e-12)
        assert ok and dev == 0

    def test_non_isometry(self):
        ok, _ = is_unitary(np.diag([1, 1, 1, 2.0]))
        assert not ok

    def test_haar_sample(self, rng):
        ok, dev = is_unitary(haar_random_unitary(4, rng))
        assert ok and dev < 1e-10

    @pytest.mark.parametrize(
        "entry, dev",
        [(1e149, 1e298), (1e151, 1e302), (1e155, math.inf), (1e200, math.inf),
         (-1.7e308, math.inf), (1.5e308 + 1.5e308j, math.inf)],
    )
    def test_huge_finite_entry_does_not_overflow(self, entry, dev):
        # Tier-1 turns a RuntimeWarning into an error.
        u = np.eye(4, dtype=complex)
        u[0, 0] = entry
        assert is_unitary(u, 0.5) == (False, pytest.approx(dev))


class TestHaar:
    def test_scalar_case(self, rng):
        u = haar_random_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_deterministic_per_seed(self):
        a = haar_random_unitary(4, np.random.default_rng(7))
        b = haar_random_unitary(4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @staticmethod
    def textbook_draw(dim, rng):
        # One Ginibre matrix from two (dim, dim) normal draws, its QR and the phase fix.
        z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        z /= np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        return q * (d / np.abs(d))

    @pytest.mark.parametrize("count", [1, 5, 11])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_stack_equals_single_draws(self, dim, count):
        # One standard_normal((count, 2, dim, dim)) draw is the stream of count
        # single draws, and the stacked QR gives each matrix bit for bit.
        for seed in (0, 1, 7, 2**40 + 3):
            rngs = [np.random.default_rng(seed) for _ in range(3)]
            want = np.array([self.textbook_draw(dim, rngs[0]) for _ in range(count)])
            single = np.array([haar_random_unitary(dim, rngs[1]) for _ in range(count)])
            got = haar_random_unitary(dim, rngs[2], count)
            assert got.shape == (count, dim, dim) and got.tobytes() == want.tobytes()
            assert single.tobytes() == want.tobytes()
            assert rngs[2].bit_generator.state == rngs[1].bit_generator.state \
                == rngs[0].bit_generator.state

    def test_entry_moment(self):
        # E|U_ij|^2 = 1/dim for Haar; 3-sigma band for the sample mean.
        rng = np.random.default_rng(5)
        n = 10_000
        acc = 0.0
        for _ in range(n):
            u = haar_random_unitary(4, rng)
            acc += abs(u[0, 0]) ** 2
        mean = acc / n
        sigma = np.sqrt(0.25 * 0.75 / n)  # conservative binomial-style bound
        assert abs(mean - 0.25) < 3 * sigma


class TestMatrixJson:
    def test_round_trip_exact(self, rng):
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(m, back)

    def test_malformed(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2})

    @pytest.mark.parametrize("data", [[["a", "b"]], 5, [[1]], [[1, 2, 3]], [None]])
    def test_malformed_entries(self, data):
        with pytest.raises(ValueError, match="malformed matrix JSON"):
            matrix_from_json({"rows": 1, "cols": 1, "data": data})

    @pytest.mark.parametrize("rows, cols", [(1.9, "1"), (1.0, 1), (1, "1"), (True, 1),
                                            (1, False), (None, 1)])
    def test_dimensions_must_be_integers(self, rows, cols):
        with pytest.raises(ValueError, match="malformed matrix JSON"):
            matrix_from_json({"rows": rows, "cols": cols, "data": [[1, 0]]})

    @pytest.mark.parametrize("entry", [[True, False], [1, True], ["1", 0], [None, 0],
                                       [[1], 0], [10**400, 0]])
    def test_entries_must_be_numbers(self, entry):
        with pytest.raises(ValueError, match="malformed matrix JSON"):
            matrix_from_json({"rows": 1, "cols": 1, "data": [entry]})

    def test_integer_entries_accepted(self):
        m = matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [0.5, -2]]})
        assert np.array_equal(m, [[1, 0.5 - 2j]])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_unitary_conjugation_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(4, rng)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ dagger(a)
    rho /= np.trace(rho)
    assert abs(np.trace(u @ rho @ dagger(u)) - 1) < 1e-12


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: tensor(), "at least one factor", id="tensor-no-factors"),
    pytest.param(lambda: partial_trace(np.ones((2, 4)), [2, 2], {0}), "square matrix",
                 id="partial_trace-non-square"),
    pytest.param(lambda: partial_trace(np.eye(4), [2, 2], {2}), "out of range",
                 id="partial_trace-keep-2"),
    pytest.param(lambda: partial_trace(np.eye(4), [2, 2], {-1}), "out of range",
                 id="partial_trace-keep-negative"),
    pytest.param(lambda: is_unitary(np.ones((2, 3))), "square matrix",
                 id="is_unitary-non-square"),
    pytest.param(lambda: haar_random_unitary(0, np.random.default_rng(0)), "dim must be >= 1",
                 id="haar-dim-0"),
    pytest.param(lambda: matrix_from_json({"rows": 0, "cols": 1, "data": []}),
                 "dimensions must be positive", id="matrix_from_json-rows-0"),
    pytest.param(lambda: matrix_from_json({"rows": 1, "cols": 1, "data": [[math.nan, 0]]}),
                 "non-finite entries", id="matrix_from_json-nan"),
])
def test_bad_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
