import numpy as np
import pytest

from qmac.fixtures import BUILTIN
from qmac.linalg import dagger, haar_random_unitary, partial_trace, tensor
from qmac.protocol import (
    MESSAGE_BASIS,
    TaggingUnitary,
    channel_density,
    channel_density_classical,
    decode,
    encode,
    key_fidelity,
    measurement_distribution,
    simulate_honest_batch,
    singlet,
)

SQ2 = np.sqrt(2)


class TestSinglet:
    def test_normalized(self):
        assert abs(np.linalg.norm(singlet()) - 1) < 1e-15

    def test_marginal(self):
        psi = singlet()
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace(rho, [2, 2], {0}), np.eye(2) / 2, atol=1e-12)

    def test_antisymmetric_under_swap(self):
        psi = singlet()
        swapped = psi.reshape(2, 2).T.reshape(4)
        assert np.allclose(swapped, -psi, atol=1e-15)


class TestTaggingUnitary:
    def test_accessors_agree_with_entries(self, rng):
        u = TaggingUnitary(haar_random_unitary(4, rng))
        for i in range(4):
            r, c = divmod(i, 2)
            blk = u.u[2 * r:2 * r + 2, 2 * c:2 * c + 2]
            assert np.array_equal(u.block(i), blk)
            for j in range(2):
                assert np.array_equal(u.row(i, j), blk[j, :])
                assert np.array_equal(u.col(i, j), blk[:, j])

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            TaggingUnitary(np.diag([1, 1, 1, 2.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            TaggingUnitary(np.eye(3))


@pytest.mark.parametrize("source", [*BUILTIN, *range(20)])
def test_joint_operators_equal_kron_construction(source):
    mat = BUILTIN[source]() if source in BUILTIN else haar_random_unitary(
        4, np.random.default_rng(source))
    u = TaggingUnitary(mat)
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    i2, i4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    encode_op = np.kron(np.kron(p0, i2), i4) + np.kron(np.kron(p1, i2), u.u)
    decode_op = np.kron(np.kron(i2, p0), u.u.conj().T) + np.kron(np.kron(i2, p1), i4)
    for op, ref in ((u.encode_op, encode_op), (u.decode_op, decode_op)):
        assert op.dtype == ref.dtype and op.shape == ref.shape == (16, 16)
        assert op.tobytes() == ref.tobytes()


class TestEncode:
    def test_identity_tagging(self, u_identity):
        expected = tensor(singlet(), MESSAGE_BASIS[:, 0])
        assert np.allclose(encode(u_identity, 0), expected, atol=1e-15)

    def test_xblock_message0(self, u_xblock):
        # (|01>|phi_0> - |10>|phi_2>)/sqrt(2): indices 4 and 10.
        out = encode(u_xblock, 0)
        expected = np.zeros(16, complex)
        expected[4] = 1 / SQ2
        expected[10] = -1 / SQ2
        assert np.allclose(out, expected, atol=1e-12)

    def test_invalid_message(self, u_identity):
        with pytest.raises(ValueError):
            encode(u_identity, 2)

    def test_channel_density_is_partial_trace(self, rng):
        for _ in range(20):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            for msg in (0, 1):
                psi = encode(u, msg)
                rho = partial_trace(np.outer(psi, psi.conj()), [2, 2, 4], {2})
                assert np.abs(rho - channel_density(u, msg)).max() < 1e-10


class TestChannelDensity:
    def test_identity(self, u_identity):
        rho = channel_density(u_identity, 0)
        assert np.allclose(rho, np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_xblock(self, u_xblock):
        rho = channel_density(u_xblock, 0)
        assert np.allclose(rho, np.diag([0.5, 0, 0.5, 0]), atol=1e-12)

    def test_density_operator_spectrum(self, rng):
        u = TaggingUnitary(haar_random_unitary(4, rng))
        w = np.linalg.eigvalsh(channel_density(u, 1))
        assert np.all(w > -1e-12) and np.all(w < 1 + 1e-12)
        assert abs(w.sum() - 1) < 1e-12

    def test_classical_key_mode_average(self, rng):
        for _ in range(10):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            for msg in (0, 1):
                a = channel_density(u, msg)
                b = channel_density_classical(u, msg)
                assert np.abs(a - b).max() < 1e-12


class TestDecode:
    def test_round_trip_restores_message(self, rng):
        for _ in range(20):
            u = TaggingUnitary(haar_random_unitary(4, rng))
            for msg in (0, 1):
                out = decode(u, encode(u, msg))
                expected = tensor(singlet(), MESSAGE_BASIS[:, msg])
                fidelity = abs(np.vdot(expected, out)) ** 2
                assert fidelity >= 1 - 1e-10

    def test_identity_is_identity_map(self, u_identity, rng):
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state /= np.linalg.norm(state)
        assert np.allclose(decode(u_identity, state), state, atol=1e-15)

    def test_norm_preserved(self, rng):
        u = TaggingUnitary(haar_random_unitary(4, rng))
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state /= np.linalg.norm(state)
        assert abs(np.linalg.norm(decode(u, state)) - 1) < 1e-12


class TestMeasurement:
    @pytest.mark.parametrize("outcome", [0, 1, 2, 3])
    def test_one_hot_on_basis_states(self, outcome):
        # Outcomes 0, 1 accept and 2, 3 reject.
        state = tensor(singlet(), MESSAGE_BASIS[:, outcome])
        dist = measurement_distribution(state)
        assert np.allclose(dist, np.eye(4)[outcome], rtol=0, atol=1e-15)

    def test_distribution_sums_to_one(self, rng):
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state /= np.linalg.norm(state)
        assert abs(measurement_distribution(state).sum() - 1) < 1e-12


class TestKeyFidelity:
    def test_singlet_tensor_anything(self, rng):
        msg = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        msg /= np.linalg.norm(msg)
        assert abs(key_fidelity(tensor(singlet(), msg)) - 1) < 1e-12

    def test_orthogonal_key(self):
        key = np.zeros(4, complex)
        key[0] = 1  # |00>
        assert key_fidelity(tensor(key, MESSAGE_BASIS[:, 0])) < 1e-12


class TestHonestRun:
    @pytest.mark.parametrize("name", ["identity", "x_block", "secure_example", "haar"])
    @pytest.mark.parametrize("message", [0, 1])
    def test_outcome_is_message(self, name, message, rng):
        mat = haar_random_unitary(4, rng) if name == "haar" else BUILTIN[name]()
        outcomes, fid = simulate_honest_batch(TaggingUnitary(mat), message, 200, rng)
        assert outcomes.shape == (200,) and np.all(outcomes == message)
        assert abs(fid - 1) < 1e-12

    def test_batch_acceptance(self, u_secure, rng):
        outcomes, fid = simulate_honest_batch(u_secure, 1, 2000, rng)
        assert np.all(outcomes == 1)
        assert abs(fid - 1) < 1e-12

    def test_batch_empty(self, u_secure, rng):
        outcomes, _ = simulate_honest_batch(u_secure, 0, 0, rng)
        assert outcomes.size == 0
