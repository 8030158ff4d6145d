import re

import numpy as np
import pytest

from qmac import adversary, protocol
from qmac.adversary import reuse_forgery_probability, simulate_key_reuse
from qmac.fixtures import BUILTIN
from qmac.linalg import _svd, dagger, haar_random_unitary, halmos_dilation, partial_trace, tensor
from qmac.protocol import (
    MESSAGE_BASIS,
    TaggingUnitary,
    channel_density,
    decode,
    density_key_fidelity,
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
        assert u.m0.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert u.m0[i, j] == u.u[i, j]
        with pytest.raises(ValueError):
            u.m0[0, 0] = 0

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            TaggingUnitary(np.diag([1, 1, 1, 2.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            TaggingUnitary(np.eye(3))


M0_ANALYSIS = ("m0_svd", "m0_moduli", "row_norms_sq", "row_parameters", "swap_mismatch")


def m0_analysis_oracle(m0):
    """The expressions M0's analysis was computed by before it was cached:
    np.linalg.norm for the rows, the scalar abs of each entry, the swap test
    on the columns, and np.linalg.svd, whose s[0] ** 2 was condition 2's
    sigma_max_sq."""
    r0, r1 = m0
    n0sq, n1sq = float(np.linalg.norm(r0) ** 2), float(np.linalg.norm(r1) ** 2)
    x = float(np.linalg.norm(r0) ** 2 - np.linalg.norm(r1) ** 2)
    y = float(2 * abs(r1 @ r0.conj()))
    z = float(np.linalg.norm(r1) ** 2)
    moduli = tuple(float(abs(m0[i, j])) for i in (0, 1) for j in (0, 1))
    c0, c1 = m0.T
    mismatch = float(max(abs(abs(c0[0]) - abs(c1[1])), abs(abs(c0[1]) - abs(c1[0]))))
    return {"m0_svd": np.linalg.svd(m0), "m0_moduli": moduli,
            "row_norms_sq": (n0sq, n1sq), "row_parameters": (x, y, z),
            "swap_mismatch": mismatch}


def test_m0_analysis_equals_uncached_expressions():
    rng = np.random.default_rng(20)
    mats = [make() for make in BUILTIN.values()] + [haar_random_unitary(4, rng)
                                                     for _ in range(200)]
    for mat in mats:
        u = TaggingUnitary(mat)
        want = m0_analysis_oracle(u.m0)
        for got, ref in zip(u.m0_svd, want.pop("m0_svd")):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        for name, ref in want.items():
            got = getattr(u, name)
            assert np.array(got).tobytes() == np.array(ref).tobytes(), name
            assert type(got) is type(ref)


def test_m0_analysis_is_lazy_and_kept(u_secure):
    # __init__ analyses nothing; each part is computed on its first read only.
    u = TaggingUnitary(u_secure.u)
    assert not set(M0_ANALYSIS) & set(vars(u))
    first = [getattr(u, name) for name in M0_ANALYSIS]
    assert set(M0_ANALYSIS) <= set(vars(u))
    assert all(getattr(u, name) is x for name, x in zip(M0_ANALYSIS, first))
    with pytest.raises(ValueError):
        u.m0_svd[1][0] = 0


def test_dilation_keeps_the_svd_it_was_built_from():
    # The SVD a designer candidate was judged on is the one its tagging
    # would take: M0's entries are the dilation's, bit for bit.
    rng = np.random.default_rng(21)
    for _ in range(200):
        m0 = haar_random_unitary(4, rng)[:2, :2]
        svd = _svd(m0)
        u = TaggingUnitary.dilation(m0, svd)
        assert u.u.tobytes() == halmos_dilation(m0).tobytes()
        assert u.m0_svd is svd and not any(part.flags.writeable for part in svd)
        for got, ref in zip(u.m0_svd, np.linalg.svd(u.m0)):
            assert got.tobytes() == ref.tobytes()


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


def previous_key_fidelity(state):
    """key_fidelity as it was before it dropped np.outer and np.real."""
    state = np.asarray(state, dtype=complex)
    rho_key = partial_trace(np.outer(state, state.conj()), (2, 2, state.size // 4), keep={0, 1})
    return float(np.real(singlet().conj() @ rho_key @ singlet()))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_key_fidelity_equals_previous_formulation(k):
    # Seeded states on (2, 2, k): random, normalised, with signed zeros in
    # about a third of the entries, and real; each fidelity is the previous
    # formulation's, bit for bit.
    rng = np.random.default_rng(5000 + k)
    zeros = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    for _ in range(200):
        state = rng.standard_normal(4 * k) + 1j * rng.standard_normal(4 * k)
        zeroed = state.copy()
        hit = rng.random(4 * k) < 1 / 3
        zeroed[hit] = rng.choice(zeros, hit.sum())
        for psi in (state, state / np.linalg.norm(state), zeroed, state.real, -0.0 * state,
                    state.reshape(-1, 1)):
            assert key_fidelity(psi).hex() == previous_key_fidelity(psi).hex()


@pytest.mark.parametrize("size", [2, 6, 10])
def test_key_fidelity_error_equals_previous_formulation(size):
    # A state that is not key ⊗ rest: partial_trace's message on its dims.
    state = np.ones(size, complex)
    with pytest.raises(ValueError) as previous:
        previous_key_fidelity(state)
    with pytest.raises(ValueError, match=f"^{re.escape(str(previous.value))}$"):
        key_fidelity(state)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_density_key_fidelity_of_a_mixture_is_the_mean(k):
    # Fidelity is linear in the density operator: a weighted mixture's is the
    # weighted mean of its states' key_fidelity, up to rounding.
    rng = np.random.default_rng(6000 + k)
    states = rng.standard_normal((5, 4 * k)) + 1j * rng.standard_normal((5, 4 * k))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    weights = rng.random(5)
    weights /= weights.sum()
    mixture = (states.T * weights) @ states.conj()
    mean = sum(p * key_fidelity(psi) for p, psi in zip(weights, states))
    assert density_key_fidelity(mixture) == pytest.approx(mean, abs=1e-12)
    assert density_key_fidelity(np.outer(states[0], states[0].conj())) == key_fidelity(states[0])


@pytest.mark.parametrize("module, name", [
    (protocol, "I2"), (protocol, "I4"), (protocol, "MESSAGE_BASIS"),
    (protocol, "ACCEPT_PROJECTOR"), (protocol, "_SINGLET"), (protocol, "_SINGLET_BRA"),
    (adversary, "_START"),
])
def test_module_constant_arrays_are_read_only(module, name):
    # A write would change every later result in the process: I4[0, 0] = 0.5
    # once dropped best_message_attack(secure_example, budget=500, rng=0)
    # from 0.8599751 to 0.5704214.
    array = getattr(module, name)
    before = array.copy()
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 0.5
    assert array.tobytes() == before.tobytes()


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


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda u: decode(u, np.zeros(8)), "16-dim vector", id="decode-8-dim"),
    pytest.param(lambda u: channel_density(u, 2), "message must be 0 or 1",
                 id="channel_density-message-2"),
])
def test_bad_input_rejected(u_secure, call, match):
    with pytest.raises(ValueError, match=match):
        call(u_secure)


# Each call with the bit under test; the message or forge bit is the last argument.
BIT_CALLS = [
    pytest.param(lambda u, bit: encode(u, bit), "message", id="encode"),
    pytest.param(lambda u, bit: channel_density(u, bit), "message", id="channel_density"),
    pytest.param(lambda u, bit: simulate_honest_batch(u, bit, 5, np.random.default_rng(0))[0],
                 "message", id="simulate_honest_batch"),
    pytest.param(lambda u, bit: reuse_forgery_probability(u, np.eye(8), forge_bit=bit),
                 "forge_bit", id="reuse_forgery_probability"),
    pytest.param(lambda u, bit: simulate_key_reuse(u, 1, np.eye(8), np.random.default_rng(0),
                                                   trials=5, forge_bit=bit).forgery_successes,
                 "forge_bit", id="simulate_key_reuse"),
]


@pytest.mark.parametrize("call, name", BIT_CALLS)
@pytest.mark.parametrize("bit", [True, np.True_, 1.0, 2, -1, "1"], ids=repr)
def test_bit_must_be_an_integer_0_or_1(u_secure, call, name, bit):
    with pytest.raises(ValueError, match=f"^{name} must be 0 or 1$"):
        call(u_secure, bit)


@pytest.mark.parametrize("call, name", BIT_CALLS)
def test_numpy_integer_bit_matches_int(u_secure, call, name):
    assert np.array_equal(call(u_secure, np.int64(1)), call(u_secure, 1))
