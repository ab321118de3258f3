import math

import numpy as np
import pytest
from scipy.special import gammaln, ndtr

from gnmqsim import circuits as qc
from gnmqsim import stateprep as sp
from statevector_oracle import apply, basis_state

# first draws of the keyed generator, frozen as regression anchors
CBRNG_SEED0 = [0, 2537880150861722, 7228738252910261, 4337494104106618]
CBRNG_SEED42 = [1015161159192478, 3396811744637668, 8339846679597648]


def test_cbrng_frozen_values():
    assert [sp.cbrng(0, c) for c in range(4)] == CBRNG_SEED0
    assert [sp.cbrng(0x2A, c) for c in range(3)] == CBRNG_SEED42
    assert sp.MAX_R == 2 ** 53 - 1


def test_cbrng_array_matches_scalar():
    counters = np.arange(17, dtype=np.uint64)
    arr = sp.cbrng_array(9, counters)
    assert arr.tolist() == [sp.cbrng(9, int(c)) for c in counters]
    assert counters.tolist() == list(range(17))   # mixed in a copy


def test_cbrng_range_and_spread():
    draws = sp.cbrng_array(1, np.arange(4096, dtype=np.uint64))
    assert draws.min() >= 0
    assert draws.max() <= sp.MAX_R
    # crude equidistribution: mean near the middle of the range
    assert abs(draws.mean() / sp.MAX_R - 0.5) < 0.02


def test_uniform_window_is_pure_function_of_counters():
    a = sp.uniforms(7, 100, 50)
    b = sp.uniforms(7, 100, 50)
    assert np.array_equal(a, b)
    c = sp.uniforms(7, 125, 25)
    assert np.array_equal(a[25:], c)
    assert np.all((a >= 0) & (a <= 1))


def test_standard_normals_frozen_head():
    got = sp.standard_normals(7, 0, 4)
    want = [0.6154263096123523, -1.021118069633341,
            -0.36883919190506076, 1.108783382322339]
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_standard_normals_pair_consumption():
    # draw k lives at counter start + 2*(k//2): prefixes agree
    long = sp.standard_normals(3, 40, 12)
    assert np.array_equal(sp.standard_normals(3, 40, 9), long[:9])
    # pair 5 sits at counters 50,51 regardless of where the window began
    tail = sp.standard_normals(3, 50, 2)
    assert np.array_equal(long[10:12], tail)


def test_standard_normals_reject_a_negative_count():
    with pytest.raises(ValueError, match=r"count must be nonnegative, got -1"):
        sp.standard_normals(3, 40, -1)


def test_standard_normals_array_starts_match_per_start_calls():
    starts = np.array([0, 7, 40, 41, 2 ** 40 + 3], dtype=np.uint64)
    for count in (1, 5, 6):
        block = sp.standard_normals(3, starts, count)
        assert block.shape == (len(starts), count)
        for row, start in zip(block, starts.tolist()):
            assert np.array_equal(row, sp.standard_normals(3, start, count))


def box_muller_reference(seed: int, start: int, count: int) -> np.ndarray:
    """Box-Muller on scalar cbrng draws, one temporary per step."""
    pairs = (count + 1) // 2
    r = np.array([sp.cbrng(seed, start + k) for k in range(2 * pairs)])
    u1 = (r[0::2] + 1.0) / (sp.MAX_R + 1.0)
    u2 = r[1::2] / sp.MAX_R
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(2.0 * np.pi * u2)
    out[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return out[:count]


@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
def test_standard_normals_equal_the_reference_bit_for_bit(seed):
    starts = np.array([0, 7, 2 ** 40 + 3], dtype=np.uint64)
    for count in (1, 6, 45, 300):
        block = sp.standard_normals(seed, starts, count)
        for row, start in zip(block, starts.tolist()):
            assert np.array_equal(row, box_muller_reference(seed, start, count))


def test_standard_normals_moments():
    z = sp.standard_normals(11, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs((z ** 3).mean()) < 0.02


def test_rademacher_frozen_and_balanced():
    assert sp.rademacher(5, 0, 8).tolist() == [1, 1, -1, 1, 1, -1, -1, -1]
    s = sp.rademacher(5, 0, 100_000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.01


def test_angle_exponent_ladder():
    assert [sp.angle_exponent(4, l) for l in (1, 2, 3, 4)] == [7, 3, 1, 0]
    with pytest.raises(ValueError):
        sp.angle_exponent(4, 5)


def _log_density_norm(a: int) -> float:
    """log of Z_p = integral_0^{pi/2} sin^a(2 theta) d theta."""
    return (0.5 * math.log(math.pi) + gammaln((a + 1) / 2.0)
            - gammaln(a / 2.0 + 1.0) - math.log(2.0))


def envelope_constant(n: int, level: int) -> float:
    """Analytic envelope Q >= p/q, attained at theta = pi/4.

    Q = Z_q * sigma * sqrt(2 pi) / Z_p with Z_q the proposal's truncation
    mass; 1/Q is the exact acceptance probability of the rejection loop.
    """
    a = sp.angle_exponent(n, level)
    if a == 0:
        return 1.0
    sigma = sp.proposal_sigma(a)
    h = (math.pi / 4.0) / sigma
    z_q = ndtr(h) - ndtr(-h)
    return z_q * sigma * math.sqrt(2.0 * math.pi) / math.exp(_log_density_norm(a))


def test_envelope_acceptance_is_order_one():
    # 1/Q is the exact acceptance probability of the rejection loop
    for n in (4, 8, 10):
        for level in range(1, n + 1):
            Q = envelope_constant(n, level)
            assert Q >= 1.0 - 1e-12
            assert 1.0 / Q >= 0.3


def test_sample_angle_deterministic_and_in_range():
    audit = []
    th1 = sp.sample_angle(6, 2, 3, seed=17, audit=audit)
    th2 = sp.sample_angle(6, 2, 3, seed=17)
    assert th1 == th2
    assert 0.0 < th1 < math.pi / 2
    base, used = audit[0]
    assert base == sp.counter_base(6, 2, 3)
    assert used % 2 == 0 and used >= 2


@pytest.mark.parametrize("branch", [-16, -1, 16, 17])
def test_sample_angle_rejects_a_branch_outside_its_levels_windows(branch):
    # level 2 of n = 4 owns windows 32..47: branch -16 would read level 1's
    # branch-0 window and branch 16 level 3's
    with pytest.raises(ValueError, match=rf"branch {branch} outside 0..15: its counter window"):
        sp.sample_angle(4, 2, branch, seed=17)


def test_cached_proposal_constants_are_ndtr_bit_for_bit():
    # every exponent a > 0 of the n <= 12 trees: a = 2^(n - level) - 1
    for n in range(2, 13):
        for level in range(1, n):
            sp.sample_angle(n, level, 0, seed=3)
    exponents = {2 ** k - 1 for k in range(1, 12)}
    assert exponents <= set(sp._PROPOSALS)
    for a in exponents:
        sigma, phi_lo, phi_hi, _ = sp._PROPOSALS[a]
        h = (math.pi / 4.0) / sp.proposal_sigma(a)
        got = np.array([sigma, phi_lo, phi_hi])
        want = np.array([sp.proposal_sigma(a), ndtr(-h), ndtr(h)])
        assert got.tobytes() == want.tobytes(), a


def test_sample_angle_matches_target_density():
    # level with a = 3: E[cos 2theta] = 0 by symmetry, Var known via beta
    n, level = 4, 2
    draws = np.array([sp.sample_angle(n, level, b, seed=23)
                      for b in range(2 ** n)] +
                     [sp.sample_angle(n, level, b, seed=24)
                      for b in range(2 ** n)])
    # symmetric about pi/4
    assert abs(np.mean(draws) - math.pi / 4) < 0.05


def test_counter_windows_disjoint():
    seen = set()
    n = 5
    for level in range(1, n + 1):
        for branch in range(2 ** n):
            base = sp.counter_base(n, level, branch)
            span = (base, base + sp.COUNTER_WINDOW)
            assert span not in seen
            seen.add(span)
    starts = sorted(s for s, _ in seen)
    for (a, b) in zip(starts, starts[1:]):
        assert b - a >= sp.COUNTER_WINDOW
    assert sp.sign_counter_base(n, 0) >= max(starts) + sp.COUNTER_WINDOW


def test_prepare_gaussian_state_deterministic():
    c1, v1 = sp.prepare_gaussian_state(6, seed=0x2A)
    c2, v2 = sp.prepare_gaussian_state(6, seed=0x2A)
    assert np.array_equal(np.asarray(v1), np.asarray(v2))
    assert qc.serialize_circuit(c1) == qc.serialize_circuit(c2)
    _, v3 = sp.prepare_gaussian_state(6, seed=0x2B)
    assert not np.array_equal(np.asarray(v1), np.asarray(v3))


@pytest.mark.parametrize("n", [True, 2.5, 3.0, "4"])
def test_prepare_gaussian_state_rejects_a_qubit_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=rf"n must be an integer qubit count, got {n!r}"):
        sp.prepare_gaussian_state(n, seed=0x2A)


def test_prepare_gaussian_state_takes_a_numpy_integer_qubit_count():
    want = sp.prepare_gaussian_state(3, seed=0x2A)[1]
    assert np.array_equal(sp.prepare_gaussian_state(np.int64(3), seed=0x2A)[1], want)


def test_prepare_gaussian_state_is_normalized_real():
    _, vec = sp.prepare_gaussian_state(8, seed=5)
    vec = np.asarray(vec)
    assert vec.shape == (256,)
    assert np.all(vec.imag == 0.0)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_prepare_gaussian_state_circuit_simulates_to_vector():
    # the closed-form state is the gate walk of its own circuit, byte for byte
    for seed in (0x2A, 1, 0xDEADBEEF, 0xBEEF):
        for n in range(1, 13):
            audit = []
            circ, vec = sp.prepare_gaussian_state(n, seed, audit)
            walked = apply(circ, basis_state(n))
            assert vec.dtype == np.complex128 and vec.shape == (2 ** n,)
            assert vec.tobytes() == walked.tobytes(), (n, seed)
            assert np.all(vec.imag == 0.0) and not np.any(np.signbit(vec.imag))
            # angles are drawn level by level, Gray-code branch order within
            bases = [sp.counter_base(n, level, k ^ (k >> 1))
                     for level in range(1, n + 1) for k in range(2 ** (level - 1))]
            bases += [sp.sign_counter_base(n, j) for j in range(2 ** n)]
            assert [base for base, _ in audit] == bases


def test_gaussian_amplitudes_look_normal():
    vals = []
    for seed in range(8):
        _, vec = sp.prepare_gaussian_state(8, seed)
        vals.append(np.asarray(vec).real * math.sqrt(vec.size))
    pooled = np.concatenate(vals)
    assert abs(pooled.mean()) < 0.05
    assert abs(pooled.std() - 1.0) < 0.05


def test_prepare_ensemble_state_depth_two_identity():
    for n in (1, 2, 4):
        circ, rho = sp.prepare_ensemble_state(n)
        assert circ.depth == 2
        assert np.array_equal(rho, np.eye(2 ** n) / 2 ** n)


def test_prepare_ensemble_state_circuit_walks_to_pair_pattern():
    for n in range(1, 7):
        circ, _ = sp.prepare_ensemble_state(n)
        dim = 2 ** n
        pattern = apply(circ, basis_state(2 * n)).reshape(dim, dim)
        assert np.all(pattern - np.diag(np.diag(pattern)) == 0)
        assert np.allclose(np.diag(pattern).real, dim ** -0.5, rtol=1e-12, atol=0)
        assert np.all(np.diag(pattern).imag == 0)


def test_encode_initial_conditions(chain5_gnm):
    u0 = np.array([0.3, -0.1, 0.0, 0.2, -0.4])
    v0 = np.array([0.0, 0.1, 0.0, -0.2, 0.1])
    enc = sp.encode_initial_conditions(chain5_gnm, u0, v0)
    assert np.linalg.norm(enc.psi) == pytest.approx(1.0, abs=1e-12)
    assert enc.energy > 0
    assert enc.n_dof == 5
    from gnmqsim.errors import EncodingError
    with pytest.raises(EncodingError):
        sp.encode_initial_conditions(chain5_gnm, np.zeros(5), np.zeros(5))


@pytest.mark.parametrize("name", ["u0", "v0"])
def test_encode_names_the_wrong_length_argument(chain5_gnm, name):
    from gnmqsim.errors import EncodingError
    short, fine = np.zeros(4), np.ones(5)
    u0, v0 = (short, fine) if name == "u0" else (fine, short)
    with pytest.raises(EncodingError,
                       match=rf"^{name} has shape \(4,\), expected \(5,\)$"):
        sp.encode_initial_conditions(chain5_gnm, u0, v0)
    assert issubclass(EncodingError, ValueError)
