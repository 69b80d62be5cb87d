"""Tests for the truncated Fock-space toolbox."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_laguerre

from tbswap.fock import (
    ModeOperator,
    MultiModeOperator,
    TruncationConfig,
    annihilation,
    basis_index,
    beam_splitter_unitary,
    creation,
    fock_state,
    fock_vector,
    number_projector,
    partial_trace,
    tensor,
    thermal_state,
    thermal_tail_mass,
)

from conftest import chi_tilde, ginibre_density, overlap_by_quadrature
from reference import characteristic_function, characteristic_function_joint

UNITARITY_TOL = 1e-10
DENSITY_TOL = 1e-10
CHI_CLOSED_FORM_TOL = 1e-8
OVERLAP_TOL = 1e-4


def test_fock_vector_basics():
    v = fock_vector(2, 5)
    assert v.shape == (5,)
    assert v[2] == 1.0
    assert np.count_nonzero(v) == 1
    with pytest.raises(ValueError):
        fock_vector(5, 5)
    with pytest.raises(ValueError):
        fock_vector(-1, 5)


def test_fock_state_is_projector():
    rho = fock_state(1, 4)
    m = rho.entries
    np.testing.assert_allclose(m, m @ m, atol=1e-15)
    assert rho.trace() == pytest.approx(1.0)


def test_ladder_matrix_elements():
    a = annihilation(6).entries
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    adag = creation(6).entries
    np.testing.assert_allclose(adag, a.conj().T)


def test_commutator_canonical_below_top_level():
    d = 7
    a = annihilation(d).entries
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(d)
    expected[-1, -1] = -(d - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_operator_entries_immutable():
    rho = fock_state(0, 3)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 2.0
    u = beam_splitter_unitary(2)
    with pytest.raises(ValueError):
        u.entries[0, 0] = 2.0


def test_thermal_state_shape_and_mean():
    nbar = 0.3
    d = 24
    rho = thermal_state(nbar, d)
    assert rho.trace() == pytest.approx(1.0, abs=1e-14)
    diag = np.diag(rho.entries).real
    # geometric law between consecutive levels
    ratios = diag[1:] / diag[:-1]
    np.testing.assert_allclose(ratios, nbar / (1.0 + nbar), atol=1e-12)
    mean = float(np.arange(d) @ diag)
    assert mean == pytest.approx(nbar, abs=1e-6)


def test_thermal_tail_mass_closed_form():
    assert thermal_tail_mass(0.0, 5) == 0.0
    assert thermal_tail_mass(math.inf, 8) == 1.0  # the limit, not inf/inf
    nbar, d = 0.4, 8
    r = nbar / (1.0 + nbar)
    direct = sum(r**m / (1.0 + nbar) for m in range(d, 400))
    assert thermal_tail_mass(nbar, d) == pytest.approx(direct, rel=1e-10)


@given(st.floats(min_value=0.0, max_value=2.0), st.integers(min_value=2, max_value=20))
def test_thermal_tail_decreases_with_dimension(nbar, d):
    assert thermal_tail_mass(nbar, d + 1) <= thermal_tail_mass(nbar, d)


def test_truncation_config_for_encoding():
    cfg = TruncationConfig.for_encoding(1)
    assert cfg.d_sys == 4
    assert TruncationConfig.for_encoding(2).d_sys == 5


def test_beam_splitter_unitarity():
    for d in (2, 3, 5):
        u = beam_splitter_unitary(d).entries
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d * d), atol=UNITARITY_TOL)


def test_beam_splitter_unitary_matches_expm():
    """The eigendecomposition exponential equals scipy's expm of the
    generator (pi/2) sum_ij (I - S)_ij a_i+ a_j, S the port-mixing matrix."""
    h = (math.pi / 2.0) * (np.eye(2) - np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    for d in range(2, 11):
        a = annihilation(d).entries
        ladders = [np.kron(a, np.eye(d)), np.kron(np.eye(d), a)]
        gen = sum(h[i, j] * ladders[i].conj().T @ ladders[j] for i in range(2) for j in range(2))
        np.testing.assert_allclose(beam_splitter_unitary(d).entries, expm(-1j * gen),
                                   rtol=0.0, atol=1e-13)


def test_beam_splitter_unitary_cache_is_bounded():
    maxsize = beam_splitter_unitary.cache_parameters()["maxsize"]
    assert maxsize is not None
    for d in range(2, maxsize + 7):
        beam_splitter_unitary(d)
    assert beam_splitter_unitary.cache_info().currsize <= maxsize


def test_beam_splitter_heisenberg_action():
    """U+ a_A U = (a_A + a_B)/sqrt(2) on columns whose image stays inside
    the truncation (total photon number at most d - 2 after the ladder)."""
    d = 5
    u = beam_splitter_unitary(d).entries
    a = annihilation(d).entries
    eye = np.eye(d)
    a_A = np.kron(a, eye)
    a_B = np.kron(eye, a)
    lhs = u.conj().T @ a_A @ u
    rhs = (a_A + a_B) / math.sqrt(2.0)
    lhs_B = u.conj().T @ a_B @ u
    rhs_B = (a_A - a_B) / math.sqrt(2.0)
    for na in range(d):
        for nb in range(d):
            if na + nb > d - 1:
                continue
            col = basis_index((na, nb), (d, d))
            np.testing.assert_allclose(lhs[:, col], rhs[:, col], atol=1e-10)
            np.testing.assert_allclose(lhs_B[:, col], rhs_B[:, col], atol=1e-10)


def test_beam_splitter_single_photon_split():
    d = 3
    u = beam_splitter_unitary(d).entries
    vec_in = np.zeros(d * d, dtype=complex)
    vec_in[basis_index((1, 0), (d, d))] = 1.0
    out = u @ vec_in
    expected = np.zeros(d * d, dtype=complex)
    expected[basis_index((1, 0), (d, d))] = 1.0 / math.sqrt(2)
    expected[basis_index((0, 1), (d, d))] = 1.0 / math.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_hong_ou_mandel_dip():
    """Two indistinguishable photons never exit on opposite ports."""
    d = 4
    u = beam_splitter_unitary(d).entries
    col = basis_index((1, 1), (d, d))
    amp_11 = u[col, col]
    assert abs(amp_11) < 1e-12
    amp_20 = u[basis_index((2, 0), (d, d)), col]
    amp_02 = u[basis_index((0, 2), (d, d)), col]
    assert abs(amp_20) == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)
    assert abs(amp_02) == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)


def test_characteristic_function_vacuum():
    rho = fock_state(0, 8)
    for xi in (0.5, 1.0 + 0.5j, -1.3j, 2.0):
        chi = characteristic_function(rho, xi)
        assert chi == pytest.approx(math.exp(-abs(xi) ** 2 / 2.0), abs=1e-10)


def test_characteristic_function_single_photon():
    rho = fock_state(1, 8)
    for xi in (0.3, 0.9 - 0.4j, 1.7j):
        chi = characteristic_function(rho, xi)
        x2 = abs(xi) ** 2
        assert chi == pytest.approx((1.0 - x2) * math.exp(-x2 / 2.0), abs=1e-10)


def test_characteristic_function_unit_trace_at_origin():
    rng = np.random.default_rng(11)
    rho = ModeOperator(5, ginibre_density(5, rng))
    assert characteristic_function(rho, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_characteristic_function_matches_closed_form():
    """chi for |n><n| equals L_n(|xi|^2) e^{-|xi|^2/2} over |xi| <= 2."""
    d = 12
    for n in range(4):
        rho = fock_state(n, d)
        for xi in (0.25, 0.8 + 0.6j, 1.5 - 1.0j, 2.0, 1.9j):
            got = characteristic_function(rho, xi)
            x2 = abs(xi) ** 2
            want = eval_laguerre(n, x2) * math.exp(-x2 / 2.0)
            assert got == pytest.approx(want, abs=CHI_CLOSED_FORM_TOL)


def test_characteristic_function_joint_factors():
    rho_a = fock_state(0, 5)
    rho_b = fock_state(1, 5)
    op = tensor([rho_a, rho_b])
    xi_a, xi_b = 0.4 + 0.2j, -0.3 + 0.7j
    joint = characteristic_function_joint(op, [xi_a, xi_b])
    sep = characteristic_function(rho_a, xi_a) * characteristic_function(rho_b, xi_b)
    assert joint == pytest.approx(sep, abs=1e-10)


def test_tensor_and_partial_trace_roundtrip():
    rng = np.random.default_rng(3)
    rho = ginibre_density(3, rng)
    sigma = ginibre_density(4, rng)
    joint = tensor([ModeOperator(3, rho), ModeOperator(4, sigma)])
    assert joint.mode_dims == (3, 4)
    back = partial_trace(joint, [1])
    assert isinstance(back, ModeOperator)
    np.testing.assert_allclose(back.entries, rho, atol=1e-13)
    other = partial_trace(joint, [0])
    np.testing.assert_allclose(other.entries, sigma, atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    op = tensor([ModeOperator(2, ginibre_density(2, rng)) for _ in range(3)])
    reduced = partial_trace(op, [0, 2])
    assert reduced.trace().real == pytest.approx(op.trace().real, abs=1e-12)


def test_partial_trace_rejects_bad_modes():
    op = tensor([fock_state(0, 2), fock_state(0, 2)])
    with pytest.raises(ValueError):
        partial_trace(op, [2])
    with pytest.raises(ValueError):
        partial_trace(op, [0, 1])


def test_basis_index_row_major():
    assert basis_index((0, 0), (3, 3)) == 0
    assert basis_index((1, 0), (3, 3)) == 3
    assert basis_index((1, 2), (3, 4)) == 6
    with pytest.raises(ValueError):
        basis_index((3, 0), (3, 3))


def test_number_projector_matches_outer_product():
    proj = number_projector([1, 0], [3, 3])
    expected = np.zeros((9, 9), dtype=complex)
    expected[3, 3] = 1.0
    np.testing.assert_allclose(proj.entries, expected)
    assert proj.mode_dims == (3, 3)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_density_matrix_wellformed(seed):
    rng = np.random.default_rng(seed)
    rho = ginibre_density(4, rng)
    assert np.trace(rho).real == pytest.approx(1.0, abs=DENSITY_TOL)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -DENSITY_TOL


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=8, deadline=None)
def test_overlap_quadrature_matches_trace(seed, d_rho, d_sigma):
    """Phase-space overlap integral reproduces the Fock-space trace.

    The quadrature helper evaluates the integrand from envelope-free
    displacement matrix elements, an entirely separate route from
    characteristic_function, so agreement here checks both.
    """
    rng = np.random.default_rng(seed)
    d = max(d_rho, d_sigma)
    rho = np.zeros((d, d), dtype=complex)
    rho[:d_rho, :d_rho] = ginibre_density(d_rho, rng)
    sigma = np.zeros((d, d), dtype=complex)
    sigma[:d_sigma, :d_sigma] = ginibre_density(d_sigma, rng)
    got = overlap_by_quadrature(rho, sigma)
    want = np.trace(sigma @ rho).real
    assert got == pytest.approx(want, abs=OVERLAP_TOL)


def test_quadrature_integrand_ties_to_module_chi():
    """chi_tilde * e^{-|xi|^2/2} is the module's characteristic function."""
    rng = np.random.default_rng(17)
    rho = ginibre_density(4, rng)
    op = ModeOperator(4, rho)
    for xi in (0.3 + 0.4j, 1.5 - 0.2j, -2.0 + 1.0j):
        via_module = characteristic_function(op, xi)
        via_helper = chi_tilde(rho, xi) * math.exp(-abs(xi) ** 2 / 2.0)
        assert via_module == pytest.approx(via_helper, abs=1e-12)


def test_mode_operator_shape_validation():
    with pytest.raises(ValueError):
        ModeOperator(3, np.eye(4))
    with pytest.raises(ValueError):
        MultiModeOperator((2, 3), np.eye(5))
    with pytest.raises(ValueError):
        MultiModeOperator((), np.eye(1))
