"""Tests for thermal-loss channel parameters, the transducer map, and the
two channel representations (closed-form characteristic function versus
beam-splitter dilation in truncated Fock space)."""

import math

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_laguerre

from tbswap.channel import (
    BOLTZMANN,
    PLANCK,
    ChannelParams,
    TransducerParams,
    UnphysicalChannelError,
    _mixing_unitary,
    apply_channel_closed_form,
    apply_channel_oracle,
    bose_einstein,
    transducer_to_channel,
)
from tbswap.fock import (
    ModeOperator,
    MultiModeOperator,
    TruncationConfig,
    TruncationError,
    fock_state,
    partial_trace,
    tensor,
    thermal_state,
)

from conftest import ginibre_density
from reference import characteristic_function

CHI_AGREEMENT_TOL = 1e-5
COMPOSITION_TOL = 1e-8
ORACLE_IDENTITY_TOL = 1e-12
DENSE_REFERENCE_TOL = 1e-12

# Occupation of a 9 GHz mode at 180 mK; 5 GHz at 100 mK has the same h f / k T
# and therefore the identical value.
NBAR_9GHZ_180MK = 0.09981030749537732


def test_channel_params_derived_views():
    p = ChannelParams(eta=0.6, N=0.3)
    assert p.t == pytest.approx(0.8 + 0.3)
    assert p.physicality_margin == pytest.approx(0.3 - 0.2)
    assert p.nbar == pytest.approx(0.3 / 0.4 - 0.5)
    assert not p.is_identity
    assert not p.is_pure_loss


def test_channel_params_from_eta_nbar_roundtrip():
    p = ChannelParams.from_eta_nbar(0.7, 0.25)
    assert p.N == pytest.approx(0.3 * 0.75)
    assert p.nbar == pytest.approx(0.25)
    assert p.t == pytest.approx(1.0 + 0.3 * 0.25)


def test_channel_params_identity_and_pure_loss_flags():
    ident = ChannelParams(eta=1.0, N=0.0)
    assert ident.is_identity
    assert ident.is_pure_loss
    assert ident.nbar == 0.0
    loss = ChannelParams.from_eta_nbar(0.4, 0.0)
    assert loss.is_pure_loss
    assert not loss.is_identity


def test_channel_params_rejects_unphysical():
    with pytest.raises(UnphysicalChannelError) as exc:
        ChannelParams(eta=0.9, N=0.01)
    assert exc.value.margin == pytest.approx(0.01 - 0.05)


def test_channel_params_rejects_noise_at_unit_transmissivity():
    with pytest.raises(ValueError, match="eta = 1"):
        ChannelParams(eta=1.0, N=0.2)


def test_channel_params_domain_errors():
    with pytest.raises(ValueError):
        ChannelParams(eta=1.2, N=0.0)
    with pytest.raises(ValueError):
        ChannelParams(eta=0.5, N=-0.1)
    with pytest.raises(ValueError):
        ChannelParams.from_eta_nbar(0.5, -0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_channel_params_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(eta=0.5, N=bad)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams.from_eta_nbar(0.5, bad)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams.from_eta_nbar(1.0, bad)
    with pytest.raises(ValueError):
        ChannelParams(eta=bad, N=0.5)


@given(st.floats(min_value=0.0, max_value=0.999),
       st.floats(min_value=0.0, max_value=3.0))
def test_from_eta_nbar_always_physical(eta, nbar):
    p = ChannelParams.from_eta_nbar(eta, nbar)
    assert p.physicality_margin >= 0.0
    assert p.nbar == pytest.approx(nbar, abs=1e-9)


def test_transducer_identity_point():
    p = transducer_to_channel(TransducerParams(zeta_m=1.0, zeta_o=1.0, C=1.0, nth=0.0))
    assert p.eta == pytest.approx(1.0)
    assert p.N == pytest.approx(0.0, abs=1e-15)
    assert p.is_identity


def test_transducer_landmark_operating_point():
    p = transducer_to_channel(TransducerParams(zeta_m=0.9, zeta_o=0.9, C=0.65, nth=0.1))
    assert p.eta == pytest.approx(0.7735537190082646, rel=1e-12)
    assert p.N == pytest.approx(0.12181818181818177, rel=1e-12)
    assert p.physicality_margin > 0.0


def test_transducer_zero_cooperativity_gives_vacuum_noise_floor():
    p = transducer_to_channel(TransducerParams(zeta_m=0.7, zeta_o=0.8, C=0.0, nth=0.3))
    assert p.eta == 0.0
    assert p.N == 0.5
    assert p.physicality_margin == pytest.approx(0.0, abs=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_transducer_map_always_physical(zeta_m, zeta_o, C, nth):
    p = transducer_to_channel(TransducerParams(zeta_m=zeta_m, zeta_o=zeta_o, C=C, nth=nth))
    assert p.physicality_margin >= -1e-15


def test_transducer_efficiency_monotone_in_extraction():
    etas = [
        transducer_to_channel(TransducerParams(zeta_m=z, zeta_o=0.9, C=0.8, nth=0.1)).eta
        for z in (0.5, 0.7, 0.9)
    ]
    assert etas[0] < etas[1] < etas[2]


def test_transducer_efficiency_peaks_at_unit_cooperativity():
    def eta_at(C):
        return transducer_to_channel(
            TransducerParams(zeta_m=0.9, zeta_o=0.9, C=C, nth=0.1)
        ).eta

    assert eta_at(0.5) < eta_at(1.0)
    assert eta_at(1.5) < eta_at(1.0)
    assert eta_at(1.0) == pytest.approx(0.81)


@given(st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.01, max_value=1.0))
def test_transducer_efficiency_increasing_below_unit_cooperativity(c1, c2):
    lo, hi = sorted((c1, c2))
    base = dict(zeta_m=0.8, zeta_o=0.8, nth=0.0)
    eta_lo = transducer_to_channel(TransducerParams(C=lo, **base)).eta
    eta_hi = transducer_to_channel(TransducerParams(C=hi, **base)).eta
    assert eta_lo <= eta_hi + 1e-15


def test_transducer_rejects_bad_domain():
    with pytest.raises(ValueError):
        TransducerParams(zeta_m=1.1, zeta_o=0.9, C=0.5, nth=0.1)
    with pytest.raises(ValueError):
        TransducerParams(zeta_m=0.9, zeta_o=0.9, C=-0.5, nth=0.1)
    with pytest.raises(ValueError):
        TransducerParams(zeta_m=0.9, zeta_o=0.9, C=0.5, nth=-0.1)


def test_si_constants_equal_scipy():
    """Both are exact by definition in the 2019 SI."""
    assert PLANCK == scipy.constants.h
    assert BOLTZMANN == scipy.constants.k


def test_bose_einstein_reference_points():
    occ = bose_einstein(9e9, 0.18)
    assert occ == pytest.approx(NBAR_9GHZ_180MK, rel=1e-12)
    assert occ == pytest.approx(0.100, abs=0.005)
    # same ratio f/T, same occupation
    assert bose_einstein(5e9, 0.1) == pytest.approx(occ, rel=1e-12)


def test_bose_einstein_limits_and_errors():
    assert bose_einstein(9e9, 0.0) == 0.0
    assert bose_einstein(1e15, 0.001) == 0.0  # far beyond exp overflow, clamps to empty
    with pytest.raises(ValueError):
        bose_einstein(0.0, 0.1)
    with pytest.raises(ValueError):
        bose_einstein(9e9, -0.1)


@given(st.floats(min_value=1e8, max_value=1e12),
       st.floats(min_value=1e-3, max_value=10.0))
def test_bose_einstein_monotone(f, t):
    occ = bose_einstein(f, t)
    assert occ >= 0.0
    assert bose_einstein(f * 1.5, t) <= occ
    assert bose_einstein(f, t * 1.5) >= occ


def test_closed_form_identity_channel_is_identity_map():
    ident = ChannelParams(eta=1.0, N=0.0)
    rho = fock_state(1, 8)
    chi_in = lambda xi: characteristic_function(rho, xi)
    chi_out = apply_channel_closed_form(chi_in, ident)
    for xi in (0.3, 0.8 - 0.5j, 1.4j):
        assert chi_out(xi) == pytest.approx(chi_in(xi), abs=1e-13)


def test_closed_form_single_photon_output():
    """One photon through (eta, N): chi = L1(eta |xi|^2) e^{-(eta/2 + N)|xi|^2}."""
    p = ChannelParams.from_eta_nbar(0.6, 0.2)
    rho = fock_state(1, 10)
    chi_out = apply_channel_closed_form(lambda xi: characteristic_function(rho, xi), p)
    for xi in (0.4, 1.1 + 0.3j, -0.7j):
        x2 = abs(xi) ** 2
        want = eval_laguerre(1, p.eta * x2) * math.exp(-(p.eta / 2.0 + p.N) * x2)
        assert chi_out(xi) == pytest.approx(want, abs=1e-9)


def test_closed_form_preserves_trace_at_origin():
    p = ChannelParams.from_eta_nbar(0.35, 0.8)
    rng = np.random.default_rng(23)
    rho = ModeOperator(4, ginibre_density(4, rng))
    chi_out = apply_channel_closed_form(lambda xi: characteristic_function(rho, xi), p)
    assert chi_out(0.0) == pytest.approx(1.0, abs=1e-12)


def test_oracle_identity_passthrough():
    cfg = TruncationConfig(d_sys=6, d_env=8)
    rng = np.random.default_rng(31)
    rho = ModeOperator(6, ginibre_density(6, rng))
    out = apply_channel_oracle(rho, ChannelParams(eta=1.0, N=0.0), cfg)
    np.testing.assert_allclose(out.entries, rho.entries, atol=ORACLE_IDENTITY_TOL)


def test_oracle_vacuum_thermalizes():
    """Vacuum in, mean occupation (1 - eta) nbar out."""
    eta, nbar = 0.6, 0.4
    cfg = TruncationConfig(d_sys=14, d_env=26)
    out = apply_channel_oracle(
        fock_state(0, 4), ChannelParams.from_eta_nbar(eta, nbar), cfg
    )
    diag = np.diag(out.entries).real
    mean = float(np.arange(cfg.d_sys) @ diag)
    assert out.trace().real == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx((1.0 - eta) * nbar, abs=1e-8)


def test_oracle_pure_loss_single_photon():
    eta = 0.7
    cfg = TruncationConfig(d_sys=5, d_env=2)
    out = apply_channel_oracle(fock_state(1, 3), ChannelParams.from_eta_nbar(eta, 0.0), cfg)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0 - eta
    expected[1, 1] = eta
    np.testing.assert_allclose(out.entries, expected, atol=1e-12)


def test_oracle_rejects_oversized_input():
    cfg = TruncationConfig(d_sys=4, d_env=8)
    with pytest.raises(ValueError, match="exceeds"):
        apply_channel_oracle(fock_state(0, 6), ChannelParams.from_eta_nbar(0.5, 0.1), cfg)


def test_oracle_flags_fat_environment_tail():
    cfg = TruncationConfig(d_sys=4, d_env=4, tail_tol=1e-7)
    with pytest.raises(TruncationError, match="tail"):
        apply_channel_oracle(fock_state(0, 4), ChannelParams.from_eta_nbar(0.5, 1.5), cfg)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_oracle_matches_closed_form_chi(seed):
    """The dilation oracle and the closed-form pushforward give the same
    output characteristic function at randomly sampled points."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    eta = float(rng.uniform(0.2, 0.95))
    nbar = float(rng.uniform(0.0, 0.2))
    p = ChannelParams.from_eta_nbar(eta, nbar)
    rho = ModeOperator(dim, ginibre_density(dim, rng))

    cfg = TruncationConfig(d_sys=10, d_env=14)
    out = apply_channel_oracle(ModeOperator(dim, rho.entries), p, cfg)
    chi_cf = apply_channel_closed_form(lambda xi: characteristic_function(rho, xi), p)
    for _ in range(20):
        xi = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        assert characteristic_function(out, xi) == pytest.approx(
            chi_cf(xi), abs=CHI_AGREEMENT_TOL
        )


def test_oracle_pure_loss_composes():
    """Loss eta1 followed by eta2 equals a single loss at eta1 * eta2."""
    eta1, eta2 = 0.8, 0.6
    cfg = TruncationConfig(d_sys=6, d_env=2)
    rng = np.random.default_rng(41)
    rho = ModeOperator(4, ginibre_density(4, rng))

    step1 = apply_channel_oracle(rho, ChannelParams.from_eta_nbar(eta1, 0.0), cfg)
    step2 = apply_channel_oracle(step1, ChannelParams.from_eta_nbar(eta2, 0.0), cfg)
    direct = apply_channel_oracle(rho, ChannelParams.from_eta_nbar(eta1 * eta2, 0.0), cfg)
    np.testing.assert_allclose(step2.entries, direct.entries, atol=COMPOSITION_TOL)


def test_oracle_output_is_valid_density():
    cfg = TruncationConfig(d_sys=13, d_env=16)
    rng = np.random.default_rng(43)
    rho = ModeOperator(4, ginibre_density(4, rng))
    out = apply_channel_oracle(rho, ChannelParams.from_eta_nbar(0.5, 0.3), cfg)
    m = out.entries
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() >= -1e-10
    # the corner keeps all output mass up to the geometric tail above d_sys
    assert out.trace().real == pytest.approx(1.0, abs=1e-6)


def dense_dilation_reference(rho: ModeOperator, p: ChannelParams, cfg: TruncationConfig):
    """The channel by its definition, in one dense box of d_sys + d_env - 1
    levels per mode: embed the input and the thermal environment, conjugate
    by the expm of the two-mode beam-splitter generator, trace out the
    environment, and cut the output to d_sys levels."""
    d_box = cfg.d_sys + cfg.d_env - 1
    a = np.diag(np.sqrt(np.arange(1, d_box, dtype=float)), 1)
    sys_ladder = np.kron(a, np.eye(d_box))
    env_ladder = np.kron(np.eye(d_box), a)
    theta = math.acos(min(1.0, math.sqrt(p.eta)))
    u = expm(theta * (sys_ladder.T @ env_ladder - sys_ladder @ env_ladder.T))
    sys_big = np.zeros((d_box, d_box), dtype=complex)
    sys_big[: rho.dim, : rho.dim] = rho.entries
    env_big = np.zeros((d_box, d_box), dtype=complex)
    env_big[: cfg.d_env, : cfg.d_env] = thermal_state(p.nbar, cfg.d_env).entries
    joint = tensor([ModeOperator(d_box, sys_big), ModeOperator(d_box, env_big)])
    mixed = u @ joint.entries @ u.conj().T
    reduced = partial_trace(MultiModeOperator((d_box, d_box), mixed), [1])
    return reduced.entries[: cfg.d_sys, : cfg.d_sys]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("eta", [0.0, 1e-3, "random", 1.0 - 1e-12])
@pytest.mark.parametrize("nbar", [0.0, "random"])
def test_oracle_matches_dense_dilation(n, eta, nbar):
    """The sector-block Kraus sum equals the dense dilation on arbitrary
    (non-Hermitian) inputs of every size the system cutoff admits."""
    rng = np.random.default_rng(61 + n)
    eta = float(rng.uniform(0.05, 0.95)) if eta == "random" else eta
    nbar = float(rng.uniform(0.0, 0.15)) if nbar == "random" else nbar
    p = ChannelParams.from_eta_nbar(eta, nbar)
    cfg = TruncationConfig.for_encoding(n)
    for d_in in range(1, cfg.d_sys + 1):
        x = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        rho = ModeOperator(d_in, x)
        np.testing.assert_allclose(
            apply_channel_oracle(rho, p, cfg).entries,
            dense_dilation_reference(rho, p, cfg),
            rtol=0.0,
            atol=DENSE_REFERENCE_TOL,
        )


def test_mixing_unitary_cache_is_bounded():
    maxsize = _mixing_unitary.cache_parameters()["maxsize"]
    assert maxsize is not None
    for eta in np.linspace(0.01, 0.99, maxsize + 5):
        _mixing_unitary(float(eta), 5)
    assert _mixing_unitary.cache_info().currsize <= maxsize
