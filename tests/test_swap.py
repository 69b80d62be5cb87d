"""Tests for herald classification, heralded two-qubit states, and the
measurement-operator characteristic function.

The classifier is checked against a from-scratch amplitude calculation:
conditioned on the qubit pair, the photons entering the midpoint are a
product of per-bin Fock states, so each detection amplitude is a product
of beam-splitter matrix elements. That derivation shares nothing with the
parity-register algorithm under test.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbswap.swap as swap_module
from tbswap.channel import ChannelParams
from tbswap.fock import (
    TruncationConfig,
    TruncationError,
    basis_index,
    beam_splitter_unitary,
)
from tbswap.states import EXCITED, GROUND, NORM, HybridDensity, QubitTimeBinSpec, channel_output
from tbswap.swap import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    DetectionPattern,
    HeraldClass,
    HeraldedState,
    ImpossibleEventError,
    chi_measurement,
    classify_single_photon,
    classify_two_photon,
    heralded_state,
    measurement_operator,
    parity_trace,
)

from reference import characteristic_function_joint

BELL_TOL = 1e-9
CONTRACTION_TOL = 1e-13
EVENT_SYMMETRY_TOL = 1e-9
CHI_MEASUREMENT_TOL = 1e-6

IDENT = ChannelParams(eta=1.0, N=0.0)

# Detection table for the single-photon two-bin encoding: the four
# one-photon-per-bin events split by parity, the four two-photon bunches
# cannot tell the Psi states apart.
TABLE_ONE = {
    ((1, 0), (1, 0)): HeraldClass.PhiPlus,
    ((0, 1), (0, 1)): HeraldClass.PhiPlus,
    ((1, 0), (0, 1)): HeraldClass.PhiMinus,
    ((0, 1), (1, 0)): HeraldClass.PhiMinus,
    ((2, 0), (0, 0)): HeraldClass.PsiIndistinct,
    ((0, 2), (0, 0)): HeraldClass.PsiIndistinct,
    ((0, 0), (2, 0)): HeraldClass.PsiIndistinct,
    ((0, 0), (0, 2)): HeraldClass.PsiIndistinct,
}

# Full table for the two-photon k = 2 encoding.
TABLE_TWO = {
    ((2, 0), (2, 0)): HeraldClass.PhiPlus,
    ((0, 2), (0, 2)): HeraldClass.PhiPlus,
    ((0, 2), (2, 0)): HeraldClass.PhiPlus,
    ((2, 0), (0, 2)): HeraldClass.PhiPlus,
    ((1, 1), (1, 1)): HeraldClass.PhiPlus,
    ((2, 0), (1, 1)): HeraldClass.PhiMinus,
    ((0, 2), (1, 1)): HeraldClass.PhiMinus,
    ((1, 1), (2, 0)): HeraldClass.PhiMinus,
    ((1, 1), (0, 2)): HeraldClass.PhiMinus,
    ((4, 0), (0, 0)): HeraldClass.PsiIndistinct,
    ((0, 4), (0, 0)): HeraldClass.PsiIndistinct,
    ((2, 2), (0, 0)): HeraldClass.PsiIndistinct,
    ((0, 0), (4, 0)): HeraldClass.PsiIndistinct,
    ((0, 0), (0, 4)): HeraldClass.PsiIndistinct,
    ((0, 0), (2, 2)): HeraldClass.PsiIndistinct,
}


def _ideal_amplitude(pattern: DetectionPattern, qa: int, qb: int, d: int = 3) -> complex:
    """Amplitude to detect `pattern` when the qubits are (qa, qb) and the
    channels are ideal, as a product of beam-splitter matrix elements."""
    u = beam_splitter_unitary(d).entries
    amp = 1.0 + 0.0j
    for i, (na, nb) in enumerate(pattern.counts):
        odd_bin = i % 2 == 0
        occ_a = 1 if odd_bin == (qa == GROUND) else 0
        occ_b = 1 if odd_bin == (qb == GROUND) else 0
        amp *= u[basis_index((na, nb), (d, d)), basis_index((occ_a, occ_b), (d, d))]
    return amp


def test_detection_pattern_validation():
    with pytest.raises(ValueError):
        DetectionPattern(k=2, counts=((1, 0),))
    with pytest.raises(ValueError):
        DetectionPattern(k=1, counts=((-1, 0),))
    pat = DetectionPattern.canonical(3)
    assert pat.counts == ((1, 0), (1, 0), (1, 0))
    assert pat.total == 3


def test_canonical_two_photon_herald():
    """The n-photon canonical herald is the one canonical_heralds scores."""
    pat = DetectionPattern.canonical(2, 2)
    assert pat.counts == ((2, 0), (2, 0))
    assert classify_two_photon(pat) is HeraldClass.PhiPlus
    p = ChannelParams.from_eta_nbar(0.6, 0.1)
    cfg = TruncationConfig.for_encoding(2)
    one = heralded_state(p, p, QubitTimeBinSpec(k=2, n=2), pat, cfg)
    fid, log_k0 = swap_module.canonical_heralds(2, [p], np.array([2]), cfg)
    assert one.fidelity_phi_plus == pytest.approx(fid[0, 0], abs=1e-12)
    assert one.log_success_probability == pytest.approx(log_k0[0, 0], abs=1e-12)


def test_parity_trace_examples():
    assert parity_trace(DetectionPattern.canonical(2)) == (1, 1)
    assert parity_trace(DetectionPattern(k=2, counts=((1, 0), (0, 1)))) == (-1, 1)
    assert parity_trace(DetectionPattern(k=3, counts=((0, 1), (0, 1), (0, 1)))) == (-1, 1)
    with pytest.raises(ValueError):
        parity_trace(DetectionPattern(k=2, counts=((2, 0), (0, 0))))


def test_table_one_classification():
    for counts, want in TABLE_ONE.items():
        got = classify_single_photon(DetectionPattern(k=2, counts=counts))
        assert got is want, f"{counts}: {got} != {want}"


def test_classify_three_bins_example():
    pat = DetectionPattern(k=3, counts=((1, 0), (0, 1), (1, 0)))
    assert classify_single_photon(pat) is HeraldClass.PhiMinus


def test_classify_is_total():
    for counts in itertools.product(range(3), repeat=4):
        pat = DetectionPattern(k=2, counts=(counts[:2], counts[2:]))
        assert classify_single_photon(pat) in HeraldClass


def test_classify_off_table_patterns_invalid():
    for counts in (((1, 1), (0, 0)), ((1, 0), (0, 0)), ((2, 0), (1, 0)), ((0, 0), (0, 0))):
        assert classify_single_photon(DetectionPattern(k=2, counts=counts)) is HeraldClass.Invalid


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_classify_never_raises(k, seed):
    rng = np.random.default_rng(seed)
    counts = tuple(
        (int(rng.integers(0, 4)), int(rng.integers(0, 4))) for _ in range(k)
    )
    classify_single_photon(DetectionPattern(k=k, counts=counts))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_classifier_matches_amplitude_bruteforce(k):
    """Every one-photon-per-bin pattern heralds the Bell state whose
    amplitude survives, and the parity classifier names that state."""
    for bits in itertools.product((0, 1), repeat=k):
        counts = tuple((1, 0) if b == 0 else (0, 1) for b in bits)
        pat = DetectionPattern(k=k, counts=counts)
        a_ge = _ideal_amplitude(pat, GROUND, EXCITED)
        a_eg = _ideal_amplitude(pat, EXCITED, GROUND)
        # diagonal qubit sectors never produce one photon in every bin
        assert abs(_ideal_amplitude(pat, GROUND, GROUND)) < 1e-12
        assert abs(_ideal_amplitude(pat, EXCITED, EXCITED)) < 1e-12
        assert abs(a_ge) == pytest.approx(2.0 ** (-k / 2), abs=1e-12)
        assert abs(a_eg) == pytest.approx(2.0 ** (-k / 2), abs=1e-12)
        sign = (a_ge / a_eg).real
        want = HeraldClass.PhiPlus if sign > 0 else HeraldClass.PhiMinus
        assert classify_single_photon(pat) is want


def test_table_two_classification():
    for counts, want in TABLE_TWO.items():
        got = classify_two_photon(DetectionPattern(k=2, counts=counts))
        assert got is want, f"{counts}: {got} != {want}"


def test_table_two_off_table_and_wrong_k():
    assert classify_two_photon(
        DetectionPattern(k=2, counts=((3, 0), (1, 0)))
    ) is HeraldClass.Invalid
    assert classify_two_photon(
        DetectionPattern(k=2, counts=((2, 0), (0, 0)))
    ) is HeraldClass.Invalid
    with pytest.raises(ValueError):
        classify_two_photon(DetectionPattern.canonical(3))


def test_heralded_identity_gives_bell_state():
    cfg = TruncationConfig.for_encoding(1)
    out = heralded_state(IDENT, IDENT, QubitTimeBinSpec(k=2), DetectionPattern.canonical(2), cfg)
    np.testing.assert_allclose(out.rho, np.outer(PHI_PLUS, PHI_PLUS), atol=BELL_TOL)
    assert out.success_probability == pytest.approx(1.0 / 8.0, abs=BELL_TOL)
    assert out.fidelity_phi_plus == pytest.approx(1.0, abs=BELL_TOL)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phi_event_probability_identity(k):
    cfg = TruncationConfig.for_encoding(1)
    spec = QubitTimeBinSpec(k=k)
    out = heralded_state(IDENT, IDENT, spec, DetectionPattern.canonical(k), cfg)
    assert out.success_probability == pytest.approx(2.0 ** (-(k + 1)), abs=BELL_TOL)
    if k >= 2:
        flipped = ((0, 1),) + ((1, 0),) * (k - 1)
        out_minus = heralded_state(IDENT, IDENT, spec, DetectionPattern(k=k, counts=flipped), cfg)
        assert out_minus.success_probability == pytest.approx(2.0 ** (-(k + 1)), abs=BELL_TOL)


def test_herald_class_consistency_identity():
    """Every PhiPlus-classified pattern heralds exactly |Phi+>, every
    PhiMinus pattern exactly |Phi->, for k <= 3."""
    cfg = TruncationConfig.for_encoding(1)
    for k in (2, 3):
        spec = QubitTimeBinSpec(k=k)
        for bits in itertools.product((0, 1), repeat=k):
            counts = tuple((1, 0) if b == 0 else (0, 1) for b in bits)
            pat = DetectionPattern(k=k, counts=counts)
            label = classify_single_photon(pat)
            out = heralded_state(IDENT, IDENT, spec, pat, cfg)
            if label is HeraldClass.PhiPlus:
                assert out.fidelity(PHI_PLUS) == pytest.approx(1.0, abs=BELL_TOL)
            else:
                assert label is HeraldClass.PhiMinus
                assert out.fidelity(PHI_MINUS) == pytest.approx(1.0, abs=BELL_TOL)


def test_herald_class_consistency_two_photon():
    cfg = TruncationConfig.for_encoding(2)
    spec = QubitTimeBinSpec(k=2, n=2)
    for counts, label in TABLE_TWO.items():
        if label is HeraldClass.PsiIndistinct:
            continue
        pat = DetectionPattern(k=2, counts=counts)
        out = heralded_state(IDENT, IDENT, spec, pat, cfg)
        bell = PHI_PLUS if label is HeraldClass.PhiPlus else PHI_MINUS
        assert out.fidelity(bell) == pytest.approx(1.0, abs=BELL_TOL), counts


def test_two_photon_event_probabilities_identity():
    cfg = TruncationConfig.for_encoding(2)
    spec = QubitTimeBinSpec(k=2, n=2)

    def prob(counts):
        return heralded_state(
            IDENT, IDENT, spec, DetectionPattern(k=2, counts=counts), cfg
        ).success_probability

    assert prob(((2, 0), (2, 0))) == pytest.approx(1.0 / 32.0, abs=BELL_TOL)
    assert prob(((1, 1), (1, 1))) == pytest.approx(1.0 / 8.0, abs=BELL_TOL)
    assert prob(((2, 0), (1, 1))) == pytest.approx(1.0 / 16.0, abs=BELL_TOL)
    assert prob(((4, 0), (0, 0))) == pytest.approx(3.0 / 32.0, abs=BELL_TOL)


def test_psi_bunch_heralds_product_state():
    """A two-photon bunch in one bin pins both qubits to the same level."""
    cfg = TruncationConfig.for_encoding(1)
    out = heralded_state(
        IDENT, IDENT, QubitTimeBinSpec(k=2),
        DetectionPattern(k=2, counts=((2, 0), (0, 0))), cfg,
    )
    gg = np.zeros((4, 4))
    gg[0, 0] = 1.0
    np.testing.assert_allclose(out.rho, gg, atol=BELL_TOL)
    assert out.success_probability == pytest.approx(1.0 / 8.0, abs=BELL_TOL)
    # equal overlap with both Psi states: the herald cannot split them
    assert out.fidelity(PSI_PLUS) == pytest.approx(out.fidelity(PSI_MINUS), abs=1e-12)


def test_table_one_events_sum_to_one():
    cfg = TruncationConfig.for_encoding(1)
    spec = QubitTimeBinSpec(k=2)
    total = sum(
        heralded_state(IDENT, IDENT, spec, DetectionPattern(k=2, counts=c), cfg).success_probability
        for c in TABLE_ONE
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_event_symmetry_noisy_channel():
    """All PhiPlus patterns give the same conditional state when the two
    channels are identical, so reporting one canonical event loses nothing."""
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.7, 0.12)
    k = 3
    spec = QubitTimeBinSpec(k=k)
    states = []
    for bits in itertools.product((0, 1), repeat=k):
        counts = tuple((1, 0) if b == 0 else (0, 1) for b in bits)
        pat = DetectionPattern(k=k, counts=counts)
        if classify_single_photon(pat) is HeraldClass.PhiPlus:
            states.append(heralded_state(p, p, spec, pat, cfg))
    assert len(states) == 2 ** (k - 1)
    ref = states[0]
    for other in states[1:]:
        np.testing.assert_allclose(other.rho, ref.rho, atol=EVENT_SYMMETRY_TOL)
        assert other.success_probability == pytest.approx(
            ref.success_probability, abs=EVENT_SYMMETRY_TOL
        )


def test_phi_minus_patterns_mirror_phi_plus():
    """Under symmetric channels the PhiMinus herald differs only by the
    sign of the coherence."""
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.8, 0.05)
    spec = QubitTimeBinSpec(k=2)
    plus = heralded_state(p, p, spec, DetectionPattern.canonical(2), cfg)
    minus = heralded_state(
        p, p, spec, DetectionPattern(k=2, counts=((1, 0), (0, 1))), cfg
    )
    assert minus.fidelity(PHI_MINUS) == pytest.approx(plus.fidelity(PHI_PLUS), abs=1e-10)
    assert minus.success_probability == pytest.approx(plus.success_probability, abs=1e-10)


def test_pure_loss_keeps_unit_fidelity():
    """Loss lowers the success probability but not the heralded fidelity."""
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.7, 0.0)
    for k in (2, 3, 4):
        out = heralded_state(p, p, QubitTimeBinSpec(k=k), DetectionPattern.canonical(k), cfg)
        assert out.fidelity_phi_plus == pytest.approx(1.0, abs=BELL_TOL)
        assert out.rho[0, 0].real == pytest.approx(0.0, abs=1e-10)
        assert out.rho[3, 3].real == pytest.approx(0.0, abs=1e-10)


def test_noisy_channel_fidelity_landmark():
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.6, 0.1)
    out = heralded_state(p, p, QubitTimeBinSpec(k=1), DetectionPattern.canonical(1), cfg)
    assert out.fidelity_phi_plus == pytest.approx(0.658, abs=0.001)


def test_impossible_event_raises():
    cfg = TruncationConfig.for_encoding(1)
    spec = QubitTimeBinSpec(k=2)
    with pytest.raises(ImpossibleEventError):
        heralded_state(
            IDENT, IDENT, spec, DetectionPattern(k=2, counts=((1, 1), (0, 0))), cfg
        )
    with pytest.raises(ImpossibleEventError):
        heralded_state(
            IDENT, IDENT, spec, DetectionPattern(k=2, counts=((1, 0), (0, 0))), cfg
        )


def test_impossible_event_message_names_k_and_distinct_counts():
    # no photon reaches the detectors; the message stays one short line at any k
    dark = ChannelParams.from_eta_nbar(0.0, 0.0)
    cfg = TruncationConfig.for_encoding(1)
    with pytest.raises(ImpossibleEventError, match="probability") as info:
        heralded_state(
            dark, dark, QubitTimeBinSpec(k=1000), DetectionPattern.canonical(1000), cfg
        )
    message = str(info.value)
    assert "k = 1000" in message and "(1, 0)" in message
    assert len(message) < 200


def test_invalid_but_possible_pattern_computes():
    """Patterns outside the tables still produce a conditional state once
    noise makes them possible."""
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.6, 0.1)
    pat = DetectionPattern(k=2, counts=((1, 1), (0, 0)))
    assert classify_single_photon(pat) is HeraldClass.Invalid
    out = heralded_state(p, p, QubitTimeBinSpec(k=2), pat, cfg)
    assert out.success_probability > 0.0
    np.testing.assert_allclose(out.rho, out.rho.conj().T, atol=1e-12)
    assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out.rho).min() >= -1e-10


def test_asymmetric_channels_supported():
    cfg = TruncationConfig.for_encoding(1)
    p_a = ChannelParams.from_eta_nbar(0.8, 0.05)
    p_b = ChannelParams.from_eta_nbar(0.5, 0.15)
    out = heralded_state(p_a, p_b, QubitTimeBinSpec(k=2), DetectionPattern.canonical(2), cfg)
    assert 0.0 < out.success_probability < 1.0
    assert 0.0 <= out.fidelity_phi_plus <= 1.0
    np.testing.assert_allclose(out.rho, out.rho.conj().T, atol=1e-12)
    sym = heralded_state(p_a, p_a, QubitTimeBinSpec(k=2), DetectionPattern.canonical(2), cfg)
    assert out.fidelity_phi_plus != pytest.approx(sym.fidelity_phi_plus, abs=1e-6)


def test_heralded_state_maps_each_distinct_channel_once(monkeypatch):
    """Equal channels on both sides share one channel_output; unequal take two."""
    calls = []
    real = swap_module.channel_output

    def counting(spec, p, cfg):
        calls.append(p)
        return real(spec, p, cfg)

    monkeypatch.setattr(swap_module, "channel_output", counting)
    cfg = TruncationConfig.for_encoding(1)
    spec, pattern = QubitTimeBinSpec(k=3), DetectionPattern.canonical(3)
    p_a = ChannelParams.from_eta_nbar(0.8, 0.05)
    heralded_state(p_a, ChannelParams.from_eta_nbar(0.8, 0.05), spec, pattern, cfg)
    assert len(calls) == 1
    calls.clear()
    heralded_state(p_a, ChannelParams.from_eta_nbar(0.5, 0.05), spec, pattern, cfg)
    assert len(calls) == 2


def test_heralded_state_pattern_shape_checks():
    cfg = TruncationConfig.for_encoding(1)
    with pytest.raises(ValueError, match="bins"):
        heralded_state(IDENT, IDENT, QubitTimeBinSpec(k=2), DetectionPattern.canonical(3), cfg)
    with pytest.raises(TruncationError):
        heralded_state(
            IDENT, IDENT, QubitTimeBinSpec(k=2),
            DetectionPattern(k=2, counts=((4, 0), (0, 0))), cfg,
        )


def test_heralded_state_refuses_more_bins_than_a_normal_weight_allows():
    """The bin limit holds in heralded_state itself, not only in canonical."""
    pattern = DetectionPattern(k=1024, counts=((1, 0),) * 1024)
    with pytest.raises(TruncationError, match="1023"):
        heralded_state(IDENT, IDENT, QubitTimeBinSpec(k=1024), pattern,
                       TruncationConfig.for_encoding(1))


def test_heralded_state_rho_immutable():
    out = HeraldedState(
        rho=np.outer(PHI_PLUS, PHI_PLUS), success_probability=0.125, fidelity_phi_plus=1.0,
        log_success_probability=math.log(0.125),
    )
    with pytest.raises(ValueError):
        out.rho[0, 0] = 1.0
    assert out.fidelity(PHI_PLUS) == pytest.approx(1.0)


def test_chi_measurement_unit_at_origin():
    for counts in (((1, 0), (1, 0)), ((1, 0), (0, 1))):
        pat = DetectionPattern(k=2, counts=counts)
        assert chi_measurement(pat, [0.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)


def test_chi_measurement_single_bin_difference_port():
    """For a (0,1) detection the Laguerre argument is the field difference,
    so equal displacements leave only the Gaussian envelope."""
    pat = DetectionPattern(k=1, counts=((0, 1),))
    for xi in (0.4, 0.9 - 0.3j, 1.2j):
        got = chi_measurement(pat, [xi, xi])
        assert got == pytest.approx(math.exp(-abs(xi) ** 2), abs=1e-12)
    sum_pat = DetectionPattern(k=1, counts=((1, 0),))
    xi = 0.7
    want = (1.0 - 2.0 * xi**2) * math.exp(-(xi**2))
    assert chi_measurement(sum_pat, [xi, xi]) == pytest.approx(want, abs=1e-12)


def test_chi_measurement_matches_fock_operator():
    """Closed form versus the Fock-built projector, both bin orientations."""
    rng = np.random.default_rng(71)
    pat = DetectionPattern(k=2, counts=((1, 0), (0, 1)))
    M = measurement_operator(pat, 8)
    for _ in range(3):
        xis = [complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) for _ in range(4)]
        got = chi_measurement(pat, xis)
        want = characteristic_function_joint(M, xis)
        assert got == pytest.approx(want, abs=CHI_MEASUREMENT_TOL)


def test_chi_measurement_argument_checks():
    pat = DetectionPattern(k=2, counts=((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        chi_measurement(pat, [0.1, 0.2])
    bunched = DetectionPattern(k=1, counts=((2, 0),))
    with pytest.raises(ValueError):
        chi_measurement(bunched, [0.1, 0.2])


def test_measurement_operator_is_projector():
    pat = DetectionPattern(k=1, counts=((1, 0),))
    M = measurement_operator(pat, 6).entries
    np.testing.assert_allclose(M, M.conj().T, atol=1e-12)
    np.testing.assert_allclose(M @ M, M, atol=1e-12)
    assert np.trace(M).real == pytest.approx(1.0, abs=1e-12)


def bin_trace_tensor_reference(blocks_a, blocks_b, i, counts, d):
    """The per-bin trace tensor as 16 separate four-operand einsums (the
    original loop), T[qa, qa', qb, qb'] = sum conj(W[m,p]) X[m,n] Y[p,q] W[n,q]."""
    u = beam_splitter_unitary(d)
    W = u.entries[basis_index(counts, (d, d)), :].conj().reshape(d, d)
    T = np.empty((2, 2, 2, 2), dtype=complex)
    for qa in (GROUND, EXCITED):
        for qap in (GROUND, EXCITED):
            X = blocks_a.bin(i)[qa, qap]
            for qb in (GROUND, EXCITED):
                for qbp in (GROUND, EXCITED):
                    Y = blocks_b.bin(i)[qb, qbp]
                    T[qa, qap, qb, qbp] = np.einsum("mp,mn,pq,nq->", W.conj(), X, Y, W)
    return T


def heralded_reference(p_a, p_b, spec, pattern, cfg):
    """(rho, success) with every bin contracted by the reference, none shared."""
    out_a, out_b = channel_output(spec, p_a, cfg), channel_output(spec, p_b, cfg)
    prod = np.ones((2, 2, 2, 2), dtype=complex)
    for i, counts in enumerate(pattern.counts):
        prod *= bin_trace_tensor_reference(out_a, out_b, i, counts, cfg.d_sys)
    unnorm = prod.transpose(0, 2, 1, 3).reshape(4, 4) * NORM * NORM
    success = np.trace(unnorm).real
    rho = unnorm / success
    return (rho + rho.conj().T) / 2.0, success


def random_bin_state(rng, d):
    """One-bin HybridDensity of random non-Hermitian d x d blocks."""
    shape = (2, 2, d, d)
    return HybridDensity(k=1, even=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("d", [4, 5])
def test_bin_trace_tensor_matches_einsum_reference(d):
    rng = np.random.default_rng(1300 + d)
    for counts in itertools.product(range(d), repeat=2):
        a, b = random_bin_state(rng, d), random_bin_state(rng, d)
        np.testing.assert_allclose(
            swap_module._bin_trace_tensor(a.even, b.even, counts),
            bin_trace_tensor_reference(a, b, 0, counts, d),
            rtol=0.0,
            atol=CONTRACTION_TOL,
        )


P_A = ChannelParams.from_eta_nbar(0.81, 0.05)
P_B = ChannelParams.from_eta_nbar(0.5, 0.12)
MIXED_PATTERNS = [
    (QubitTimeBinSpec(k=k), DetectionPattern(k=k, counts=tuple(counts)))
    for k in range(1, 5)
    for counts in itertools.product(((1, 0), (0, 1)), repeat=k)
]
TWO_PHOTON_PATTERNS = [
    (QubitTimeBinSpec(k=2, n=2), DetectionPattern(k=2, counts=counts)) for counts in TABLE_TWO
]


@pytest.mark.parametrize("p_a, p_b", [(P_A, P_A), (P_A, P_B), (P_B, P_A)])
def test_heralded_state_matches_unshared_reference(p_a, p_b):
    """Each distinct bin contracted once gives the state of contracting every
    bin, for mixed single-photon patterns, the two-photon table, and unequal
    channels, where the two sides' blocks differ."""
    for spec, pattern in MIXED_PATTERNS + TWO_PHOTON_PATTERNS:
        cfg = TruncationConfig.for_encoding(spec.n)
        rho, success = heralded_reference(p_a, p_b, spec, pattern, cfg)
        got = heralded_state(p_a, p_b, spec, pattern, cfg)
        np.testing.assert_allclose(got.rho, rho, rtol=0.0, atol=CONTRACTION_TOL)
        assert got.success_probability == pytest.approx(success, rel=0.0, abs=CONTRACTION_TOL)


@pytest.mark.parametrize("n, counts", [
    (1, ((2, 2),)),
    (1, ((2, 2), (0, 0))),
    (2, ((4, 4), (0, 0))),
    (2, ((3, 2), (0, 0))),
])
def test_heralded_state_resolves_bin_totals_past_the_encoding_size(n, counts):
    """The beam splitter reads the sector of a + b photons, so a bin's total,
    not its larger count, must fit the Fock space. With the size taken from
    cfg.d_sys = n + 3, ((2, 2),) at n = 1 gave F = 0.0413 against 0.1002.
    heralded_state sizes itself from the pattern and matches every bin
    contracted densely on d_sys = 10 channel outputs."""
    p = ChannelParams.from_eta_nbar(0.6, 0.1)
    spec, pattern = QubitTimeBinSpec(k=len(counts), n=n), DetectionPattern(len(counts), counts)
    rho, success = heralded_reference(p, p, spec, pattern, TruncationConfig(d_sys=10))
    got = heralded_state(p, p, spec, pattern, TruncationConfig.for_encoding(n))
    np.testing.assert_allclose(got.rho, rho, rtol=0.0, atol=1e-12)
    fidelity = (PHI_PLUS @ rho @ PHI_PLUS).real
    assert got.fidelity_phi_plus == pytest.approx(fidelity, rel=0.0, abs=1e-12)
    assert got.log_success_probability == pytest.approx(math.log(success), rel=0.0, abs=1e-12)


def test_heralded_weight_stays_in_log_form_for_unequal_channels():
    """2m canonical bins multiply the two-bin product entry by entry m times.
    At m = 400 its weight underflows doubles; the heralded state and its log
    weight still match that power, taken in mpmath."""
    cfg = TruncationConfig.for_encoding(1)
    m = 400
    two = heralded_state(P_A, P_B, QubitTimeBinSpec(k=2), DetectionPattern.canonical(2), cfg)
    many = heralded_state(
        P_A, P_B, QubitTimeBinSpec(k=2 * m), DetectionPattern.canonical(2 * m), cfg
    )
    norms = mpmath.mpf(1) / 4  # the two states' norms, 1/2 each, enter once
    unnorm = mpmath.matrix(
        [[norms * (mpmath.mpc(x) * two.success_probability / norms) ** m for x in row]
         for row in two.rho]
    )
    trace = sum(unnorm[i, i].real for i in range(4))
    assert many.success_probability == 0.0
    assert many.log_success_probability == pytest.approx(float(mpmath.log(trace)), rel=1e-12)
    expected = np.array((unnorm / trace).tolist(), dtype=complex)
    np.testing.assert_allclose(many.rho, expected, rtol=0.0, atol=1e-10)


def test_heralded_state_contracts_each_distinct_bin_once(monkeypatch):
    calls = []
    real = swap_module._bin_trace_tensor

    def counting(x, y, counts):
        calls.append((int(x.strides[0] < 0), counts))  # odd bins: the reversed view
        return real(x, y, counts)

    monkeypatch.setattr(swap_module, "_bin_trace_tensor", counting)
    cfg = TruncationConfig.for_encoding(1)
    heralded_state(P_A, P_B, QubitTimeBinSpec(k=6), DetectionPattern.canonical(6), cfg)
    assert sorted(calls) == [(0, (1, 0)), (1, (1, 0))]
    calls.clear()
    counts = ((1, 0), (0, 1), (0, 1), (0, 1), (1, 0), (1, 0))
    heralded_state(P_A, P_A, QubitTimeBinSpec(k=6), DetectionPattern(k=6, counts=counts), cfg)
    assert len(calls) == len(set(calls)) == len({(i % 2, c) for i, c in enumerate(counts)})
