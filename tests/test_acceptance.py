"""Acceptance gate: the ten headline claims this package must reproduce.

Each criterion is one test; the suite prints one PASS line per criterion
(run with -v for pytest's own line, or -s to see the prints). Tolerances
are pinned below and nowhere else.
"""

import itertools

import numpy as np
import pytest

from tbswap.analytic import (
    optimal_k,
    rho_components,
    state_fidelity_analytic,
    swap_fidelity_k,
    swap_fidelity_n1,
    swap_fidelity_n2,
)
from tbswap.channel import (
    ChannelParams,
    TransducerParams,
    bose_einstein,
    transducer_to_channel,
)
from tbswap.cli import preset_sections
from tbswap.fock import TruncationConfig, basis_index, beam_splitter_unitary
from tbswap.states import (
    EXCITED,
    GROUND,
    QubitTimeBinSpec,
    state_fidelity_oracle,
)
from tbswap.swap import (
    DetectionPattern,
    HeraldClass,
    classify_single_photon,
    classify_two_photon,
    heralded_state,
)

TOL_LANDMARK = 0.01          # criterion 1 fidelity bands
TOL_INFID_BAND = 0.05        # criterion 2 band around 0.2
THRESH_INFID_KSTAR = 2e-2    # criterion 2 optimized infidelity ceiling
FACTOR_BAND = 1.5            # criterion 3 multiplicative tolerance
TOL_ORACLE = 1e-5            # criterion 4 closed form versus oracle
TOL_EXACT = 1e-9             # criterion 5 degenerate-channel exactness
TOL_POPULATION = 1e-10       # criterion 5 residual populations
TOL_RATIO = 1e-9             # criterion 7 encoding-comparison slack
TOL_NBAR_9GHZ = 0.005        # criterion 8
TOL_NBAR_5GHZ = 0.02         # criterion 8
TOL_STRUCTURE = 1e-6         # criterion 9

IDENT = ChannelParams(eta=1.0, N=0.0)


def test_criterion_01_bin_scan_landmarks():
    p6 = ChannelParams.from_eta_nbar(0.6, 0.1)
    p8 = ChannelParams.from_eta_nbar(0.8, 0.1)
    assert swap_fidelity_k(p6, 1).fidelity == pytest.approx(0.66, abs=TOL_LANDMARK)
    assert swap_fidelity_k(p6, 4).fidelity == pytest.approx(0.89, abs=TOL_LANDMARK)
    assert swap_fidelity_k(p8, 1).fidelity == pytest.approx(0.80, abs=TOL_LANDMARK)
    assert swap_fidelity_k(p8, 3).fidelity == pytest.approx(0.98, abs=TOL_LANDMARK)
    assert optimal_k(p6)[0] == 4
    assert optimal_k(p8)[0] == 3
    print("criterion 1: PASS - bin-scan fidelity landmarks and optima")


def test_criterion_02_transducer_operating_point():
    p = transducer_to_channel(TransducerParams(zeta_m=0.9, zeta_o=0.9, C=0.65, nth=0.1))
    infid_1 = swap_fidelity_k(p, 1).infidelity
    assert infid_1 == pytest.approx(0.2, abs=TOL_INFID_BAND)
    k_star, infid_star = optimal_k(p)
    assert infid_star <= THRESH_INFID_KSTAR
    # frozen regression values behind the bands
    assert infid_1 == pytest.approx(0.19795995451830795, rel=1e-10)
    assert (k_star, infid_star) == (3, pytest.approx(0.010252410635654408, rel=1e-10))
    print("criterion 2: PASS - representative transducer reaches 1e-2 infidelity")


def test_criterion_03_transducer_grid_improvements():
    section = preset_sections("fig5b")[0]
    zetas = section.axis1.values
    coops = section.axis2.values
    k_max = section.fixed["k_max"]

    def bands_hit(infid_1, infid_star, start, end):
        return (
            start / FACTOR_BAND <= infid_1 <= start * FACTOR_BAND
            and end / FACTOR_BAND <= infid_star <= end * FACTOR_BAND
        )

    found_coarse = found_fine = 0
    for zeta in zetas:
        for C in coops:
            p = transducer_to_channel(
                TransducerParams(zeta_m=zeta, zeta_o=zeta, C=C, nth=0.1)
            )
            infid_1 = swap_fidelity_k(p, 1).infidelity
            _, infid_star = optimal_k(p, k_max=k_max)
            if bands_hit(infid_1, infid_star, 0.25, 0.02):
                found_coarse += 1
            if bands_hit(infid_1, infid_star, 0.1, 5e-3):
                found_fine += 1
    assert found_coarse > 0, "no grid point improves 0.25 -> 0.02"
    assert found_fine > 0, "no grid point improves 0.1 -> 5e-3"

    # frozen witnesses at exact coordinates
    p = transducer_to_channel(TransducerParams(zeta_m=0.85, zeta_o=0.85, C=0.5, nth=0.1))
    assert swap_fidelity_k(p, 1).infidelity == pytest.approx(0.2801497728026131, rel=1e-6)
    k_star, infid_star = optimal_k(p, k_max=16)
    assert k_star == 4 and infid_star == pytest.approx(0.0258640857050213, rel=1e-6)
    p = transducer_to_channel(TransducerParams(zeta_m=0.94, zeta_o=0.94, C=0.7, nth=0.1))
    assert swap_fidelity_k(p, 1).infidelity == pytest.approx(0.13489856405356204, rel=1e-6)
    k_star, infid_star = optimal_k(p, k_max=16)
    assert k_star == 3 and infid_star == pytest.approx(0.0034364439121605805, rel=1e-6)
    print(
        f"criterion 3: PASS - grid improvements ({found_coarse} points in the "
        f"0.25->0.02 band, {found_fine} in the 0.1->5e-3 band)"
    )


def test_criterion_04_oracle_equivalence():
    cfg1 = TruncationConfig(d_sys=4, d_env=8)
    for k, nbar, eta in itertools.product((1, 2, 3, 4), (0.0, 0.1), (0.5, 0.8)):
        p = ChannelParams.from_eta_nbar(eta, nbar)
        closed = swap_fidelity_k(p, k)
        out = heralded_state(
            p, p, QubitTimeBinSpec(k=k), DetectionPattern.canonical(k), cfg1
        )
        assert abs(closed.fidelity - out.fidelity_phi_plus) < TOL_ORACLE, (k, nbar, eta)
        assert abs(closed.K0 - out.success_probability) < TOL_ORACLE, (k, nbar, eta)

    cfg2 = TruncationConfig(d_sys=5, d_env=8)
    p = ChannelParams.from_eta_nbar(0.8, 0.05)
    closed = swap_fidelity_n2(p)
    out = heralded_state(
        p, p, QubitTimeBinSpec(k=2, n=2),
        DetectionPattern(k=2, counts=((2, 0), (2, 0))), cfg2,
    )
    assert abs(closed.fidelity - out.fidelity_phi_plus) < TOL_ORACLE
    assert abs(closed.K0 - out.success_probability) < TOL_ORACLE
    print("criterion 4: PASS - closed forms match the Fock oracle to 1e-5")


def test_criterion_05_degenerate_channels():
    cfg = TruncationConfig.for_encoding(1)
    for k in (1, 2, 3, 4):
        spec = QubitTimeBinSpec(k=k)
        assert state_fidelity_analytic(spec, IDENT) == pytest.approx(1.0, abs=TOL_EXACT)
        assert state_fidelity_oracle(spec, IDENT, cfg) == pytest.approx(1.0, abs=TOL_EXACT)
        out = heralded_state(IDENT, IDENT, spec, DetectionPattern.canonical(k), cfg)
        assert out.fidelity_phi_plus == pytest.approx(1.0, abs=TOL_EXACT)
        assert out.success_probability == pytest.approx(2.0 ** (-(k + 1)), abs=TOL_EXACT)
    loss = ChannelParams.from_eta_nbar(0.7, 0.0)
    for k in (2, 3, 4):
        out = heralded_state(
            loss, loss, QubitTimeBinSpec(k=k), DetectionPattern.canonical(k), cfg
        )
        assert out.fidelity_phi_plus == pytest.approx(1.0, abs=TOL_EXACT)
        assert abs(out.rho[0, 0]) < TOL_POPULATION
        assert abs(out.rho[3, 3]) < TOL_POPULATION
    print("criterion 5: PASS - identity and pure-loss channels are exact")


def test_criterion_06_classification_tables():
    table_one = {
        ((1, 0), (1, 0)): HeraldClass.PhiPlus,
        ((0, 1), (0, 1)): HeraldClass.PhiPlus,
        ((1, 0), (0, 1)): HeraldClass.PhiMinus,
        ((0, 1), (1, 0)): HeraldClass.PhiMinus,
        ((2, 0), (0, 0)): HeraldClass.PsiIndistinct,
        ((0, 2), (0, 0)): HeraldClass.PsiIndistinct,
        ((0, 0), (2, 0)): HeraldClass.PsiIndistinct,
        ((0, 0), (0, 2)): HeraldClass.PsiIndistinct,
    }
    for counts, want in table_one.items():
        assert classify_single_photon(DetectionPattern(k=2, counts=counts)) is want

    table_two = {
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
    for counts, want in table_two.items():
        assert classify_two_photon(DetectionPattern(k=2, counts=counts)) is want
    assert classify_two_photon(
        DetectionPattern(k=2, counts=((3, 0), (1, 0)))
    ) is HeraldClass.Invalid

    # parity algorithm versus beam-splitter amplitudes, every pattern, k <= 5
    d = 3
    u = beam_splitter_unitary(d).entries
    for k in range(1, 6):
        for bits in itertools.product((0, 1), repeat=k):
            counts = tuple((1, 0) if b == 0 else (0, 1) for b in bits)
            pat = DetectionPattern(k=k, counts=counts)
            amp = {}
            for qa, qb in ((GROUND, EXCITED), (EXCITED, GROUND)):
                a = 1.0 + 0.0j
                for i, (na, nb) in enumerate(counts):
                    odd_bin = i % 2 == 0
                    occ_a = 1 if odd_bin == (qa == GROUND) else 0
                    occ_b = 1 if odd_bin == (qb == GROUND) else 0
                    a *= u[basis_index((na, nb), (d, d)), basis_index((occ_a, occ_b), (d, d))]
                amp[(qa, qb)] = a
            sign = (amp[(GROUND, EXCITED)] / amp[(EXCITED, GROUND)]).real
            want = HeraldClass.PhiPlus if sign > 0 else HeraldClass.PhiMinus
            assert classify_single_photon(pat) is want, counts
    print("criterion 6: PASS - detection tables and parity algorithm verified")


def test_criterion_07_single_photon_encoding_wins():
    section = preset_sections("fig4a")[0]
    checked = 0
    for eta in section.axis1.values:
        for nbar in section.axis2.values:
            p = ChannelParams.from_eta_nbar(eta, nbar)
            f2 = swap_fidelity_n2(p).fidelity
            if f2 <= 0.5:
                continue
            f1 = swap_fidelity_n1(p).fidelity
            assert f1 / f2 >= 1.0 - TOL_RATIO, (eta, nbar)
            checked += 1
    assert checked > 1000
    print(f"criterion 7: PASS - n=1 beats n=2 on {checked} grid points")


def test_criterion_08_thermal_calibration():
    assert bose_einstein(9e9, 0.180) == pytest.approx(0.100, abs=TOL_NBAR_9GHZ)
    assert bose_einstein(5e9, 0.100) == pytest.approx(0.1, abs=TOL_NBAR_5GHZ)
    print("criterion 8: PASS - thermal occupations at both operating points")


def test_criterion_09_structural_components():
    cfg = TruncationConfig(d_sys=5, d_env=8)
    for eta in (0.5, 0.7, 0.9):
        for nbar in (0.05, 0.15):
            for k in (1, 2, 3):
                p = ChannelParams.from_eta_nbar(eta, nbar)
                pop, ratio = rho_components(p, k)
                out = heralded_state(
                    p, p, QubitTimeBinSpec(k=k), DetectionPattern.canonical(k), cfg
                )
                assert out.rho[0, 0].real == pytest.approx(pop, abs=TOL_STRUCTURE)
                oracle_ratio = 0.5 + 0.5 * out.rho[1, 2].real / out.rho[2, 2].real
                assert oracle_ratio == pytest.approx(ratio, abs=TOL_STRUCTURE)
    p = ChannelParams.from_eta_nbar(0.6, 0.1)
    ratios = [rho_components(p, k)[1] for k in range(1, 30)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 0.5 for r in ratios)
    print("criterion 9: PASS - population and coherence structure match the oracle")


def test_criterion_10_state_fidelity_monotonicity():
    for eta, nbar in ((0.6, 0.1), (0.8, 0.05)):
        p = ChannelParams.from_eta_nbar(eta, nbar)
        fids = [state_fidelity_analytic(QubitTimeBinSpec(k=k), p) for k in range(1, 9)]
        assert all(a > b for a, b in zip(fids, fids[1:]))
    for k in range(1, 9):
        assert state_fidelity_analytic(QubitTimeBinSpec(k=k), IDENT) == 1.0
    print("criterion 10: PASS - bin count only hurts transfer fidelity")
