"""Tests for qubit-time-bin states, their channel images, and the two
transfer-fidelity routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbswap.cli as cli
import tbswap.states as states_module
from tbswap.analytic import state_fidelity_analytic
from tbswap.channel import (
    ChannelParams,
    TransducerParams,
    apply_channel_oracle,
    transducer_to_channel,
)
from tbswap.fock import TruncationConfig, fock_state
from tbswap.states import (
    EXCITED,
    GROUND,
    HybridDensity,
    QubitTimeBinSpec,
    channel_output,
    ideal_state,
    state_fidelity_oracle,
)

PATH_EQUIVALENCE_TOL = 1e-5
IDENTITY_TOL = 1e-10

# F at (eta, nbar) = (0.6, 0.1) for k = 1..4, closed form.
FIDELITY_06_01 = {
    1: 0.7357247347284395,
    2: 0.520404791498897,
    3: 0.3830218623461108,
    4: 0.2708777316644858,
}


def test_spec_validation():
    with pytest.raises(ValueError):
        QubitTimeBinSpec(k=0)
    with pytest.raises(ValueError):
        QubitTimeBinSpec(k=2, n=0)
    with pytest.raises(ValueError):
        QubitTimeBinSpec(k=3, n=2)
    QubitTimeBinSpec(k=2, n=2)
    QubitTimeBinSpec(k=5, n=1)


def test_ideal_state_two_bins_explicit():
    """(|g>|10> + |e>|01>)/sqrt(2) written out as a full matrix."""
    psi = ideal_state(QubitTimeBinSpec(k=2))
    full = psi.assemble_full()
    d = psi.bin_dim
    vec = np.zeros(2 * d * d, dtype=complex)
    # row-major basis over (qubit, bin1, bin2)
    vec[np.ravel_multi_index((GROUND, 1, 0), (2, d, d))] = 1.0 / math.sqrt(2)
    vec[np.ravel_multi_index((EXCITED, 0, 1), (2, d, d))] = 1.0 / math.sqrt(2)
    np.testing.assert_allclose(full.entries, np.outer(vec, vec.conj()), atol=1e-14)


def test_ideal_state_alternating_occupation():
    """Odd bins carry the photon with the qubit in |g>, even bins in |e>."""
    psi = ideal_state(QubitTimeBinSpec(k=4))
    one = fock_state(1, psi.bin_dim).entries
    zero = fock_state(0, psi.bin_dim).entries
    for i in range(4):
        g_block = psi.blocks[i][GROUND, GROUND]
        want = one if i % 2 == 0 else zero
        np.testing.assert_allclose(g_block, want, atol=1e-15)


def test_ideal_state_qubit_maximally_mixed():
    for k in (1, 2, 3, 5):
        red = ideal_state(QubitTimeBinSpec(k=k)).qubit_reduced()
        np.testing.assert_allclose(red, np.eye(2) / 2.0, atol=1e-14)


def test_ideal_state_assembled_is_density():
    for k in (1, 2, 3):
        full = ideal_state(QubitTimeBinSpec(k=k)).assemble_full()
        m = full.entries
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        assert full.trace().real == pytest.approx(1.0, abs=IDENTITY_TOL)
        assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_ideal_state_dimension_override():
    psi = ideal_state(QubitTimeBinSpec(k=2), d=5)
    assert psi.bin_dim == 5
    with pytest.raises(ValueError):
        ideal_state(QubitTimeBinSpec(k=2, n=2), d=2)


def test_hybrid_density_validation():
    psi = ideal_state(QubitTimeBinSpec(k=2))
    with pytest.raises(ValueError):
        HybridDensity(k=3, blocks=psi.blocks)


def test_channel_output_identity_reproduces_ideal():
    spec = QubitTimeBinSpec(k=3)
    cfg = TruncationConfig.for_encoding(1)
    out = channel_output(spec, ChannelParams(eta=1.0, N=0.0), cfg)
    want = ideal_state(spec, d=cfg.d_sys)
    for i in range(spec.k):
        for q in (GROUND, EXCITED):
            for qp in (GROUND, EXCITED):
                np.testing.assert_allclose(
                    out.blocks[i][q, qp],
                    want.blocks[i][q, qp],
                    atol=1e-12,
                )


def test_channel_output_pure_loss_coherence_scaling():
    """Pure loss scales each |1><0| block by sqrt(eta)."""
    eta = 0.64
    cfg = TruncationConfig.for_encoding(1)
    out = channel_output(QubitTimeBinSpec(k=2), ChannelParams.from_eta_nbar(eta, 0.0), cfg)
    coh = out.blocks[0][GROUND, EXCITED]
    want = np.zeros((cfg.d_sys, cfg.d_sys), dtype=complex)
    want[1, 0] = math.sqrt(eta)
    np.testing.assert_allclose(coh, want, atol=1e-12)
    pop = out.blocks[0][GROUND, GROUND]
    assert pop[1, 1].real == pytest.approx(eta, abs=1e-12)
    assert pop[0, 0].real == pytest.approx(1.0 - eta, abs=1e-12)


def test_channel_output_assembled_is_density():
    p = ChannelParams.from_eta_nbar(0.7, 0.15)
    # generous truncation: the corner keeps essentially all output mass
    roomy = TruncationConfig(d_sys=9, d_env=12)
    for k in (1, 2):
        full = channel_output(QubitTimeBinSpec(k=k), p, roomy).assemble_full()
        m = full.entries
        np.testing.assert_allclose(m, m.conj().T, atol=1e-10)
        assert full.trace().real == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.eigvalsh(m).min() >= -1e-10
    # production truncation: structure intact, trace short only by the
    # documented mass above the d_sys corner
    tight = TruncationConfig.for_encoding(1)
    full = channel_output(QubitTimeBinSpec(k=3), p, tight).assemble_full()
    m = full.entries
    np.testing.assert_allclose(m, m.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(m).min() >= -1e-10
    assert full.trace().real == pytest.approx(1.0, abs=1e-3)


def test_channel_output_two_photon_blocks():
    """For the n = 2 encoding the populated diagonal block is the channel
    image of |2><2|, not of |1><1| twice."""
    from tbswap.channel import apply_channel_oracle
    from tbswap.fock import ModeOperator, fock_vector

    p = ChannelParams.from_eta_nbar(0.8, 0.05)
    cfg = TruncationConfig.for_encoding(2)
    out = channel_output(QubitTimeBinSpec(k=2, n=2), p, cfg)
    src = ModeOperator(3, np.outer(fock_vector(2, 3), fock_vector(2, 3).conj()))
    want = apply_channel_oracle(src, p, cfg)
    np.testing.assert_allclose(out.blocks[0][GROUND, GROUND], want.entries, atol=1e-12)
    assert out.blocks[0][GROUND, GROUND][2, 2].real == pytest.approx(
        p.eta**2, abs=0.05
    )


def test_channel_output_needs_headroom():
    with pytest.raises(ValueError, match="headroom"):
        channel_output(
            QubitTimeBinSpec(k=2), ChannelParams.from_eta_nbar(0.5, 0.1),
            TruncationConfig(d_sys=2, d_env=8),
        )


def test_analytic_fidelity_identity_is_exactly_one():
    ident = ChannelParams(eta=1.0, N=0.0)
    for k in range(1, 9):
        assert state_fidelity_analytic(QubitTimeBinSpec(k=k), ident) == 1.0


def test_analytic_fidelity_frozen_values():
    p = ChannelParams.from_eta_nbar(0.6, 0.1)
    for k, want in FIDELITY_06_01.items():
        got = state_fidelity_analytic(QubitTimeBinSpec(k=k), p)
        assert got == pytest.approx(want, rel=1e-12)


def test_analytic_fidelity_decreases_with_bins():
    p = ChannelParams.from_eta_nbar(0.8, 0.05)
    vals = [state_fidelity_analytic(QubitTimeBinSpec(k=k), p) for k in range(1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_analytic_fidelity_rejects_multiphoton():
    with pytest.raises(ValueError):
        state_fidelity_analytic(QubitTimeBinSpec(k=2, n=2), ChannelParams(eta=1.0, N=0.0))


def test_analytic_fidelity_monotone_in_noise_and_transmissivity():
    for k in (2, 3):
        for eta in np.linspace(0.3, 0.9, 5):
            fids = [
                state_fidelity_analytic(
                    QubitTimeBinSpec(k=k), ChannelParams.from_eta_nbar(float(eta), float(nb))
                )
                for nb in np.linspace(0.0, 0.4, 5)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
        for nb in np.linspace(0.0, 0.3, 5):
            fids = [
                state_fidelity_analytic(
                    QubitTimeBinSpec(k=k), ChannelParams.from_eta_nbar(float(eta), float(nb))
                )
                for eta in np.linspace(0.3, 0.95, 5)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(fids, fids[1:]))


def test_fidelity_shape_over_transducer_grid():
    """At nth = 0.1 the fidelity rises with extraction efficiency and peaks
    near unit cooperativity, for both the 2-bin and 4-bin encodings."""
    zetas = (0.6, 0.8, 1.0)
    coops = (0.25, 0.5, 1.0, 1.5, 2.0)
    for k in (2, 4):
        spec = QubitTimeBinSpec(k=k)

        def fid(zeta, C):
            p = transducer_to_channel(
                TransducerParams(zeta_m=zeta, zeta_o=zeta, C=C, nth=0.1)
            )
            return state_fidelity_analytic(spec, p)

        for C in coops:
            vals = [fid(z, C) for z in zetas]
            assert vals[0] < vals[1] < vals[2]
        for z in zetas:
            over_c = {C: fid(z, C) for C in coops}
            assert max(over_c, key=over_c.get) == 1.0


def test_fidelity_four_bins_below_two_bins():
    p = ChannelParams.from_eta_nbar(0.75, 0.1)
    f2 = state_fidelity_analytic(QubitTimeBinSpec(k=2), p)
    f4 = state_fidelity_analytic(QubitTimeBinSpec(k=4), p)
    assert f4 < f2


def test_oracle_fidelity_identity():
    cfg = TruncationConfig.for_encoding(1)
    ident = ChannelParams(eta=1.0, N=0.0)
    for k in (1, 2, 3):
        got = state_fidelity_oracle(QubitTimeBinSpec(k=k), ident, cfg)
        assert got == pytest.approx(1.0, abs=IDENTITY_TOL)
    cfg2 = TruncationConfig.for_encoding(2)
    assert state_fidelity_oracle(QubitTimeBinSpec(k=2, n=2), ident, cfg2) == pytest.approx(
        1.0, abs=IDENTITY_TOL
    )


def test_fidelity_paths_agree_on_grid():
    cfg = TruncationConfig.for_encoding(1)
    for k in (1, 2, 3, 4):
        for eta in (0.5, 0.8):
            for nbar in (0.0, 0.1):
                spec = QubitTimeBinSpec(k=k)
                p = ChannelParams.from_eta_nbar(eta, nbar)
                a = state_fidelity_analytic(spec, p)
                o = state_fidelity_oracle(spec, p, cfg)
                assert o == pytest.approx(a, abs=PATH_EQUIVALENCE_TOL)


@given(st.floats(min_value=0.1, max_value=0.99),
       st.floats(min_value=0.0, max_value=0.25),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_fidelity_paths_agree_random(eta, nbar, k):
    spec = QubitTimeBinSpec(k=k)
    p = ChannelParams.from_eta_nbar(eta, nbar)
    a = state_fidelity_analytic(spec, p)
    # d_env deep enough that the geometric tail clears the guard for any
    # occupation this test draws
    o = state_fidelity_oracle(spec, p, TruncationConfig(d_sys=4, d_env=14))
    assert 0.0 <= a <= 1.0 + 1e-12
    assert o == pytest.approx(a, abs=PATH_EQUIVALENCE_TOL)


def test_erasure_channel_extremes():
    """eta = 0, N = 1/2 replaces every bin with vacuum: only the k = 1
    encoding keeps any overlap (through its empty branch)."""
    erase = ChannelParams(eta=0.0, N=0.5)
    cfg = TruncationConfig.for_encoding(1)
    a1 = state_fidelity_analytic(QubitTimeBinSpec(k=1), erase)
    o1 = state_fidelity_oracle(QubitTimeBinSpec(k=1), erase, cfg)
    assert a1 == pytest.approx(0.25, abs=1e-12)
    assert o1 == pytest.approx(0.25, abs=1e-9)
    for k in (2, 3):
        assert state_fidelity_analytic(QubitTimeBinSpec(k=k), erase) == pytest.approx(
            0.0, abs=1e-12
        )
        assert state_fidelity_oracle(QubitTimeBinSpec(k=k), erase, cfg) == pytest.approx(
            0.0, abs=1e-9
        )


def test_contract_matches_full_trace():
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.7, 0.1)
    spec = QubitTimeBinSpec(k=2)
    out = channel_output(spec, p, cfg)
    ideal = ideal_state(spec)
    via_blocks = out.contract(ideal)
    full_out = out.assemble_full().entries
    full_ideal = ideal_state(spec, d=cfg.d_sys).assemble_full().entries
    via_trace = np.trace(full_out @ full_ideal).real
    assert via_blocks == pytest.approx(via_trace, rel=1e-10)


def test_contract_rejects_bin_mismatch():
    a = ideal_state(QubitTimeBinSpec(k=2))
    b = ideal_state(QubitTimeBinSpec(k=3))
    with pytest.raises(ValueError):
        a.contract(b)


def contract_reference(a, b):
    """Tr(a * b) with every bin traced, in the original loop order."""
    total = 0.0 + 0.0j
    for q in (GROUND, EXCITED):
        for qp in (GROUND, EXCITED):
            prod = 1.0 + 0.0j
            for i in range(a.k):
                x, y = a.blocks[i][q, qp], b.blocks[i][qp, q]
                m = min(x.shape[0], y.shape[0])
                prod *= np.trace(x[:m, :m] @ y[:m, :m])
            total += prod
    return float((a.norm * b.norm * total).real)


def test_contract_of_shared_bins_matches_per_bin_loop():
    """Bins that recur as the same array and distinct bins alike give the
    per-bin loop's value."""
    rng = np.random.default_rng(1313)

    def random_bin(d):
        return rng.standard_normal((2, 2, d, d)) + 1j * rng.standard_normal((2, 2, d, d))

    odd, even, lone = random_bin(4), random_bin(4), random_bin(4)
    a = HybridDensity(k=5, blocks=(odd, even, odd, lone, odd))
    b = HybridDensity(k=5, blocks=tuple(random_bin(3) for _ in range(5)))
    for x, y in ((a, b), (b, a), (a, a)):
        assert x.contract(y) == pytest.approx(contract_reference(x, y), rel=1e-13)
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.7, 0.1)
    for k in range(1, 7):
        spec = QubitTimeBinSpec(k=k)
        out = channel_output(spec, p, cfg)
        assert out.contract(ideal_state(spec)) == pytest.approx(
            contract_reference(out, ideal_state(spec)), rel=1e-13
        )


def count_oracle_calls(monkeypatch):
    """Empty the image cache and count oracle channel calls from here on."""
    calls = []

    def counting(rho, p, cfg):
        calls.append((rho.dim, p))
        return apply_channel_oracle(rho, p, cfg)

    states_module._channel_images.cache_clear()
    monkeypatch.setattr(states_module, "apply_channel_oracle", counting)
    return calls


def test_channel_images_computed_once_per_channel(monkeypatch):
    """A k = 1..6 method-both sweep and the oracle k scan map each
    (channel, n) through the oracle four times, not four times per k."""
    calls = count_oracle_calls(monkeypatch)
    doc = {
        "quantity": "swap_fidelity",
        "method": "both",
        "axis1": {"name": "k", "min": 1, "max": 6, "steps": 6},
        "fixed": {"eta": 0.65, "nbar": 0.07},
    }
    section, _, violations = cli.parse_sweep_config(doc)
    assert not violations
    assert len(cli.run_sections([section])) == 12
    assert len(calls) == 4

    calls = count_oracle_calls(monkeypatch)
    p = ChannelParams.from_eta_nbar(0.55, 0.09)
    cli._oracle_optimal_k(p, {"k_max": 6})
    assert len(calls) == 4
    assert {dim for dim, _ in calls} == {2}

    calls = count_oracle_calls(monkeypatch)
    cli.QUANTITIES["fidelity_ratio_n1_n2"].oracle(p, {})
    assert sorted(dim for dim, _ in calls) == [2] * 4 + [3] * 4


def test_channel_image_and_ideal_state_caches_are_bounded():
    cfg = TruncationConfig.for_encoding(1)
    maxsize = states_module._channel_images.cache_parameters()["maxsize"]
    assert maxsize is not None
    for eta in np.linspace(0.01, 0.99, maxsize + 5):
        states_module._channel_images(1, ChannelParams.from_eta_nbar(float(eta), 0.05), cfg)
    assert states_module._channel_images.cache_info().currsize <= maxsize
    maxsize = ideal_state.cache_parameters()["maxsize"]
    assert maxsize is not None
    for k in range(1, maxsize + 6):
        ideal_state(QubitTimeBinSpec(k=k))
    assert ideal_state.cache_info().currsize <= maxsize


def test_states_hold_one_even_bin_and_its_swapped_view():
    """Every even bin is the same array and every odd bin the same view of
    it with the qubit labels swapped, for the ideal state and the channel output."""
    cfg = TruncationConfig.for_encoding(1)
    spec = QubitTimeBinSpec(k=5)
    for state in (ideal_state(spec), channel_output(spec, ChannelParams.from_eta_nbar(0.7, 0.1), cfg)):
        even, odd = state.blocks[0], state.blocks[1]
        assert all(b is (odd if i % 2 else even) for i, b in enumerate(state.blocks))
        assert odd.base is even
        np.testing.assert_array_equal(odd, even[::-1, ::-1])


def test_cached_images_are_read_only():
    cfg = TruncationConfig.for_encoding(1)
    p = ChannelParams.from_eta_nbar(0.7, 0.1)
    images = states_module._channel_images(1, p, cfg)
    assert states_module._channel_images(1, p, cfg) is images
    with pytest.raises(ValueError):
        images[0, 0, 0, 0] = 1.0
    out = channel_output(QubitTimeBinSpec(k=2), p, cfg)
    with pytest.raises(ValueError):
        out.blocks[1][EXCITED, GROUND][1, 0] = 1.0
    with pytest.raises(ValueError):
        ideal_state(QubitTimeBinSpec(k=2)).blocks[0][GROUND, GROUND][1, 1] = 0.0
