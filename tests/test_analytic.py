"""Tests for the closed-form swap fidelities against frozen values and the
brute-force heralded-state oracle."""

import ast
import math
import random
import sys
import tracemalloc
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbswap.analytic as analytic
from tbswap.analytic import (
    Channels,
    SwapFidelityResult,
    optimal_k,
    rho_components,
    state_fidelity_analytic,
    swap_fidelity_k,
    swap_fidelity_n1,
    swap_fidelity_n2,
)
from tbswap.channel import ChannelParams
from tbswap.fock import TruncationConfig
from tbswap.states import QubitTimeBinSpec
from tbswap.swap import DetectionPattern, ImpossibleEventError, heralded_state

ORACLE_TOL = 1e-5
N1_CONSISTENCY_TOL = 1e-12

IDENT = ChannelParams(eta=1.0, N=0.0)
P_06_01 = ChannelParams.from_eta_nbar(0.6, 0.1)
P_08_01 = ChannelParams.from_eta_nbar(0.8, 0.1)
P_08_005 = ChannelParams.from_eta_nbar(0.8, 0.05)

# Frozen (K0, fidelity) landmarks for the generic-k closed form.
LANDMARKS = {
    (0.6, 0.1, 1): (0.2004713090470328, 0.6583573865127267),
    (0.6, 0.1, 2): (0.040823486387811636, 0.8540834970474188),
    (0.6, 0.1, 3): (0.010518969802919952, 0.8763657319789743),
    (0.6, 0.1, 4): (0.002747721096619669, 0.8877371396120662),
    (0.6, 0.1, 5): (0.0007414875430982624, 0.8711639783755346),
    (0.8, 0.1, 1): (0.2315844993037916, 0.8022355370607928),
    (0.8, 0.1, 2): (0.07130003937538437, 0.9682243196500426),
    (0.8, 0.1, 3): (0.02620890391369323, 0.9787781457748005),
    (0.8, 0.1, 4): (0.009745748822702465, 0.978133796567312),
}


def test_swap_fidelity_frozen_landmarks():
    for (eta, nbar, k), (k0, fid) in LANDMARKS.items():
        r = swap_fidelity_k(ChannelParams.from_eta_nbar(eta, nbar), k)
        assert r.K0 == pytest.approx(k0, rel=1e-12)
        assert r.fidelity == pytest.approx(fid, rel=1e-12)
        assert r.infidelity == pytest.approx(1.0 - fid, abs=1e-12)
        assert r.k == k and r.n == 1


def test_swap_fidelity_identity_exact():
    for k in range(1, 12):
        r = swap_fidelity_k(IDENT, k)
        assert r.fidelity == 1.0
        assert r.K0 == pytest.approx(2.0 ** (-(k + 1)), rel=1e-14)


def test_swap_fidelity_pure_loss_exact():
    """Loss without added noise keeps the heralded state perfect for
    k >= 2; the k = 1 herald cannot reject the asymmetric vacuum term."""
    p = ChannelParams.from_eta_nbar(0.7, 0.0)
    assert swap_fidelity_k(p, 1).fidelity == pytest.approx(10.0 / 13.0, rel=1e-14)
    for k in (2, 3, 4, 8):
        assert swap_fidelity_k(p, k).fidelity == 1.0


def test_swap_fidelity_rejects_bad_k():
    with pytest.raises(ValueError):
        swap_fidelity_k(P_06_01, 0)


def test_dedicated_two_bin_form_matches_generic():
    """swap_fidelity_n1 is a separate transcription of the k = 2 case; the
    generic branch must reproduce it."""
    for p in (P_06_01, P_08_01, P_08_005, ChannelParams.from_eta_nbar(0.45, 0.22)):
        a = swap_fidelity_n1(p)
        b = swap_fidelity_k(p, 2)
        assert abs(a.fidelity - b.fidelity) < N1_CONSISTENCY_TOL
        assert abs(a.K0 - b.K0) < N1_CONSISTENCY_TOL


def test_two_photon_form_identity_and_frozen():
    r = swap_fidelity_n2(IDENT)
    assert r.fidelity == pytest.approx(1.0, abs=1e-14)
    assert r.K0 == pytest.approx(1.0 / 32.0, rel=1e-14)
    assert r.n == 2 and r.k == 2
    r61 = swap_fidelity_n2(P_06_01)
    assert r61.K0 == pytest.approx(0.003968863174622608, rel=1e-12)
    assert r61.fidelity == pytest.approx(0.8071960345186738, rel=1e-12)


def test_single_photon_beats_two_photon():
    """Frozen fidelity ratios for the n = 1 versus n = 2 comparison."""
    assert swap_fidelity_n1(P_06_01).fidelity / swap_fidelity_n2(P_06_01).fidelity == (
        pytest.approx(1.0580868345775558, rel=1e-12)
    )
    assert swap_fidelity_n1(P_08_005).fidelity / swap_fidelity_n2(P_08_005).fidelity == (
        pytest.approx(1.0052858649933678, rel=1e-12)
    )
    p = ChannelParams.from_eta_nbar(0.9, 0.2)
    assert swap_fidelity_n1(p).fidelity / swap_fidelity_n2(p).fidelity == pytest.approx(
        1.005370258873601, rel=1e-12
    )


def test_ratio_at_least_one_where_two_photon_useful():
    for eta in np.linspace(0.35, 0.95, 7):
        for nbar in np.linspace(0.0, 0.3, 7):
            p = ChannelParams.from_eta_nbar(float(eta), float(nbar))
            f2 = swap_fidelity_n2(p).fidelity
            if f2 <= 0.5:
                continue
            assert swap_fidelity_n1(p).fidelity >= f2 - 1e-12


def test_success_weight_strictly_decreasing_in_k():
    for p in (P_06_01, P_08_01):
        k0s = [swap_fidelity_k(p, k).K0 for k in range(1, 21)]
        assert all(a > b for a, b in zip(k0s, k0s[1:]))


def test_fidelity_not_monotone_in_k():
    """More bins reject more noise events but admit more dephasing, so the
    fidelity rises and then falls; freeze the turning point."""
    infs = [swap_fidelity_k(P_06_01, k).infidelity for k in range(1, 11)]
    assert infs[0] > infs[1] > infs[2] > infs[3]
    assert all(a <= b + 1e-15 for a, b in zip(infs[3:], infs[4:]))
    np.testing.assert_allclose(
        infs[:4],
        [0.34164261348727326, 0.14591650295258122, 0.12363426802102568, 0.11226286038793376],
        rtol=1e-12,
    )


def test_fidelity_bounded_by_coherence_floor():
    """F(k) never exceeds the coherence ratio (1 + [rho]_23/[rho]_33)/2."""
    for eta in (0.4, 0.6, 0.8, 0.95):
        for nbar in (0.0, 0.05, 0.15, 0.3):
            p = ChannelParams.from_eta_nbar(eta, nbar)
            for k in (1, 2, 3, 5, 8, 13):
                _, ratio = rho_components(p, k)
                assert swap_fidelity_k(p, k).fidelity <= ratio + 1e-12


def test_large_k_stays_finite():
    r = swap_fidelity_k(P_06_01, 64)
    assert r.K0 == pytest.approx(2.875985844750829e-37, rel=1e-12)
    assert r.fidelity == pytest.approx(0.5130130382420579, rel=1e-12)


@given(st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=12))
def test_swap_fidelity_wellformed(eta, nbar, k):
    r = swap_fidelity_k(ChannelParams.from_eta_nbar(eta, nbar), k)
    assert r.K0 > 0.0
    assert 0.0 <= r.fidelity <= 1.0 + 1e-12
    assert r.infidelity == pytest.approx(1.0 - r.fidelity, abs=1e-12)


def test_zero_weight_herald_is_a_typed_error():
    """eta = 0 at pure loss delivers no photon, so K0 = 0 exactly; every
    closed form that divides by K0 raises instead."""
    dark = ChannelParams.from_eta_nbar(0.0, 0.0)
    for call in (
        lambda: swap_fidelity_k(dark, 2),
        lambda: swap_fidelity_n1(dark),
        lambda: swap_fidelity_n2(dark),
        lambda: rho_components(dark, 3),
        lambda: optimal_k(dark, 4),
    ):
        with pytest.raises(ImpossibleEventError, match="probability"):
            call()


def test_rho_components_frozen():
    assert rho_components(P_06_01, 2) == pytest.approx(
        (0.04863883431752709, 0.9461198281824008), rel=1e-12
    )
    assert rho_components(P_06_01, 3) == pytest.approx(
        (0.04216123349452818, 0.9213978225904289), rel=1e-12
    )
    assert rho_components(P_08_01, 4) == pytest.approx(
        (0.00023408388852030768, 0.9785919417813256), rel=1e-12
    )


def test_rho_components_pure_loss():
    p = ChannelParams.from_eta_nbar(0.7, 0.0)
    for k in (2, 3, 5):
        pop, ratio = rho_components(p, k)
        assert pop == 0.0
        assert ratio == 1.0


def test_rho_components_match_oracle():
    cfg = TruncationConfig(d_env=8)
    for eta, nbar, k in ((0.6, 0.1, 2), (0.8, 0.05, 3)):
        p = ChannelParams.from_eta_nbar(eta, nbar)
        out = heralded_state(p, p, QubitTimeBinSpec(k=k), DetectionPattern.canonical(k), cfg)
        pop, ratio = rho_components(p, k)
        assert out.rho[0, 0].real == pytest.approx(pop, abs=1e-6)
        oracle_ratio = 0.5 + 0.5 * (out.rho[1, 2].real / out.rho[2, 2].real)
        assert oracle_ratio == pytest.approx(ratio, abs=1e-6)


def test_coherence_ratio_decays_toward_half():
    ratios = [rho_components(P_06_01, k)[1] for k in range(1, 13)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 0.5 for r in ratios)
    # geometric decay: the excess over 1/2 shrinks by a constant factor
    excess = [r - 0.5 for r in ratios]
    factors = [b / a for a, b in zip(excess, excess[1:])]
    np.testing.assert_allclose(factors, factors[0], rtol=1e-9)
    assert rho_components(P_06_01, 500)[1] - 0.5 < 1e-10


def test_optimal_k_landmarks():
    assert optimal_k(P_06_01) == (4, pytest.approx(0.11226286038793376, rel=1e-12))
    assert optimal_k(P_06_01, k_max=16) == optimal_k(P_06_01)
    assert optimal_k(P_08_01) == (3, pytest.approx(0.02122185422519951, rel=1e-12))


def test_optimal_k_degenerate_channels():
    """Ties break toward fewer bins: the identity is already perfect at
    k = 1, pure loss needs exactly the second bin."""
    assert optimal_k(IDENT) == (1, 0.0)
    assert optimal_k(ChannelParams.from_eta_nbar(0.7, 0.0)) == (2, 0.0)


def test_optimal_k_respects_k_max():
    k_star, inf = optimal_k(P_06_01, k_max=2)
    assert k_star == 2
    assert inf == pytest.approx(0.14591650295258122, rel=1e-12)
    with pytest.raises(ValueError):
        optimal_k(P_06_01, k_max=0)


def test_swap_matches_heralded_oracle():
    cfg = TruncationConfig(d_env=8)
    for eta in (0.5, 0.8):
        for nbar in (0.0, 0.1):
            p = ChannelParams.from_eta_nbar(eta, nbar)
            for k in (1, 2, 3):
                r = swap_fidelity_k(p, k)
                out = heralded_state(
                    p, p, QubitTimeBinSpec(k=k), DetectionPattern.canonical(k), cfg
                )
                assert out.fidelity_phi_plus == pytest.approx(r.fidelity, abs=ORACLE_TOL)
                assert out.success_probability == pytest.approx(r.K0, abs=ORACLE_TOL)


def test_two_photon_matches_heralded_oracle():
    cfg = TruncationConfig.for_encoding(2)
    p = P_08_005
    r = swap_fidelity_n2(p)
    out = heralded_state(
        p, p, QubitTimeBinSpec(k=2, n=2),
        DetectionPattern(k=2, counts=((2, 0), (2, 0))), cfg,
    )
    assert out.fidelity_phi_plus == pytest.approx(r.fidelity, abs=ORACLE_TOL)
    assert out.success_probability == pytest.approx(r.K0, abs=ORACLE_TOL)


def test_state_fidelity_reexport():
    assert not hasattr(analytic, "state_fidelity_k")
    assert state_fidelity_analytic(QubitTimeBinSpec(k=2), IDENT) == 1.0


def test_analytic_imports_no_oracle_module():
    """The closed forms stay independent of the Fock-space path: analytic
    imports nothing from fock, states or swap."""
    tree = ast.parse(Path(analytic.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert not imported & {"fock", "states", "swap"}


def test_result_dataclass_fields():
    r = SwapFidelityResult(k=3, n=1, K0=0.01, log_K0=-4.6, fidelity=0.9, infidelity=0.1)
    assert (r.k, r.n) == (3, 1)
    with pytest.raises(AttributeError):
        r.fidelity = 0.5


# ---------------------------------------------------------------------------
# the array engine over the whole input domain

# Physical channels over the float range: eta in [0, 1], N from half the
# rounding slack ChannelParams accepts below the pure-loss line up to 1e308.
extreme_eta = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0 - 2**-53, 1.0]
)
excess_noise = st.floats(min_value=-5e-13, max_value=1e308) | st.sampled_from(
    [-5e-13, 0.0, 5e-324, 1e-300, 1e-16, 1e-8, 1.0, 1e100, 1e300, 1e308]
)


@st.composite
def physical_channels(draw):
    eta = draw(extreme_eta)
    if eta == 1.0:  # unit transmissivity allows no noise
        return IDENT
    return ChannelParams(eta=eta, N=max((1.0 - eta) / 2.0 + draw(excess_noise), 0.0))


def possible(p: ChannelParams) -> bool:
    """The canonical herald has nonzero probability unless eta = 0 at pure loss."""
    return p.eta > 0.0 or p.t > 1.0


def in_unit(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


@settings(max_examples=400, deadline=None)
@given(p=physical_channels(), k=st.integers(min_value=1, max_value=10_000))
def test_engine_is_finite_and_in_range_or_impossible(p, k):
    state = state_fidelity_analytic(QubitTimeBinSpec(k=k), p)
    assert in_unit(state)
    calls = (
        lambda: swap_fidelity_k(p, k), swap_fidelity_n1, swap_fidelity_n2,
        lambda: rho_components(p, k), lambda: optimal_k(p, min(k, 64)),
    )
    if not possible(p):
        for call in calls:
            with pytest.raises(ImpossibleEventError, match="probability"):
                call() if call.__name__ == "<lambda>" else call(p)
        return
    for r in (swap_fidelity_k(p, k), swap_fidelity_n1(p), swap_fidelity_n2(p)):
        assert in_unit(r.fidelity) and in_unit(r.infidelity) and in_unit(r.K0)
        assert math.isfinite(r.log_K0) and r.log_K0 <= 1e-12
        assert r.fidelity + r.infidelity == pytest.approx(1.0, abs=1e-12)
    rho11, ratio = rho_components(p, k)
    assert in_unit(rho11) and 0.5 <= ratio <= 1.0
    k_star, best = optimal_k(p, min(k, 64))
    assert 1 <= k_star <= min(k, 64) and in_unit(best)


class Spec(NamedTuple):
    k: Any
    n: Any = 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(physical_channels(), st.integers(min_value=1, max_value=300)),
                min_size=1, max_size=12))
def test_array_call_equals_scalar_calls_bit_for_bit(points):
    points = [(p, k) for p, k in points if possible(p)]
    if not points:
        return
    channels = Channels.of([p for p, _ in points])
    ks = np.array([k for _, k in points])
    swap = swap_fidelity_k(channels, ks)
    n1, n2 = swap_fidelity_n1(channels), swap_fidelity_n2(channels)
    state = state_fidelity_analytic(Spec(ks), channels)
    rho = rho_components(channels, ks)
    best = optimal_k(channels, 40)
    fields = ("K0", "log_K0", "fidelity", "infidelity")
    for i, (p, k) in enumerate(points):
        for array, scalar in ((swap, swap_fidelity_k(p, k)), (n1, swap_fidelity_n1(p)),
                              (n2, swap_fidelity_n2(p))):
            assert [getattr(array, f)[i] for f in fields] == [getattr(scalar, f) for f in fields]
        assert state[i] == state_fidelity_analytic(QubitTimeBinSpec(k=k), p)
        assert (rho[0][i], rho[1][i]) == rho_components(p, k)
        assert (best[0][i], best[1][i]) == optimal_k(p, 40)


def mp_optimal_k(p: ChannelParams, k_max: int) -> int:
    """k* by the source formulas in t at 50 digits, with the engine's scan end
    (K0 below the smallest normal double) and tie rule."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        eta, t = mpmath.mpf(p.eta), mpmath.mpf(p.t)
        hd = (eta + 2 * (t - 1) * (t - eta)) / (2 * t**4)
        b = eta / (2 * t**4)
        pair = (t - 1) * (t - eta) * (t * t + 2 * eta - t * (1 + eta)) / t**8
        odd = (2 * t**3 - 2 * eta**2 - 2 * t * t * (1 + eta) + t * eta * (3 + eta)) / t**5
        infidelities = []
        for k in range(1, k_max + 1):
            k0 = pair ** (k // 2) * (odd / 4 if k % 2 else mpmath.mpf(0.5)) + hd**k / 2
            if k > 1 and k0 < sys.float_info.min:
                break
            infidelities.append(1 - (hd**k + b**k) / (4 * k0))
        best = min(infidelities)
        return next(k for k, inf in enumerate(infidelities, 1) if inf - best <= 1e-12)


def test_optimal_k_matches_mpmath_argmin():
    rng = random.Random(20251019)
    sample = [ChannelParams.from_eta_nbar(0.7, 0.0), IDENT, P_06_01, P_08_01]
    sample += [ChannelParams.from_eta_nbar(rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.5))
               for _ in range(24)]
    for p in sample:
        for k_max in (16, 64):
            assert optimal_k(p, k_max)[0] == mp_optimal_k(p, k_max), (p, k_max)


def test_optimal_k_working_memory_is_blocked():
    """3,600 channels scanned to k_max 4,096: the identity channel's scan runs
    to k = 1,022, so one unblocked temporary would hold 29 MB."""
    grid = [ChannelParams.from_eta_nbar(eta, nbar)
            for eta in np.linspace(0.3, 1.0, 60) for nbar in np.linspace(0.0, 0.3, 60)]
    channels = Channels.of(grid)
    tracemalloc.start()
    try:
        k_star, _ = optimal_k(channels, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert k_star.shape == (3600,) and k_star.max() <= 4096
