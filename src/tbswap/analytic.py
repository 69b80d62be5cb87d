"""Closed-form state-transfer and heralded-swap quantities.

Every quantity here is an explicit formula in the channel parameters; none
of them touches Fock space, and the module imports only channel. They are
the fast path for sweeps and the independent counterpart to the
brute-force routes in modules states and swap: tests hold the two within
1e-5 everywhere both exist, and neither is derived from the other in code.

All expressions are written in terms of eta and t = (1 + eta)/2 + N. The
recurring per-bin quantities, for the canonical herald (one photon at port A
in every bin), are

    a0 = (t - 1)/t^3                                   empty bin feeds the herald
    a1 = (t - eta)(t^2 + 2 eta - t(1 + eta))/t^5       doubly occupied bin does
    hd = (3 eta + 2t(t - eta - 1))/(2 t^4)             one-photon branches, diagonal
    b  = eta/(2 t^4)                                   one-photon branches, coherence

The long k = 2 polynomials are transcribed verbatim from their source
derivation and guarded by checkpoints (identity channel values, oracle
agreement) rather than re-simplified by hand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .channel import ChannelParams, ImpossibleEventError

# optimal_k picks the smallest k within this of the scan's minimum infidelity,
# so k* does not follow rounding noise among tied k (every k >= 2 at pure loss).
K_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SwapFidelityResult:
    """Closed-form output for one operating point.

    K0 is the unnormalized success weight of the canonical herald (the
    pattern probability); fidelity is the heralded overlap with |Phi+>.
    """

    k: int
    n: int
    K0: float
    fidelity: float
    infidelity: float


def _bases(p: ChannelParams) -> tuple[float, float, float, float]:
    t = p.t
    eta = p.eta
    a0 = (t - 1.0) / t**3
    a1 = (t - eta) * (t * t + 2.0 * eta - t * (1.0 + eta)) / t**5
    # 3 eta + 2t(t - eta - 1) rewritten as eta + 2(t - 1)(t - eta): identical
    # algebra, but at pure loss (t = 1) hd and b become the same float, so
    # F = 1 holds exactly instead of drifting above 1 by k ulps.
    hd = (eta + 2.0 * (t - 1.0) * (t - eta)) / (2.0 * t**4)
    b = eta / (2.0 * t**4)
    return a0, a1, hd, b


def state_fidelity_analytic(spec, p: ChannelParams) -> float:
    """Closed-form transfer fidelity F(k, eta, N) for single-photon encodings.

    spec is a states.QubitTimeBinSpec; only its k and n are read. With
    t = (1 + eta)/2 + N, the per-bin channel matrix elements combine to

        F = (1/2) [ (t^2 + 2 eta - t(1 + eta)) / t^4 ]^(k/2) + eta^(k/2) / (2 t^(2k))

    for even k, and for odd k = 2l + 1 the first term is replaced by
    [...]^l (2t^2 + 2 eta - t(1 + eta)) / (4 t^3). Both collapse to 1 on the
    identity channel.
    """
    if spec.n != 1:
        raise ValueError("closed form covers single-photon encodings only (n = 1)")
    t = p.t
    eta = p.eta
    k = spec.k
    base = (t * t + 2.0 * eta - t * (1.0 + eta)) / t**4
    coh = math.sqrt(eta) ** k / (2.0 * t ** (2 * k))
    if k % 2 == 0:
        return 0.5 * base ** (k // 2) + coh
    l = k // 2
    return base**l * (2.0 * t * t + 2.0 * eta - t * (1.0 + eta)) / (4.0 * t**3) + coh


def _heralded(k0: float, p: ChannelParams, k: int) -> float:
    """Pass a herald weight through, or raise when it is 0 in double precision.

    K0 = 0 exactly at eta = 0 without thermal noise (no photon reaches the
    detectors), and K0 underflows to 0 at very large k; no heralded state
    exists to score either way.
    """
    if not k0 > 0.0:
        raise ImpossibleEventError(
            f"the canonical {k}-bin herald has probability K0 = {k0!r} "
            f"at eta = {p.eta!r}, N = {p.N!r}"
        )
    return k0


def _k0(p: ChannelParams, k: int) -> float:
    """Success weight K0 of the canonical k-bin herald, odd/even branches."""
    t = p.t
    eta = p.eta
    _, _, hd, _ = _bases(p)
    pair = (t - 1.0) * (t - eta) * (t * t + 2.0 * eta - t * (1.0 + eta)) / t**8
    if k % 2 == 0:
        return 0.5 * pair ** (k // 2) + 0.5 * hd**k
    l = k // 2
    odd_bracket = (
        2.0 * t**3
        - 2.0 * eta**2
        - 2.0 * t * t * (1.0 + eta)
        + t * eta * (3.0 + eta)
    ) / t**5
    return 0.25 * pair**l * odd_bracket + 0.5 * hd**k


def swap_fidelity_k(p: ChannelParams, k: int) -> SwapFidelityResult:
    """Heralded-swap fidelity for the single-photon k-bin encoding.

    K0 F = (1/4) hd^k + (1/4) b^k regardless of parity; K0 takes the odd or
    even branch. Bases are evaluated once and exponentiated, so the result
    is stable out to k = 64 and beyond.
    """
    if k < 1:
        raise ValueError(f"need at least one bin, got k = {k}")
    _, _, hd, b = _bases(p)
    k0 = _heralded(_k0(p, k), p, k)
    k0f = 0.25 * hd**k + 0.25 * b**k
    fid = k0f / k0
    return SwapFidelityResult(k=k, n=1, K0=k0, fidelity=fid, infidelity=1.0 - fid)


def swap_fidelity_n1(p: ChannelParams) -> SwapFidelityResult:
    """Two-bin single-photon case in its dedicated closed form.

    Algebraically this is swap_fidelity_k(p, 2); it is kept as a separate
    verbatim transcription so the generic-k branch logic can be tested
    against it.
    """
    t = p.t
    eta = p.eta
    tr = (t - 1.0) * (t - eta) * (t * t + 2.0 * eta - t * (1.0 + eta)) / (
        2.0 * t**8
    ) + 0.5 * ((3.0 * eta + 2.0 * t * (t - 1.0 - eta)) / (2.0 * t**4)) ** 2
    tr_f = ((2.0 * t * (t - 1.0 - eta) + 3.0 * eta) ** 2 + eta * eta) / (16.0 * t**8)
    fid = tr_f / _heralded(tr, p, 2)
    return SwapFidelityResult(k=2, n=1, K0=tr, fidelity=fid, infidelity=1.0 - fid)


def swap_fidelity_n2(p: ChannelParams) -> SwapFidelityResult:
    """Two-bin two-photon case, herald [(2,0), (2,0)].

    Both polynomials transcribed verbatim; checkpoints at the identity
    channel are Tr = 1/32 (the eta^4 coefficient collapses to 289 - 288 = 1)
    and F = 1 (85 - 84 = 1).
    """
    t = p.t
    eta = p.eta
    tr = (
        32.0 * (t - 1.0) ** 4 * t**4
        - 128.0 * (t - 2.0) * (t - 1.0) ** 3 * t**3 * eta
        + 16.0 * (t - 1.0) ** 2 * t * t * (43.0 + 12.0 * (t - 4.0) * t) * eta**2
        - 16.0 * (t - 1.0) * t * (-47.0 + 2.0 * t * (43.0 + 4.0 * (t - 6.0) * t)) * eta**3
        + (289.0 + 16.0 * t * (-47.0 + t * (43.0 + 2.0 * (t - 8.0) * t))) * eta**4
    ) / (32.0 * t**12)
    tr_f = (
        8.0 * (t - 1.0) ** 4 * t**4
        - 32.0 * (t - 2.0) * (t - 1.0) ** 3 * t**3 * eta
        + 12.0 * (t - 1.0) ** 2 * t * t * (2.0 * t - 5.0) * (2.0 * t - 3.0) * eta**2
        - 8.0 * (t - 2.0) * (t - 1.0) * t * (13.0 + 4.0 * (t - 4.0) * t) * eta**3
        + (85.0 + 4.0 * (t - 4.0) * t * (13.0 + 2.0 * (t - 4.0) * t)) * eta**4
    ) / (32.0 * t**12)
    fid = tr_f / _heralded(tr, p, 2)
    return SwapFidelityResult(k=2, n=2, K0=tr, fidelity=fid, infidelity=1.0 - fid)


def rho_components(p: ChannelParams, k: int) -> tuple[float, float]:
    """Structure of the heralded matrix: depolarization and decoherence.

    Returns (rho11_factor, coherence_ratio) for the canonical k-bin herald:

    * rho11_factor is the normalized matrix element [rho]_11 = [rho]_gg,gg,
      the weight that leaked out of the odd-parity subspace. Its
      unnormalized form is (1/4) a1^ceil(k/2) a0^floor(k/2); for even k that
      collapses to the familiar (a0 a1)^(k/2) pair power.
    * coherence_ratio is 1/2 + (1/2)[eta / (2t(t - eta - 1) + 3 eta)]^k, the
      Phi+ weight within the surviving one-photon-per-bin subspace,
      equivalently (1 + [rho]_23/[rho]_33)/2. It decays from 1 (pure loss)
      to the 1/2 floor that bounds the large-k fidelity.
    """
    if k < 1:
        raise ValueError(f"need at least one bin, got k = {k}")
    a0, a1, hd, b = _bases(p)
    k0 = _heralded(_k0(p, k), p, k)
    rho11 = 0.25 * a1 ** ((k + 1) // 2) * a0 ** (k // 2) / k0
    ratio = 0.5 + 0.5 * (b / hd) ** k
    return rho11, ratio


def pick_k(infidelities: list[float]) -> tuple[int, float]:
    """(k*, its infidelity) for a scan over k = 1, 2, ...: the smallest k
    within K_TIE_TOL of the minimum (the identity channel returns k = 1)."""
    best = min(infidelities)
    k = next(k for k, inf in enumerate(infidelities, 1) if inf - best <= K_TIE_TOL)
    return k, infidelities[k - 1]


def optimal_k(p: ChannelParams, k_max: int = 32) -> tuple[int, float]:
    """Exhaustive argmin of the swap infidelity over k in [1, k_max], ties by pick_k.

    K0 shrinks geometrically with k. The scan stops at the first k > 1 whose
    K0 falls below the smallest normal float, where K0 and K0 F keep too few
    digits to give F (every larger k falls below too). Only an impossible
    k = 1 herald raises ImpossibleEventError.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    infidelities = [swap_fidelity_k(p, 1).infidelity]
    for k in range(2, k_max + 1):
        try:
            result = swap_fidelity_k(p, k)
        except ImpossibleEventError:
            break
        if result.K0 < sys.float_info.min:
            break
        infidelities.append(result.infidelity)
    return pick_k(infidelities)
