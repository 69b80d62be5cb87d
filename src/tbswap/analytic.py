"""Closed-form state-transfer and heralded-swap quantities, as one array engine.

Every quantity here is an explicit formula in the channel parameters; none
of them touches Fock space, and the module imports only channel. They are
the fast path for sweeps and the independent counterpart to the
brute-force routes in modules states and swap: tests hold the two within
1e-5 everywhere both exist, and neither is derived from the other in code.

The source derivation writes everything in eta and t = (1 + eta)/2 + N. Its
recurring per-bin quantities, for the canonical herald (one photon at
port A in every bin), are

    a0 = (t - 1)/t^3                                   empty bin feeds the herald
    a1 = (t - eta)(t^2 + 2 eta - t(1 + eta))/t^5       doubly occupied bin does
    hd = (3 eta + 2t(t - eta - 1))/(2 t^4)             one-photon branches, diagonal
    bc = eta/(2 t^4)                                   one-photon branches, coherence

Powers of t overflow at large N and powers of hd underflow at large k, so
the engine works in u = 1/t in (0, 1] instead. With

    x = (t - 1)/t,   y = (t - eta)/t,   s = x y,   q = eta u^2,   h = q + 2s,

each of them nonnegative, hd = h u^2/2 and t^2 + 2 eta - t(1 + eta) =
(s + q) t^2. Every closed form is divided by hd^k, which leaves O(1) factors:

    r = bc/hd = q/h,   A0 = a0/hd = 2x/h,   A1 = a1/hd = 2y(s + q)/h,
    K = K0/hd^k = (A0 A1)^l/2 + 1/2 (k = 2l),  (A0 A1)^l (A0 + A1)/4 + 1/2 (k = 2l + 1),
    F = (1 + r^k)/(4K),   1 - F = (K - 1/2 - expm1(k log r)/4)/K,
    log r = -log1p(2s/q),   log K0 = k (log(h/2) - 2 log t) + log K.

No power of t is formed, and nothing cancels: every sum above adds
nonnegative terms. K0 enters only through its logarithm, so it may underflow
to 0 where F is still exact. The herald is impossible (K0 = 0) only where
h = 0, that is eta = 0 at pure loss, and every herald function raises
ImpossibleEventError if any point has h = 0.

Shapes: every function takes channels p, anything with attributes eta and t
(a ChannelParams, or a Channels of arrays), and integer bin counts k, and
broadcasts them together. Arrays in give arrays out; a ChannelParams and an
int give Python numbers. optimal_k scans a (points x k) array in blocks of
at most BLOCK elements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

import numpy as np

from .channel import ChannelParams, ImpossibleEventError

# optimal_k picks the smallest k within this of the scan's minimum infidelity,
# so k* does not follow rounding noise among tied k (every k >= 2 at pure loss).
K_TIE_TOL = 1e-12

# optimal_k ends a scan at the first k > 1 whose K0 falls below the smallest
# normal double; it evaluates at most this many (point, k) elements at once.
LOG_MIN = math.log(sys.float_info.min)
BLOCK = 1 << 13
LOG2, LOG32 = math.log(2.0), math.log(32.0)

# Bin counts enter products with floats, which hold every integer up to here.
K_MAX = 2**53

DEFAULT_K_MAX = 32  # of optimal_k, and of every scan over k that sets none


class Channels(NamedTuple):
    """Channels for the array engine: eta and t = (1 + eta)/2 + N as arrays."""

    eta: Any
    t: Any

    @classmethod
    def of(cls, channels: Iterable[ChannelParams]) -> "Channels":
        """Stack channels, taken one at a time from an iterable."""
        pairs = np.fromiter(((p.eta, p.t) for p in channels), dtype=(float, 2))
        return cls(pairs[:, 0], pairs[:, 1])


@dataclass(frozen=True)
class SwapFidelityResult:
    """Closed-form output at one operating point, or arrays of them.

    K0 is the unnormalized success weight of the canonical herald (the
    pattern probability) and log_K0 its logarithm, finite where K0
    underflows; fidelity is the heralded overlap with |Phi+>.
    """

    k: Any
    n: int
    K0: Any
    log_K0: Any
    fidelity: Any
    infidelity: Any


def _flat(p, k=1) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """(shape, eta, t, k): the channels p and bin counts k broadcast together
    and flattened into contiguous arrays, so every element meets the same
    numpy loops whatever the shape of the call (numpy's power rounds 0-d,
    strided and contiguous operands differently)."""
    k = np.asarray(k)
    outside = (k < 1) | (k > K_MAX)
    if outside.any():
        raise ValueError(f"bin counts must lie in [1, 2^53], got k = {k[outside].flat[0]}")
    eta, t, k = np.broadcast_arrays(
        np.asarray(p.eta, dtype=float), np.asarray(p.t, dtype=float), k.astype(np.int64)
    )
    return eta.shape, eta.ravel(), t.ravel(), k.ravel()


def _out(shape: tuple[int, ...], *arrays):
    """The flat results in the call's shape: Python numbers for a 0-d call."""
    if shape == ():
        return tuple(a.item() for a in arrays)
    return tuple(a.reshape(shape) for a in arrays)


def _terms(eta: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """(t, u, x, y, s, q) of the channels (eta, t).

    A channel within PHYSICALITY_TOL below the pure-loss line has t < 1 by
    rounding alone; it is read as pure loss, t = 1, so x and s stay >= 0.
    """
    eta = np.abs(eta)  # eta = -0.0 would make q = -0.0
    t = np.maximum(t, 1.0)
    u = 1.0 / t
    x = (t - 1.0) / t
    y = (t - eta) / t
    return t, u, x, y, x * y, eta * u * u


def _herald_terms(eta: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """(t, x, y, h, s/h, q/h) of the channels (eta, t); raises
    ImpossibleEventError if any has h = 0. s/h and q/h are O(1) where s and
    q underflow."""
    t, _, x, y, s, q = _terms(eta, t)
    h = q + 2.0 * s
    if not (h > 0.0).all():
        i = np.argmin(h)
        raise ImpossibleEventError(
            f"the canonical herald has probability K0 = 0 at eta = {eta[i].item()!r}, "
            f"t = {t[i].item()!r}: no photon reaches the detectors"
        )
    return t, x, y, h, s / h, q / h


def _bins(eta: np.ndarray, t: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """The canonical k-bin herald over hd^k: (A1, (A0 A1)^l, k odd, K - 1/2,
    K, expm1(k log r), log K0)."""
    t, x, y, h, sh, r = _herald_terms(eta, t)
    a0 = 2.0 * x / h
    a1 = 2.0 * y * (sh + r)
    half, odd = np.divmod(k, 2)
    pl = np.power(a0 * a1, half)
    odd = odd == 1
    extra = np.where(odd, 0.25 * pl * (a0 + a1), 0.5 * pl)
    big = extra + 0.5
    with np.errstate(divide="ignore", over="ignore"):  # r = 0 or subnormal: r^k = 0
        rk_m1 = np.expm1(-k * np.log1p(2.0 * sh / r))
    log_k0 = k * (np.log(h) - LOG2 - 2.0 * np.log(t)) + np.log(big)
    return a1, pl, odd, extra, big, rk_m1, log_k0


def _photon_sums(n: np.ndarray, s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_i C(n, i)^2 q^i s^(n - i) for each point's n >= 1: nonnegative
    terms, each the exp of its logarithm, so no binomial overflows."""
    i = np.arange(n.max() + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(i[1:]))))
    n, s, q = n[:, None], s[:, None], q[:, None]
    rest = np.maximum(n - i, 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf; 0 log 0 is masked
        log_terms = 2.0 * (log_fact[n] - log_fact[i] - log_fact[rest]) + np.where(
            i > 0, i * np.log(q), 0.0) + np.where(rest > 0, rest * np.log(s), 0.0)
    return np.where(i <= n, np.exp(log_terms), 0.0).sum(axis=-1)


def state_fidelity_analytic(spec, p: ChannelParams) -> float:
    """Closed-form transfer fidelity F(k, n, eta, N) of the time-bin encodings.

    spec is a states.QubitTimeBinSpec, or anything with k and n (numbers or
    arrays; n broadcasts to the shape of k and p); only those are read, and
    n > 1 only at k = 2. With t = (1 + eta)/2 + N, single photons (n = 1) give

        F = (1/2) [ (t^2 + 2 eta - t(1 + eta)) / t^4 ]^(k/2) + eta^(k/2) / (2 t^(2k))

    for even k, and for odd k = 2l + 1 the first term is replaced by
    [...]^l (2t^2 + 2 eta - t(1 + eta)) / (4 t^3). In u = 1/t the bracket is
    (s + q) u^2, the odd factor u (1 + s + q)/4 and the last term
    (sqrt(q) u)^k/2. Both collapse to 1 on the identity channel.

    n photons in two bins, from characteristic functions: the channel maps
    chi(xi) to chi(sqrt(eta) xi) e^(-N |xi|^2), Tr(rho sigma) =
    (1/pi) int chi_rho(xi) chi_sigma(-xi) d^2 xi, and |n><n| has chi =
    e^(-|xi|^2/2) L_n(|xi|^2). Over x = |xi|^2, P_nn = <n|E(|n><n|)|n> =
    int_0^inf e^(-t x) L_n(eta x) L_n(x) dx = u sum_i C(n, i)^2 q^i s^(n - i),
    <0|E(|0><0|)|0> = 1/t and <n|E(|n><0|)|0> = eta^(n/2)/t^(n+1); two
    population and two coherence terms, of weight 1/4 each, give

        F = P_nn/(2t) + eta^n/(2 t^(2n+2)) = (u^2/2) [ sum_i C(n, i)^2 q^i s^(n - i) + q^n ],

    nonnegative terms. At n = 1 it is the even form at k = 2, which n = 1
    points keep.
    """
    shape, eta, t, k = _flat(p, spec.k)
    _, u, _, _, s, q = _terms(eta, t)
    half, odd = np.divmod(k, 2)
    base = np.power((s + q) * u * u, half)
    coh = 0.5 * np.power(np.sqrt(q) * u, k)
    fid = np.where(odd == 1, 0.25 * base * u * (1.0 + s + q), 0.5 * base) + coh
    if (np.asarray(spec.n) != 1).any():
        n = np.broadcast_to(spec.n, shape).ravel()
        many = n != 1
        if ((n[many] < 1) | (k[many] != 2)).any():
            raise ValueError("need n >= 1 photons, and n > 1 only at k = 2")
        n, u, s, q = n[many], u[many], s[many], q[many]
        fid[many] = 0.5 * u * u * (_photon_sums(n, s, q) + np.power(q, n))
    return _out(shape, fid)[0]


def swap_fidelity_k(p: ChannelParams, k: int) -> SwapFidelityResult:
    """Heralded-swap fidelity for the single-photon k-bin encoding.

    K0 F = (1/4) hd^k + (1/4) bc^k regardless of parity; K0 takes the odd or
    even branch. Both are divided by hd^k (module docstring), so the result
    is finite and in [0, 1] for every k and every channel with h > 0.
    """
    shape, eta, t, kk = _flat(p, k)
    _, _, _, extra, big, rk_m1, log_k0 = _bins(eta, t, kk)
    fid = (0.5 + 0.25 * rk_m1) / big
    infid = (extra - 0.25 * rk_m1) / big
    fid, infid, k0, log_k0 = _out(shape, fid, infid, np.exp(log_k0), log_k0)
    return SwapFidelityResult(k=k, n=1, K0=k0, log_K0=log_k0, fidelity=fid, infidelity=infid)


def _two_bin(n: int, shape, tr, tr_f, tr_inf, log_scale) -> SwapFidelityResult:
    """A two-bin result from Tr, Tr F and Tr (1 - F), each over exp(log_scale)."""
    log_k0 = np.log(tr) + log_scale
    k0, log_k0, fid, infid = _out(shape, np.exp(log_k0), log_k0, tr_f / tr, tr_inf / tr)
    return SwapFidelityResult(k=2, n=n, K0=k0, log_K0=log_k0, fidelity=fid, infidelity=infid)


def swap_fidelity_n1(p: ChannelParams) -> SwapFidelityResult:
    """Two-bin single-photon case in its dedicated closed form.

    Algebraically this is swap_fidelity_k(p, 2); it is kept as a separate
    transcription so the generic-k branch logic can be tested against it.
    The source's Tr = pair/2 + hd^2/2 and Tr F = ((2t(t - 1 - eta) + 3 eta)^2
    + eta^2)/(16 t^8) are u^4 (s^2 + sq + q^2/8) and u^4 (2s^2 + 2sq + q^2)/8,
    evaluated at s/h and q/h, which scales them by h^-2.
    """
    shape, eta, t, _ = _flat(p)
    t, _, _, h, s, q = _herald_terms(eta, t)
    return _two_bin(1, shape, s * s + s * q + 0.125 * q * q, 0.125 * (2.0 * s * (s + q) + q * q),
                    0.75 * s * (s + q), 2.0 * np.log(h) - 4.0 * np.log(t))


def swap_fidelity_n2(p: ChannelParams) -> SwapFidelityResult:
    """Two-bin two-photon case, herald [(2,0), (2,0)].

    The source polynomials, degree 8 in t over 32 t^12, are u^4/32 times
    polynomials in s and q with positive coefficients (their Bernstein
    form in u and eta u), so nothing cancels:

        32 Tr   = u^4 (32 s^4 + 128 s^3 q + 112 s^2 q^2 + 16 s q^3 + q^4)
        32 Tr F = u^4 (8 s^4 + 32 s^3 q + 36 s^2 q^2 + 8 s q^3 + q^4)

    Both are evaluated at s/h and q/h, which scales them by h^-4. At the
    identity channel (s = 0, q = h = 1) both give 1: Tr = 1/32, F = 1.
    """
    shape, eta, t, _ = _flat(p)
    t, _, _, h, s, q = _herald_terms(eta, t)
    s2, q2 = s * s, q * q
    tr_inf = s * (24.0 * s2 * s + 96.0 * s2 * q + 76.0 * s * q2 + 8.0 * q2 * q)
    tr_f = 8.0 * s2 * s2 + 32.0 * s2 * s * q + 36.0 * s2 * q2 + 8.0 * s * q2 * q + q2 * q2
    return _two_bin(2, shape, tr_f + tr_inf, tr_f, tr_inf, 4.0 * (np.log(h) - np.log(t)) - LOG32)


def rho_components(p: ChannelParams, k: int) -> tuple[float, float]:
    """Structure of the heralded matrix: depolarization and decoherence.

    Returns (rho11_factor, coherence_ratio) for the canonical k-bin herald:

    * rho11_factor is the normalized matrix element [rho]_11 = [rho]_gg,gg,
      the weight that leaked out of the odd-parity subspace. Its
      unnormalized form is (1/4) a1^ceil(k/2) a0^floor(k/2); for even k that
      collapses to the familiar (a0 a1)^(k/2) pair power. Over hd^k it is
      (1/4) (A0 A1)^floor(k/2) A1^(k mod 2) / K.
    * coherence_ratio is 1/2 + (1/2)[eta / (2t(t - eta - 1) + 3 eta)]^k =
      (1 + r^k)/2, the Phi+ weight within the surviving one-photon-per-bin
      subspace, equivalently (1 + [rho]_23/[rho]_33)/2. It decays from 1
      (pure loss) to the 1/2 floor that bounds the large-k fidelity.
    """
    shape, eta, t, k = _flat(p, k)
    a1, pl, odd, _, big, rk_m1, _ = _bins(eta, t, k)
    return _out(shape, 0.25 * np.where(odd, pl * a1, pl) / big, 1.0 + 0.5 * rk_m1)


def pick_k(infidelities) -> tuple[int, float]:
    """(k*, its infidelity) for scans over k = 1, 2, ... along the last axis:
    the smallest k within K_TIE_TOL of the scan's minimum (the identity
    channel returns k = 1). Entries past the end of a scan are +inf."""
    scans = np.asarray(infidelities, dtype=float)
    i = np.argmax(scans - scans.min(axis=-1, keepdims=True) <= K_TIE_TOL, axis=-1)
    return _out(i.shape, i + 1, np.take_along_axis(scans, i[..., None], axis=-1)[..., 0])


def optimal_k(p: ChannelParams, k_max: int = DEFAULT_K_MAX) -> tuple[int, float]:
    """Exhaustive argmin of the swap infidelity over k in [1, k_max], ties by pick_k.

    K0 shrinks geometrically with k. A scan ends at the first k > 1 whose K0
    falls below the smallest normal double (every larger k falls below
    too); such a herald never occurs in practice. Since hd <= 1/2 and
    K < 2, K0 < 2^(1 - k), so no scan passes k = 1,024, whatever k_max. The
    scan runs as a (points x k) array in blocks of at most BLOCK elements.
    Only an impossible herald (h = 0) raises ImpossibleEventError.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    shape, eta, t, _ = _flat(p)
    clipped, _, _, h, _, _ = _herald_terms(eta, t)
    log_hd = np.log(h) - LOG2 - 2.0 * np.log(clipped)
    last = np.floor((LOG_MIN - LOG2) / log_hd).max(initial=1.0)
    ks = np.arange(1, int(min(k_max, last)) + 1)
    rows = max(1, BLOCK // ks.size)
    k_star = np.empty(eta.size, dtype=int)
    best = np.empty(eta.size)
    for start in range(0, eta.size, rows):
        block = slice(start, start + rows)
        result = swap_fidelity_k(Channels(eta[block, None], t[block, None]), ks)
        inside = result.log_K0 >= LOG_MIN
        inside[:, 0] = True
        inside = np.logical_and.accumulate(inside, axis=1)
        k_star[block], best[block] = pick_k(np.where(inside, result.infidelity, np.inf))
    return _out(shape, k_star, best)
