"""Midpoint Bell measurement: mixing, herald classification, heralded states.

Alice's and Bob's photonic rails interfere on a balanced beam splitter bin
by bin, followed by photon-number-resolving detection at the two output
ports. A detection pattern (one count pair per bin) heralds one of the
qubit Bell states

    |Phi+-> = (|ge> +- |eg>)/sqrt(2)      distinguishable by parity,
    |Psi+-> = (|gg> +- |ee>)/sqrt(2)      heralded only indistinguishably,

or none at all. Classification for single-photon encodings is the parity
algorithm over the bins; for the two-photon k = 2 encoding it is an exact
table lookup.

heralded_state computes the conditional two-qubit state for any pattern by
brute force. Both the channel outputs and the measurement factorize over
bins: each bin contributes a 16-component trace tensor, and the
unnormalized 4x4 qubit matrix is their element-wise product. A state holds
one (2, 2, d, d) array for the even bins, and the odd ones are its
qubit-swapped view, so a bin's tensor depends only on its parity and its
counts. Each distinct (bin parity, counts) pair is contracted once (two for
the canonical pattern), and k enters only through how many bins of each a
pattern holds: a (patterns x distinct bins) multiplicity matrix gives every
log weight in one product. No 2k-mode tensor is ever assembled.

canonical_heralds runs these steps for the canonical herald over a stack of
channels and many k at once, the (ceil(k/2), floor(k/2)) even and odd bins;
heralded_state is their one-point view, for any pattern and unequal
channels.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channel import ChannelParams, ImpossibleEventError
from .fock import (
    MultiModeOperator,
    TruncationConfig,
    TruncationError,
    beam_splitter_unitary,
    number_projector,
    tensor,
)
from .states import NORM, QubitTimeBinSpec, channel_images, channel_output, sized

SQRT_HALF = 1.0 / math.sqrt(2.0)

# The canonical herald of k bins weighs K0 < 2^(1 - k): from this k on, no
# normal double (2^-1022 is the smallest). Scans over k stop by then, by the
# rule of analytic.optimal_k, and the oracle heralds no longer encoding.
MAX_BINS = 1023

# Two-qubit basis order used for all 4x4 matrices: |gg>, |ge>, |eg>, |ee>.
PHI_PLUS = np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0])
PHI_MINUS = np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0])
PSI_PLUS = np.array([SQRT_HALF, 0.0, 0.0, SQRT_HALF])
PSI_MINUS = np.array([SQRT_HALF, 0.0, 0.0, -SQRT_HALF])

# A bin's weights (its tensor's diagonal) sum to 1 over all counts on each
# qubit branch. On that scale a weight within rounding of 0 is 0; one that
# should vanish comes out near 1e-32, the square of a rounding error.
ZERO_WEIGHT = sys.float_info.epsilon


def check_bins(k: int) -> None:
    """Raise TruncationError past MAX_BINS bins, before a herald of k bins is built."""
    if k > MAX_BINS:
        raise TruncationError(f"k = {k} bins: from k = {MAX_BINS} on no herald weight is a "
                              f"normal double (K0 < 2^(1 - k)); the oracle stops there")


class HeraldClass(Enum):
    PhiPlus = "PhiPlus"
    PhiMinus = "PhiMinus"
    PsiIndistinct = "PsiIndistinct"
    Invalid = "Invalid"


@dataclass(frozen=True)
class DetectionPattern:
    """Photon counts (at port A_i, at port B_i) for each of the k bins."""

    k: int
    counts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        counts = tuple((int(a), int(b)) for a, b in self.counts)
        if len(counts) != self.k:
            raise ValueError(f"expected {self.k} count pairs, got {len(counts)}")
        if any(a < 0 or b < 0 for a, b in counts):
            raise ValueError(f"counts must be nonnegative, got {counts}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def canonical(cls, k: int, n: int = 1) -> "DetectionPattern":
        """The reference herald of the n-photon encoding, the one that
        canonical_heralds scores: n photons at port A in every bin (|1010...>
        for single photons); more than MAX_BINS bins raise TruncationError."""
        check_bins(k)
        return cls(k=k, counts=((n, 0),) * k)

    @property
    def total(self) -> int:
        return sum(a + b for a, b in self.counts)


def parity_trace(pattern: DetectionPattern) -> tuple[int, int]:
    """The two parity registers after scanning a one-photon-per-bin pattern.

    Start P1 = P2 = +1; a (0,1) detection flips P2 at odd-numbered bins and
    P1 at even-numbered bins. Equal registers at the end herald Phi+,
    unequal registers Phi-.
    """
    p1, p2 = 1, 1
    for i, (a, b) in enumerate(pattern.counts):
        if (a, b) == (1, 0):
            continue
        if (a, b) != (0, 1):
            raise ValueError(f"bin {i + 1} has counts {(a, b)}, not a single photon")
        if (i + 1) % 2 == 1:
            p2 = -p2
        else:
            p1 = -p1
    return p1, p2


def classify_single_photon(pattern: DetectionPattern) -> HeraldClass:
    """Herald classification for the single-photon k-bin encoding.

    Total function: exactly one photon per bin runs the parity algorithm;
    both photons bunched at a single port of a single bin (all other bins
    silent) is the indistinct Psi herald; everything else is Invalid.
    """
    if all(a + b == 1 for a, b in pattern.counts):
        p1, p2 = parity_trace(pattern)
        return HeraldClass.PhiPlus if p1 == p2 else HeraldClass.PhiMinus
    loud = [(a, b) for a, b in pattern.counts if (a, b) != (0, 0)]
    if len(loud) == 1 and loud[0] in ((2, 0), (0, 2)):
        return HeraldClass.PsiIndistinct
    return HeraldClass.Invalid


# Exhaustive detection table for the two-photon k = 2 encoding, keyed by
# ((A1, B1), (A2, B2)). Phi rows have two photons per bin split or bunched;
# Psi rows put all four photons into one bin. Zero-count entries could in
# principle be left unresolved by the detectors for the Psi rows, but the
# classifier requires the full pattern.
_TWO_PHOTON_TABLE: dict[tuple[tuple[int, int], tuple[int, int]], HeraldClass] = {
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


def classify_two_photon(pattern: DetectionPattern) -> HeraldClass:
    """Herald classification for the two-photon k = 2 encoding (table lookup)."""
    if pattern.k != 2:
        raise ValueError(f"two-photon classification is defined for k = 2, got k = {pattern.k}")
    return _TWO_PHOTON_TABLE.get(pattern.counts, HeraldClass.Invalid)


@dataclass(frozen=True)
class HeraldedState:
    """Conditional two-qubit state after a detection pattern.

    rho is 4x4 over {gg, ge, eg, ee}; success_probability is the pattern's
    probability (the trace before normalization) and log_success_probability
    its logarithm, finite where the probability underflows;
    fidelity_phi_plus is <Phi+|rho|Phi+>.
    """

    rho: np.ndarray
    success_probability: float
    fidelity_phi_plus: float
    log_success_probability: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.rho, dtype=complex)
        if arr.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "rho", arr)

    def fidelity(self, bell: np.ndarray) -> float:
        """<bell|rho|bell> for a four-component state vector."""
        return float(np.real(bell.conj() @ self.rho @ bell))


@lru_cache(maxsize=64)
def _measurement_kernel(counts: tuple[int, int], d: int) -> np.ndarray:
    """G[(m, n), (p, q)] = conj(W[m, p]) W[n, q], W = U+|a b> reshaped (d, d)."""
    W = beam_splitter_unitary(d).entries[counts[0] * d + counts[1]].conj().reshape(d, d)
    kernel = np.kron(W.conj(), W)
    kernel.flags.writeable = False
    return kernel


def _bin_trace_tensor(x: np.ndarray, y: np.ndarray, counts: tuple[int, int]) -> np.ndarray:
    """Per-bin contribution T[..., qA, qA', qB, qB'] = Tr[(X (x) Y) M].

    X = x and Y = y are the two sides' arrays of one bin, each (..., 2, 2,
    d, d) with the same leading axes (a stack of channels, or none).
    M = U+ |a b><a b| U is the measurement element of this bin; the trace is
    evaluated through the projected vector w = U+|a b> instead of assembling
    M, so nothing bigger than d^2 x d^2 appears:
        T = sum conj(W[m,p]) X[m,n] Y[p,q] W[n,q],  W = w reshaped (d, d),
    which is vec(X) G vec(Y) with the kernel G of _measurement_kernel: two
    matmuls over the four X blocks and the four Y blocks.
    """
    d = x.shape[-1]
    lead = x.shape[:-4]
    X = x.reshape(*lead, 4, d * d)
    Y = y.reshape(*lead, 4, d * d)
    return (X @ _measurement_kernel(counts, d) @ Y.swapaxes(-1, -2)).reshape(*lead, 2, 2, 2, 2)


def _herald_logs(x_a: np.ndarray, x_b: np.ndarray, bins, mult: np.ndarray) -> np.ndarray:
    """Log of the unnormalized herald matrix, (K, ..., 4, 4) over (qA qB, qA' qB').

    x_a and x_b are the two sides' even-bin arrays, (..., 2, 2, d, d); an odd
    bin is the view [::-1, ::-1]. bins lists the B distinct (bin parity,
    counts) pairs, each contracted once (_bin_trace_tensor), and mult (K, B)
    how many bins of each the K patterns hold, so every log weight is one
    product. An entry within ZERO_WEIGHT of 0 is 0 (log -inf) wherever its
    bin occurs; a bin a pattern does not hold (multiplicity 0) zeroes
    nothing.
    """
    def side(x, parity):
        return x[..., ::-1, ::-1, :, :] if parity else x

    tensors = np.array([_bin_trace_tensor(side(x_a, parity), side(x_b, parity), counts)
                        for parity, counts in bins])
    tensors = tensors.swapaxes(-3, -2).reshape(len(tensors), -1)
    zero = np.abs(tensors) <= ZERO_WEIGHT
    logs = mult @ np.log(np.where(zero, 1.0, tensors))
    logs[(mult > 0) @ zero] = -np.inf
    return logs.reshape(len(mult), *x_a.shape[:-4], 4, 4)


def _top(logs: np.ndarray) -> np.ndarray:
    """The largest diagonal log weight of each herald of _herald_logs; -inf
    marks an impossible herald."""
    return logs.diagonal(axis1=-2, axis2=-1).real.max(axis=-1)


def _normalized(logs: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, fidelity to Phi+, log success probability) of possible heralds
    from _herald_logs and their _top, over the leading axes."""
    unnorm = np.exp(logs - top[..., None, None])
    trace = unnorm.trace(axis1=-2, axis2=-1).real  # in [1, 4]
    # the mean with the conjugate transpose scrubs roundoff asymmetry
    rho = (unnorm + unnorm.swapaxes(-1, -2).conj()) / (2.0 * trace[..., None, None])
    # rounding in the sum of k/2 log weights moves F by ~1e-13 at k = 1,000,
    # to either side of 1 on the identity channel, so clip it to [0, 1]
    fid = np.clip((PHI_PLUS @ rho @ PHI_PLUS).real, 0.0, 1.0)
    return rho, fid, top + np.log(trace * NORM * NORM)


def _impossible(k: int, counts) -> ImpossibleEventError:
    return ImpossibleEventError(f"pattern of k = {k} bins with counts {sorted(set(counts))} "
                                f"has probability 0 to rounding for these channels")


def heralded_state(
    p_A: ChannelParams,
    p_B: ChannelParams,
    spec: QubitTimeBinSpec,
    pattern: DetectionPattern,
    cfg: TruncationConfig,
) -> HeraldedState:
    """Two-qubit state heralded by a detection pattern, by brute force.

    Alice's and Bob's channel outputs are pushed through the per-bin beam
    splitters and contracted with the pattern's number projectors. Channels
    may differ between the two sides. Any pattern is accepted, including
    ones the classifier calls Invalid. The weight shrinks like 2^(-k), so
    the product over bins is a sum of entry-wise logs. An entry within
    ZERO_WEIGHT of 0 is 0; a pattern with such a bin on every qubit branch
    has probability 0 and raises ImpossibleEventError.

    This is the one-point view of canonical_heralds' steps: one trace tensor
    per distinct (bin parity, counts) pair (two for the canonical pattern,
    at most four for any one-photon-per-bin pattern), and O(k) only in
    counting them; the channel images come from channel_output, at
    states.sized's size, at most 2n + 5: a count above n + 2 at a port, or
    more than MAX_BINS bins, raise TruncationError.
    """
    if pattern.k != spec.k:
        raise ValueError(f"pattern has {pattern.k} bins, encoding has {spec.k}")
    check_bins(pattern.k)
    if (highest := max(map(max, pattern.counts))) > spec.n + 2:
        raise TruncationError(f"pattern counts reach {highest} photons; the oracle resolves "
                              f"at most {spec.n + 2} at a port for n = {spec.n}")
    cfg = sized(cfg, spec.n, pattern.counts)
    out_a = channel_output(spec, p_A, cfg)
    out_b = out_a if p_B == p_A else channel_output(spec, p_B, cfg)

    # On both sides every bin of one parity holds the same array, so a bin's
    # parity and counts fix its tensor.
    bins = Counter((i % 2, counts) for i, counts in enumerate(pattern.counts))
    logs = _herald_logs(out_a.even, out_b.even, bins, np.fromiter(bins.values(), float)[None])[0]
    top = _top(logs)
    if top == -np.inf:
        raise _impossible(pattern.k, pattern.counts)
    rho, fid, log_success = _normalized(logs, top)
    return HeraldedState(rho=rho, success_probability=math.exp(log_success),
                         fidelity_phi_plus=float(fid), log_success_probability=float(log_success))


def canonical_heralds(
    n: int, channels: Sequence[ChannelParams], ks: np.ndarray, cfg: TruncationConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(fidelity to Phi+, log success probability) of the canonical herald,
    n photons at port A in every bin, on both sides through the same channel,
    over (channels x bin counts ks): two (C, K) arrays.

    The channel images of every channel come from one channel_images call;
    the even and the odd bin give one trace tensor each per channel, and a
    k-bin herald holds ceil(k/2) and floor(k/2) of them. The point with the
    smallest index among those with probability 0 raises
    ImpossibleEventError; more than MAX_BINS bins raise TruncationError.
    """
    ks = np.asarray(ks)
    check_bins(int(ks[np.argmax(ks > MAX_BINS)]))  # the first k past the limit, if any
    images = channel_images(n, channels, sized(cfg, n))
    mult = np.stack([(ks + 1) // 2, ks // 2], axis=-1).astype(float)
    bins = ((0, (n, 0)), (1, (n, 0)))
    logs = _herald_logs(images, images, bins, mult).swapaxes(0, 1)
    top = _top(logs)
    impossible = np.argwhere(top == -np.inf)
    if impossible.size:
        raise _impossible(int(ks[impossible[0, 1]]), ((n, 0),))
    return _normalized(logs, top)[1:]


def measurement_operator(pattern: DetectionPattern, d: int) -> MultiModeOperator:
    """Explicit M = U+ |pattern><pattern| U over the 2k detection modes.

    Built bin by bin as a tensor product, modes ordered (A_1, B_1, A_2, B_2,
    ...). Exponential in k; meant for small-k cross-checks of the factorized
    path, not production use.
    """
    per_bin = []
    for a, b in pattern.counts:
        if max(a, b) >= d:
            raise TruncationError(f"counts {(a, b)} need more than {d} levels")
        u = beam_splitter_unitary(d)
        proj = number_projector((a, b), (d, d))
        per_bin.append(
            MultiModeOperator((d, d), u.entries.conj().T @ proj.entries @ u.entries)
        )
    return tensor(per_bin)


def chi_measurement(pattern: DetectionPattern, xis: Sequence[complex]) -> complex:
    """Closed-form characteristic function of the measurement element.

    xis holds 2k displacement arguments ordered (xi_A1, xi_B1, xi_A2, ...).
    For one-photon-per-bin patterns,

        chi_M(xis) = exp(-1/2 sum_i (|xi_Ai|^2 + |xi_Bi|^2))
                     prod_i L_1(|xi_Ai + s_i xi_Bi|^2 / 2),

    where s_i = +1 for a (1, 0) bin and -1 for a (0, 1) bin: the two herald
    ports see the symmetric and antisymmetric combination respectively.
    Verified in tests against the Fock-built measurement_operator, which is
    the authoritative convention.
    """
    if len(xis) != 2 * pattern.k:
        raise ValueError(f"expected {2 * pattern.k} displacement arguments, got {len(xis)}")
    envelope = 0.0
    prod = 1.0
    for i, (a, b) in enumerate(pattern.counts):
        xi_a = complex(xis[2 * i])
        xi_b = complex(xis[2 * i + 1])
        envelope += abs(xi_a) ** 2 + abs(xi_b) ** 2
        if (a, b) == (1, 0):
            arg = abs(xi_a + xi_b) ** 2 / 2.0
        elif (a, b) == (0, 1):
            arg = abs(xi_a - xi_b) ** 2 / 2.0
        else:
            raise ValueError(
                f"closed form covers one-photon-per-bin patterns; bin {i + 1} has {(a, b)}"
            )
        prod *= 1.0 - arg  # L_1(x) = 1 - x
    return complex(math.exp(-envelope / 2.0) * prod)
