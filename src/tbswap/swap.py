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
unnormalized 4x4 qubit matrix is their element-wise product. A state's bins
are one (2, 2, d, d) array for the even bins and its qubit-swapped view
for the odd ones, so a bin's tensor depends only on its parity and its
counts. Each distinct (bin parity, counts) pair is contracted once (two for
the canonical pattern), and k enters only through an O(k) product of
2x2x2x2 arrays. No 2k-mode tensor is ever assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import eval_laguerre

from .channel import ChannelParams, ImpossibleEventError
from .fock import (
    MultiModeOperator,
    TruncationConfig,
    TruncationError,
    basis_index,
    beam_splitter_unitary,
    number_projector,
    tensor,
)
from .states import HybridDensity, QubitTimeBinSpec, channel_output

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Two-qubit basis order used for all 4x4 matrices: |gg>, |ge>, |eg>, |ee>.
PHI_PLUS = np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0])
PHI_MINUS = np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0])
PSI_PLUS = np.array([SQRT_HALF, 0.0, 0.0, SQRT_HALF])
PSI_MINUS = np.array([SQRT_HALF, 0.0, 0.0, -SQRT_HALF])


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
    def canonical(cls, k: int) -> "DetectionPattern":
        """The reference herald |1010...>: one photon at port A in every bin."""
        return cls(k=k, counts=((1, 0),) * k)

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
    probability (the trace before normalization); fidelity_phi_plus is
    <Phi+|rho|Phi+>.
    """

    rho: np.ndarray
    success_probability: float
    fidelity_phi_plus: float

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


def _bin_trace_tensor(
    blocks_a: HybridDensity, blocks_b: HybridDensity, i: int, counts: tuple[int, int], d: int
) -> np.ndarray:
    """Per-bin contribution T[qA, qA', qB, qB'] = Tr[(X (x) Y) M].

    X = blocks_a.blocks[i] and Y = blocks_b.blocks[i], each (2, 2, d, d).
    M = U+ |a b><a b| U is the measurement element of this bin; the trace is
    evaluated through the projected vector w = U+|a b> instead of assembling
    M, so nothing bigger than d x d appears:
        T = sum conj(W[m,p]) X[m,n] Y[p,q] W[n,q],  W = w reshaped (d, d).
    The sum over (m, n) is A = W+ X W, one batched matmul over the four X
    blocks; the sum over (p, q) pairs A with the four Y blocks entry-wise.
    """
    u = beam_splitter_unitary(d)
    w = u.entries[basis_index(counts, (d, d)), :].conj()
    W = w.reshape(d, d)
    A = W.conj().T @ blocks_a.blocks[i] @ W
    Y = blocks_b.blocks[i].reshape(4, d * d)
    return (A.reshape(4, d * d) @ Y.T).reshape(2, 2, 2, 2)


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
    ones the classifier calls Invalid; a pattern with zero probability for
    these inputs raises ImpossibleEventError.

    Cost: one trace tensor per distinct (bin parity, counts) pair (two for
    the canonical pattern, at most four for any one-photon-per-bin
    pattern), plus an O(k) element-wise product; the channel images come
    from channel_output's cache.
    """
    if pattern.k != spec.k:
        raise ValueError(f"pattern has {pattern.k} bins, encoding has {spec.k}")
    d = cfg.d_sys
    highest = max(max(a, b) for a, b in pattern.counts)
    if highest >= d:
        raise TruncationError(
            f"pattern counts reach {highest} photons; raise d_sys above {d} to resolve them"
        )
    out_a = channel_output(spec, p_A, cfg)
    out_b = out_a if p_B == p_A else channel_output(spec, p_B, cfg)

    # On both sides every bin of one parity holds the same blocks, so a bin's
    # parity and counts fix its tensor.
    tensors: dict[tuple[int, tuple[int, int]], np.ndarray] = {}
    prod = np.ones((2, 2, 2, 2), dtype=complex)
    for i, counts in enumerate(pattern.counts):
        key = (i % 2, counts)
        if key not in tensors:
            tensors[key] = _bin_trace_tensor(out_a, out_b, i, counts, d)
        prod *= tensors[key]
    # Rows and columns over (qA, qB): unnorm[2 qA + qB, 2 qA' + qB'].
    unnorm = prod.transpose(0, 2, 1, 3).reshape(4, 4) * (out_a.norm * out_b.norm)

    success = float(np.real(np.trace(unnorm)))
    if success < 1e-15:
        raise ImpossibleEventError(
            f"pattern {pattern.counts} has probability {success:.3e} for these channels"
        )
    rho = unnorm / success
    rho = (rho + rho.conj().T) / 2.0  # scrub roundoff asymmetry
    fid = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
    return HeraldedState(rho=rho, success_probability=success, fidelity_phi_plus=fid)


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
        prod *= eval_laguerre(1, arg)
    return complex(math.exp(-envelope / 2.0) * prod)
