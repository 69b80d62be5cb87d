"""Qubit-time-bin entangled states and their oracle channel images.

The protocol's states pair a transmon qubit with photonic time bins:

    |psi> = (|g>|n 0>  + |e>|0 n>) / sqrt(2)          (k = 2 bins, n photons)
    |psi> = (|g>|1010...> + |e>|0101...>) / sqrt(2)   (k bins, single photons)

Bins 0, 2, 4, ... (0-based) carry the photons in the |g> branch, bins
1, 3, 5, ... in the |e> branch. Everything downstream factorizes over bins,
and an odd bin is the even bin with the two qubit labels swapped. So a
state (HybridDensity) is k and one (2, 2, d, d) array, the even bin; the odd
bins are its view [::-1, ::-1]. Nothing in a state grows with k, and a full
2 * d^k tensor is built only on request, for small-k checks.

The transfer fidelity here is the brute-force one: oracle channel images
contracted against the ideal state. channel_images maps the even bin
through a stack of channels in one kernel call, and state_fidelities raises
each channel's even-bin overlap to the powers of many k at once;
channel_output and state_fidelity_oracle are their one-point API. The
closed form lives in module analytic; tests hold the two within 1e-5 of
each other, and neither is derived from the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .channel import ChannelParams, apply_channel_oracle, apply_channels_oracle
from .fock import ModeOperator, MultiModeOperator, TruncationConfig, fock_vector

GROUND, EXCITED = 0, 1

# The weight of |g><g|, |e><e|, |g><e| and |e><g| in every state here.
NORM = 0.5


@dataclass(frozen=True)
class QubitTimeBinSpec:
    """Shape of the encoding: k time bins, n photons per occupied bin.

    Multi-bin states use single photons; n > 1 is defined only for k = 2.
    """

    k: int
    n: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"need at least one time bin, got k = {self.k}")
        if self.n < 1:
            raise ValueError(f"need at least one photon, got n = {self.n}")
        if self.n > 1 and self.k != 2:
            raise ValueError(f"n = {self.n} > 1 is defined only for k = 2, got k = {self.k}")


@dataclass(frozen=True)
class HybridDensity:
    """Qubit-photon state in per-bin factorized form.

    The represented operator is

        rho = NORM * sum_{q,q'} |q><q'| (x) B_1[q,q'] (x) ... (x) B_k[q,q']

    with q, q' in {GROUND, EXCITED}, where B_i = bin(i - 1) is `even` for the
    even bins (0-based) and its qubit-swapped view even[::-1, ::-1] for the
    odd ones. `even` is one read-only (2, 2, d, d) array; even[q, q']
    is a d x d operator. Nothing stored grows with k.
    """

    k: int
    even: np.ndarray

    def __post_init__(self) -> None:
        even = np.asarray(self.even)
        d = even.shape[-1] if even.ndim else 0
        if self.k < 1 or even.shape != (2, 2, d, d):
            raise ValueError(f"need k >= 1 bins and a (2, 2, d, d) even bin, "
                             f"got k = {self.k} and shape {even.shape}")
        if even.flags.writeable:
            even = even.copy()
            even.flags.writeable = False
        object.__setattr__(self, "even", even)

    @property
    def bin_dim(self) -> int:
        return self.even.shape[-1]

    def bin(self, i: int) -> np.ndarray:
        """The (2, 2, d, d) array of bin i (0-based)."""
        if not 0 <= i < self.k:
            raise IndexError(f"bin {i} of a {self.k}-bin state")
        return self.even[::-1, ::-1] if i % 2 else self.even

    def assemble_full(self) -> MultiModeOperator:
        """Explicit (2, d, ..., d) tensor; exponential in k, use for k <= 3 checks."""
        d = self.bin_dim
        total = 2 * d**self.k
        out = np.zeros((total, total), dtype=complex)
        for q in (GROUND, EXCITED):
            for qp in (GROUND, EXCITED):
                qubit = np.zeros((2, 2), dtype=complex)
                qubit[q, qp] = 1.0
                out += reduce(np.kron, [self.bin(i)[q, qp] for i in range(self.k)], qubit)
        return MultiModeOperator((2,) + (d,) * self.k, NORM * out)

    def qubit_reduced(self) -> np.ndarray:
        """2x2 reduced state of the qubit (photonic modes traced out)."""
        return NORM * _per_parity(np.trace(self.even, axis1=2, axis2=3), self.k)

    def contract(self, other: "HybridDensity") -> float:
        """Tr(self * other), using the per-bin factorization.

        Tr of a block product telescopes bin by bin:
        NORM^2 * sum_{q,q'} prod_i Tr(A_i[q,q'] B_i[q',q]). On the even bins
        the factor is E[q, q'] = Tr(A[q,q'] B[q',q]) of the two even arrays
        (_bin_overlaps), on the odd bins E[1 - q, 1 - q'], so the product is
        two powers (_contract).
        """
        if other.k != self.k:
            raise ValueError(f"bin count mismatch: {self.k} vs {other.k}")
        return float(_contract(_bin_overlaps(self.even, other.even), self.k))


def _per_parity(per_bin: np.ndarray, k) -> np.ndarray:
    """prod_i over k bins of a 2x2 array (the last two axes), given its even-bin
    value: the odd bins contribute its qubit-swapped value. k broadcasts
    against the leading axes."""
    k = np.asarray(k)[..., None, None]
    return per_bin ** ((k + 1) // 2) * per_bin[..., ::-1, ::-1] ** (k // 2)


def _bin_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E[..., q, q'] = Tr(a[..., q, q'] b[..., q', q]) of two (..., 2, 2, d, d)
    even-bin arrays. Bins of different dimensions are contracted on the
    common corner (the smaller operator is implicitly zero-padded)."""
    m = min(a.shape[-1], b.shape[-1])
    return np.einsum("...qpmn,...pqnm->...qp", a[..., :m, :m], b[..., :m, :m])


def _contract(per_bin: np.ndarray, k) -> np.ndarray:
    """Tr of two k-bin states from their even-bin overlaps (_bin_overlaps);
    k broadcasts against the leading axes."""
    return (NORM * NORM * _per_parity(per_bin, k).sum(axis=(-2, -1))).real


@lru_cache(maxsize=16)
def _even_bin_ops(n: int, d: int) -> np.ndarray:
    """|v_q><v_q'| for the even bins, where v_GROUND = |n> and v_EXCITED = |0>;
    read-only, and cached, as a run sees few (n, d) pairs."""
    vecs = np.array([fock_vector(n, d), fock_vector(0, d)])
    ops = np.einsum("qm,pn->qpmn", vecs, vecs.conj())
    ops.flags.writeable = False
    return ops


def ideal_state(spec: QubitTimeBinSpec, d: int | None = None) -> HybridDensity:
    """The pure encoded state |psi_k><psi_k| in hybrid per-bin form.

    d is the per-bin Fock dimension; default n + 1, the smallest that holds
    the encoding. The returned state is immutable.
    """
    if d is None:
        d = spec.n + 1
    if d < spec.n + 1:
        raise ValueError(f"dimension {d} cannot hold {spec.n} photons")
    return HybridDensity(spec.k, _even_bin_ops(spec.n, d))


def sized(cfg: TruncationConfig, n: int, counts: Sequence = ()) -> TruncationConfig:
    """cfg at the oracle's one system size, max(n, largest a + b) + 1 levels,
    for n-photon bins and heralds of per-bin counts (a, b). A scalar reads
    Fock levels up to n (the ideal overlap) or a + b (the beam splitter's
    sector), and channel images are exact in any corner, so no scalar the
    oracle returns reads the caller's cfg.d_sys."""
    return replace(cfg, d_sys=max([n, *(a + b for a, b in counts)]) + 1)


def channel_images(
    n: int, channels: Sequence[ChannelParams], cfg: TruncationConfig
) -> np.ndarray:
    """Oracle images of the even bin under a stack of channels, (C, 2, 2,
    d_sys, d_sys), for any cfg.d_sys >= n + 1: entry [c, q, q'] is channel c
    applied to |v_q><v_q'| (see _even_bin_ops). The four operators and every
    channel go through one apply_channels_oracle call."""
    d_in = n + 1
    images = apply_channels_oracle(_even_bin_ops(n, d_in).reshape(4, d_in, d_in), channels, cfg)
    return images.reshape(len(channels), 2, 2, cfg.d_sys, cfg.d_sys)


def state_fidelities(
    n: int, channels: Sequence[ChannelParams], ks: np.ndarray, cfg: TruncationConfig
) -> np.ndarray:
    """state_fidelity_oracle over (channels x bin counts ks), one (C, K)
    array: each channel's even-bin overlap with the ideal state, raised to
    the powers of every k at once."""
    per_bin = _bin_overlaps(channel_images(n, channels, sized(cfg, n)), _even_bin_ops(n, n + 1))
    return _contract(per_bin[:, None], np.asarray(ks)[None, :])


def _channel_images(n: int, p: ChannelParams, cfg: TruncationConfig) -> np.ndarray:
    """channel_images for one channel, read-only, (2, 2, d_sys, d_sys): four
    apply_channel_oracle calls, whatever k is."""
    d_in = n + 1
    images = np.array(
        [
            [apply_channel_oracle(ModeOperator(d_in, op), p, cfg).entries for op in row]
            for row in _even_bin_ops(n, d_in)
        ]
    )
    images.flags.writeable = False
    return images


def channel_output(
    spec: QubitTimeBinSpec, p: ChannelParams, cfg: TruncationConfig
) -> HybridDensity:
    """Push the ideal state through the channel, block by block.

    Linearity of the channel lets each per-bin block be mapped
    independently; only four distinct single-mode images are ever needed
    (|n><n|, |0><0|, |n><0|, |0><n|), whatever k is. They are the output's
    even bin, so time and memory do not depend on k. The bins have
    cfg.d_sys >= n + 1 levels.
    """
    return HybridDensity(spec.k, _channel_images(spec.n, p, cfg))


def state_fidelity_oracle(
    spec: QubitTimeBinSpec, p: ChannelParams, cfg: TruncationConfig
) -> float:
    """Transfer fidelity by brute force: contract oracle output against the ideal.

    Independent of analytic.state_fidelity_analytic; the channel enters only
    through apply_channel_oracle.
    """
    out = channel_output(spec, p, sized(cfg, spec.n))
    return out.contract(ideal_state(spec))
