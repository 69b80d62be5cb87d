"""Qubit-time-bin entangled states and their oracle channel images.

The protocol's states pair a transmon qubit with photonic time bins:

    |psi> = (|g>|n 0>  + |e>|0 n>) / sqrt(2)          (k = 2 bins, n photons)
    |psi> = (|g>|1010...> + |e>|0101...>) / sqrt(2)   (k bins, single photons)

Bins 0, 2, 4, ... (0-based) carry the photons in the |g> branch, bins
1, 3, 5, ... in the |e> branch. Everything downstream factorizes over bins,
so a state is stored as one (2, 2, d, d) array per bin (HybridDensity)
rather than as a full 2 * d^k tensor. An odd bin is the even bin with the
two qubit labels swapped, so a state holds two objects whatever k is: the
even-bin array and its view [::-1, ::-1].

The transfer fidelity here is the brute-force one: oracle channel images
contracted against the ideal state. Its closed form lives in module
analytic; tests hold the two within 1e-5 of each other, and neither is
derived from the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .channel import ChannelParams, apply_channel_oracle
from .fock import ModeOperator, MultiModeOperator, TruncationConfig, TruncationError, fock_vector

GROUND, EXCITED = 0, 1

# The canonical herald of k bins weighs K0 < 2^(1 - k): from this k on, no
# normal double (2^-1022 is the smallest). Scans over k stop by then, by the
# rule of analytic.optimal_k, and the oracle builds no longer encoding.
MAX_BINS = 1023


def check_bins(k: int) -> None:
    """Raise TruncationError past MAX_BINS bins, before anything of size k is built."""
    if k > MAX_BINS:
        raise TruncationError(f"k = {k} bins: from k = {MAX_BINS} on no herald weight is a "
                              f"normal double (K0 < 2^(1 - k)); the oracle stops there")


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

        rho = norm * sum_{q,q'} |q><q'| (x) B_1[q,q'] (x) ... (x) B_k[q,q']

    with q, q' in {GROUND, EXCITED}. blocks[i] is a complex array of shape
    (2, 2, d, d) and blocks[i][q, q'] the d x d operator of bin i (0-based).
    The states built here share one read-only array between all even bins
    and one view of it between all odd bins; norm is 1/2 for them.
    """

    k: int
    blocks: tuple[np.ndarray, ...]
    norm: float = 0.5

    def __post_init__(self) -> None:
        if len(self.blocks) != self.k:
            raise ValueError(f"expected {self.k} bins of blocks, got {len(self.blocks)}")
        shapes = {b.shape for b in self.blocks}
        d = self.blocks[0].shape[-1] if self.blocks else 0
        if shapes != {(2, 2, d, d)}:
            raise ValueError(f"bins must share one (2, 2, d, d) shape, got {sorted(shapes)}")

    @property
    def bin_dim(self) -> int:
        return self.blocks[0].shape[-1]

    def assemble_full(self) -> MultiModeOperator:
        """Explicit (2, d, ..., d) tensor; exponential in k, use for k <= 3 checks."""
        d = self.bin_dim
        total = 2 * d**self.k
        out = np.zeros((total, total), dtype=complex)
        for q in (GROUND, EXCITED):
            for qp in (GROUND, EXCITED):
                qubit = np.zeros((2, 2), dtype=complex)
                qubit[q, qp] = 1.0
                out += reduce(np.kron, [b[q, qp] for b in self.blocks], qubit)
        return MultiModeOperator((2,) + (d,) * self.k, self.norm * out)

    def qubit_reduced(self) -> np.ndarray:
        """2x2 reduced state of the qubit (photonic modes traced out)."""
        out = np.full((2, 2), self.norm, dtype=complex)
        for b in self.blocks:
            out *= np.trace(b, axis1=2, axis2=3)
        return out

    def contract(self, other: "HybridDensity") -> float:
        """Tr(self * other), using the per-bin factorization.

        Tr of a block product telescopes bin by bin:
        norm_a * norm_b * sum_{q,q'} prod_i Tr(A_i[q,q'] B_i[q',q]).
        Blocks of different dimensions are contracted on the common corner
        (the smaller operator is implicitly zero-padded).
        """
        if other.k != self.k:
            raise ValueError(f"bin count mismatch: {self.k} vs {other.k}")
        m = min(self.bin_dim, other.bin_dim)
        a = np.stack(self.blocks)[..., :m, :m]
        b = np.stack(other.blocks)[..., :m, :m]
        prod = np.einsum("iqpmn,ipqnm->iqp", a, b).prod(axis=0)
        return float((self.norm * other.norm * prod.sum()).real)


def _even_bin_ops(n: int, d: int) -> np.ndarray:
    """|v_q><v_q'| for the even bins, where v_GROUND = |n> and v_EXCITED = |0>."""
    vecs = np.array([fock_vector(n, d), fock_vector(0, d)])
    ops = np.einsum("qm,pn->qpmn", vecs, vecs.conj())
    ops.flags.writeable = False
    return ops


def _alternating(k: int, even: np.ndarray) -> HybridDensity:
    """k bins: `even` in the even ones, its qubit-swapped view in the odd ones."""
    odd = even[::-1, ::-1]
    return HybridDensity(k=k, blocks=tuple(odd if i % 2 else even for i in range(k)))


@lru_cache(maxsize=128)
def ideal_state(spec: QubitTimeBinSpec, d: int | None = None) -> HybridDensity:
    """The pure encoded state |psi_k><psi_k| in hybrid per-bin form.

    d is the per-bin Fock dimension; default n + 1, the smallest that holds
    the encoding. Cached (bounded); the returned state is immutable.
    """
    if d is None:
        d = spec.n + 1
    if d < spec.n + 1:
        raise ValueError(f"dimension {d} cannot hold {spec.n} photons")
    return _alternating(spec.k, _even_bin_ops(spec.n, d))


@lru_cache(maxsize=128)
def _channel_images(n: int, p: ChannelParams, cfg: TruncationConfig) -> np.ndarray:
    """Oracle image of the even bin, a read-only (2, 2, d_sys, d_sys) array.

    Entry [q, q'] is the channel applied to |v_q><v_q'| (see _even_bin_ops):
    four apply_channel_oracle calls. They do not depend on k, so a scan over
    k at one channel computes them once. Bounded like channel._mixing_unitary.
    """
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
    (|n><n|, |0><0|, |n><0|, |0><n|), whatever k is. They are cached per
    (n, channel, truncation) in a bounded cache, so calls that differ only
    in k reuse them, and every bin shares them. More than MAX_BINS bins
    raise TruncationError.
    """
    check_bins(spec.k)
    if cfg.d_sys < spec.n + 2:
        raise ValueError(
            f"d_sys = {cfg.d_sys} leaves no headroom above the {spec.n}-photon encoding; "
            f"need at least {spec.n + 2}"
        )
    return _alternating(spec.k, _channel_images(spec.n, p, cfg))


def state_fidelity_oracle(
    spec: QubitTimeBinSpec, p: ChannelParams, cfg: TruncationConfig
) -> float:
    """Transfer fidelity by brute force: contract oracle output against the ideal.

    Independent of analytic.state_fidelity_analytic; the channel enters only
    through apply_channel_oracle.
    """
    out = channel_output(spec, p, cfg)
    return out.contract(ideal_state(spec))
