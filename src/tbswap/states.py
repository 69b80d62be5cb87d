"""Qubit-time-bin entangled states and their channel images.

The protocol's states pair a transmon qubit with photonic time bins:

    |psi> = (|g>|n 0>  + |e>|0 n>) / sqrt(2)          (k = 2 bins, n photons)
    |psi> = (|g>|1010...> + |e>|0101...>) / sqrt(2)   (k bins, single photons)

Odd-numbered bins (1-based) carry the photon in the |g> branch. Everything
downstream factorizes over bins, so states are stored as per-bin 2x2 blocks
of single-mode operators (HybridDensity) rather than full 2 * d^k tensors.
A state has only two distinct bins (odd and even), which are built once and
shared, so contractions cost one evaluation per distinct bin plus an O(k)
product.

Fidelity of the channel output against the ideal state is computed twice,
by independent routes: a closed-form expression in (k, eta, N), and a
brute-force contraction of oracle channel images. Tests hold the two within
1e-5 of each other; neither is derived from the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .channel import ChannelParams, apply_channel_oracle
from .fock import (
    ModeOperator,
    MultiModeOperator,
    TruncationConfig,
    fock_vector,
    tensor,
)

QubitBlock = tuple[tuple[ModeOperator, ModeOperator], tuple[ModeOperator, ModeOperator]]

GROUND, EXCITED = 0, 1


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

    with q, q' in {GROUND, EXCITED} and blocks[i][q][q'] the single-mode
    operator of bin i+1 (bins are 1-based in the physics, 0-based in the
    tuple). norm is 1/2 for the states built here.
    """

    k: int
    blocks: tuple[QubitBlock, ...]
    norm: float = 0.5

    def __post_init__(self) -> None:
        if len(self.blocks) != self.k:
            raise ValueError(f"expected {self.k} bins of blocks, got {len(self.blocks)}")
        dims = {b.dim for bin_blocks in self.blocks for row in bin_blocks for b in row}
        if len(dims) != 1:
            raise ValueError(f"inconsistent block dimensions {sorted(dims)}")

    @property
    def bin_dim(self) -> int:
        return self.blocks[0][0][0].dim

    def block(self, i: int, q: int, qp: int) -> ModeOperator:
        """Block of bin i (0-based) between qubit states q and q'."""
        return self.blocks[i][q][qp]

    def assemble_full(self) -> MultiModeOperator:
        """Explicit (2, d, ..., d) tensor; exponential in k, use for k <= 3 checks."""
        d = self.bin_dim
        total = 2 * d**self.k
        out = np.zeros((total, total), dtype=complex)
        for q in (GROUND, EXCITED):
            for qp in (GROUND, EXCITED):
                qubit = np.zeros((2, 2), dtype=complex)
                qubit[q, qp] = 1.0
                ops = [ModeOperator(2, qubit)] + [self.blocks[i][q][qp] for i in range(self.k)]
                out += tensor(ops).entries
        return MultiModeOperator((2,) + (d,) * self.k, self.norm * out)

    def qubit_reduced(self) -> np.ndarray:
        """2x2 reduced state of the qubit (photonic modes traced out)."""
        out = np.zeros((2, 2), dtype=complex)
        for q in (GROUND, EXCITED):
            for qp in (GROUND, EXCITED):
                prod = self.norm
                for i in range(self.k):
                    prod *= self.blocks[i][q][qp].trace()
                out[q, qp] = prod
        return out

    def contract(self, other: "HybridDensity") -> float:
        """Tr(self * other), using the per-bin factorization.

        Tr of a block product telescopes bin by bin:
        norm_a * norm_b * sum_{q,q'} prod_i Tr(A_i[q,q'] B_i[q',q]).
        Blocks of different dimensions are contracted on the common corner
        (the smaller operator is implicitly zero-padded). A pair of bins
        that recurs (the same bin objects on both sides, as channel_output
        and ideal_state share them) is traced once.
        """
        if other.k != self.k:
            raise ValueError(f"bin count mismatch: {self.k} vs {other.k}")
        factors: dict[tuple[int, int], np.ndarray] = {}
        prod = np.ones((2, 2), dtype=complex)
        for bin_a, bin_b in zip(self.blocks, other.blocks):
            # Both operands hold their bins for the whole call, so ids stay unique.
            key = (id(bin_a), id(bin_b))
            if key not in factors:
                factor = np.empty((2, 2), dtype=complex)
                for q in (GROUND, EXCITED):
                    for qp in (GROUND, EXCITED):
                        x, y = bin_a[q][qp].entries, bin_b[qp][q].entries
                        m = min(x.shape[0], y.shape[0])
                        factor[q, qp] = np.trace(x[:m, :m] @ y[:m, :m])
                factors[key] = factor
            prod *= factors[key]
        return float((self.norm * other.norm * sum(prod.flat)).real)


def _bin_occupations(spec: QubitTimeBinSpec, i: int) -> tuple[int, int]:
    """Photon numbers of bin i (0-based) in the |g> and |e> branches of the ideal state."""
    return (spec.n, 0) if i % 2 == 0 else (0, spec.n)  # bin number i+1 is odd


def _shared_bins(
    spec: QubitTimeBinSpec, make_bin: Callable[[tuple[int, int]], QubitBlock]
) -> tuple[QubitBlock, ...]:
    """Blocks of every bin, built once per distinct occupation pair and shared."""
    made: dict[tuple[int, int], QubitBlock] = {}
    for i in range(min(spec.k, 2)):
        occ = _bin_occupations(spec, i)
        made[occ] = make_bin(occ)
    return tuple(made[_bin_occupations(spec, i)] for i in range(spec.k))


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

    def make_bin(occ: tuple[int, int]) -> QubitBlock:
        vec = [fock_vector(n, d) for n in occ]
        return tuple(
            tuple(ModeOperator(d, np.outer(vec[q], vec[qp].conj())) for qp in (GROUND, EXCITED))
            for q in (GROUND, EXCITED)
        )

    return HybridDensity(k=spec.k, blocks=_shared_bins(spec, make_bin))


@lru_cache(maxsize=128)
def _channel_images(
    n: int, p: ChannelParams, cfg: TruncationConfig
) -> tuple[tuple[ModeOperator, ModeOperator], tuple[ModeOperator, ModeOperator]]:
    """Oracle images of |a><b| for a, b in (0, n), as images[a > 0][b > 0].

    They do not depend on k, so a scan over k at one channel computes them
    once. Bounded like channel._mixing_unitary; ModeOperator entries are
    read-only, so callers can share the cached images.
    """
    d_in = n + 1
    return tuple(
        tuple(
            apply_channel_oracle(
                ModeOperator(d_in, np.outer(fock_vector(a, d_in), fock_vector(b, d_in).conj())),
                p,
                cfg,
            )
            for b in (0, n)
        )
        for a in (0, n)
    )


def channel_output(
    spec: QubitTimeBinSpec, p: ChannelParams, cfg: TruncationConfig
) -> HybridDensity:
    """Push the ideal state through the channel, block by block.

    Linearity of the channel lets each per-bin block be mapped
    independently; only four distinct single-mode images are ever needed
    (|n><n|, |0><0|, |n><0|, |0><n|), whatever k is. They are cached per
    (n, channel, truncation) in a bounded cache, so calls that differ only
    in k reuse them, and the two distinct bins are shared by every bin.
    """
    if cfg.d_sys < spec.n + 2:
        raise ValueError(
            f"d_sys = {cfg.d_sys} leaves no headroom above the {spec.n}-photon encoding; "
            f"need at least {spec.n + 2}"
        )
    images = _channel_images(spec.n, p, cfg)

    def make_bin(occ: tuple[int, int]) -> QubitBlock:
        g, e = (n > 0 for n in occ)
        return (images[g][g], images[g][e]), (images[e][g], images[e][e])

    return HybridDensity(k=spec.k, blocks=_shared_bins(spec, make_bin))


def state_fidelity_analytic(spec: QubitTimeBinSpec, p: ChannelParams) -> float:
    """Closed-form transfer fidelity F(k, eta, N) for single-photon encodings.

    With t = (1 + eta)/2 + N, the per-bin channel matrix elements combine to

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


def state_fidelity_oracle(
    spec: QubitTimeBinSpec, p: ChannelParams, cfg: TruncationConfig
) -> float:
    """Transfer fidelity by brute force: contract oracle output against the ideal.

    Independent of the closed form above; the channel enters only through
    apply_channel_oracle. Both states share their two distinct bins, so the
    contraction traces each once and multiplies k factors.
    """
    out = channel_output(spec, p, cfg)
    return out.contract(ideal_state(spec))
