"""Gaussian thermal-loss channels and the transducer parameter map.

A single-mode phase-insensitive Gaussian channel is parametrized here by a
transmissivity eta and an additive noise strength N acting on the
characteristic function as

    chi_out(xi) = chi_in(sqrt(eta) xi) exp(-N |xi|^2).

Complete positivity requires N >= (1 - eta)/2; equality is pure loss. The
equivalent beam-splitter dilation mixes the input with a thermal mode of
mean occupation nbar = N/(1 - eta) - 1/2 at transmissivity eta, and the
combination t = (1 + eta)/2 + N = 1 + (1 - eta) nbar shows up in every
closed-form fidelity downstream, so ChannelParams exposes it.

The electro-optic transducer enters only through this channel: its
extraction efficiencies, cooperativity and thermal occupation fix (eta, N)
via transducer_to_channel. The map never produces an unphysical channel;
its distance from the pure-loss line is a nonnegative thermal term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .fock import (
    ModeOperator,
    TruncationConfig,
    TruncationError,
    thermal_tail_mass,
    thermal_weights,
)

# Not called here; benchmarks/tracing.py hooks these names for declared metrics (now 0).
from .fock import partial_trace, tensor  # noqa: F401

# Planck's and Boltzmann's constants, in J s and J/K: exact in the 2019 SI.
PLANCK = 6.62607015e-34
BOLTZMANN = 1.380649e-23

# Tolerance for the physicality boundary N >= (1-eta)/2. Pure-loss parameters
# constructed in floating point can sit a rounding error below the line.
PHYSICALITY_TOL = 1e-12

# apply_channel_oracle adds environment levels up to this many, which reach
# nbar = 0.57 at tail_tol 1e-7. _mixing_unitary caches 128 entries of 16 d_box^3
# bytes (d_box = d_sys + d_env - 1): at most 28 MB at the d_sys <= 2n + 5 = 9
# of a scalar call at n = 2 (states.sized).
D_ENV_MAX = 16

# apply_channels_oracle maps at most this many channels at once. One channel
# there costs its sector blocks (16 d_box^3 bytes) and three copies of its
# Kraus elements (gathered, weighted and conjugated). Batched sections run at
# d_sys = d_in = n + 1: at n = 2 and 16 levels, 93 KB and 3 x 18 x 16 x 3 x 3
# complex (41 KB), so a block stays under 7 MB.
KRAUS_BLOCK = 32


class ImpossibleEventError(RuntimeError):
    """The requested herald has zero probability for these inputs."""


class UnphysicalChannelError(ValueError):
    """Parameters below the complete-positivity line N >= (1 - eta)/2."""

    def __init__(self, message: str, margin: float):
        super().__init__(message)
        self.margin = margin


@dataclass(frozen=True)
class ChannelParams:
    """Thermal-loss channel, canonical (eta, N) form.

    eta is the transmissivity and N the characteristic-function noise
    coefficient. nbar and t are derived views, computed lazily so that the
    eta = 1 edge (where nbar is formally 0/0) never divides by zero.
    """

    eta: float
    N: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.N < math.inf:
            raise ValueError(f"noise coefficient must be finite and nonnegative, got {self.N}")
        if self.eta == 1.0 and self.N > PHYSICALITY_TOL:
            # Unit transmissivity leaves no room for added thermal noise in
            # this family (it would need an infinite-occupation environment).
            raise ValueError(f"eta = 1 forces N = 0 in the thermal-loss family, got N = {self.N}")
        margin = self.physicality_margin
        if margin < -PHYSICALITY_TOL:
            raise UnphysicalChannelError(
                f"(eta, N) = ({self.eta}, {self.N}) violates N >= (1 - eta)/2 "
                f"by {-margin:.3e}",
                margin,
            )

    @classmethod
    def from_eta_nbar(cls, eta: float, nbar: float) -> "ChannelParams":
        """Construct from transmissivity and environment occupation (always physical)."""
        if not 0.0 <= nbar < math.inf:
            raise ValueError(f"environment occupation must be finite and nonnegative, got {nbar}")
        return cls(eta=eta, N=(1.0 - eta) * (nbar + 0.5))

    @property
    def physicality_margin(self) -> float:
        """Distance above the pure-loss line; negative means unphysical."""
        return self.N - (1.0 - self.eta) / 2.0

    @property
    def nbar(self) -> float:
        """Mean occupation of the equivalent thermal environment."""
        if self.eta == 1.0:
            return 0.0
        value = self.N / (1.0 - self.eta) - 0.5
        # Physicality guarantees value >= -tol; clip the rounding slack.
        return max(value, 0.0)

    @property
    def t(self) -> float:
        """The recurring combination (1 + eta)/2 + N = 1 + (1 - eta) nbar."""
        return (1.0 + self.eta) / 2.0 + self.N

    @property
    def is_identity(self) -> bool:
        return self.eta == 1.0 and self.N <= PHYSICALITY_TOL

    @property
    def is_pure_loss(self) -> bool:
        return abs(self.physicality_margin) <= PHYSICALITY_TOL


@dataclass(frozen=True)
class TransducerParams:
    """Operating point of one electro-optic transducer.

    zeta_m and zeta_o are the microwave and optical extraction efficiencies
    (coupling rate over total rate), C the cooperativity and nth the thermal
    occupation of the microwave bath; C and nth must be finite.
    """

    zeta_m: float
    zeta_o: float
    C: float
    nth: float

    def __post_init__(self) -> None:
        problems = []
        if not 0.0 <= self.zeta_m <= 1.0:
            problems.append(f"zeta_m must lie in [0, 1], got {self.zeta_m}")
        if not 0.0 <= self.zeta_o <= 1.0:
            problems.append(f"zeta_o must lie in [0, 1], got {self.zeta_o}")
        if not 0.0 <= self.C < math.inf:
            problems.append(f"cooperativity must be finite and nonnegative, got {self.C}")
        if not 0.0 <= self.nth < math.inf:
            problems.append(f"thermal occupation must be finite and nonnegative, got {self.nth}")
        if problems:
            raise ValueError("; ".join(problems))


def transducer_to_channel(p: TransducerParams) -> ChannelParams:
    """Effective thermal-loss channel of a single transduction step.

    The conversion efficiency peaks at unit cooperativity, and the noise
    term decomposes as the pure-loss minimum plus a nonnegative thermal
    contribution 4 zeta_o (1 - zeta_m) nth C/(1 + C)^2, so the result is
    physical for every valid operating point; a channel with no thermal
    contribution lands on the pure-loss line. (1 + C)^2 is a product, not a
    power, so a huge C gives eta its limit 0 instead of an OverflowError,
    and the thermal term divides by 1 + C twice, so a huge C with a huge nth
    gives its finite limit 4 zeta_o (1 - zeta_m) nth/C, not inf/inf.
    """
    denom = (1.0 + p.C) * (1.0 + p.C)
    eta = p.zeta_m * p.zeta_o * 4.0 * p.C / denom
    thermal = 4.0 * p.zeta_o * (1.0 - p.zeta_m) * (p.C / (1.0 + p.C) / (1.0 + p.C)) * p.nth
    N = 0.5 * (1.0 - eta) + thermal
    return ChannelParams(eta=eta, N=N)


def bose_einstein(frequency_hz: float, temperature_k: float) -> float:
    """Thermal occupation 1/(exp(h f / k T) - 1) of a mode at frequency f.

    Raises ValueError when the occupation is not a finite number, which
    happens when h f / k T underflows (a vanishing frequency).
    """
    if not 0.0 < frequency_hz < math.inf:
        raise ValueError(f"frequency must be finite and positive, got {frequency_hz}")
    if not 0.0 <= temperature_k < math.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature_k}")
    kt = BOLTZMANN * temperature_k
    if kt == 0.0:  # T = 0, or so small that k T underflows: x is infinite
        return 0.0
    x = PLANCK * frequency_hz / kt
    if x > 700.0:  # expm1 overflows; occupation is zero to double precision anyway
        return 0.0
    nth = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if not math.isfinite(nth):
        raise ValueError(
            f"thermal occupation is not finite at frequency {frequency_hz} Hz, "
            f"temperature {temperature_k} K"
        )
    return nth


def apply_channel_closed_form(
    chi_in: Callable[[complex], complex], p: ChannelParams
) -> Callable[[complex], complex]:
    """Push a characteristic function through the channel:

    chi_out(xi) = chi_in(sqrt(eta) xi) exp(-N |xi|^2).
    """
    root_eta = math.sqrt(p.eta)

    def chi_out(xi: complex) -> complex:
        return chi_in(root_eta * xi) * math.exp(-p.N * abs(xi) ** 2)

    return chi_out


@lru_cache(maxsize=8)
def _sector_eigh(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of i G_N for every photon-number sector N < d.

    In the sector of N total photons, with basis |s, N - s> (s photons in the
    system mode), the dilation generator A+ E - A E+ is real, antisymmetric
    and tridiagonal, G[s+1, s] = -G[s, s+1] = sqrt((s + 1)(N - s)), and does
    not depend on eta. Returned zero-padded: vecs[N] holds the eigenvectors
    in its (N+1) x (N+1) corner, vals[N] the eigenvalues in its first N+1
    entries.
    """
    vecs = np.zeros((d, d, d), dtype=complex)
    vals = np.zeros((d, d))
    for n_tot in range(d):
        s = np.arange(n_tot)
        coupling = np.sqrt((s + 1.0) * (n_tot - s))
        ig = np.zeros((n_tot + 1, n_tot + 1), dtype=complex)
        ig[s + 1, s] = 1j * coupling
        ig[s, s + 1] = -1j * coupling
        vals[n_tot, : n_tot + 1], vecs[n_tot, : n_tot + 1, : n_tot + 1] = np.linalg.eigh(ig)
    vecs.flags.writeable = vals.flags.writeable = False
    return vecs, vals


@lru_cache(maxsize=128)
def _mixing_unitary(eta: float, d: int) -> np.ndarray:
    """Two-mode beam-splitter dilation at transmissivity eta, as sector blocks.

    The dilation exp(theta (A+ E - A E+)), cos(theta) = sqrt(eta), conserves
    the total photon number, so it is block diagonal over sectors N. Returns
    an array of shape (d, d, d) whose slice [N] holds the (N+1) x (N+1) block
    of sector N, indexed by system photon number, in its corner:
    V diag(exp(-i theta lambda)) V+ from the eigendecomposition of i G_N.
    Every sector N < d is complete, so each block is exact.
    """
    theta = math.acos(min(1.0, math.sqrt(eta)))
    vecs, vals = _sector_eigh(d)
    blocks = (vecs * np.exp(-1j * theta * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    blocks.flags.writeable = False
    return blocks


@lru_cache(maxsize=16)
def _kraus_layout(d_in: int, d_sys: int, d_env: int) -> np.ndarray:
    """Where the Kraus elements of the dilation sit in the sector blocks.

    K_jm[n, a] = <n, j| U |a, m> is nonzero only when a + m = n + j, where it
    is block [a + m][n, a]. Over the grid (j, m, n, a), of shape
    (d_in + d_env - 1, d_env, d_sys, d_in), this returns the flat index into
    a (d_box,)*3 block array. An entry that does not conserve photon number
    points at block [0][d_box - 1, d_box - 1], which lies outside sector 0's
    1 x 1 corner and so is exactly 0.
    """
    d_box = d_sys + d_env - 1
    j, m, n, a = np.indices((d_in + d_env - 1, d_env, d_sys, d_in))
    n_tot = a + m
    flat = np.where(j == n_tot - n, (n_tot * d_box + n) * d_box + a, d_box * d_box - 1)
    flat.flags.writeable = False
    return flat


def environment_levels(nbar: float, cfg: TruncationConfig) -> int:
    """Thermal environment levels for the oracle dilation at occupation nbar.

    Starts at cfg.d_env and adds levels until the discarded geometric tail
    is at most cfg.tail_tol; past D_ENV_MAX levels that raises
    TruncationError.
    """
    d_env = cfg.d_env
    # not <=, so that a NaN tail is refused too
    while not (tail := thermal_tail_mass(nbar, d_env)) <= cfg.tail_tol:
        if d_env >= D_ENV_MAX:
            raise TruncationError(
                f"environment tail mass {tail:.3e} is not within tail_tol {cfg.tail_tol:.1e} "
                f"at nbar = {nbar:.4g} even with {d_env} levels (at most {D_ENV_MAX})"
            )
        d_env += 1
    return d_env


def _kraus_images(ops: np.ndarray, channels: Sequence[ChannelParams], d_sys: int,
                  d_env: int) -> np.ndarray:
    """The Kraus sum of apply_channels_oracle for channels that share d_env.

    The Kraus elements of every channel are gathered from its sector blocks
    into K[c, jm, n, a], and one matmul over jm gives each channel's
    superoperator S[c, (n, a), (p, b)] = sum_jm p_m K_jm[n, a] conj(K_jm[p, b]);
    a second applies it to every operator.
    """
    c, (o, d_in, _) = len(channels), ops.shape
    blocks = np.array([_mixing_unitary(p.eta, d_sys + d_env - 1) for p in channels])
    kraus = blocks.reshape(c, -1)[:, _kraus_layout(d_in, d_sys, d_env)]  # (c, j, m, n, a)
    weights = thermal_weights(np.array([p.nbar for p in channels]), d_env)
    left = (kraus * weights[:, None, :, None, None]).reshape(c, -1, d_sys * d_in)
    s = np.swapaxes(left, 1, 2) @ kraus.reshape(left.shape).conj()
    s = s.reshape(c, d_sys, d_in, d_sys, d_in).transpose(0, 1, 3, 2, 4)
    out = s.reshape(c, d_sys * d_sys, d_in * d_in) @ ops.reshape(o, d_in * d_in).T
    return out.transpose(0, 2, 1).reshape(c, o, d_sys, d_sys)


def apply_channels_oracle(
    ops: np.ndarray, channels: Sequence[ChannelParams], cfg: TruncationConfig
) -> np.ndarray:
    """Brute-force channel action on a stack of operators through a stack of
    channels: dilate, mix, trace out the environment.

    ops is (O, d_in, d_in) with d_in <= cfg.d_sys; the result out[c, o], of
    shape (C, O, cfg.d_sys, cfg.d_sys), is channel c applied to ops[o]. Each
    input meets a thermal environment (d_env levels populated, p_m) on a
    beam splitter of transmissivity eta, and the environment is traced out.
    The environment is diagonal, so the result is the Kraus sum

        out = sum_m p_m sum_j K_jm rho K_jm+,   K_jm[n, a] = <n, j| U |a, m>,

    with each K_jm only cfg.d_sys x d_in. U conserves n_sys + n_env, so
    K_jm[n, a] is nonzero only for a + m = n + j, where it is the entry
    [n, a] of U's block on the sector N = a + m (see _mixing_unitary, called
    once per channel). d_env comes from environment_levels; channels are
    grouped by it and mapped KRAUS_BLOCK at a time, and an identity channel
    returns its inputs zero-padded.

    Exactness: the inputs reach at most N = (d_in - 1) + (d_env - 1), and
    every sector up to that is complete in the blocks, so the mixing is
    exact on everything the input touches. The only approximation is the
    environment's tail. Only Fock matrix elements of the dilation enter;
    nothing comes from the closed forms.

    The output is returned at cfg.d_sys levels without renormalization.
    Entries inside the returned corner are exact up to the environment
    tail, whatever d_sys is; only the mass that genuinely spread above
    d_sys - 1 is missing from the trace.

    Works on any operator, not only densities: the map is linear, which is
    what lets hybrid states be pushed through block by block.
    """
    n_ops, d_in, _ = ops.shape
    if d_in > cfg.d_sys:
        raise ValueError(f"input dimension {d_in} exceeds cfg.d_sys = {cfg.d_sys}")
    levels = [0 if p.is_identity else environment_levels(p.nbar, cfg) for p in channels]
    out = np.zeros((len(channels), n_ops, cfg.d_sys, cfg.d_sys), dtype=complex)
    for d_env in set(levels):
        group = [c for c, level in enumerate(levels) if level == d_env]
        if not d_env:
            out[group, :, :d_in, :d_in] = ops
            continue
        for start in range(0, len(group), KRAUS_BLOCK):
            block = group[start : start + KRAUS_BLOCK]
            out[block] = _kraus_images(ops, [channels[c] for c in block], cfg.d_sys, d_env)
    return out


def apply_channel_oracle(
    rho: ModeOperator, p: ChannelParams, cfg: TruncationConfig
) -> ModeOperator:
    """apply_channels_oracle for one operator and one channel: the image of
    rho (dim d_in <= cfg.d_sys), at cfg.d_sys levels."""
    return ModeOperator(cfg.d_sys, apply_channels_oracle(rho.entries[None], [p], cfg)[0, 0])
