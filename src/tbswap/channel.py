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
from typing import Callable

import numpy as np
from scipy.constants import h as PLANCK
from scipy.constants import k as BOLTZMANN

from .fock import (
    ModeOperator,
    TruncationConfig,
    TruncationError,
    thermal_state,
    thermal_tail_mass,
)

# Not called here; benchmarks/tracing.py hooks these names for declared metrics (now 0).
from .fock import partial_trace, tensor  # noqa: F401

# Tolerance for the physicality boundary N >= (1-eta)/2. Pure-loss parameters
# constructed in floating point can sit a rounding error below the line.
PHYSICALITY_TOL = 1e-12


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


def _check_rate_pair(
    label: str, extraction: float, coupling: float | None, intrinsic: float | None
) -> list[str]:
    problems = []
    if coupling is None and intrinsic is None:
        return problems
    if coupling is None or intrinsic is None:
        problems.append(f"{label}: coupling and intrinsic rates must be given together")
        return problems
    if coupling < 0 or intrinsic < 0 or coupling + intrinsic <= 0:
        problems.append(f"{label}: rates must be nonnegative with a positive sum")
        return problems
    implied = coupling / (coupling + intrinsic)
    if abs(implied - extraction) > 1e-12:
        problems.append(
            f"{label}: rates imply extraction {implied!r}, inconsistent with {extraction!r}"
        )
    return problems


@dataclass(frozen=True)
class TransducerParams:
    """Operating point of one electro-optic transducer.

    zeta_m and zeta_o are the microwave and optical extraction efficiencies
    (coupling rate over total rate), C the cooperativity and nth the thermal
    occupation of the microwave bath. The underlying rate pairs are optional;
    when provided they must be consistent with the extraction efficiencies.
    """

    zeta_m: float
    zeta_o: float
    C: float
    nth: float
    gamma_mc: float | None = None
    gamma_mi: float | None = None
    gamma_oc: float | None = None
    gamma_oi: float | None = None

    def __post_init__(self) -> None:
        problems = []
        if not 0.0 <= self.zeta_m <= 1.0:
            problems.append(f"zeta_m must lie in [0, 1], got {self.zeta_m}")
        if not 0.0 <= self.zeta_o <= 1.0:
            problems.append(f"zeta_o must lie in [0, 1], got {self.zeta_o}")
        if self.C < 0.0:
            problems.append(f"cooperativity must be nonnegative, got {self.C}")
        if self.nth < 0.0:
            problems.append(f"thermal occupation must be nonnegative, got {self.nth}")
        problems += _check_rate_pair("microwave", self.zeta_m, self.gamma_mc, self.gamma_mi)
        problems += _check_rate_pair("optical", self.zeta_o, self.gamma_oc, self.gamma_oi)
        if problems:
            raise ValueError("; ".join(problems))

    @classmethod
    def from_rates(
        cls,
        gamma_mc: float,
        gamma_mi: float,
        gamma_oc: float,
        gamma_oi: float,
        C: float,
        nth: float,
    ) -> "TransducerParams":
        return cls(
            zeta_m=gamma_mc / (gamma_mc + gamma_mi),
            zeta_o=gamma_oc / (gamma_oc + gamma_oi),
            C=C,
            nth=nth,
            gamma_mc=gamma_mc,
            gamma_mi=gamma_mi,
            gamma_oc=gamma_oc,
            gamma_oi=gamma_oi,
        )


def transducer_to_channel(p: TransducerParams) -> ChannelParams:
    """Effective thermal-loss channel of a single transduction step.

    The conversion efficiency peaks at unit cooperativity, and the noise
    term decomposes as the pure-loss minimum plus a nonnegative thermal
    contribution proportional to (1 - zeta_m) nth, so the result is physical
    for every valid operating point.
    """
    denom = (1.0 + p.C) ** 2
    eta = p.zeta_m * p.zeta_o * 4.0 * p.C / denom
    N = 0.5 + 2.0 * p.C * p.zeta_o * (2.0 * (1.0 - p.zeta_m) * p.nth - p.zeta_m) / denom
    return ChannelParams(eta=eta, N=N)


def bose_einstein(frequency_hz: float, temperature_k: float) -> float:
    """Thermal occupation 1/(exp(h f / k T) - 1) of a mode at frequency f."""
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    if temperature_k < 0.0:
        raise ValueError(f"temperature must be nonnegative, got {temperature_k}")
    if temperature_k == 0.0:
        return 0.0
    x = PLANCK * frequency_hz / (BOLTZMANN * temperature_k)
    if x > 700.0:  # expm1 overflows; occupation is zero to double precision anyway
        return 0.0
    return 1.0 / math.expm1(x)


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
def _kraus_layout(d_in: int, d_sys: int, d_env: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the Kraus elements of the dilation sit in the sector blocks.

    K_jm[n, a] = <n, j| U |a, m> is nonzero only when a + m = n + j, where it
    is block [a + m][n, a]. Over the grid (j, m, n, a), of shape
    (d_in + d_env - 1, d_env, d_sys, d_in), this returns the flat index into
    a (d_box,)*3 block array and a 0/1 mask of the entries that conserve
    photon number.
    """
    d_box = d_sys + d_env - 1
    j, m, n, a = np.indices((d_in + d_env - 1, d_env, d_sys, d_in))
    n_tot = a + m
    conserving = j == n_tot - n
    flat = np.where(conserving, (n_tot * d_box + n) * d_box + a, 0)
    mask = conserving.astype(float)
    flat.flags.writeable = mask.flags.writeable = False
    return flat, mask


def apply_channel_oracle(
    rho: ModeOperator, p: ChannelParams, cfg: TruncationConfig
) -> ModeOperator:
    """Brute-force channel action: dilate, mix, trace out the environment.

    The input (dim d_in <= cfg.d_sys) meets a thermal environment (d_env
    levels populated, p_m) on a beam splitter of transmissivity eta, and the
    environment is traced out. The environment is diagonal, so the result
    is the Kraus sum

        out = sum_m p_m sum_j K_jm rho K_jm+,   K_jm[n, a] = <n, j| U |a, m>,

    with each K_jm only cfg.d_sys x d_in. U conserves n_sys + n_env, so
    K_jm[n, a] is nonzero only for a + m = n + j, where it is the entry
    [n, a] of U's block on the sector N = a + m (see _mixing_unitary).

    Exactness: the inputs reach at most N = (d_in - 1) + (d_env - 1)
    <= cfg.d_sys + cfg.d_env - 2, and every sector up to that is complete
    in the blocks, so the mixing is exact on everything the input touches.
    The only approximation is the environment's discarded geometric tail,
    whose mass is checked against cfg.tail_tol up front. Only Fock matrix
    elements of the dilation enter; nothing comes from the closed forms.

    The output is returned at cfg.d_sys levels without renormalization.
    Entries inside the returned corner are exact up to the environment
    tail; only the mass that genuinely spread above d_sys - 1 is missing
    from the trace, so give d_sys headroom above the input support when the
    full output distribution matters.

    Works on any operator, not only densities: the map is linear, which is
    what lets hybrid states be pushed through block by block.
    """
    d_in = rho.dim
    if d_in > cfg.d_sys:
        raise ValueError(f"input dimension {d_in} exceeds cfg.d_sys = {cfg.d_sys}")
    if p.is_identity:
        if d_in == cfg.d_sys:
            return rho
        padded = np.zeros((cfg.d_sys, cfg.d_sys), dtype=complex)
        padded[:d_in, :d_in] = rho.entries
        return ModeOperator(cfg.d_sys, padded)
    nbar = p.nbar
    tail = thermal_tail_mass(nbar, cfg.d_env)
    if tail > cfg.tail_tol:
        raise TruncationError(
            f"environment tail mass {tail:.3e} exceeds tail_tol {cfg.tail_tol:.1e}; "
            f"raise d_env above {cfg.d_env} for nbar = {nbar:.4f}"
        )
    weights = thermal_state(nbar, cfg.d_env).entries.diagonal().real
    blocks = _mixing_unitary(p.eta, cfg.d_sys + cfg.d_env - 1)
    flat, conserving = _kraus_layout(d_in, cfg.d_sys, cfg.d_env)
    kraus = blocks.reshape(-1)[flat] * conserving
    weighted = (kraus * weights[:, None, None]) @ rho.entries
    out = np.einsum("jmna,jmpa->np", weighted, kraus.conj())
    return ModeOperator(cfg.d_sys, out)
