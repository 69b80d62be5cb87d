"""Truncated Fock-space linear algebra.

Everything in this package lives in small dense matrices: states are a few
photons spread over a few modes, and all heavy computations factorize over
time bins. So this module stays deliberately simple. Operators are plain
complex ndarrays wrapped in thin immutable containers that remember their
mode dimensions.

Truncation caveats are handled explicitly rather than hidden:

* ladder operators on a d-level space satisfy [a, a+] = 1 only away from the
  top level (the (d-1, d-1) entry of the commutator is d-1 instead of 1);
* the beam-splitter unitary is exact on every complete total-photon sector
  (n_A + n_B <= d - 1) and garbage above;
* characteristic functions, the phase-space check on these operators, are
  test references (tests/reference.py): they take the d x d corner of the
  displacement operator from its closed-form matrix elements, so truncating
  an operator to d levels costs them nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


class TruncationError(RuntimeError):
    """A result cannot be trusted at the configured Fock cutoffs."""


@dataclass(frozen=True)
class TruncationConfig:
    """Cutoff bookkeeping for the brute-force (oracle) code paths.

    d_sys is the output size of the oracle calls that return operators, any
    d_sys >= n + 1 for n photons; scalar calls size themselves (states.sized).
    d_env is the fewest levels of the thermal environment mode fed into the
    channel dilation (the oracle adds levels until the tail fits), and
    tail_tol the largest thermal tail mass we are willing to discard silently.
    """

    d_sys: int = 4
    d_env: int = 8
    tail_tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.d_sys < 2:
            raise ValueError(f"d_sys must be at least 2, got {self.d_sys}")
        if self.d_env < 2:
            raise ValueError(f"d_env must be at least 2, got {self.d_env}")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")

    @classmethod
    def for_encoding(cls, n: int) -> "TruncationConfig":
        """Default cutoffs for an n-photon time-bin encoding (d_sys = n + 3)."""
        return cls(d_sys=n + 3)


@dataclass(frozen=True)
class ModeOperator:
    """A single-mode operator on a d-dimensional Fock space."""

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape {(self.dim, self.dim)}, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def dagger(self) -> "ModeOperator":
        return ModeOperator(self.dim, self.entries.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


@dataclass(frozen=True)
class MultiModeOperator:
    """An operator on a tensor product of Fock spaces.

    entries is the full matrix in the row-major product basis: the basis
    index of |n_0, n_1, ...> is n_0 * (d_1 * d_2 * ...) + n_1 * (d_2 * ...)
    + ..., i.e. numpy's ravel_multi_index order.
    """

    mode_dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.mode_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"bad mode dimensions {self.mode_dims}")
        object.__setattr__(self, "mode_dims", dims)
        total = math.prod(dims)
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (total, total):
            raise ValueError(f"expected shape {(total, total)}, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def fock_vector(n: int, d: int) -> np.ndarray:
    """The number state |n> as a length-d unit vector."""
    if not 0 <= n < d:
        raise ValueError(f"fock level {n} does not fit in dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[n] = 1.0
    return v


def fock_state(n: int, d: int) -> ModeOperator:
    """The rank-one density matrix |n><n| in a d-dimensional space."""
    v = fock_vector(n, d)
    return ModeOperator(d, np.outer(v, v.conj()))


def annihilation(d: int) -> ModeOperator:
    """Truncated ladder operator a with a|n> = sqrt(n)|n-1>.

    The canonical commutator holds everywhere except the top level:
    [a, a+] has d - 1 instead of 1 in its last diagonal entry.
    """
    if d < 2:
        raise ValueError("need at least two levels")
    m = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        m[n - 1, n] = math.sqrt(n)
    return ModeOperator(d, m)


def creation(d: int) -> ModeOperator:
    return annihilation(d).dagger()


def thermal_tail_mass(nbar: float, d: int) -> float:
    """Probability mass of a thermal state above the truncation, sum_{m>=d} p_m.

    The geometric law gives this in closed form: (nbar / (1 + nbar))^d, whose
    limit at nbar = inf (an overflowed occupation) is 1.
    """
    if nbar < 0:
        raise ValueError("mean occupation must be nonnegative")
    if nbar == math.inf:
        return 1.0
    return float((nbar / (1.0 + nbar)) ** d)


def thermal_weights(nbar, d: int) -> np.ndarray:
    """Level populations p_0..p_{d-1} of a thermal (geometric) state with mean
    occupation nbar, renormalized on d levels, along a last axis; nbar may
    be an array.

    The discarded tail mass is thermal_tail_mass(nbar, d); renormalization
    keeps the sum exactly 1 so downstream trace bookkeeping stays honest.
    """
    nbar = np.asarray(nbar, dtype=float)[..., None]
    if (nbar < 0).any():
        raise ValueError("mean occupation must be nonnegative")
    p = (nbar / (1.0 + nbar)) ** np.arange(d) / (1.0 + nbar)
    return p / p.sum(axis=-1, keepdims=True)


def thermal_state(nbar: float, d: int) -> ModeOperator:
    """Thermal state with mean occupation nbar on d levels: diag(thermal_weights)."""
    return ModeOperator(d, np.diag(thermal_weights(nbar, d).astype(complex)))


# Port-mixing matrix of the balanced beam splitter used throughout: it is
# involutory (its own inverse), which is what makes a single herald pattern
# act symmetrically on both input arms.
_BS_SINGLE_PARTICLE = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


# beam_splitter_unitary caches 8 entries of 16 d^4 bytes at d <= 2n + 5
# (states.sized): 256 B and 1.3 KB at the canonical d = 2 and 3, 105 KB at 9.
@lru_cache(maxsize=8)
def beam_splitter_unitary(d: int) -> MultiModeOperator:
    """Balanced beam splitter on two d-level modes.

    Satisfies U+ a_A U = (a_A + a_B)/sqrt(2) and U+ a_B U = (a_A - a_B)/sqrt(2)
    exactly on every complete total-photon sector (n_A + n_B <= d - 1). The
    generator is the pi/4 two-mode mixing rotation combined with a pi phase on
    the second port, exponentiated in one shot: h = (pi/2)(I - S) with S the
    single-particle mixing matrix, so exp(-ih) = S exactly (S is involutory
    and h is pi times the projector onto its -1 eigenvector). The two-mode
    generator is Hermitian, so exp(-i gen) = V exp(-i lambda) V+ from its
    eigendecomposition, as channel._mixing_unitary does.

    U is number conserving and unitary to machine precision. Cached per
    dimension; the returned operator is immutable.
    """
    h = (math.pi / 2.0) * (np.eye(2) - _BS_SINGLE_PARTICLE)
    a = annihilation(d).entries
    eye = np.eye(d)
    ladders = [np.kron(a, eye), np.kron(eye, a)]
    gen = np.zeros((d * d, d * d), dtype=complex)
    for i in range(2):
        for j in range(2):
            gen += h[i, j] * ladders[i].conj().T @ ladders[j]
    vals, vecs = np.linalg.eigh(gen)
    return MultiModeOperator((d, d), (vecs * np.exp(-1j * vals)) @ vecs.conj().T)


def tensor(ops: Sequence[ModeOperator | MultiModeOperator]) -> MultiModeOperator:
    """Kronecker product of operators, modes concatenated left to right."""
    if not ops:
        raise ValueError("need at least one operator")
    dims: list[int] = []
    entries = np.eye(1, dtype=complex)
    for op in ops:
        if isinstance(op, ModeOperator):
            dims.append(op.dim)
        else:
            dims.extend(op.mode_dims)
        entries = np.kron(entries, op.entries)
    return MultiModeOperator(tuple(dims), entries)


def partial_trace(
    op: MultiModeOperator, mode_indices: Sequence[int]
) -> MultiModeOperator | ModeOperator:
    """Trace out the listed modes.

    Returns a ModeOperator when exactly one mode remains, otherwise a
    MultiModeOperator on the surviving modes (in their original order).
    """
    k = len(op.mode_dims)
    drop = sorted(set(int(i) for i in mode_indices))
    if any(i < 0 or i >= k for i in drop):
        raise ValueError(f"mode indices {mode_indices} out of range for {k} modes")
    if len(drop) == k:
        raise ValueError("cannot trace out every mode; use trace()")
    keep = [i for i in range(k) if i not in drop]

    tensor_form = op.entries.reshape(op.mode_dims + op.mode_dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * k > len(letters):
        raise ValueError("too many modes for einsum-based partial trace")
    row = list(letters[:k])
    col = list(letters[k : 2 * k])
    for i in drop:
        col[i] = row[i]
    out_sub = "".join(row[i] for i in keep) + "".join(letters[k + i] for i in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out_sub, tensor_form)

    kept_dims = tuple(op.mode_dims[i] for i in keep)
    total = math.prod(kept_dims)
    reduced = reduced.reshape(total, total)
    if len(kept_dims) == 1:
        return ModeOperator(kept_dims[0], reduced)
    return MultiModeOperator(kept_dims, reduced)


def basis_index(counts: Sequence[int], dims: Sequence[int]) -> int:
    """Row-major index of the product basis state |counts> (see MultiModeOperator)."""
    if len(counts) != len(dims):
        raise ValueError("counts and dims must have the same length")
    for c, d in zip(counts, dims):
        if not 0 <= c < d:
            raise ValueError(f"occupation {c} does not fit in dimension {d}")
    return int(np.ravel_multi_index(tuple(int(c) for c in counts), tuple(dims)))


def number_projector(counts: Sequence[int], dims: Sequence[int]) -> MultiModeOperator:
    """Projector |n_1, ..., n_M><n_1, ..., n_M| on a product Fock space."""
    idx = basis_index(counts, dims)
    total = math.prod(dims)
    m = np.zeros((total, total), dtype=complex)
    m[idx, idx] = 1.0
    return MultiModeOperator(tuple(int(d) for d in dims), m)
