"""Characteristic functions, the phase-space references of the tests.

Only tests call these, so they live beside the tests and may use
scipy.special. Each takes the d x d corner of the displacement operator
from its closed-form matrix elements, so truncating an operator to d
levels costs them nothing.
"""

import math
from typing import Sequence

import numpy as np
from scipy.special import eval_genlaguerre

from tbswap.fock import ModeOperator, MultiModeOperator


def _displacement_exact(xi: complex, d: int) -> np.ndarray:
    """The d x d corner of the exact displacement operator.

    Matrix elements in closed form,
        <m|D(xi)|n> = sqrt(n!/m!) xi^(m-n) e^(-|xi|^2/2) L_n^(m-n)(|xi|^2)
    for m >= n, and the conjugate-mirrored expression below the diagonal.
    Each entry is the true element of the infinite-dimensional operator, so
    cutting D(xi) to d levels loses nothing inside the corner.
    """
    x = abs(xi) ** 2
    env = math.exp(-x / 2.0)
    out = np.zeros((d, d), dtype=complex)
    fact = [math.factorial(k) for k in range(d)]
    for m in range(d):
        for n in range(d):
            if m >= n:
                coeff = math.sqrt(fact[n] / fact[m]) * xi ** (m - n)
                out[m, n] = coeff * env * eval_genlaguerre(n, m - n, x)
            else:
                coeff = math.sqrt(fact[m] / fact[n]) * (-np.conj(xi)) ** (n - m)
                out[m, n] = coeff * env * eval_genlaguerre(m, n - m, x)
    return out


def characteristic_function(rho: ModeOperator, xi: complex) -> complex:
    """chi(xi) = Tr[rho D(xi)].

    rho lives on d levels, so only the d x d corner of D(xi) enters the
    trace, and _displacement_exact gives that corner in closed form: the
    value carries no truncation error at any xi.
    """
    return complex(np.trace(rho.entries @ _displacement_exact(xi, rho.dim)))


def characteristic_function_joint(op: MultiModeOperator, xis: Sequence[complex]) -> complex:
    """Multimode chi(xi_1, ..., xi_M) = Tr[op D(xi_1) x ... x D(xi_M)].

    The Kronecker product of the exact corners, one per mode, as in the
    single-mode version.
    """
    if len(xis) != len(op.mode_dims):
        raise ValueError(f"expected {len(op.mode_dims)} displacement arguments, got {len(xis)}")
    joint = np.eye(1, dtype=complex)
    for xi, d in zip(xis, op.mode_dims):
        joint = np.kron(joint, _displacement_exact(xi, d))
    # trace of a product without forming the product; the operators here can
    # be thousands of rows across several modes
    return complex(np.einsum("ij,ji->", op.entries, joint))
