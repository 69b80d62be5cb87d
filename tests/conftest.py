"""Shared helpers for the test suite.

Two things live here because several test modules need them:

* Ginibre-random density matrices, the standard way to sample test
  states without favouring any basis.

* A phase-space overlap integral computed by Gauss-Hermite quadrature.
  The integrand of (1/pi) * int chi_rho(xi) chi_sigma(-xi) d^2xi is a
  polynomial times exp(-|xi|^2) once the Gaussian envelope of each
  characteristic function is split off, so absorbing that envelope into
  the quadrature weight makes the rule exact for finite-dimensional
  states.  The envelope-free matrix elements are written out directly
  from the Laguerre expansion of the displacement operator, giving the
  integral a route through the math that shares no code with
  reference.characteristic_function.
"""

import math

import numpy as np
from scipy.special import eval_genlaguerre

GH_NODES = 61


def ginibre_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix of the given dimension (Ginibre ensemble)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def displacement_tilde(xi: complex, dim: int) -> np.ndarray:
    """Matrix elements of the displacement operator without its Gaussian
    envelope: <m|D(xi)|n> * exp(+|xi|^2 / 2).

    These are pure polynomials in xi and xi*, so they stay well behaved
    at the large |xi| reached by high-order quadrature nodes where the
    full matrix element would underflow.
    """
    out = np.zeros((dim, dim), dtype=complex)
    x2 = abs(xi) ** 2
    for m in range(dim):
        for n in range(dim):
            p, q = max(m, n), min(m, n)
            diff = p - q
            radial = math.sqrt(math.factorial(q) / math.factorial(p))
            radial *= eval_genlaguerre(q, diff, x2)
            if m >= n:
                out[m, n] = radial * xi ** diff
            else:
                out[m, n] = radial * (-xi.conjugate()) ** diff
    return out


def chi_tilde(rho: np.ndarray, xi: complex) -> complex:
    """Envelope-free characteristic function Tr[rho D(xi)] * e^{+|xi|^2/2}."""
    d = rho.shape[0]
    return complex(np.trace(rho @ displacement_tilde(xi, d)))


def overlap_by_quadrature(rho: np.ndarray, sigma: np.ndarray,
                          nodes: int = GH_NODES) -> float:
    """(1/pi) * int chi_rho(xi) chi_sigma(-xi) d^2xi via Gauss-Hermite.

    Writing xi = x + iy and chi = chi_tilde * exp(-|xi|^2/2), the
    integrand becomes chi_tilde_rho(xi) chi_tilde_sigma(-xi) e^{-x^2-y^2},
    and the exponential is exactly the two-dimensional Gauss-Hermite
    weight.  For dim <= 4 states the polynomial degree per axis is at
    most 12, far below the 2*nodes - 1 the rule integrates exactly.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    total = 0.0 + 0.0j
    for xi_re, w_re in zip(x, w):
        for xi_im, w_im in zip(x, w):
            xi = complex(xi_re, xi_im)
            total += w_re * w_im * chi_tilde(rho, xi) * chi_tilde(sigma, -xi)
    return (total / math.pi).real
