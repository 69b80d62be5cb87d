"""The oracle sizes its own Fock space.

Every scalar the oracle returns reads Fock entries only up to the photon
number involved, so states.sized derives the system size from the request
and the caller's cfg.d_sys can move neither a value nor a refusal. The
derived size is checked here against a contraction written out from
apply_channels_oracle images at a roomier d_sys = n + 3.
"""

import numpy as np
import pytest

from tbswap.channel import ChannelParams, ImpossibleEventError, apply_channels_oracle
from tbswap.fock import TruncationConfig, TruncationError, basis_index, beam_splitter_unitary
from tbswap.states import NORM, QubitTimeBinSpec, state_fidelities, state_fidelity_oracle
from tbswap.swap import PHI_PLUS, DetectionPattern, canonical_heralds, heralded_state

SIZE_TOL = 1e-14

CHANNELS = [
    ChannelParams.from_eta_nbar(0.6, 0.1),
    ChannelParams.from_eta_nbar(0.9, 0.3),
    ChannelParams(eta=1.0, N=0.0),
    ChannelParams.from_eta_nbar(0.6, 0.6),  # past the environment's reach
    ChannelParams.from_eta_nbar(0.0, 0.0),  # no photon arrives: impossible heralds
]


def outcome(call):
    """What a call returns, or the type and text of its refusal."""
    try:
        return call()
    except (TruncationError, ImpossibleEventError) as exc:
        return type(exc), str(exc)


def scalars(p, n, k, cfg):
    """Every scalar oracle function at one channel, n and k: state fidelity
    and heralds at one point and batched, for the canonical pattern, one with
    a bin at the top of the count domain, and one past it."""
    spec = QubitTimeBinSpec(k=k, n=n)

    def herald(first):
        h = heralded_state(p, p, spec, DetectionPattern(k, (first,) + ((n, 0),) * (k - 1)), cfg)
        return h.rho.tolist(), h.fidelity_phi_plus, h.log_success_probability

    return [
        outcome(lambda: state_fidelity_oracle(spec, p, cfg)),
        outcome(lambda: state_fidelities(n, [p], np.array([k]), cfg).tolist()),
        outcome(lambda: [a.tolist() for a in canonical_heralds(n, [p], np.array([k]), cfg)]),
        outcome(lambda: herald((n, 0))),
        outcome(lambda: herald((n + 2, n + 2))),
        outcome(lambda: herald((n + 3, 0))),
    ]


@pytest.mark.parametrize("n, k", [(1, k) for k in range(1, 7)] + [(2, 2)])
def test_no_scalar_or_refusal_depends_on_d_sys(n, k):
    for p in CHANNELS:
        want = scalars(p, n, k, TruncationConfig(d_sys=2))
        for d_sys in range(3, 10):
            assert scalars(p, n, k, TruncationConfig(d_sys=d_sys)) == want, (p, d_sys)


def roomy_reference(n, channels, ks):
    """(state fidelity, Phi+ fidelity, log herald weight) of the canonical
    n-photon herald over (channels x ks), each written out from the even-bin
    images at d_sys = n + 3: the ideal overlap per bin, and the dense beam
    splitter's trace tensor per bin, raised to the even and odd bin counts."""
    d_in, d = n + 1, n + 3
    vecs = np.eye(d_in)[[n, 0]]  # v_GROUND = |n>, v_EXCITED = |0>
    ops = np.einsum("qm,pn->qpmn", vecs, vecs)
    images = apply_channels_oracle(ops.reshape(4, d_in, d_in), channels, TruncationConfig(d_sys=d))
    images = images.reshape(len(channels), 2, 2, d, d)
    odd_images = images[:, ::-1, ::-1]
    even_k, odd_k = ((ks + 1) // 2)[:, None, None], (ks // 2)[:, None, None]

    overlap = np.einsum("cqpmn,pqnm->cqp", images[..., :d_in, :d_in], ops)
    per_parity = overlap[:, None] ** even_k * overlap[:, None, ::-1, ::-1] ** odd_k
    state = NORM * NORM * per_parity.sum(axis=(-2, -1)).real

    w = beam_splitter_unitary(d).entries[basis_index((n, 0), (d, d))].conj().reshape(d, d)

    def tensor(x):  # T[c, qA qB, qA' qB'] = sum conj(W[m,p]) X[m,n] Y[p,q] W[n,q], Y = X
        t = np.einsum("mp,cabmn,cdepq,nq->cadbe", w.conj(), x, x, w)
        return t.reshape(len(channels), 4, 4)

    unnorm = tensor(images)[:, None] ** even_k * tensor(odd_images)[:, None] ** odd_k
    trace = np.trace(unnorm, axis1=-2, axis2=-1).real
    rho = unnorm / trace[..., None, None]
    rho = (rho + rho.swapaxes(-1, -2).conj()) / 2.0
    return state, (PHI_PLUS @ rho @ PHI_PLUS).real, np.log(trace * NORM * NORM)


@pytest.mark.parametrize("n, ks", [(1, np.arange(1, 7)), (2, np.array([2]))])
def test_derived_size_matches_a_roomy_contraction(n, ks):
    """On a fig4a-like eta x nbar grid, the sections at the derived size
    n + 1 agree with the contraction at d_sys = n + 3."""
    channels = [ChannelParams.from_eta_nbar(eta, nbar)
                for eta in np.linspace(0.3, 1.0, 8) for nbar in np.linspace(0.0, 0.3, 7)]
    state, fidelity, log_weight = roomy_reference(n, channels, ks)
    cfg = TruncationConfig()
    np.testing.assert_allclose(state_fidelities(n, channels, ks, cfg), state,
                               rtol=0.0, atol=SIZE_TOL)
    got_fidelity, got_log_weight = canonical_heralds(n, channels, ks, cfg)
    np.testing.assert_allclose(got_fidelity, fidelity, rtol=0.0, atol=SIZE_TOL)
    np.testing.assert_allclose(got_log_weight, log_weight, rtol=0.0, atol=SIZE_TOL)
