"""Time-bin entanglement swapping through noisy bosonic channels.

Two remote qubits are each entangled with a photonic mode that carries one
excitation across k time bins, both photons traverse Gaussian thermal-loss
channels, and a beam-splitter measurement heralds a joint qubit state. The
package computes the heralded fidelity two independent ways: closed-form
expressions in the channel parameters (module analytic) and brute-force
truncated-Fock-space simulation (modules fock, channel, states, swap).
"""

from .analytic import (
    SwapFidelityResult,
    optimal_k,
    rho_components,
    state_fidelity_analytic,
    swap_fidelity_k,
    swap_fidelity_n1,
    swap_fidelity_n2,
)
from .channel import (
    ChannelParams,
    ImpossibleEventError,
    TransducerParams,
    UnphysicalChannelError,
    apply_channel_closed_form,
    apply_channel_oracle,
    bose_einstein,
    transducer_to_channel,
)
from .fock import (
    ModeOperator,
    MultiModeOperator,
    TruncationConfig,
    TruncationError,
    annihilation,
    beam_splitter_unitary,
    characteristic_function,
    characteristic_function_joint,
    creation,
    displacement,
    fock_state,
    fock_vector,
    partial_trace,
    tensor,
    thermal_state,
)
from .states import (
    HybridDensity,
    QubitTimeBinSpec,
    channel_output,
    ideal_state,
    state_fidelity_oracle,
)
from .swap import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    DetectionPattern,
    HeraldClass,
    HeraldedState,
    chi_measurement,
    classify_single_photon,
    classify_two_photon,
    heralded_state,
    measurement_operator,
    parity_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "DetectionPattern",
    "HeraldClass",
    "HeraldedState",
    "HybridDensity",
    "ImpossibleEventError",
    "ModeOperator",
    "MultiModeOperator",
    "PHI_MINUS",
    "PHI_PLUS",
    "PSI_MINUS",
    "PSI_PLUS",
    "QubitTimeBinSpec",
    "SwapFidelityResult",
    "TransducerParams",
    "TruncationConfig",
    "TruncationError",
    "UnphysicalChannelError",
    "annihilation",
    "apply_channel_closed_form",
    "apply_channel_oracle",
    "beam_splitter_unitary",
    "bose_einstein",
    "channel_output",
    "characteristic_function",
    "characteristic_function_joint",
    "chi_measurement",
    "classify_single_photon",
    "classify_two_photon",
    "creation",
    "displacement",
    "fock_state",
    "fock_vector",
    "heralded_state",
    "ideal_state",
    "measurement_operator",
    "optimal_k",
    "parity_trace",
    "partial_trace",
    "rho_components",
    "state_fidelity_analytic",
    "state_fidelity_oracle",
    "swap_fidelity_k",
    "swap_fidelity_n1",
    "swap_fidelity_n2",
    "tensor",
    "thermal_state",
    "transducer_to_channel",
    "__version__",
]
