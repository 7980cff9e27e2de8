"""Dense-coding capacities of few-qubit resource states under local noise."""

from .analysis import (CriticalStrengths, QuenchConfig, QuenchedResult,
                       critical_strengths, find_pa, find_pc, find_pr,
                       quenched_capacity, sweep)
from .capacity import (CapacityResult, PartyLayout, bound_two_receivers,
                       capacity_noiseless, capacity_one_receiver, evaluate)
from .channels import (ChannelKind, ChannelSpec, DrawPolicy, KrausSet,
                       UnitaryParams, apply_local_channel, deterministic_kraus,
                       parse_channel, sample_per_qubit_kraus,
                       unitary_from_params)
from .optimizer import EncodingParams, OptimizerConfig, minimize
from .states import (GGHZ, GW3, GW4, Bell, ResourceState, WUniform, build,
                     parse_state, state_qubits, statevector, w_half)

__version__ = "0.1.0"

__all__ = [
    "CriticalStrengths", "QuenchConfig", "QuenchedResult", "critical_strengths",
    "find_pa", "find_pc", "find_pr", "quenched_capacity", "sweep",
    "CapacityResult", "PartyLayout", "bound_two_receivers",
    "capacity_noiseless", "capacity_one_receiver", "evaluate",
    "ChannelKind", "ChannelSpec", "DrawPolicy", "KrausSet", "UnitaryParams",
    "apply_local_channel", "deterministic_kraus", "parse_channel",
    "sample_per_qubit_kraus", "unitary_from_params",
    "EncodingParams", "OptimizerConfig", "minimize",
    "GGHZ", "GW3", "GW4", "Bell", "ResourceState", "WUniform", "build",
    "parse_state", "state_qubits", "statevector", "w_half",
    "__version__",
]
