"""Simulator for circuits with post-selected feedback loops.

A looped channel is modelled by an entangled boundary pair: the loop qubit
enters the circuit entangled with a hidden reference, and after evolution the
pair is projected back onto its initial state.  Surviving amplitude is the
consistency weight of the circuit; vanishing amplitude is a paradox.  Noisy,
classical, weight-matrix, and continuous-boundary relaxations of the exact
projection are provided, along with closed-form analysis helpers and a
catalog of worked scenarios.
"""

from .analysis import (
    boosted_success,
    compose_skew,
    discrimination_stats,
    ec_fidelity,
    entropy_skew,
    entropy_skew_max,
    flip_probability,
    input_bias,
    parity_recursion,
    povm_inconclusive,
    search_error_rates,
    skew_factor,
    szilard_work,
    weak_average,
)
from .circuit import Channel, Circuit, build_circuit, with_init
from .engine import (
    Classical,
    DeltaQuadrature,
    ExactBell,
    NoisyBell,
    PostSelectionResult,
    ProjectionSet,
    WeightMatrix,
    pair_out_state,
    projection_table,
    resolve_tolerance,
    run_classical,
    run_conditional,
    run_delta_quadrature,
    run_exact_bell,
    run_noisy_bell,
    run_weight_matrix,
)
from .errors import (
    ArityError,
    ConfigError,
    CtcSimError,
    InfiniteSkew,
    LabelCollision,
    LabelError,
    NoCtcError,
    NumericsError,
    ParadoxError,
    ParseError,
    ScenarioNotFound,
    UnsupportedError,
)
from .gates import Gate, make_gate
from .scenarios import Scenario, build_scenario, list_scenarios, verify_scenario
from .states import DensityOperator, PureState

__version__ = "1.0.0"

__all__ = [
    "ArityError", "Channel", "Circuit", "Classical", "ConfigError",
    "CtcSimError", "DeltaQuadrature", "DensityOperator", "ExactBell", "Gate",
    "InfiniteSkew", "LabelCollision", "LabelError", "NoCtcError", "NoisyBell",
    "NumericsError", "ParadoxError", "ParseError", "PostSelectionResult",
    "ProjectionSet", "PureState", "Scenario",
    "ScenarioNotFound", "UnsupportedError", "WeightMatrix", "boosted_success",
    "build_circuit", "build_scenario", "compose_skew",
    "discrimination_stats", "ec_fidelity", "entropy_skew", "entropy_skew_max",
    "flip_probability", "input_bias", "list_scenarios", "make_gate",
    "pair_out_state", "parity_recursion",
    "povm_inconclusive", "projection_table", "resolve_tolerance",
    "run_classical", "run_conditional", "run_delta_quadrature",
    "run_exact_bell", "run_noisy_bell", "run_weight_matrix",
    "search_error_rates", "skew_factor", "szilard_work",
    "verify_scenario", "weak_average", "with_init",
]
