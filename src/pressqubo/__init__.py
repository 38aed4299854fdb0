"""Capacity-constrained assignment planning as binary-quadratic optimization.

The pipeline: an assignment instance (toolkits, machines, costs,
workloads, capacities) is compiled into one of three binary-quadratic
constructions, sampled with classical or simulated-quantum solvers, and
scored against an exhaustive reference optimum.
"""

from .errors import GenerationFailed, Infeasible, PressQuboError, TooLarge
from .model import (
    Assignment,
    FeasibilityReport,
    Instance,
    Solution,
    bundled_instance,
    exact_solve,
    generate_instance,
    load_instance,
    sanitize_instance,
    save_instance,
    solution_cost,
    validate_assignment,
    validate_candidate,
)
from .qubo import (
    DecodedSample,
    Qubo,
    RawVariant,
    RoundedVariant,
    ScaledVariant,
    VariableMap,
    build_qubo,
    decode,
    encode_assignment,
    load_qubo,
    normalize_qubo,
    qubo_energy,
    residual_slack,
    save_qubo,
    slack_bit_count,
    slack_coefficients,
    value_range,
)
from .solvers import (
    SaConfig,
    SampleEntry,
    SampleSet,
    bitflip_postprocess,
    brute_force_qubo,
    load_sampleset,
    postprocess_sampleset,
    random_sample,
    save_sampleset,
    simulated_anneal,
)
from .lrqaoa import (
    CircuitStats,
    InteractionGraph,
    RampSchedule,
    apply_cost_layer,
    apply_mixer_layer,
    circuit_stats,
    edge_coloring,
    interaction_graph,
    lr_schedule,
    precompute_diagonal,
    run_lrqaoa,
    success_probability,
    uniform_state,
)
from .bench import (
    RunRecord,
    aggregate_metrics,
    expand_plan,
    export_report,
    pearson_r,
    score_samples,
    select_best_penalty,
    series_correlations,
    sweep,
)

__version__ = "0.1.0"
