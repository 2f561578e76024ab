"""Delayed case isolation in heterogeneous SIR populations.

Analytic stability bounds, a delay-differential-equation integrator that
cross-checks them, and stochastic epidemic simulation on random contact
graphs.
"""

from .dde import (
    History,
    IntegrationError,
    Trajectory,
    constant_history,
    consistent_reduced_history,
    estimate_growth_rate,
    infectious_fraction,
    integrate_homogeneous,
    integrate_partitioned,
    integrate_reduced,
)
from .graphs import ContactGraph, generate_graph
from .netsim import (
    GraphSpec,
    NetworkEnsembleStats,
    run_ensemble,
    run_scenarios,
    run_single,
    seed_infections,
    step_day,
)
from .params import (
    DegreeDistribution,
    DegreeStats,
    EpidemicParams,
    HeterogeneityMode,
    ModelError,
    compute_stats,
    effective_beta,
    load_distribution,
)
from .stability import (
    CharacteristicParams,
    NumericalError,
    StabilityVerdict,
    VerdictKind,
    degree_proportional_alpha,
    heterogeneous_delay_bound,
    homogeneous_delay_bound,
    lambert_w,
    max_cv,
    rightmost_root,
)

__version__ = "0.1.0"
