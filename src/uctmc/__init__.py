"""Sampling-based verification of CTMCs with uncertain transition rates.

The pipeline: sample parameter valuations from the model's distributions,
model-check every induced CTMC for a set of time-bounded measures (exactly,
or as intervals from the mass it drops), compute rectangular prediction
regions by scenario optimization, and attach high-confidence lower bounds on
the probability that a fresh sample's solution vector lands in the region.
"""

from importlib import resources

from .expr import (
    ExprError,
    ParseError,
    UnboundIdentifier,
    evaluate,
    evaluate_guard,
    free_identifiers,
    parse_expression,
    parse_guard,
    to_source,
)
from .model import (
    ConcreteCtmc,
    GraphPreservationError,
    ModelError,
    Normal,
    ParametricCtmc,
    StateCapExceeded,
    Uniform,
    Valuation,
    build_full,
    check_graph_preserving,
    graph_preservation_violation,
    load_model,
    parse_model,
)
from .sampling import SampleSet, SamplingError, sample_valuations
from .checker import (
    CheckerError,
    CurveBand,
    IntervalReach,
    IntervalSolution,
    InstantReward,
    Measure,
    MeasureSet,
    SolutionVector,
    TimeBoundedReach,
    bound_measures,
    evaluate_measures,
    instant_reward,
    interval_reach,
    interval_reaches,
    reach_probabilities,
    reach_probability,
    refine_solution,
    region_to_curve,
    solve_measure_set,
    solve_measures,
    transient_distribution,
)
from .scenario import (
    BoundaryAnalysis,
    BoxRegion,
    CriticalRhoError,
    ScenarioError,
    ScenarioOutcome,
    baseline_frequentist,
    baseline_independent,
    bound_outcome,
    complexity_imprecise,
    complexity_precise,
    compute_eta,
    refine_until,
    rho_grid,
    solve_box_imprecise,
    solve_box_precise,
)

__version__ = "0.1.0"


def example_model_path(name: str):
    """Filesystem path of a bundled example model (e.g. "sir20")."""
    return resources.files("uctmc").joinpath("models", f"{name}.json")
