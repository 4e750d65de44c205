"""Co-simulation of thermostatically controlled load populations coupled to
aggregate grid frequency dynamics, with threshold-design certification and an
exact statistics suite for the aggregate demand."""

__version__ = "0.1.0"

from .design import AllocationResult, DesignReport, allocate_thresholds, verify_design_condition, zeta
from .grid_model import (
    GenDynamics,
    StateSpace,
    build_combined_system,
    default_gen_dynamics,
    default_grid,
    is_hurwitz,
    one_norm,
)
from .hybrid_sim import (
    FrequencyMetrics,
    Scenario,
    Trace,
    compare_schemes,
    dwell_time_report,
    ripple_envelope,
    simulate,
)
from .stats import (
    TimeSeries,
    aggregate_demand_series,
    cross_term_oracle,
    phase_uniformity,
    theoretical_variance,
    time_average,
    time_variance,
)
from .tcl import (
    Population,
    PopulationSpec,
    Scheme,
    duty_cycle,
    next_thermostat_event,
    on_off_durations,
    sample_initial_states,
    sample_population,
)
