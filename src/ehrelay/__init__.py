"""Offline-optimal transmit schedules for an energy-harvesting relay link.

A source and a full-duplex relay harvest energy at known instants and must
deliver as many bits as possible to a destination by a deadline.  The
library evaluates the degraded-Gaussian-relay rate bounds, solves the
resulting min-max schedule problem with KKT certification, provides
closed-form solvers for single-harvester and proportional-harvest profiles,
and ships brute-force oracles for independent verification.
"""

from .capacity import (
    BranchUndefinedError,
    ChannelParams,
    RateBranch,
    MULTI_ACCESS,
    BROADCAST,
    c_awgn,
    rate_multi_access,
    rate_broadcast,
    capacity_min,
    active_rate,
    weighted_rate,
    weighted_rate_grad,
    cap_relay_only,
    cap_source_only,
    cap_proportional,
)
from .profile import (
    HarvestEvent,
    HarvestProfile,
    Epoch,
    ProfileError,
    ProfileFormatError,
    validate,
    require_valid,
    epochs,
    epoch_lengths,
    cumulative_energy,
    cumulative_energies,
    proportionality,
    parse_problem,
    load_problem,
    problem_to_dict,
    save_problem,
    events_to_csv,
)
from .solver import (
    Allocation,
    DualVariables,
    KktReport,
    Solution,
    SolverConfig,
    FeasibilityError,
    evaluate_schedule,
    solve_inner,
    solve_minmax,
    kkt_residual,
    recover_duals,
    invariant_report,
)
from .closed_form import (
    Breakpoints,
    WaterfillConstants,
    UnboundedPowerError,
    staircase,
    segment_powers,
    waterfill_power,
    k1_constant,
    k2_constant,
    relay_saturation_power,
    solve_proportional,
    solve_relay_only,
    solve_source_only,
)
from .oracle import (
    GridConfig,
    GridResult,
    BudgetExceededError,
    grid_search,
    rho_maxmin,
)

__version__ = "0.1.0"
