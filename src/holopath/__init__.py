"""Robust-path analysis for nonadiabatic holonomic one-qubit gates.

A three-level Lambda system (logical states |0>, |1>, ancillary |e>) hosts
three standard constructions of holonomic one-qubit gates: the two-loop
scheme, the single-loop multiple-pulse scheme, and the off-resonant
single-shot scheme.  This package builds their exact propagators with and
without systematic Rabi-frequency errors, evaluates the closed-form
second-order fidelities, compares the schemes' robustness, and solves for
the two-loop paths that optimize resilience to both the average error and
a relative error difference between the two drives.
"""

from .analytic import (
    FidelityReport,
    RelativeErrorBreakdown,
    comparison_table,
    dF_dkappa_at_zero,
    extract_quadratic_coefficient,
    f1,
    f2,
    f3,
    fid2_relative,
    fid2_two_loop,
    fidelity_pair,
    fidelity_report,
    quad_coeff_single_loop,
    quad_coeff_single_shot,
    quad_coeff_two_loop,
)
from .linalg import (
    ContractViolation,
    expm,
    gate_fidelity,
)
from .oracle import (
    PulseEnvelope,
    Schedule,
    ScheduleSegment,
    closed_form_limit,
    convergence_order,
    propagate,
    schedule_for_single_loop,
    schedule_for_single_shot,
    schedule_for_two_loop,
)
from .pathfinder import (
    PathConstraints,
    TwoLoopSolution,
    gate_angle_axis,
    solve_single_loop,
    solve_single_shot,
    solve_two_loop,
)
from .schemes import (
    BrightDecomposition,
    LoopParams,
    RabiError,
    SingleLoopPath,
    SingleShotPath,
    TargetGate,
    TwoLoopPath,
    phi_b_of,
    single_loop_gates,
    single_shot_gates,
    two_loop_gates,
)

__version__ = "0.1.0"

__all__ = [
    "BrightDecomposition",
    "ContractViolation",
    "FidelityReport",
    "LoopParams",
    "PathConstraints",
    "PulseEnvelope",
    "RabiError",
    "RelativeErrorBreakdown",
    "Schedule",
    "ScheduleSegment",
    "SingleLoopPath",
    "SingleShotPath",
    "TargetGate",
    "TwoLoopPath",
    "TwoLoopSolution",
    "closed_form_limit",
    "comparison_table",
    "convergence_order",
    "dF_dkappa_at_zero",
    "expm",
    "extract_quadratic_coefficient",
    "f1",
    "f2",
    "f3",
    "fid2_relative",
    "fid2_two_loop",
    "fidelity_pair",
    "fidelity_report",
    "gate_angle_axis",
    "gate_fidelity",
    "phi_b_of",
    "propagate",
    "quad_coeff_single_loop",
    "quad_coeff_single_shot",
    "quad_coeff_two_loop",
    "schedule_for_single_loop",
    "schedule_for_single_shot",
    "schedule_for_two_loop",
    "single_loop_gates",
    "single_shot_gates",
    "solve_single_loop",
    "solve_single_shot",
    "solve_two_loop",
    "two_loop_gates",
]
