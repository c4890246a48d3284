"""curvepulse: closed space curves <-> noise-robust single-qubit pulses.

Forward synthesis reads drive fields off a curve's curvature and torsion;
reverse analysis reconstructs the curve behind any pulse and scores its
noise cancellation; a full noisy-evolution simulator and the first two
interaction-frame error integrals verify every claim numerically.
"""

__version__ = "0.1.0"

from .analysis import (
    RobustnessReport,
    curve_from_pulse,
    import_external_pulse,
    reconstruct_from_frenet,
    robustness_report,
    synthetic_smooth_pulse,
)
from .curves import (
    BUILTIN_CURVES,
    AreaDiagnostics,
    FrenetData,
    SpaceCurve,
    area_diagnostics,
    builtin_curve,
    frenet_data,
    load_curve,
    random_fourier_loop,
    reparameterize_by_arclength,
    save_curve_csv,
)
from .errors import ConvergenceError, CurvePulseError, InputError, NoSolutionError
from .simulator import (
    MagnusErrors,
    NoiseSweepResult,
    ReconstructionResult,
    average_gate_infidelity,
    default_noise_grid,
    infidelity_sweep,
    magnus_errors,
    propagate,
    square_pulse,
)
from .su2 import (
    Unitary2,
    axis_angle_unitary,
    gate_distance,
    unitary_axis_angle,
    unitary_from_angles,
    unitary_from_rotation,
)
from .synthesis import (
    LabFramePulse,
    PhaseSolveResult,
    PulseWaveform,
    TargetGate,
    pulses_from_curve,
    save_pulse_csv,
    save_pulse_json,
    solve_target_phase,
    target_gate_from_curve,
    transform_to_lab_frame,
    transform_to_transverse_frame,
)
