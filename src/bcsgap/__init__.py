"""Solver for the BCS-Bogoliubov gap equation with contraction-certified
fixed-point iteration, transition-temperature location, and second-order
phase-transition thermodynamics."""

from .model import (
    ConstantPotential,
    EnergyGrid,
    GaussianBumpPotential,
    ParamsError,
    PhysicalParams,
    PotentialError,
    TablePotential,
    build_grid,
    coupling_margin_bounds,
    eval_potential,
    make_params,
    validate_potential,
)
from .quadrature import adaptive_integrate, gap_curvature, gap_kernel, integrate
from .simple_gap import (
    EnvelopeCurve,
    delta0_closed_form,
    envelope_curve,
    implicit_slope_v,
    solve_delta,
    solve_delta_many,
    tau_root,
)
from .gap_operator import (
    GapField,
    GapOperator,
    apply_A,
    as_operator,
    kernel_matrix,
    sample_envelope_field,
    spectral_radius,
    spectral_tc,
)
from .certificate import (
    CertificateFailure,
    ContractionCertificate,
    alpha_integrand,
    compute_alpha,
    search_certificate,
)
from .solver import (
    ConvergenceError,
    GapSurface,
    SolveTrace,
    newton_seed,
    picard_solve,
    solve_surface,
)
from .thermo import (
    LimitTable,
    ThermoReport,
    TransitionVerdict,
    build_thermo_report,
    cutoff_divergence_scan,
    delta_cv,
    entropy_and_heat,
    f_consistency,
    g_consistency,
    g_integral_to_infinity,
    limit_tables,
    psi,
    psi_perturbation_bound,
    psi_second_at_tc,
    second_order_verdict,
)

__version__ = "0.1.0"
