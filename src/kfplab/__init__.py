"""Numerical laboratory for hypocoercive decay of kinetic Fokker-Planck
equations with generalized transport: explicit constants, functional
inequalities, time integration, and decay-rate classification."""

from .errors import (FittingError, GridMismatchError, InfeasibleError,
                     InvalidEquilibriumError, NumericalError, TruncationError,
                     ValidationError)
from .grids import DensityField, Field, Grid1D, PhaseGrid, velocity_weight
from .equilibria import (Equilibrium, PotentialSpec, build_equilibrium,
                         diffusion_sigma, eval_potential, moment_closed_form,
                         psi_mass)
from .operators import (OperatorSet, assemble, collision_v_forms,
                        solve_elliptic)
from .spectral import (InequalityEstimate, hardy_poincare_constant,
                       macroscopic_gap, microscopic_coercivity_constant,
                       pencil_min_eig, poincare_constant,
                       weighted_poincare_constant)
from .hypo import (HypoConstants, auxiliary_operator_norms,
                   bounded_auxiliary_ratio, compute_constants, delta_star,
                   dissipation_components, empirical_kappa, entropy_H,
                   lambda_rate, transport_coefficient_integrals)
from .evolution import (TrajectoryRecord, initial_bump, initial_macro_bump,
                        initial_macro_gaussian, initial_odd_v,
                        initial_shifted_gaussian, run_trajectory)
from .rates import (RegimePrediction, bihari_lasalle_envelope,
                    bihari_lasalle_rk4, classify_regime, default_window,
                    fit_rate, fit_rate_with_sensitivity)
from .runner import (ReportBundle, ScenarioConfig, emit_constants_report,
                     emit_report, run_batch, run_scenario)

__version__ = "0.1.0"
