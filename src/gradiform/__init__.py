"""gradiform: decides whether a dissipative system is gradient-like,
splits the one-form of its VectorField into exact and antiexact parts via
the ray homotopy operator, and searches for gradientizing coordinates."""

__version__ = "0.1.0"

from .fields import (FieldEvalError, FieldShapeError, VectorField, eval_field,
                     jacobian)
from .homotopy import (Decomposition, QuadratureRule, antiexact_part,
                       decompose, potential)
from .integrability import (ClosednessReport, Loop, Verdict, circle_loop,
                            classify, loop_integral)
from .gradientize import (BarrierViolation, ConstantSolveReport,
                          ConstantVerdict, GeneralSolveReport, MatrixFamily,
                          check_necessary_constant, consistency_check,
                          general_residual, solve_consistency_constant,
                          solve_general, solve_symmetrizer, transform_field,
                          transform_field_general)
from .dynamics import (DensityGrid, LyapunovReport, Trajectory,
                       euler_maruyama_ensembles, graham_estimate,
                       integrate_rk4, lyapunov_check, orthogonality_residual,
                       stationary_density, write_trajectory_csv)
from .sampling import sample_ball
from .zoo import SystemSpec, analytic_potential, build_system
from . import zoo
