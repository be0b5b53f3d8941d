"""gradiform: decides whether a dissipative system is gradient-like,
splits the one-form of its VectorField into exact and antiexact parts via
the ray homotopy operator, and searches for gradientizing coordinates."""

__version__ = "0.1.0"

from .fields import (FieldEvalError, FieldShapeError, VectorField, eval_field,
                     jacobian)
from .homotopy import (Decomposition, QuadratureRule, antiexact_part,
                       decompose, potential)
from .integrability import (ClosednessReport, Verdict, classify,
                            loop_integral)
from .gradientize import (BarrierViolation, ConstantSolveReport,
                          ConstantVerdict, GeneralSolveReport, MatrixFamily,
                          consistency_check, general_residual,
                          solve_consistency_constant, solve_general,
                          solve_symmetrizer, transform_field)
from .dynamics import (DensityGrid, LyapunovReport, Trajectory,
                       euler_maruyama_ensembles, graham_estimate,
                       integrate_rk4, lyapunov_check, stationary_density,
                       write_trajectory_csv)
from .sampling import sample_ball
from .zoo import SystemSpec, build_system
from . import zoo
