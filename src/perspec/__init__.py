"""Spectral toolkit for the singular periodic advection operator
i*eps*(f u')' + i*u' on (-pi, pi) with periodic boundary values.

The coefficient f vanishes at 0 and +-pi, which makes both interval
endpoints singular; everything here works on (0, pi) in a regularized
quasi-derivative state and recovers the other half by symmetry.

Everything runs on numpy and plain Python, and the package needs numpy
alone; ``BACKEND`` names that single integration path in benchmark
records.
"""

__version__ = "0.1.0"
BACKEND = "numpy"

from .eigensolve import (DispersionValue, EigenvalueList, dispersion,
                         dispersion_batch, growth_slope, scan_and_refine)
from .errors import (DomainError, EigenvalueProximityError, GridMismatchError,
                     IntegrationError, PerspecError, SolverError,
                     ValidationError)
from .green import (GridFunction, KernelGrid, apply_resolvent, assemble_kernel,
                    bandlimited_forcing, graded_full_grid, kernel_matrix,
                    manufactured_pair, resolvent_residual)
from .profiles import (CoefficientProfile, OperatorModel, ValidationReport,
                       eval_f, eval_f_prime, load_tabulated,
                       piecewise_linear_profile, sine_profile,
                       tabulated_profile, validate_profile)
from .schatten import (DyadicBoundReport, InequalityReport,
                       SingularValueSpectrum, dyadic_bound_audit,
                       eigen_schatten_inequality, singular_values)
from .shooting import (SharedMesh, SolutionPairs, SolverConfig,
                       compute_phi_at_pi, shared_mesh, solution_pairs)
from .singular import (IntegratingFactor, compute_log_p, compute_log_p_over_f,
                       compute_p_over_f, default_cutoff, endpoint_branches,
                       integrating_factor, seed_regular_origin,
                       seed_vanishing_at_pi)
