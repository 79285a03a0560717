"""curvgreen: Helmholtz Green's functions on constant-curvature manifolds.

Closed-form fundamental solutions of (-Delta +/- beta^2) on the
hyperboloid, the hypersphere and Euclidean space, built on associated
Legendre and Ferrers functions of general (including conical) degree,
together with their Gegenbauer / azimuthal-Fourier expansions, uniform
large-degree asymptotics, and a verification harness that numerically
checks normalization integrals, ODE residuals, epsilon-ball
constraints, flat-space and Laplace limits, and addition-theorem
convergence.
"""

__version__ = "0.1.0"

from .errors import (CurvGreenError, DomainError, DomainViolationError,
                     EigenvaluePoleError, GridError, InsufficientDataError,
                     NoConvergenceError, OffManifoldError, ParamPoleError,
                     PoleError, RangeError, UndefinedError, WrongCaseError,
                     WrongVariantError)
from .result import EvalResult
from .specfun import (Hyp2F1, chebyshev_t, cyl, env_h, env_j, gamma,
                      gauss_2f1, gegenbauer_c, pochhammer, regularized_2f1)
from .legendre import (FerrersP, LegendreQ, ferrers_p, ferrers_p_reflected,
                       ferrers_q, gegenbauer_function, half_odd_eval,
                       legendre_p, legendre_q, odd_ferrers_f)
from .geometry import (EUCLIDEAN, HYPERBOLOID, HYPERSPHERE, AmbientPoint,
                       GeodesicPolarPoint, ManifoldSpec, embed,
                       geodesic_distance, radial_volume_weight,
                       separation_angle, sphere_surface_measure)
from .asymptotics import (AsymptoticApprox, conical_large_tau,
                          empirical_order, ferrers_conical_large_tau,
                          ferrers_large_nu, legendre_large_nu,
                          odd_ferrers_asymptotic)
from .greens import (A_PLUS, AF_MINUS, ALL_VARIANTS, EUCLID_MINUS,
                     EUCLID_PLUS, FRAK_MINUS, FRAKA_MINUS, H_MINUS, H_PLUS,
                     LAPLACE_H, LAPLACE_S, MINUS, PLUS, S_PLUS, SF_MINUS,
                     GreenKernel, WaveParams, eigenvalue_poles,
                     euclidean_green, green_value, hyperboloid_green,
                     laplace_green,
                     pole_proximity, sphere_candidate_minus,
                     sphere_green_antipodal_plus, sphere_green_plus)
from .expansions import (SeriesReport, TwoPointConfig, addition_ferrers,
                         addition_legendre, addition_special,
                         convergence_domain, euclidean_expansion, fourier_2d,
                         green_expansion)
from .verify import (CheckReport, check_beta_zero_limit, check_eps_ball,
                     check_flat_limit, check_mellin, check_normalization,
                     default_suite, quad, radial_residual)
