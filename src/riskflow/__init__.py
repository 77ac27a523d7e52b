"""Risk-aware stochastic optimal control on finite grids.

The pipeline: discretize a controlled circle diffusion into per-action
rate matrices, augment the chain with a discounted running-cost
coordinate, stack the implicit-Euler forward equation into a sparse
linear program over time-indexed joint measures, minimize a law-invariant
risk of the terminal cost distribution by backward Bellman sweeps that
solve the program through its dual and certify the primal-dual pair, and
extract the time-state-cost Markov policy.  Monte Carlo simulation,
dynamic programming, and brute-force policy enumeration serve as
independent cross-checks.
"""

from .errors import (AssemblyError, ConfigError, InvalidCostError,
                     InvalidGridError, InvalidParameterError,
                     PolicyEnumerationError, PropagationError, RiskflowError)
from .forward import (ForwardProgram, TrajectoryDistribution,
                      assemble_forward_program, propagate_forward,
                      write_trajectory_csv)
from .generator import (AugmentedGenerator, ControlledGenerator,
                        GeneratorDiagnostics, augment_generator,
                        discount_factor, discretize_circle_diffusion,
                        load_generator_triplets, validate_generator)
from .grids import (CircleGrid, UniformGrid, build_circle_grid,
                    build_uniform_grid)
from .risk import RiskSpec, evaluate
from .solve import (LpFailureError, LpProblem, LpSolution, MarkovPolicy,
                    SolveReport, extract_policy, optimize_linear_risk,
                    optimize_smooth_risk, solve_lp)
from .validate import (DpResult, EnumerationResult, McConfig, McResult,
                       enumerate_policies, risk_neutral_dp, simulate_paths,
                       wasserstein1)
from .cli import ProblemSpec, build_problem, load_config, run, serialize

__version__ = "0.1.0"
