"""homlab: a numerical laboratory for effective energies of degenerate
linear-growth random functionals.

The package samples stationary diagonal weight fields, solves cell
problems on growing cubes with certified duality gaps, estimates the
effective (homogenized) energy density, verifies its structural
properties (growth sandwich, subadditivity, stationarity in law,
1-homogeneity and recession behavior, rank-one convexity), and probes
two degenerate regimes: heavy-tailed weights whose effective energy
diverges off a subspace, and vanishing weights that admit interfaces of
arbitrarily small energy.
"""

from .fields import (DistributionSpec, FieldSpec, FieldSample, IidCubes,
                     Laminate, Periodic, birkhoff_average, sample_field, shift)
from .integrand import GrowthConstants, coercivity_constant, growth_constants
from .cell import (CellProblem, Grid, SolveReport, SolveTask, assemble,
                   cell_problem_on_cube, cube_grid, load_minimizer, save_minimizer,
                   solve_cell, solve_many)
from .glue import GlueGeometryError, GlueReport, affine_field, glue_with_cutoff
from .homogenize import (HomEstimate, PropertyReport, check_rank_one_convexity,
                         check_stationarity_in_law, check_subadditivity,
                         estimate_f_hom, recession, verify_growth_sandwich)
from .homogenize import RecessionReport, StationarityReport
from .degeneracy import (DivergenceReport, HittingStats, InterfaceLimitReport,
                         InterfaceProbe, cheap_interface, divergence_experiment,
                         hitting_stats, interface_limit_check)
from .stats import TwoSampleResult, mean_ci, two_sample_test

__version__ = "0.1.0"
