"""Meshless finite differences with overlapping local spaces.

Node clouds carry overlapping patches of polynomials or radial kernels;
stencil weights come from exactness conditions (equivalently from the
patches' cardinal bases), and the global problem is solved by square
collocation or oversampled discrete least squares.  A partition of unity
blends the patches into a globally defined function for post-processing.
"""

from .errors import (
    AnalysisSizeError,
    AssemblyError,
    ConfigError,
    ConstructionError,
    ContractError,
    CoverageError,
    InconsistentSplineError,
    InvalidInputError,
    MeshfdError,
    NotAnInterpolationSetError,
    SingularSystemError,
    UnsolvableExactnessError,
)
from .geometry import (
    InfluenceSet,
    NodeSet,
    generate_grid,
    generate_scattered,
    knn,
    load_nodes,
    range_search,
    save_nodes,
)
from .operators import IDENTITY, LAPLACIAN, SECOND_DERIVATIVE_1D, Operator
from .spaces import (
    Kernel,
    KernelSpace,
    PolySpace,
    apply_operator,
    kernel_patch_recipe,
    monomial_exponents,
    poly_patch_recipe,
    unisolvency_rank,
)
from .ndf import (
    StencilWeights,
    verify_exactness,
    weights_kernel,
    weights_poly,
)
from .spline import (
    DimensionReport,
    OverlapSpline,
    OverlapSplineSpace,
    Patch,
    build_space,
    dimension_analysis,
    from_nodal_values,
    lagrange_row,
    restriction,
)
from .solve import (
    GlobalSystem,
    SigmaMap,
    Solution,
    assemble,
    build_sigma,
    solve_least_squares,
    solve_square,
)
from .pum import PartitionOfUnity, blend
from .problems import Problem, convergence_study, preset

__version__ = "0.1.0"
