"""Exact network constructions under the rectified-quadratic activation.

The package provides, as executable weight constructions with exact
complexity accounting:

- a network representation with forward evaluation and nonzero counts
  (network),
- a structural calculus: composition, identity networks, depth padding,
  parallel lanes (calculus),
- exact matrix multiplication / squaring / dyadic-power networks and the
  Neumann-series approximate inverse (matrixnets),
- a reduced-basis solver for a parametric diffusion problem whose
  parameter-to-solution map is compiled into a single network (pde),
- a command-line front end (cli).
"""

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptyList,
    EmptyNetwork,
    EmptySnapshotSet,
    InvalidArgument,
    NonFiniteEntry,
    SingularSystem,
)
from .network import (
    ComplexityReport,
    Network,
    complexity,
    load_network,
    make_network,
    realize,
    realize_batch,
    requ,
    save_network,
)
from .calculus import (
    BETA1,
    GAMMA1,
    OMEGA1,
    affine_network,
    concat,
    extend,
    identity_network,
    parallelize,
    sparse_concat,
)
from .matrixnets import (
    DoublingPlan,
    inversion_network,
    matr,
    mult_network,
    neumann_length,
    neumann_partial_sum_oracle,
    power_network,
    scalar_product_network,
    spectral_norm,
    square_network,
    vec,
)
from .pde import (
    AffineSystem,
    ErrorReport,
    ReducedBasis,
    assemble_affine_system,
    assemble_load,
    b_network,
    build_reduced_basis,
    contraction_network,
    evaluate_error,
    load_reduced_network,
    reduced_solve,
    save_reduced_network,
    series_plan,
    solution_errors,
    solution_network,
    solve_high_fidelity,
    write_error_csv,
)

__version__ = "0.1.0"
