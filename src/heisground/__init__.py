"""Ground states of Delta_H u - u + u^p = 0 on the Heisenberg group.

Two variational solvers (mountain-pass path deformation on exhausting
gauge balls; constrained minimization on the L^(p+1) sphere) plus a
concentration-compactness diagnostic suite, on uniform 3D grids with
gauge-ball Dirichlet masks.
"""

from .errors import (
    AlgorithmError,
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
    HeisgroundError,
    InsufficientDataError,
    NumericError,
)
from .heis_core import (
    GroupPoint,
    TestFunction,
    apply_left_invariant,
    critical_exponent,
    dilate,
    gauge,
    group_inverse,
    group_mul,
    homogeneous_dimension,
)
from .grid import (
    Grid3,
    ScalarField,
    apply_Xh,
    apply_Yh,
    build_ball_grid,
    e_norm,
    embedding_ratio,
    integrate,
    lq_norm,
)
from .functionals import (
    EnergyBreakdown,
    critical_identity_defect,
    energy_breakdown,
    eval_I,
    eval_J,
    grad_J,
    nehari_scale,
    residual,
)
from .solvers import (
    DecayFit,
    SolveReport,
    SolverConfig,
    compare_methods,
    exhaust_domains,
    fit_decay,
    pick_u0,
    solve_constrained_min,
    solve_mountain_pass,
)
from .cc_diag import (
    MassDensity,
    TrichotomyResult,
    ball_mass,
    classify_sequence,
    concentration,
    cutoff,
    dilation_normalize,
    energy_split,
    normalize_mass,
)
from .hgf import read_hgf, write_hgf

__version__ = "0.1.0"
