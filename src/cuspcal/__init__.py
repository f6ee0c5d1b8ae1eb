"""Calderon projectors, boundary-data spaces and Dirichlet-to-Neumann
symbols for fibred-cusp model operators, at three levels: interior principal
symbol, normal family on the fibre, and fully discrete."""

from . import errors
from .linalg import (
    ContourSpec,
    Projector,
    SubspaceBasis,
    direct_sum_check,
    orth_projector,
    projector_from_pair,
    riesz_projector,
    subspace_distance,
)
from .symbols import (
    Covector,
    PolyMatrixSymbol,
    calderon_symbol,
    companion_matrix,
    complementary_symbol,
    dn_symbol,
    orthogonalize,
    random_elliptic_symbol,
)
from .fibre import (
    Bump,
    Fibre,
    FibreExtension,
    FibreODE,
    ModelOperator,
    boundary_data_space,
    full_ellipticity_scan,
    fundamental_matrix,
    minus_boundary_data_space,
    normal_calderon,
    normal_operator,
    ucp_check,
)
from .extension_lab import (
    AbstractBVP,
    augment,
    boundary_space,
    complement_in_minus,
    modify_shadow,
    perturb_imag,
    perturb_real,
)
from .discrete import (
    GridOperator,
    JumpOperator,
    PhiGrid,
    calderon_path_jump,
    calderon_path_spaces,
    discretize,
    double_geometry,
    jump_operator,
    normal_probe,
    one_sided_trace,
    symbol_probe,
)

__version__ = "0.1.0"
