"""Exact orbit machinery for L-shaped genus-2 translation surfaces.

Coordinates live in a real quadratic field and every orbit computation is
exact; floating point appears only in eigenvalue estimates and sanity shadows.
"""

from .quadfield import FieldSpec, QuadNum, reduce_mod
from .surface import (
    GeneratorWord,
    InvalidPointError,
    SurfacePoint,
    SurfaceProto,
    apply_A,
    apply_B,
    apply_word,
    is_A_periodic,
    is_B_periodic,
    n_value,
    parse_point,
    prototype,
    s_value,
    surface,
    thresholds,
)
from .modn import ModNVec, act, component_table, components, project
from .reduce import BracketReport, ReduceResult, in_S, orbit_class_bracket, reduce_point
from .schreier import (
    ComponentShape,
    OrbitGraph,
    ResourceCapError,
    build_G2,
    cheeger_of_set,
    classify_component,
    expand_ball,
    tree_cheeger_profile,
)
from .spectral import FiniteGraph, cheeger_sandwich_check, dirichlet_mu0

__version__ = "0.1.0"
