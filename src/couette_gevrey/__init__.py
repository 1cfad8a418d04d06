"""Spectral solver and verification toolkit for the passive scalar equation
near Couette flow, with weighted pseudo-Gevrey energy functionals, adapted
vector-field stacks, an interior/exterior stream function decomposition and
a battery of exact commutator and combinatorial identity checks."""

from .coordinates import (
    CoordinateState,
    GammaStack,
    ShearProfile,
    build_gamma_stack,
    couette_state,
    gamma_ladder,
    init_coordinates,
    make_profile,
    step_coordinates,
)
from .functionals import (
    EvalContext,
    eval_coord_functionals,
    eval_icc,
    eval_sources,
    full_report,
    stack_values,
)
from .scalar import (
    InitialData,
    ScalarState,
    default_initial_data,
    exact_transport,
    initial_state,
    step_scalar,
)
from .spectral import (
    ChannelGrid,
    dirichlet_eig,
    green_eval,
    green_solve,
    l2_norm,
    poisson_mode_solve,
)
from .weights import (
    CutoffCascade,
    GevreyCoeffTable,
    WeightParams,
    build_cascade,
    check_gevrey_ratio,
    eval_q,
    eval_W,
    eval_W_derivatives,
)

__version__ = "0.1.0"
