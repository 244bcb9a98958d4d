"""Ground states of a semirelativistic Choquard equation with a local nonlinear
term, computed by Nehari-manifold minimization on a periodized box."""

from .energy import (
    EnergyContext,
    EnergyReport,
    brezis_lieb_check,
    build_context,
    energy_report,
    energy_value,
    grad_energy,
)
from .extension import (
    ExtendedField,
    WallGrid,
    build_wall,
    check_norm_equivalence,
    check_trace_inequalities,
    dtn_apply,
    harmonic_extend,
)
from .grid import (
    Field,
    Grid,
    gaussian_field,
    l2_inner,
    l2_norm,
    l2_norm2,
    load_field,
    random_smooth_field,
    random_smooth_fields,
    save_field,
    shift,
)
from .nehari import (
    FiberScan,
    NehariProjectionError,
    check_J_conditions,
    fiber_scan,
)
from .operators import (
    RieszKernel,
    SqrtOp,
    apply_sqrt,
    build_riesz,
    build_sqrt_op,
    epstein_zeta,
    riesz_convolve,
)
from .problem import (
    ConfigError,
    Descriptor,
    PotentialSpec,
    ProblemParams,
    ValidationReport,
    load_problem_config,
    sample_potentials,
    validate,
)
from .solver import (
    SolveFailure,
    SolverConfig,
    SolverResult,
    multistart,
    solve,
)

__version__ = "0.1.0"
