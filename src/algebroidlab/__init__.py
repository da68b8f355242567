"""Computations with Lie algebroids given by polynomial chart data.

An algebroid here is a chart, a rank, an anchor matrix of polynomial
fields, and an antisymmetric bracket tensor. On top of that sit the
differential calculus (chart forms are forms of the chart's tangent
algebroid, so one differential is also the de Rham one), A-connections
with torsion and curvature, A-path parallel transport, and the primary
and secondary characteristic class pipeline, plus a JSON-driven command
line front end.
"""

from .algebroid import (
    IsotropyData,
    LieAlgebroid,
    Section,
    TransformationData,
    ValidationReport,
    VectorField,
    anchor_apply,
    anchor_rank_at,
    bracket_sections,
    build_algebroid,
    catalog_build,
    constants_jacobiator,
    isotropy_at,
    linearize_at,
    validate,
    vector_field_bracket,
)
from .calculus import (
    AForm,
    CoordForm,
    MatrixForm,
    anchor_pullback,
    differential,
    wedge,
)
from .classes import (
    CocycleSection,
    InvariantPolynomial,
    chern_weil,
    lie_algebra_secondary,
    modular_cocycle,
    modular_theorem_check,
    modular_values,
    secondary_class,
    secondary_triple,
    transgression_form,
)
from .connections import (
    AConnection,
    FrameChange,
    TensorSection,
    a_derivative,
    basic_connection,
    build_connection,
    compatible_connection,
    connection_matrix,
    curvature,
    curvature_applied,
    flat_metric_connection,
    local_curvature,
    torsion,
    torsion_applied,
    transform_algebroid,
    transform_symbols,
)
from .errors import *  # noqa: F401,F403
from .fields import Chart, ScalarField, parse_field
from .specio import (
    algebroid_from_dict,
    algebroid_to_dict,
    load_algebroid,
    path_from_dict,
    save_algebroid,
)
from .transport import (
    APath,
    TransportResult,
    concat_paths,
    constant_path,
    fixed_point_holonomy,
    holonomy_matrix,
    lift_base_path,
    parallel_transport,
    reparametrize_path,
    reverse_path,
)

__version__ = "0.1.0"
