"""Computations with Lie algebroids given by polynomial chart data.

An algebroid here is a chart, a rank, an anchor matrix of polynomial
fields, and an antisymmetric bracket tensor. On top of that sit the
differential calculus (chart forms are forms of the chart's tangent
algebroid, so one differential is also the de Rham one), A-connections
with torsion and curvature, A-path parallel transport, and the primary
and secondary characteristic class pipeline, plus a JSON-driven command
line front end.

The public names below are imported from their submodule on first use
(PEP 562) and then bound here, so ``import algebroidlab`` loads only the
error types, and a command line call loads only what its subcommand runs.
"""

from importlib import import_module as _import_module

from .errors import *  # noqa: F401,F403

# submodule -> the public names it lends the package
_EXPORTS = {
    "algebroid": (
        "IsotropyData", "LieAlgebroid", "Linearization", "Section",
        "ValidationReport", "VectorField", "anchor_apply", "anchor_rank_at",
        "bracket_sections", "build_algebroid", "catalog_build",
        "constants_jacobiator", "isotropy_at", "linearize_at", "validate",
        "vector_field_bracket"),
    "calculus": (
        "AForm", "CoordForm", "MatrixForm", "anchor_pullback", "differential",
        "wedge"),
    "classes": (
        "CocycleSection", "InvariantPolynomial", "chern_weil",
        "lie_algebra_secondary", "modular_cocycle", "modular_theorem_check",
        "modular_values", "secondary_class", "secondary_triple",
        "transgression_form"),
    "connections": (
        "AConnection", "FrameChange", "TensorSection", "a_derivative",
        "basic_connection", "build_connection", "compatible_connection",
        "connection_matrix", "curvature", "flat_metric_connection",
        "local_curvature", "torsion", "transform_algebroid",
        "transform_symbols"),
    "fields": ("Chart", "ScalarField", "parse_field"),
    "specio": (
        "algebroid_from_dict", "algebroid_to_dict", "load_algebroid",
        "path_from_dict", "save_algebroid"),
    "transport": (
        "APath", "TransportResult", "concat_paths", "constant_path",
        "fixed_point_holonomy", "holonomy_matrix", "lift_base_path",
        "parallel_transport", "reparametrize_path", "reverse_path"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "sampling"}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}
# the error types and the lent names, so a star import loads everything
__all__ = sorted({n for n in globals() if not n.startswith("_")} | set(_SOURCE))

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        value = _import_module("." + name, __name__)
    elif name in _SOURCE:
        value = getattr(_import_module("." + _SOURCE[name], __name__), name)
    else:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    # later reads find the name here and never call this function again
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(_SOURCE))
