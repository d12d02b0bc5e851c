"""Exact B-series computations for Runge-Kutta methods.

Rooted trees, their split tables, truncated B-series with exact (optionally
symbolic) coefficients, composition and substitution, modified equations and
modifying integrators, elementary differentials of concrete ODE systems, and
a small fixed-step simulation harness.

Importing the package loads none of its modules.  Each exported name is
imported from its home module the first time it is read (PEP 562), so
``from bsharp import trees_of_order`` loads ``trees`` and nothing else, and
each CLI command loads only the layers it runs.  To see what a command
loads and compiles::

    PYTHONDONTWRITEBYTECODE=1 python -X importtime -m bsharp trees 1
"""

from importlib import import_module

# home module -> the names it exports
_EXPORTS = {
    "errors": (
        "BSharpError", "CoefficientError", "InvalidTreeError", "NumericFailureError",
        "ParseError", "SeriesError", "SingularMethodError", "TableauError",
        "UnboundSymbolError",
    ),
    "trees": (
        "EMPTY_TREE", "RootedTree", "all_trees_up_to", "canonicalize", "count_trees",
        "parse_tree", "trees_of_order",
    ),
    "splits": ("Forest", "ordered_subtrees", "partitions"),
    "coefficients": ("coeff_eval", "coeff_parse", "coeff_print"),
    "symbolic": ("RationalFunction", "symbol"),
    "series": (
        "TruncatedBSeries", "compose", "display_terms", "exact_series", "format_series",
        "identity_series", "modified_equation_series", "modifying_integrator_series",
        "scale_step", "series_from_json_dict", "series_order_of_accuracy",
        "series_to_json_dict", "substitute", "truncated",
    ),
    "tableaux": (
        "ButcherTableau", "builtin_tableau", "elementary_weight", "order_of_accuracy",
        "rk_series", "tableau_from_json_dict", "tableau_to_json_dict",
    ),
    "expressions": ("Expression", "differentiate", "eval_expression", "format_expression"),
    "odes": (
        "DiffCache", "ODESystem", "elementary_differential", "parse_ode",
        "series_vector_field",
    ),
    "simulate": ("SimulationPlan", "iterate_rows", "run_simulation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
