"""Exact B-series computations for Runge-Kutta methods.

Rooted trees, their split tables, truncated B-series with exact (optionally
symbolic) coefficients, composition and substitution, modified equations and
modifying integrators, elementary differentials of concrete ODE systems, and
a small fixed-step simulation harness.

Importing the package loads none of its modules.  Each exported name is
imported from its layer's module the first time it is read (PEP 562), so
``from bsharp import trees_of_order`` loads ``trees`` and nothing else, and
each CLI command loads only the layers it runs.  A layer keeps the code
that the modified-equation, field and simulation paths run in its module,
and the rest in a companion ``<module>_extra`` that only the commands
calling it load.  The layer's module reads any public name it lacks from
its companion on first access (:func:`_forward`), so where a name lives
is said once, where it is defined.  To see what a command compiles::

    PYTHONDONTWRITEBYTECODE=1 python -X importtime -m bsharp trees 1
"""

import sys

# the module of each layer -> the names it exports
_EXPORTS = {
    "errors": (
        "BSharpError", "CoefficientError", "InvalidTreeError", "NumericFailureError",
        "ParseError", "SeriesError", "SingularMethodError", "TableauError",
        "UnboundSymbolError",
    ),
    "trees": (
        "EMPTY_TREE", "RootedTree", "all_trees_up_to", "canonicalize", "count_trees", "parse_tree",
        "trees_of_order",
    ),
    "splits": ("Forest", "ordered_subtrees", "partitions"),
    "coefficients": ("coeff_eval", "coeff_parse", "coeff_print"),
    "symbolic": ("RationalFunction", "symbol"),
    "series": (
        "TruncatedBSeries", "compose", "display_terms", "exact_series", "format_series",
        "identity_series", "modified_equation_series", "modifying_integrator_series", "scale_step",
        "series_from_json_dict", "series_order_of_accuracy", "series_to_json_dict", "substitute",
        "truncated",
    ),
    "tableaux": (
        "ButcherTableau", "builtin_tableau", "elementary_weight", "order_of_accuracy", "rk_series",
        "tableau_from_json_dict", "tableau_to_json_dict",
    ),
    "expressions": (
        "Expression", "differentiate", "eval_expression", "format_expression",
        "format_expressions",
    ),
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
    value = getattr(_load(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _load(module: str):
    """The module ``bsharp.<module>``, imported by ``__import__``, whose
    imports ``-X importtime`` reports (those of ``importlib.import_module``
    it does not)."""
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def _forward(namespace: dict, companion: str):
    """The PEP 562 ``__getattr__`` of the module whose globals are
    ``namespace``: a public name it lacks is read from the module
    ``companion``, imported then, and kept.  A dunder or ``_private`` name
    is refused without loading anything (a star import, ``__path__``)."""
    module = namespace["__name__"]

    def __getattr__(name: str):
        extra = None if name.startswith("_") else _load(companion)
        if not hasattr(extra, name):
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = namespace[name] = getattr(extra, name)
        return value

    return __getattr__
