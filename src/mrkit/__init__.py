"""mrkit: a finite-model toolkit for cubic implication algebras.

Builds the pair, face and filter algebras, checks the defining axioms on
explicit tables, runs the filter calculus, collapses algebras to their
implication quotients, enumerates automorphism groups, and mechanically
verifies the stated structure theory on finite instances.

The public names below are resolved on first access (PEP 562), so
``import mrkit`` loads no submodule and each CLI command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names the package re-exports from it
_EXPORTS = {
    "cubic": (
        "AxiomReport", "CubicAlgebra", "ElementRef", "Localization",
        "Subalgebra", "caret", "caret_total", "check_cubic_axioms",
        "check_mr_axiom", "delta", "from_json_dict", "implies", "join",
        "localize", "meet", "preceq", "sim", "star", "to_json_dict",
    ),
    "constructions": (
        "ImplicationAlgebra", "PairElement", "boolean_algebra", "build_I",
        "face_poset", "filter_algebra", "gfilter_from_presentation",
        "implication_subalgebra", "presentation_check",
    ),
    "filters": (
        "Filter", "all_filters", "as_filter", "boolean_filter_sum",
        "boolean_subfilters", "delta_filter", "filter_join",
        "generated_subalgebra", "impl_elem", "impl_join", "impl_sup",
        "is_F_boolean", "is_gfilter", "principal_filter",
    ),
    "functors": (
        "CubicHom", "ImplicationHom", "QuotientAlgebra", "check_hom",
        "functor_C_hom", "functor_I_hom", "inclusion_collapse", "iota",
        "kappa", "quotient_C",
    ),
    "automorphisms": (
        "Xi", "coordinate_gfilters", "d_set", "decompose", "enumerate_aut",
        "f_ab", "f_presentation", "factor_automorphism",
        "filter_automorphism", "find_isomorphism", "fixed_set",
        "inner_group", "is_inner", "localize_closure", "omega",
        "phi_from_boolean_filter", "recover",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(import_module("." + _ORIGIN[name], __name__), name)
    if name in _EXPORTS:  # a submodule the names come from
        return import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORIGIN})
