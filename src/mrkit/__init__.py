"""mrkit: a finite-model toolkit for cubic implication algebras.

Builds the pair, face and filter algebras, checks the defining axioms on
explicit tables, runs the filter calculus, collapses algebras to their
implication quotients, enumerates automorphism groups, and mechanically
verifies the stated structure theory on finite instances.
"""

__version__ = "0.1.0"

from .cubic import (  # noqa: F401
    AxiomReport,
    CubicAlgebra,
    ElementRef,
    Localization,
    Subalgebra,
    caret,
    caret_total,
    check_cubic_axioms,
    check_mr_axiom,
    delta,
    from_json_dict,
    from_pair,
    implies,
    join,
    localize,
    meet,
    preceq,
    sim,
    star,
    to_json_dict,
)
from .constructions import (  # noqa: F401
    BooleanAlgebra,
    ImplicationAlgebra,
    PairElement,
    boolean_algebra,
    build_I,
    embed_e,
    face_poset,
    filter_algebra,
    gfilter_from_presentation,
    implication_subalgebra,
    is_lattice,
    presentation_check,
)
from .filters import (  # noqa: F401
    Filter,
    all_filters,
    as_filter,
    boolean_filter_sum,
    boolean_subfilters,
    delta_filter,
    filter_join,
    generated_subalgebra,
    impl_elem,
    impl_join,
    impl_sup,
    is_F_boolean,
    is_boolean,
    is_gfilter,
    is_weakly_F_boolean,
    principal_filter,
    up_filter,
)
from .functors import (  # noqa: F401
    CubicHom,
    ImplicationHom,
    QuotientAlgebra,
    check_hom,
    functor_C_hom,
    functor_I_hom,
    inclusion_collapse,
    iota,
    kappa,
    quotient_C,
)
from .automorphisms import (  # noqa: F401
    Automorphism,
    GFilterPair,
    Xi,
    alpha_beta,
    coordinate_gfilters,
    d_set,
    decompose,
    enumerate_aut,
    f_ab,
    f_presentation,
    factor_automorphism,
    filter_automorphism,
    find_isomorphism,
    fixed_set,
    inner_group,
    is_inner,
    localize_closure,
    omega,
    phi_from_boolean_filter,
    recover,
)
