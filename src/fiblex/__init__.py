"""Finite-category engine for fibred models of language and meaning.

The kernel (``fincat``) provides finite categories, quivers, Set-valued
functors, composition tables, limits and components; ``fibration`` the
discrete-fibration machinery and the comprehensive factorization;
``collage`` free adjunction of quiver edges, free categories among them;
``speaker`` explanations and the vocabulary-acquisition procedures;
``pregroup`` a grammar backend generating reduction categories;
``scenario`` and ``cli`` the declarative scenario runner.
"""

from .collage import (
    CollageCategory,
    Word,
    canonical_functor,
    collage_is_finite,
    extend_set_functor,
    fp_collage,
    free_category,
    normalize_word,
)
from .errors import FiblexError
from .fibration import (
    Fibration,
    Factorization,
    comprehensive_factorization,
    fibration_from,
    fibre,
    grothendieck,
    is_discrete_fibration,
    iso_over_base,
    reindexing,
    to_presheaf,
    validate_fibration_morphism,
)
from .fincat import (
    CatFunctor,
    FinCategory,
    LimitCone,
    Quiver,
    SetFunctor,
    compose_table,
    connected_components,
    discrete_category,
    discrete_quiver,
    natural_iso_check,
    opposite,
    precompose,
    quiver_from_edges,
    set_limit,
    terminal_category,
    underlying_quiver,
    validate_category,
    validate_functor,
    validate_setfunctor,
)
from .pregroup import (
    Lexicon,
    language_category_from_lexicon,
    parse_type,
    reduce,
    replay,
    sentence_check,
    type_order,
)
from .speaker import (
    AcquisitionReport,
    Explanation,
    ExplanationCheck,
    Speaker,
    acquire_by_example,
    acquire_by_example_merged,
    acquire_by_paraphrasis,
    tautological_explanation,
    validate_explanation,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionReport",
    "CatFunctor",
    "CollageCategory",
    "Explanation",
    "ExplanationCheck",
    "Factorization",
    "FiblexError",
    "Fibration",
    "FinCategory",
    "Lexicon",
    "LimitCone",
    "Quiver",
    "SetFunctor",
    "Speaker",
    "Word",
    "acquire_by_example",
    "acquire_by_example_merged",
    "acquire_by_paraphrasis",
    "canonical_functor",
    "collage_is_finite",
    "compose_table",
    "comprehensive_factorization",
    "connected_components",
    "discrete_category",
    "discrete_quiver",
    "extend_set_functor",
    "fibration_from",
    "fibre",
    "fp_collage",
    "free_category",
    "grothendieck",
    "is_discrete_fibration",
    "iso_over_base",
    "language_category_from_lexicon",
    "natural_iso_check",
    "normalize_word",
    "opposite",
    "parse_type",
    "precompose",
    "quiver_from_edges",
    "reduce",
    "reindexing",
    "replay",
    "sentence_check",
    "set_limit",
    "tautological_explanation",
    "terminal_category",
    "to_presheaf",
    "type_order",
    "underlying_quiver",
    "validate_category",
    "validate_explanation",
    "validate_fibration_morphism",
    "validate_functor",
    "validate_setfunctor",
]
