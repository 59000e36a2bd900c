"""Finite-category engine for fibred models of language and meaning.

The kernel (``fincat``) provides finite categories, quivers, Set-valued
functors, composition tables and limits; ``fibration`` the category of
elements of a meaning; ``collage`` free adjunction of quiver edges, free
categories among them; ``speaker`` explanations and the
vocabulary-acquisition procedures; ``pregroup`` a grammar backend
generating reduction categories; ``scenario`` and ``cli`` the
declarative scenario runner, with ``jsonio`` its canonical JSON and
``dot`` its DOT rendering.
"""

from .collage import (
    CollageCategory,
    Word,
    extend_set_functor,
    fp_collage,
    free_category,
)
from .errors import FiblexError
from .fibration import Fibration, grothendieck
from .fincat import (
    CatFunctor,
    FinCategory,
    LimitCone,
    Quiver,
    SetFunctor,
    compose_table,
    discrete_category,
    natural_iso_check,
    opposite,
    quiver_from_edges,
    set_limit,
    terminal_category,
    validate_category,
    validate_functor,
    validate_setfunctor,
)
from .pregroup import (
    Lexicon,
    language_category_from_lexicon,
    parse_type,
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
    "compose_table",
    "discrete_category",
    "extend_set_functor",
    "fp_collage",
    "free_category",
    "grothendieck",
    "language_category_from_lexicon",
    "natural_iso_check",
    "opposite",
    "parse_type",
    "quiver_from_edges",
    "set_limit",
    "tautological_explanation",
    "terminal_category",
    "type_order",
    "validate_category",
    "validate_explanation",
    "validate_functor",
    "validate_setfunctor",
]
