"""Suite-wide oracles for the values the engine builds without checks.

The acquisitions assemble their speakers, and the scenario layer its
explanations, with ``speaker._derived``, which skips the checks of
``Speaker.__post_init__`` and ``Explanation.__post_init__``; the scenario
layer trusts the categories its constructions build. For the whole test
session every such value is checked in full here instead: a derived
speaker's language axioms, its meaning's base, sparse form and
functoriality (a meaning derived the same way is checked as part of its
speaker), a derived explanation's shape, and every category that
``scenario._category_from_decl`` returns. The base is compared with an
opposite built from the language's tables (``opposite_from_tables``),
since the library caches each category's opposite and would compare it
with itself. The meaning must store no empty fibre, no empty graph and
no key outside its base, and its dense form (``reference.dense``) must
pass the oracle in ``reference``, so that the engine's own meaning check
never referees itself: a fibre or a graph out of a non-empty fibre that
the engine failed to store shows there as a problem. Each checking
wrapper keeps the function it wraps as ``__wrapped__``, for a test that
counts the engine's own work. Since ``_derived`` applies no dataclass
default, every value it builds must be given each of its fields, but for
the composition table of a category whose pending glue stands for it.
"""

import dataclasses
import functools
import sys

import pytest

import fiblex.scenario as scenario_module
import fiblex.speaker as speaker_module
from fiblex.fincat import FinCategory, validate_category
from fiblex.speaker import Explanation, Speaker
from genlib import opposite_from_tables
from reference import dense, validate_setfunctor


def _checked_derived(derive):
    @functools.wraps(derive)
    def derived(cls, **fields):
        # no dataclass default is applied, so every field must be given; a
        # category's pending glue stands for its composition table
        missing = {f.name for f in dataclasses.fields(cls)}.difference(fields)
        if cls is FinCategory and "_glue" in fields:
            missing.discard("compose")
        assert not missing, f"{cls.__name__} derived without {sorted(missing)}"
        if cls is Speaker:
            name, language, meaning = fields["name"], fields["language"], fields["meaning"]
            assert validate_category(language) == [], f"speaker {name}: derived language"
            assert meaning.base == opposite_from_tables(language), f"speaker {name}: derived base"
            assert validate_setfunctor(dense(meaning)) == [], f"speaker {name}: derived meaning"
            assert all(meaning.value.values()) and all(meaning.action.values()), \
                f"speaker {name}: derived meaning stores an empty fibre or graph"
            assert (meaning.value.keys() <= meaning.base.objects
                    and meaning.action.keys() <= meaning.base.morphisms), \
                f"speaker {name}: derived meaning has a key outside its base"
        elif cls is Explanation:
            assert validate_category(fields["shape"]) == [], "derived explanation shape"
        return derive(cls, **fields)

    return derived


def _checked_declaration(decode):
    @functools.wraps(decode)
    def decoded(decl):
        cat = decode(decl)
        assert validate_category(cat) == [], f"declared category: {decl}"
        return cat

    return decoded


def _patch_everywhere(patch, original, replacement):
    for name, module in list(sys.modules.items()):
        if name.startswith("fiblex."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, attr, replacement)


@pytest.fixture(autouse=True, scope="session")
def engine_built_values_are_checked():
    derive = speaker_module._derived
    decode = scenario_module._category_from_decl
    with pytest.MonkeyPatch.context() as patch:
        _patch_everywhere(patch, derive, _checked_derived(derive))
        _patch_everywhere(patch, decode, _checked_declaration(decode))
        yield
