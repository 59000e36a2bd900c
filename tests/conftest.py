"""Suite-wide oracle for the speakers the engine derives.

The acquisitions assemble their results with ``speaker._derived_speaker``,
which skips the checks of ``Speaker.__post_init__``. For the whole test
session every such speaker is checked in full here instead: the language
axioms, the meaning's base, and functoriality. The base is compared with
an opposite built from the language's tables (``opposite_from_tables``),
since the library caches each category's opposite and would compare it
with itself.
"""

import sys

import pytest

import fiblex.speaker as speaker_module
from fiblex.fincat import validate_category, validate_setfunctor
from genlib import opposite_from_tables


def _checked(derive):
    def derived(name, language, meaning):
        assert validate_category(language) == [], f"speaker {name}: derived language"
        assert meaning.base == opposite_from_tables(language), f"speaker {name}: derived base"
        assert validate_setfunctor(meaning) == [], f"speaker {name}: derived meaning"
        return derive(name, language, meaning)

    return derived


@pytest.fixture(autouse=True, scope="session")
def derived_speakers_are_checked():
    original = speaker_module._derived_speaker
    checked = _checked(original)
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("fiblex."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch.setattr(module, attr, checked)
        yield
