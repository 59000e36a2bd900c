"""Exception types shared across the engine."""


class FiblexError(Exception):
    """Base class for every error raised by this package."""


class NotComposable(FiblexError):
    """A morphism sequence or pair does not compose."""


class UnboundedHomSet(FiblexError):
    """A free construction would generate infinitely many morphisms."""


class BoundExceeded(FiblexError):
    """A composition in a truncated structure falls outside the bound."""


class VertexMismatch(FiblexError):
    """Two quivers (or a quiver and a category) disagree on vertices."""


class BaseMismatch(FiblexError):
    """Two functors that must share a base category do not."""


class MissingEdgeAction(FiblexError):
    """A quiver edge has no assigned action on meanings."""


class DiagramOutsideLanguage(FiblexError):
    """An explanation diagram does not land in the speaker's language."""


class FibreNotEmpty(FiblexError):
    """Plain acquisition requires the learner to have no prior meaning."""


class EmptyExample(FiblexError):
    """An example set must contain at least one witness."""


class ExampleNotInTeacherFibre(FiblexError):
    """The example witnesses must belong to the teacher's meaning."""


class UnforcedActionAtL(FiblexError):
    """Morphisms incident to the learned word need explicit actions."""

    def __init__(self, message, morphisms=()):
        super().__init__(message)
        self.morphisms = tuple(morphisms)


class IdentifierClash(FiblexError):
    """Freshly introduced identifiers collide with existing ones."""


class ScenarioError(FiblexError):
    """A scenario file is structurally invalid or references unknown ids."""
