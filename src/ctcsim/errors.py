"""Exception types shared across the simulator, and how their messages show a value."""

from itertools import repeat


def _shown(value):
    """repr(value), or a short stand-in where it holds an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # Python's int-to-str digit limit
        return "<%s too long to print>" % type(value).__name__


def _listed(value, what, kind=object, make=None):
    """The items of `value` (each made by make), all `kind`, else ConfigError "`what`, got ..."."""
    try:
        items = tuple(value if make is None else map(make, value))
        if not all(map(isinstance, items, repeat(kind))):
            raise TypeError
        return items
    except TypeError:
        raise ConfigError("%s, got %s" % (what, _shown(value))) from None


class CtcSimError(Exception):
    """Base class for all simulator errors."""


class LabelError(CtcSimError):
    """A channel label is unknown or malformed."""


class LabelCollision(LabelError):
    """Two channels (or tensor factors) carry the same label."""


class ArityError(CtcSimError):
    """Gate arity does not match the number of target channels."""


class ConfigError(CtcSimError):
    """Circuit or model configuration is invalid."""


class NoCtcError(CtcSimError):
    """The requested channel model needs at least one looped channel."""


class UnsupportedError(CtcSimError):
    """The operation is outside the supported regime (size, channel count, ...)."""


class NumericsError(CtcSimError):
    """A run's acceptance rate Z or survival amplitude N is not finite."""


class ParseError(CtcSimError):
    """A circuit document could not be parsed."""


class ScenarioNotFound(CtcSimError):
    """No catalog scenario with the requested name."""


class InfiniteSkew(CtcSimError):
    """The post-selection skew factor diverges (zero noise)."""


class ParadoxError(CtcSimError):
    """Post-selection annihilates the wavefunction: the loop has no consistent history.

    Carries the full projection table (when available) so a caller can inspect
    where the amplitude went.
    """

    def __init__(self, message, projections=None):
        super().__init__(message)
        self.projections = projections
