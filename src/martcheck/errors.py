"""Error types shared across the package."""
import functools


class MartcheckError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MartcheckError, ValueError):
    """A parameter is outside its mathematical domain (e.g. p < 2)."""


class TreeStructureError(MartcheckError, ValueError):
    """A tree is malformed: a level's arrays do not fit (dtype, shape,
    parent order), a leaf above the last level, a non-finite increment."""


class LevelRangeError(MartcheckError, IndexError):
    """A level index n or a time t falls outside the available grid."""


class PreconditionError(MartcheckError, ValueError):
    """A distributional precondition fails (e.g. nonzero conditional mean)."""


class InvalidTreeError(PreconditionError):
    """A sound tree fails a probabilistic invariant, a distributional precondition."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class QuadratureError(MartcheckError, ArithmeticError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class ResourceLimitError(MartcheckError, RuntimeError):
    """An enumeration or simulation would exceed a configured size cap."""


class ConfigError(MartcheckError, ValueError):
    """A search or run configuration is inconsistent."""


def refuse_overflow(what: str):
    """Decorate a function so that an OverflowError from the float arithmetic
    in it (float ** and the math functions raise where numpy gives inf) is
    raised as DomainError saying that `what` overflows, not as a traceback."""
    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except OverflowError:
                raise DomainError(f"{what} overflows a float") from None
        return checked
    return decorate
