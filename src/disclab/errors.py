"""Exception hierarchy for disclab.

All library-specific failures derive from :class:`DisclabError` so callers can
catch one base class.  Subclasses double as standard Python exception types
(``ValueError`` / ``RuntimeError``) where that is the natural fit.
Every invalid argument raises an :class:`InvalidArgumentError`; an exponent
outside the supported range raises its subclass
:class:`UnsupportedExponentError`, so one ``except InvalidArgumentError``
catches both.
"""


class DisclabError(Exception):
    """Base class for all disclab errors."""


class InvalidArgumentError(DisclabError, ValueError):
    """An argument violates a documented precondition (domain, shape, ...)."""


class UnsupportedExponentError(InvalidArgumentError):
    """The requested exponent is outside the supported range (e.g. p = inf)."""


class DegenerateWeightError(DisclabError, ValueError):
    """A quadrature weight would be infinite because the density vanishes."""


class SolverFailureError(DisclabError, RuntimeError):
    """A root-finder failed to converge; carries the offending abscissa."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class IntegrationFailureError(DisclabError, RuntimeError):
    """A numerical integral diverged or failed to reach its tolerance."""


class SizeLimitError(DisclabError, ValueError):
    """A combinatorial or memory budget guard was exceeded."""


class NumericalInconsistencyError(DisclabError, RuntimeError):
    """An internal cross-check failed beyond rounding tolerance."""
