"""Exception types shared across the solver stack."""

from __future__ import annotations


class StopGameError(Exception):
    """Base class for all library errors."""


class NoValidH(StopGameError):
    """No window width h satisfies eta(h) < epsilon; the grid is too coarse."""


class NonGridResult(StopGameError):
    """A window-indexed lookup produced a point outside the built family."""


class OrderViolation(StopGameError):
    """Lower payoff process exceeds the upper one somewhere reachable."""


class TheoremViolation(StopGameError):
    """An ordering that must hold by construction failed: implementation bug."""


class PremiseViolation(StopGameError):
    """A user-supplied h or epsilon breaks eta(h) < epsilon, and the
    construction failed on it: an input error, not a bug."""


class NoValidDelta(StopGameError):
    """No settle delay of at least one grid step meets the stability bounds."""


class GuardExceeded(StopGameError):
    """An enumeration or DP exceeded the configured desk-scale cap."""


class DeskScaleExceeded(StopGameError):
    """A fallback needed exhaustive search, but the instance is too large."""


class CertificationFailed(StopGameError):
    """A computed equilibrium candidate exceeded its certified tolerance."""


class WindowCertificationFailed(CertificationFailed):
    """A family entry failed its tolerance at some window time.

    Carries the offending family index ``g``, the grid index ``at`` of the
    window time, the family ``kind``, and the ``achieved`` gap at that time
    against its ``bound``.
    """

    def __init__(self, message: str, g=None, at=None, kind=None, achieved=None, bound=None):
        super().__init__(message)
        self.g, self.at, self.kind, self.achieved, self.bound = g, at, kind, achieved, bound


class ParseError(StopGameError):
    """A game or profile document is structurally malformed."""


class ValidationError(StopGameError):
    """A parsed document violates a named model invariant."""
