"""Exception types shared across the package.

Every domain failure raises a subclass of SpongeError so callers (and the
command line driver) can distinguish bad mathematical input from bugs.
"""

from __future__ import annotations


class SpongeError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyOrSingletonDigits(SpongeError):
    """Fewer than two distinct digit tuples were supplied."""


class DigitOutOfRange(SpongeError):
    """A digit tuple has the wrong length or an entry outside [0, base)."""


class DecreasingBases(SpongeError):
    """Bases must be non-decreasing from the coarsest coordinate on."""


class DegenerateCoordinate(SpongeError):
    """Some coordinate uses a single digit value, so the attractor is flat there.

    Carries the offending coordinate (1-based) and a suggested reduced model
    with that coordinate dropped.  The reduction is advisory only and is never
    applied automatically.
    """

    def __init__(self, coordinate: int, suggested_bases=None, suggested_digits=None):
        self.coordinate = coordinate
        self.suggested_bases = suggested_bases
        self.suggested_digits = suggested_digits
        hint = ""
        if suggested_bases:
            hint = (
                f"; a reduced model with bases {tuple(suggested_bases)} and the "
                f"degenerate coordinate dropped would carry the same geometry"
            )
        super().__init__(
            f"coordinate {coordinate} takes a single digit value in every tuple{hint}"
        )


class PrefixNotInSponge(SpongeError):
    """A prefix query used a tuple that no digit of the sponge starts with."""


class NonStrictBases(SpongeError):
    """The requested quantity is only defined when bases strictly increase."""


class WordTooShort(SpongeError):
    """A symbolic word does not reach the depth needed at the requested scale."""


class ScaleOutOfRange(SpongeError):
    """A scale or parameter lies outside its admissible interval."""


class EnumerationTooLarge(SpongeError):
    """An enumeration would exceed the configured size cap."""


class ZeroMeasure(SpongeError):
    """A weight is not positive, or a mass ratio lies beyond the float range."""


class VsscNotSatisfied(SpongeError):
    """The operation needs the strong separation condition on digit columns."""


class UnsupportedBoundaryTangent(SpongeError):
    """The limit model touches only the boundary of the unit cube; the finite
    comparison implemented here does not apply, so the case is refused rather
    than approximated."""


class SpongeFileError(SpongeError):
    """A sponge or weight file could not be parsed; message carries position info."""


class InternalError(RuntimeError):
    """A library invariant failed: a bug in this package, not bad input.

    Deliberately not a SpongeError, so callers that handle domain errors do
    not mistake it for one.
    """
