"""Exception types shared across the package.

Everything raised on purpose derives from CircioError so callers can catch
one thing at the CLI boundary.
"""


class CircioError(Exception):
    """Base class for all deliberate failures."""


class ZeroJump(CircioError):
    """A raw jump reduced to 0 mod n; loops are not representable."""


class NotAUnit(CircioError):
    """Multiplier is not coprime to the order."""


class OrderMismatch(CircioError):
    """Two connection sets or graphs live on different orders."""


class InvalidParams(CircioError):
    """Transform parameters violate a precondition."""


class BudgetExceeded(CircioError):
    """Search exceeded its node/refinement budget."""


class DegeneratePair(CircioError):
    """Construction parameters collapse the two sets into one."""


class InvalidIndex(CircioError):
    """Construction index is outside its allowed range."""


class Intractable(CircioError):
    """A scan was requested beyond the supported size/work ceiling."""


class WitnessMismatch(CircioError):
    """A witness failed its independent re-check; the result is not certified."""
