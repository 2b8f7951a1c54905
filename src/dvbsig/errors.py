"""Exception types shared across the package."""


class DvbsigError(Exception):
    """Base class for all errors raised by this package."""


class ParamMismatch(DvbsigError):
    """Operands belong to different moduli / curve parameter sets."""


class InversionOfZero(DvbsigError):
    """Multiplicative inverse of zero requested."""


class InvalidPoint(DvbsigError):
    """Coordinates do not satisfy the curve equation (or wrong subgroup)."""


class ParamSearchFailed(DvbsigError):
    """Curve parameter search exhausted its candidate budget."""


class HashToPointFailed(DvbsigError):
    """Try-and-increment ran out of counters without finding a point."""


class DecodeError(DvbsigError):
    """Malformed serialized value.  `position` is the byte offset at fault,
    or None where the decoder knows none (a key-value field, say), and
    `reason` the message without it."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at byte {position})")
        self.reason = message
        self.position = position


class DuplicateSession(DvbsigError):
    """A transcript with this session id was already recorded."""


class DomainError(DvbsigError):
    """Formula evaluated outside its domain of validity."""


class RefusedTooLarge(DvbsigError):
    """Brute-force helper refused an unreasonably large group order."""


class Degenerate(DvbsigError):
    """Protocol values collapsed to the identity; no witness exists."""
