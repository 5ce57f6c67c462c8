"""Exception types raised by the toolkit."""


class TokcheckError(Exception):
    """Base class for all toolkit errors."""


class AlphabetMismatch(TokcheckError):
    """Two strings (or a string and a space) disagree on their alphabet."""


class SpaceMismatch(TokcheckError):
    """Two distributions or maps live over incompatible truncated spaces."""


class OutOfTruncation(TokcheckError):
    """A string is longer than the truncation bound of the target space."""


class OutOfDomain(TokcheckError):
    """A kernel lookup for a string outside the map's domain."""


class EmptySample(TokcheckError):
    """Empirical estimation requires at least one sample."""


class ProcUndefined(TokcheckError):
    """A procedural map failed on a domain string, in tabulation or in a construction's check."""

    def __init__(self, at, cause=None):
        self.at = at
        self.cause = cause
        super().__init__(f"procedure undefined at {at!r}" + (f": {cause}" if cause else ""))


class DecoderNotEligible(TokcheckError):
    """Preimage enumeration needs a deterministic, multiplicative decoder with a trivial kernel."""


class EncoderNotDeterministic(TokcheckError):
    """Operation defined only for deterministic encoders."""


class NotDeterministic(TokcheckError):
    """Operation defined only for deterministic maps."""


class TruncationOverflow(TokcheckError):
    """A decoded string exceeds the declared output truncation."""


class NoMatchingPrefix(TokcheckError):
    """Greedy encoding found no vocabulary spelling at some position."""

    def __init__(self, position, message=""):
        self.position = position
        super().__init__(message or f"no vocabulary spelling matches at position {position}")


class MissingBaseCharacter(TokcheckError):
    """Merge-based encoding requires a single-character entry for every input character."""


class NoSegmentation(TokcheckError):
    """No token sequence in the vocabulary spells out the given text."""


class VocabNotOpen(TokcheckError):
    """Construction requires every alphabet character to appear as a spelling."""


class UndefinedTransition(TokcheckError):
    """A transducer run left the defined transition domain."""

    def __init__(self, state, symbol, position):
        self.state = state
        self.symbol = symbol
        self.position = position
        super().__init__(f"no transition from state {state!r} on {symbol!r} (input position {position})")


class ParseError(TokcheckError):
    """A serialized document does not conform to the file format."""
