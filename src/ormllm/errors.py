"""Exception taxonomy shared across the package.

Library code raises these and never calls sys.exit; the CLI maps them to
stable exit codes.
"""


class OrmllmError(Exception):
    """Base class for all package errors."""


class DimensionError(OrmllmError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigurationError(OrmllmError):
    """A config value violates a structural constraint."""


class ContractError(OrmllmError):
    """A caller broke an operation precondition."""


class NumericError(OrmllmError):
    """A non-finite or otherwise undefined numeric value was produced."""


class DomainError(OrmllmError):
    """An input value lies outside the operation's domain."""


class EmptyDomainError(OrmllmError):
    """A reduction domain (valid pixels, masked positions) is empty."""


class EmptyInputError(OrmllmError):
    """An input collection that must be non-empty is empty."""


class SequenceLengthError(OrmllmError):
    """An assembled token sequence exceeds the configured maximum."""


class GenerationError(OrmllmError):
    """Scene or view generation exhausted its rejection budget."""


class DataParseError(OrmllmError):
    """A serialized record could not be parsed."""


class CompatibilityError(OrmllmError):
    """Two artifacts (checkpoint, dataset, vocabulary) do not match."""


class CheckFailure(OrmllmError):
    """A verification check (gradient check) exceeded its tolerance."""
