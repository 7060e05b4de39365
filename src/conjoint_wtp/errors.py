"""Exception types shared across the package.

Each class carries the CLI exit code it maps to, so the command layer can
translate failures uniformly: 2 validation, 3 sampler failure, 4 sign
safety, 5 I/O (plain OSError).
"""


class ConjointError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class CodingError(ConjointError):
    """Unknown attribute or level name encountered while coding a profile."""


class ContractError(ConjointError):
    """An operation was called with arguments that violate its contract."""


class RowError(ContractError):
    """A fault in the table row at 0-based index `row`."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row, self.message = row, message


class DataError(ConjointError):
    """Input data is structurally readable but unusable (bad schema, constant column)."""


class ConfigError(ConjointError):
    """Run configuration is malformed or inconsistent."""


class FitError(ConjointError):
    """The sampler failed a hard quality gate (e.g. divergence rate)."""

    exit_code = 3


class SignSafetyError(ConjointError):
    """Price coefficient is not reliably negative, so WTP ratios are meaningless."""

    exit_code = 4
