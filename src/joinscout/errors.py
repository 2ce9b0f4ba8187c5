"""Exception types shared across the package."""

__all__ = [
    "ConfigError",
    "DanglingForeignKeyError",
    "EmptyColumnError",
    "GraphFormatError",
    "JoinScoutError",
    "ManifestParseError",
    "MissingFileError",
    "SchemaMismatchError",
    "SingleTokenError",
    "UnknownTableError",
    "ValueTooShortError",
]


class JoinScoutError(Exception):
    """Base class for every error this package raises on purpose."""


class ManifestParseError(JoinScoutError):
    """The catalog manifest is not valid JSON or violates its schema."""


class MissingFileError(JoinScoutError):
    """A data file referenced by the manifest does not exist."""


class SchemaMismatchError(JoinScoutError):
    """CSV contents do not line up with the declared table schema."""


class DanglingForeignKeyError(JoinScoutError):
    """A foreign key points at a table or column that does not exist."""


class UnknownTableError(JoinScoutError):
    """A table reference does not resolve against the catalog or graph."""


class EmptyColumnError(JoinScoutError):
    """A value-level comparison received a column with no usable values."""


class ConfigError(JoinScoutError):
    """A scoring-configuration file is malformed or out of range."""


class GraphFormatError(JoinScoutError):
    """A serialized join graph is malformed."""


class ValueTooShortError(JoinScoutError):
    """The input string is too short (or has nothing removable) to fuzz."""


class SingleTokenError(JoinScoutError):
    """Name reordering needs at least two whitespace-separated tokens."""
