"""Exception types shared across the package."""

__all__ = [
    "ConfigError",
    "DanglingForeignKeyError",
    "GraphFormatError",
    "JoinScoutError",
    "ManifestParseError",
    "MissingFileError",
    "SchemaMismatchError",
    "UnknownTableError",
]


class JoinScoutError(Exception):
    """Base class for every error this package raises on purpose.

    A bad file, manifest, catalog, graph, configuration or table name
    raises one of its subclasses; a bad argument to a function raises
    :class:`ValueError`.
    """


class ManifestParseError(JoinScoutError):
    """A catalog or the manifest describing it breaks the catalog's rules.

    Also raised for a manifest or ground-truth sidecar that is not UTF-8 JSON.
    """


class MissingFileError(JoinScoutError):
    """A manifest, a data file it references or a ground-truth sidecar does not exist."""


class SchemaMismatchError(JoinScoutError):
    """CSV contents do not line up with the declared table schema."""


class DanglingForeignKeyError(JoinScoutError):
    """A primary or foreign key names a table or column that does not exist."""


class UnknownTableError(JoinScoutError):
    """A table reference does not resolve against the catalog or graph."""


class ConfigError(JoinScoutError):
    """A scoring-configuration file is malformed or out of range."""


class GraphFormatError(JoinScoutError):
    """A serialized join graph is malformed."""

