"""Exception types shared across the package."""


class GraphRagError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(GraphRagError):
    """Schema file is malformed or internally inconsistent."""


class EmptyValidSetError(GraphRagError):
    """No candidate triple survived schema validation."""


class GraphFormatError(GraphRagError):
    """Graph file is corrupted, truncated, out of order, or wrong version."""


class UnknownNodeError(GraphRagError):
    """Referenced node id does not exist in the graph."""


class UndefinedModularityError(GraphRagError):
    """Modularity is undefined: the graph has no (non-loop) edge weight."""


class IndexingError(GraphRagError):
    """Corpus indexing failed: empty corpus or too many failed chunks."""


class ClientError(GraphRagError):
    """A model client call failed after exhausting retries."""


class ConfigError(GraphRagError):
    """Pipeline configuration is missing, malformed, or inconsistent."""


class BenchmarkError(GraphRagError):
    """Benchmark file is malformed or yields no usable queries."""


class QueryError(GraphRagError, ValueError):
    """Query text cannot be analyzed (for example, it has no tokens)."""
