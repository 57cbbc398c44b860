"""Exception hierarchy for the toolkit.

Every error raised by public API functions derives from ToolkitError so
callers (notably the CLI) can distinguish domain failures from bugs.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(ToolkitError):
    """Incompatible matrix/tensor shapes."""


class ParameterError(ToolkitError):
    """An argument is outside its valid domain."""


class NumericError(ToolkitError):
    """Non-finite values where finite ones are required."""


class ConvergenceError(ToolkitError):
    """An iterative routine hit its iteration cap."""


class MergeError(ToolkitError):
    """Adapter sets cannot be merged (shape / target / signature conflicts)."""


class ModelError(ToolkitError):
    """Adapter set does not match the model it is applied to."""


class DataError(ToolkitError):
    """Invalid dataset contents (bad labels, empty split)."""


class TrainingError(ToolkitError):
    """Training diverged or produced non-finite values."""


class FormatError(ToolkitError):
    """A file is not in the expected format (magic / version)."""


class CorruptionError(ToolkitError):
    """A file is in the expected format but internally inconsistent."""
