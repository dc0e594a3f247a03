"""Exception types shared across the package."""


class GladError(Exception):
    """Base class for all package-specific errors."""


class FormatError(GladError):
    """A file, stream or option value violates the expected format."""


class LoadError(GladError):
    """A dataset directory is missing mandatory files or is unreadable."""


class SplitError(GladError):
    """A requested train/test split cannot be realized."""


class DegenerateInputError(GladError):
    """Numerical input admits no valid result (e.g. no positive eigenvalues),
    or a candidate failed: a non-finite loss or test score, or a failed
    refit."""


class MethodError(GladError):
    """A selection or evaluation method is inapplicable to the given inputs."""
