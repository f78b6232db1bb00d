"""Exception and warning types shared across the package."""


class WeylfitError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(WeylfitError):
    """Fock cutoff too small to carry the requested operator."""


class UnsupportedOrderError(WeylfitError):
    """Squeezing order outside the implemented range."""


class InvalidParameterError(WeylfitError):
    """Physical parameter out of the range the implementation supports."""


class InvalidStepError(WeylfitError):
    """Integrator step too coarse for the Hamiltonian scale."""


class AccuracyError(WeylfitError):
    """A numerical accuracy guard (e.g. trace drift) was exceeded."""

    def __init__(self, message: str, drift: float | None = None):
        super().__init__(message)
        self.drift = drift


class InvalidChiError(WeylfitError):
    """Characteristic-function value with |chi| too far above 1."""


class RankDeficiencyError(WeylfitError):
    """Fisher information matrix is singular along a named direction."""

    def __init__(self, message: str, direction=None):
        super().__init__(message)
        self.direction = direction


class NonConvergenceError(WeylfitError):
    """Optimizer failed its exit test; carries the best report found."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(WeylfitError):
    """Malformed run configuration."""


class DatasetError(WeylfitError):
    """Malformed or empty measurement dataset."""


class TruncationWarning(UserWarning):
    """Top Fock levels carry more population than the truncation guard allows."""
