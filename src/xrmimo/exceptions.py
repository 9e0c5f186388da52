"""Exception hierarchy shared across the simulator."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SimulationError):
    """Invalid or inconsistent configuration values."""


class FramingError(SimulationError):
    """Bit stream or payload does not match the expected wire layout."""


class SingularChannelError(SimulationError):
    """Channel matrix is rank deficient or too ill-conditioned to equalise."""


class ChannelFileError(SimulationError):
    """Channel file is malformed; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class AlignmentError(SimulationError):
    """Point sets cannot be aligned (too few or degenerate points)."""
