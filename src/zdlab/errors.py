"""Exception types shared across the package."""


class ZdlabError(Exception):
    """Base class for zdlab failures."""


class ConfigError(ZdlabError):
    """Invalid experiment configuration (CLI exit code 2)."""


class InfeasibleError(ZdlabError):
    """Requested target cannot be enforced (CLI exit code 3)."""


class ExhaustiveCapError(ZdlabError):
    """Enumeration refused: too many candidate subsets (CLI exit code 2)."""


class ConvergenceError(ZdlabError):
    """Stationary solve missed its residual target (CLI exit code 4)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateChainError(ZdlabError):
    """Determinant normalization is numerically degenerate (CLI exit code 4)."""


class StrategyTableError(ZdlabError):
    """A strategy table does not fit the game or holds an invalid probability."""


class TraceParseError(ZdlabError):
    """Malformed contact-trace input."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number
