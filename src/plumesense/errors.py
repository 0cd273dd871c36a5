"""Exception types shared across the package."""


class PlumesenseError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PlumesenseError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    ``field``, if given, is the offending attribute's path below the object
    that raised it (``probabilities[1][0]``, ``jets[0].time``,
    ``stochastic.jet_masses``) or the quantity a closed form blames
    (``diffusivity``, ``wind_speed``, ``omega``, ``x_min``); the parser and
    the CLI map it onto a scenario path.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class EvaluationDomainError(DomainError):
    """Closed forms are singular below the configured minimum downwind distance."""

    def __init__(self, message, field="x_min"):
        super().__init__(message, field)


class GeometryError(PlumesenseError, ValueError):
    """Receiver geometry is physically invalid (e.g. sphere touching the ground)."""


class GridError(PlumesenseError, ValueError):
    """A finite-difference or sampling grid violates stability or resolution rules."""


class QuadratureError(PlumesenseError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


class ScenarioError(PlumesenseError, ValueError):
    """Scenario configuration is invalid; ``path`` names the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
