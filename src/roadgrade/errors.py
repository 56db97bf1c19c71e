"""Shared exception types, mapped to CLI exit codes in cli.py."""


class RoadgradeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RoadgradeError):
    """Invalid run configuration or command usage."""


class DataError(RoadgradeError):
    """Malformed or missing input data / artifacts."""


class NumericError(RoadgradeError):
    """A numeric computation produced non-finite values."""


class DegenerateVarianceError(RoadgradeError):
    """Spatial statistic undefined: a constant field or no connections."""
