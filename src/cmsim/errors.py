"""Exception types shared across the package."""


class CmError(Exception):
    """Base class for congestion-manager API errors."""


class DuplicateFlow(CmError):
    """A flow with the same key is already open."""


class UnknownFlow(CmError):
    """Flow id was never issued, or the flow is closed."""


class NoCallbackRegistered(CmError):
    """cm_request on a flow without a registered send callback."""


class InvalidThreshold(CmError):
    """Rate thresholds must satisfy 0 < down <= 1 <= up."""


class InvalidReport(CmError):
    """Feedback report with negative fields, nrecd > nsent, or rtt <= 0."""


class PastTime(Exception):
    """Attempt to schedule or run the event loop backwards in time."""


class ConnectionClosed(Exception):
    """Write on a closed reliable-stream sender."""


class ConfigError(Exception):
    """Bad experiment configuration or unparsable override."""
