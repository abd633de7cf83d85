from .layered import AlfLayeredSource, PacedLayeredSource
from .audio import CbrAudioSource, TokenBucket

__all__ = [
    "AlfLayeredSource",
    "CbrAudioSource",
    "PacedLayeredSource",
    "TokenBucket",
]
