"""Retry policy for the SQLite backend's locked-database loop.

One small value object: how many times to retry and how long to back
off.  Delays are fully deterministic (exponential, capped, no jitter),
so a test that holds a real lock sees the same retry schedule on
every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OnionError

__all__ = ["RetryPolicy", "SQLITE_RETRY_POLICY"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often and how patiently to retry.

    ``max_retries`` bounds *re*-attempts: an operation runs at most
    ``max_retries + 1`` times before the caller re-raises.
    """

    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_cap: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise OnionError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise OnionError("backoff delays must be >= 0")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before re-attempt ``attempt`` (0-based)."""
        return min(self.backoff_cap, self.backoff_base * (2.0**attempt))


SQLITE_RETRY_POLICY = RetryPolicy(
    max_retries=4,
    backoff_base=0.005,
    backoff_cap=0.1,
)
"""Backend default: more, shorter retries; SQLite's own busy_timeout
already absorbs sub-second lock contention, so this loop only sees
errors that outlived it."""
