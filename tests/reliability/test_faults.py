"""Unit tests for RetryPolicy determinism and validation."""

from __future__ import annotations

import pytest

from repro.errors import OnionError
from repro.reliability import SQLITE_RETRY_POLICY, RetryPolicy


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self) -> None:
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.05)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)
        assert policy.delay(3) == pytest.approx(0.05)  # capped
        assert policy.delay(10) == pytest.approx(0.05)

    def test_validation(self) -> None:
        with pytest.raises(OnionError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(OnionError):
            RetryPolicy(backoff_base=-0.01)
        with pytest.raises(OnionError):
            RetryPolicy(backoff_cap=-0.01)

    def test_default_is_frozen(self) -> None:
        with pytest.raises(AttributeError):
            SQLITE_RETRY_POLICY.max_retries = 9  # type: ignore[misc]
