"""Tests for the reliability layer: the retry policy, the churn
journal, and end-to-end chaos parity under real process kills."""
