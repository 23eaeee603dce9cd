"""Per-tenant admission control: token buckets and hard quotas.

Two complementary mechanisms guard the service:

* :class:`TokenBucket` — *rate* limiting.  Each tenant owns a bucket
  that refills continuously on the service clock; a request costs one
  token (ingest requests may cost more).  When the bucket is empty the
  request is answered ``429`` with a ``Retry-After`` computed from the
  refill rate, so a well-behaved client knows exactly when to return.
* :class:`QuotaLedger` — *volume* limiting.  Cumulative per-tenant
  byte and sample budgets; once exhausted, ingest is refused until an
  operator raises the quota.  Unlike the bucket this never refills.

Both are pure functions of ``(state, clock.now_s)`` — no wall clock —
so the route tests can drive them deterministically on a
:class:`~repro.stream.ingest.SimClock` and assert exact refusal
patterns, and the hypothesis suite can prove the invariants (tokens
never negative, refill monotone, quota charges exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RateDecision",
    "TokenBucket",
    "TenantQuota",
    "QuotaCharge",
    "QuotaLedger",
]


@dataclass(frozen=True)
class RateDecision:
    """Outcome of one admission attempt against a bucket."""

    granted: bool
    tokens_left: float
    retry_after_s: float

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "granted": self.granted,
            "tokens_left": self.tokens_left,
            "retry_after_s": self.retry_after_s,
        }


class TokenBucket:
    """A continuously refilling token bucket on an injected clock.

    Invariants (locked by ``tests/serve/test_limits.py``):

    * the token level is always in ``[0, capacity]``;
    * refill is monotone in time — observing the bucket never removes
      tokens, and a clock that stands still refills nothing;
    * a grant removes exactly ``cost`` tokens; a refusal removes none.

    Parameters
    ----------
    capacity:
        Maximum (and initial) token level — the burst budget.
    refill_rate:
        Tokens added per simulated second, > 0.
    now_s:
        Clock reading at construction.
    """

    __slots__ = ("capacity", "refill_rate", "_tokens", "_updated_s")

    def __init__(
        self, capacity: float, refill_rate: float, *, now_s: float = 0.0
    ) -> None:
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(f"capacity must be positive, got {capacity}")
        if refill_rate <= 0 or not math.isfinite(refill_rate):
            raise ValueError(
                f"refill_rate must be positive, got {refill_rate}"
            )
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self._tokens = float(capacity)
        self._updated_s = float(now_s)

    def _refill(self, now_s: float) -> None:
        # A clock reading from the past refills nothing (monotonicity);
        # it can happen when callers mix cached and fresh readings.
        elapsed_s = now_s - self._updated_s
        if elapsed_s > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed_s * self.refill_rate
            )
            self._updated_s = float(now_s)

    def available(self, now_s: float) -> float:
        """Token level after refilling up to ``now_s``."""
        self._refill(now_s)
        return self._tokens

    def acquire(self, now_s: float, cost: float = 1.0) -> RateDecision:
        """Try to take ``cost`` tokens at time ``now_s``."""
        if cost <= 0 or not math.isfinite(cost):
            raise ValueError(f"cost must be positive, got {cost}")
        self._refill(now_s)
        if self._tokens >= cost:
            self._tokens -= cost
            # Guard against float dust going negative.
            if self._tokens < 0.0:
                self._tokens = 0.0
            return RateDecision(
                granted=True, tokens_left=self._tokens, retry_after_s=0.0
            )
        deficit = cost - self._tokens
        retry_after_s = deficit / self.refill_rate
        return RateDecision(
            granted=False,
            tokens_left=self._tokens,
            retry_after_s=retry_after_s,
        )


@dataclass(frozen=True)
class TenantQuota:
    """Hard cumulative budgets for one tenant (``None`` = unlimited)."""

    max_bytes: int | None = None
    max_samples: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_samples"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class QuotaCharge:
    """Outcome of one quota charge attempt."""

    granted: bool
    reason: str
    bytes_used: int
    samples_used: int

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "granted": self.granted,
            "reason": self.reason,
            "bytes_used": self.bytes_used,
            "samples_used": self.samples_used,
        }


class QuotaLedger:
    """Cumulative per-tenant byte/sample accounting against a quota.

    Charges are all-or-nothing: a request that would cross either
    budget is refused whole and the ledger is unchanged, so retrying a
    refused request never double-bills.
    """

    def __init__(self, quota: TenantQuota) -> None:
        self.quota = quota
        self._bytes: dict[str, int] = {}
        self._samples: dict[str, int] = {}

    def usage(self, tenant: str) -> tuple[int, int]:
        """``(bytes_used, samples_used)`` for ``tenant``."""
        return self._bytes.get(tenant, 0), self._samples.get(tenant, 0)

    def charge(
        self, tenant: str, *, n_bytes: int, n_samples: int
    ) -> QuotaCharge:
        """Attempt to bill ``tenant`` for one ingest request."""
        if n_bytes < 0 or n_samples < 0:
            raise ValueError("charges must be non-negative")
        used_bytes, used_samples = self.usage(tenant)
        if (
            self.quota.max_bytes is not None
            and used_bytes + n_bytes > self.quota.max_bytes
        ):
            return QuotaCharge(
                granted=False,
                reason="byte-quota-exhausted",
                bytes_used=used_bytes,
                samples_used=used_samples,
            )
        if (
            self.quota.max_samples is not None
            and used_samples + n_samples > self.quota.max_samples
        ):
            return QuotaCharge(
                granted=False,
                reason="sample-quota-exhausted",
                bytes_used=used_bytes,
                samples_used=used_samples,
            )
        self._bytes[tenant] = used_bytes + n_bytes
        self._samples[tenant] = used_samples + n_samples
        return QuotaCharge(
            granted=True,
            reason="",
            bytes_used=self._bytes[tenant],
            samples_used=self._samples[tenant],
        )

    def to_dict(self) -> dict:
        """Per-tenant usage map for ``/metrics``."""
        tenants = sorted(set(self._bytes) | set(self._samples))
        return {
            tenant: {
                "bytes_used": self._bytes.get(tenant, 0),
                "samples_used": self._samples.get(tenant, 0),
            }
            for tenant in tenants
        }
