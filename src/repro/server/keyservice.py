"""The networked OPRF key-generation service.

The "random number generator" of the paper's Section III, deployed as its
own party (distinct from the matching server — if the matching server held
the OPRF key it could brute-force candidate profiles into key indexes and
defeat the fuzzy keygen's offline-attack protection).

Beyond raw evaluation the service enforces the defence that makes the OPRF
meaningful in practice: **per-client rate limiting**.  An online adversary
must query the service once per candidate profile guess; capping the query
rate caps the brute-force throughput, turning the information-theoretic
"offline attack blocked" claim into an operational bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.oprf import RsaOprfServer
from repro.errors import ParameterError, ProtocolError
from repro.net.messages import Message
from repro.net.oprf_messages import (
    OprfKeyInfo,
    OprfKeyInfoRequest,
    OprfRequest,
    OprfResponse,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import (
    DURATION_US_BUCKETS,
    M_KEYSERVICE_EVALUATIONS,
    M_KEYSERVICE_REJECTIONS,
    M_SERVER_HANDLER_LATENCY_US,
    metric_inc,
    metric_observe,
)
from repro.obs.trace import span

__all__ = ["KeyGenService", "RateLimitExceeded"]

_log = get_logger("keyservice")


class RateLimitExceeded(ProtocolError):
    """A client exceeded its OPRF evaluation budget for the window."""


@dataclass
class _ClientBudget:
    window_start: int
    used: int


class KeyGenService:
    """Serves blinded OPRF evaluations with per-client rate limiting."""

    def __init__(
        self,
        oprf_server: Optional[RsaOprfServer] = None,
        max_requests_per_window: int = 30,
        window_seconds: int = 3600,
    ) -> None:
        self.oprf = oprf_server or RsaOprfServer()
        if max_requests_per_window < 1:
            raise ProtocolError("rate limit must allow at least one request")
        if window_seconds < 1:
            raise ProtocolError("rate window must be positive")
        self.max_requests = max_requests_per_window
        self.window_seconds = window_seconds
        self._budgets: Dict[str, _ClientBudget] = {}
        self.evaluations_served = 0
        self.rejections = 0

    # -- rate limiting ------------------------------------------------------------

    def _check_budget(self, client: str, now: int) -> None:
        """Charge one evaluation against the client's window, or refuse it.

        SML007 reviewed: every branch here depends only on public request
        metadata (client id, counts, window timestamps) — the early raise
        is observable but reveals nothing the client did not already know.
        """
        budget = self._budgets.get(client)
        if budget is None or now - budget.window_start >= self.window_seconds:
            self._budgets[client] = _ClientBudget(window_start=now, used=0)
            budget = self._budgets[client]
        if budget.used >= self.max_requests:
            self.rejections += 1
            metric_inc(M_KEYSERVICE_REJECTIONS)
            _log.warning(
                "rate_limit_exceeded",
                client=client,
                limit=self.max_requests,
                window_seconds=self.window_seconds,
            )
            raise RateLimitExceeded(
                f"client {client!r} exceeded {self.max_requests} OPRF "
                f"evaluations per {self.window_seconds}s window"
            )
        budget.used += 1

    def remaining_budget(self, client: str, now: int = 0) -> int:
        """Evaluations left in the client's current window."""
        budget = self._budgets.get(client)
        if budget is None or now - budget.window_start >= self.window_seconds:
            return self.max_requests
        return max(0, self.max_requests - budget.used)

    # -- protocol -----------------------------------------------------------------

    def handle_message(
        self, client: str, message: Message, now: int = 0
    ) -> Message:
        """Dispatch one key-service message from ``client`` at time ``now``."""
        start_ns = time.monotonic_ns()
        try:
            if isinstance(message, OprfKeyInfoRequest):
                pk = self.oprf.public_key
                return OprfKeyInfo(
                    request_id=message.request_id, modulus=pk.n, exponent=pk.e
                )
            if isinstance(message, OprfRequest):
                with span("keyservice.evaluate", client=client):
                    self._check_budget(client, now)
                    try:
                        evaluated = self.oprf.evaluate_blinded(message.blinded)
                    except ParameterError as exc:
                        # crypto-layer range failure becomes a wire-protocol
                        # error: the client sent a blinded value outside [0, N)
                        raise ProtocolError(
                            f"invalid OPRF request: {exc}"
                        ) from exc
                    self.evaluations_served += 1
                    metric_inc(M_KEYSERVICE_EVALUATIONS)
                    # the evaluated value is x^d mod N on a value still
                    # masked by the client's blinding factor r^e, so it may
                    # cross the wire: evaluate_blinded is registered as a
                    # blinding-masked transform (LintConfig.wire_masked_calls)
                    # and smatch-lint tracks its output as wire-safe while
                    # still secret for the timing/size rules
                    return OprfResponse(
                        request_id=message.request_id, evaluated=evaluated
                    )
            raise ProtocolError(
                f"key service cannot handle {type(message).__name__}"
            )
        finally:
            metric_observe(
                M_SERVER_HANDLER_LATENCY_US,
                (time.monotonic_ns() - start_ns) // 1000,
                DURATION_US_BUCKETS,
            )
