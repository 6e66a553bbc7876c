"""Client-side overload protection: retry budgets and circuit breaking.

Retries convert transient slowness into load amplification: a server at
1.1x capacity times out a fraction of calls, each timeout re-issues, the
effective offered load rises, more calls time out — the metastable
retry storm. Two mechanisms bound the blast radius:

* :class:`RetryBudget` — a token bucket in the gRPC/Envoy style: each
  *logical* call deposits ``ratio`` tokens, each retry spends one whole
  token. Long-run retries are thereby capped at ``ratio`` of calls
  (e.g. 10%), while ``min_tokens`` lets a cold client ride out an
  isolated blip.
* :class:`CircuitBreaker` — closed → open → half-open. Consecutive
  failures trip it open; while open every call is answered locally
  (``CircuitOpen``) at zero network/server cost; after ``open_ms`` it
  goes half-open and admits exactly ``half_open_probes`` probe calls —
  all must succeed to re-close, any failure re-opens. Which calls
  become probes is deterministic (the first N to arrive), so seeded
  runs replay exactly.

:class:`RetryPolicy` lives here too, and :func:`lower_filter` turns a
DSL ``retry``, ``timeout`` or ``circuit_breaker`` filter into one of
these policies. The validator, the linter and the runtime all read a
filter's meta through it, and none of them has to import the runtime.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

if TYPE_CHECKING:  # annotation-only, see admission.py on the cycle
    from ..sim.engine import Simulator

#: ``aborted_by`` token for a breaker short-circuit
CIRCUIT_OPEN = "CircuitOpen"

#: aborts considered transient (safe/useful to retry) by default.
#: Overload rejects (Shed, QueueFull, ...) are deliberately absent:
#: reflexively retrying an explicit shed is how retry storms start
DEFAULT_RETRYABLE = ("Fault", "Timeout")


@dataclass(frozen=True)
class RetryPolicy:
    """A production-shaped retry budget (repro.faults): per-attempt
    timeout, capped exponential backoff with deterministic jitter, and
    an overall deadline budget per *logical* call.

    The per-attempt timeout is what makes fault injection survivable: an
    RPC blackholed by a crashed machine or a dropped frame never
    completes on its own — the timeout converts that silence into a
    retryable ``Timeout`` abort.
    """

    max_attempts: int = 4
    per_attempt_timeout_ms: float = 30.0
    base_backoff_ms: float = 1.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 50.0
    #: fraction of the backoff randomized (0 = none, 1 = ±50%); drawn
    #: from a policy-seeded RNG so runs replay exactly
    jitter: float = 0.5
    #: overall wall-clock budget for one logical call, all attempts and
    #: backoffs included; None = unbounded
    deadline_budget_ms: Optional[float] = None
    retry_on: Tuple[str, ...] = DEFAULT_RETRYABLE
    seed: int = 0

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff after ``attempt`` (1-based) failed attempts.

        The cap applies *after* jitter: the documented contract is that
        no sleep ever exceeds ``max_backoff_ms`` (jitter used to push it
        up to 25% past the cap).
        """
        raw = self.base_backoff_ms * (
            self.backoff_multiplier ** (attempt - 1)
        )
        capped = min(raw, self.max_backoff_ms)
        jittered = capped * (1.0 + self.jitter * (rng.random() - 0.5))
        bounded = min(max(0.0, jittered), self.max_backoff_ms)
        return bounded * 1e-3


def attempt_timeout_ms(
    timeout_ms: Optional[float], deadline_budget_ms: Optional[float]
) -> float:
    """The per-attempt timeout of a retry that may leave it unset: its
    own, else the whole deadline budget, else 30 ms. Either way an
    attempt blackholed by a crashed host or a lost frame ends."""
    if timeout_ms is not None:
        return timeout_ms
    if deadline_budget_ms is not None:
        return deadline_budget_ms
    return 30.0


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Token-bucket retry budget (retries <= ~ratio of logical calls)."""

    #: tokens deposited per logical call; one retry costs one token
    ratio: float = 0.1
    #: initial balance (and floor of the cap): lets a fresh client retry
    #: through an isolated failure before any deposits accrue
    min_tokens: float = 10.0
    #: balance cap, so a long quiet period cannot bank an unbounded
    #: burst of retries
    max_tokens: float = 100.0


class RetryBudget:
    """Deterministic token bucket gating retries."""

    def __init__(self, config: Optional[RetryBudgetConfig] = None):
        self.config = config or RetryBudgetConfig()
        self.tokens = min(self.config.min_tokens, self.config.max_tokens)
        self.deposits = 0
        self.spent = 0
        self.exhausted = 0

    def on_call(self) -> None:
        """A logical call was issued: deposit ``ratio`` tokens."""
        self.deposits += 1
        self.tokens = min(
            self.config.max_tokens, self.tokens + self.config.ratio
        )

    def try_spend(self) -> bool:
        """Spend one token for a retry; False = budget exhausted (the
        caller must give up instead of amplifying)."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.exhausted += 1
        return False


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """Knobs for the 3-state breaker."""

    #: consecutive failures that trip closed -> open
    failure_threshold: int = 5
    #: how long the breaker stays open before probing
    open_ms: float = 20.0
    #: probes admitted in half-open; all must succeed to close
    half_open_probes: int = 1
    seed: int = 0


class CircuitBreaker:
    """closed → open → half-open with deterministic probes."""

    def __init__(self, sim: Simulator, policy: Optional[CircuitBreakerPolicy] = None):
        self.sim = sim
        self.policy = policy or CircuitBreakerPolicy()
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.short_circuited = 0
        self.opens = 0
        self.closes = 0
        self.transitions = []  # (at_s, state) history

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self.sim.now - self._opened_at >= self.policy.open_ms * 1e-3:
            return "half-open"
        return "open"

    def _transition(self, state: str) -> None:
        self.transitions.append((self.sim.now, state))

    def allow(self) -> bool:
        """May this logical call go out? ``False`` means answer it
        locally with :data:`CIRCUIT_OPEN` — record nothing afterwards."""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open":
            # admit up to half_open_probes concurrent probes; everything
            # else keeps short-circuiting until the probes decide
            if self._probes_in_flight < self.policy.half_open_probes:
                self._probes_in_flight += 1
                return True
            self.short_circuited += 1
            return False
        self.short_circuited += 1
        return False

    def record(self, ok: bool) -> None:
        """Outcome of a call previously admitted by :meth:`allow`."""
        if self._opened_at is not None:
            # a probe (or a straggler from before the trip) came back
            if self._probes_in_flight > 0:
                self._probes_in_flight -= 1
            if not ok:
                # failed probe: re-open, restart the cool-down clock
                self._opened_at = self.sim.now
                self._probe_successes = 0
                self.opens += 1
                self._transition("open")
                return
            self._probe_successes += 1
            if self._probe_successes >= self.policy.half_open_probes:
                self._opened_at = None
                self._probe_successes = 0
                self._consecutive_failures = 0
                self.closes += 1
                self._transition("closed")
            return
        if ok:
            self._consecutive_failures = 0
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.policy.failure_threshold:
            self._opened_at = self.sim.now
            self._probe_successes = 0
            self._probes_in_flight = 0
            self.opens += 1
            self._transition("open")


def _meta_number(meta, key: str, default, positive=True, whole=False):
    """``meta[key]`` (``default`` when absent): a finite number, > 0 or
    >= 0, and an integer when ``whole``."""
    value = meta.get(key, default)
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, int if whole else (int, float))
        or not math.isfinite(value)
        or not (value > 0 if positive else value >= 0)
    ):
        kind = "integer" if whole else "number"
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{key} must be a {sign} {kind}, got {value!r}")
    return value


def lower_filter(filter_def) -> Optional[Union[RetryPolicy, CircuitBreakerPolicy]]:
    """The policy a DSL filter declares: a :class:`RetryPolicy` for
    ``retry`` and ``timeout``, a :class:`CircuitBreakerPolicy` for
    ``circuit_breaker``, None for the other operators. Raises
    :class:`ValueError` naming the first meta key it cannot use.
    ``docs/dsl_reference.md`` lists every key and default."""
    meta = filter_def.meta
    if filter_def.operator == "retry":
        budget = _meta_number(meta, "deadline_budget_ms", None)
        backoff = _meta_number(meta, "backoff_ms", 0.0, positive=False)
        retry_on = meta.get("retry_on")
        return RetryPolicy(
            max_attempts=1 + _meta_number(
                meta, "max_retries", 3, positive=False, whole=True
            ),
            per_attempt_timeout_ms=attempt_timeout_ms(
                _meta_number(meta, "timeout_ms", None), budget
            ),
            # a fixed backoff: no growth, no jitter
            base_backoff_ms=backoff,
            backoff_multiplier=1.0,
            max_backoff_ms=backoff,
            jitter=0.0,
            deadline_budget_ms=budget,
            retry_on=(
                tuple(part.strip() for part in str(retry_on).split(","))
                if retry_on
                else DEFAULT_RETRYABLE
            ),
        )
    if filter_def.operator == "timeout":
        return RetryPolicy(
            max_attempts=1,
            per_attempt_timeout_ms=_meta_number(meta, "timeout_ms", 25.0),
        )
    if filter_def.operator == "circuit_breaker":
        return CircuitBreakerPolicy(
            failure_threshold=_meta_number(
                meta, "failure_threshold", 5, whole=True
            ),
            open_ms=_meta_number(meta, "reset_ms", 50.0, positive=False),
        )
    return None
