"""Retry and circuit-breaker policies for resilient shard fan-out.

Query fan-out crosses a real failure boundary: a shard's page device can
hit a transient ``OSError``, a worker process can die mid-task, a
network filesystem can stall.  The engine wraps per-shard query tasks in
two small, composable policies:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  optional jitter.  Both time and randomness are *injected seams*
  (``sleep`` and ``rng`` callables): the defaults never sleep and add no
  jitter, so the engine stays bit-for-bit deterministic (invariant R002)
  unless a caller explicitly wires ``time.sleep`` / ``random.random`` in
  (the CLI does, tests don't).
* :class:`CircuitBreaker` — per-shard failure accounting.  After
  ``failure_threshold`` consecutive failures the breaker *opens* and the
  engine stops dispatching to the shard at all; after ``cooldown`` ticks
  it goes *half-open* and lets one probe through, closing again on
  success.  The tick source is an injected ``clock`` seam defaulting to
  a deterministic call counter (each :meth:`CircuitBreaker.allow` is one
  tick), so breaker behaviour is reproducible in tests.

Neither class knows anything about shards or executors; the engine owns
the wiring (see ``ShardBackend.query``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

#: Error classes retried by default: transient device/OS failures (the
#: worker backend adds dead worker processes).  Corruption signals
#: (``ChecksumError``, ``TornWriteError``) are deliberately *not*
#: retryable — re-reading a bad page cannot un-rot it.
_DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (OSError,)


def _no_sleep(_delay: float) -> None:
    """Default sleep seam: return immediately (deterministic retries)."""


def _zero_rng() -> float:
    """Default jitter seam: no jitter (deterministic backoff schedule)."""
    return 0.0


def _no_observer(_retry_index: int, _error: BaseException) -> None:
    """Default retry observer: do nothing."""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff over injected seams.

    Args:
        attempts: total tries (1 = no retry).
        base_delay: backoff before the first retry, in seconds.
        multiplier: backoff growth factor per retry.
        max_delay: upper bound on any single backoff.
        jitter: fraction of the delay added as jitter; the actual delay
            is ``delay * (1 + jitter * rng())``, so ``rng`` returning in
            [0, 1) yields up to ``jitter`` extra.
        retryable: exception classes worth retrying; anything else
            propagates immediately.
        sleep: the sleep seam; defaults to a no-op so retries are
            immediate and deterministic.  Wire ``time.sleep`` here for
            real backoff (the CLI does).
        rng: the jitter seam; defaults to a constant 0.  Wire
            ``random.Random(seed).random`` for real jitter.
        on_retry: observer invoked as ``on_retry(retry_index, error)``
            after a retryable failure, *before* the backoff sleep.
            Defaults to a no-op.  The warm-worker supervisor hooks its
            restart accounting here (the observer runs on the calling
            side, so task callables stay mutation-free).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0
    retryable: tuple[type[BaseException], ...] = _DEFAULT_RETRYABLE
    sleep: Callable[[float], None] = _no_sleep
    rng: Callable[[], float] = _zero_rng
    on_retry: Callable[[int, BaseException], None] = _no_observer

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, "
                             f"got {self.multiplier}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay_for(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** retry_index)
        return delay * (1.0 + self.jitter * self.rng())

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn``, retrying retryable failures up to ``attempts``.

        The final failure (retryable or not) propagates unchanged; the
        caller sees exactly the exception the last attempt raised.
        """
        for retry_index in range(self.attempts - 1):
            try:
                return fn()
            except self.retryable as exc:
                self.on_retry(retry_index, exc)
                self.sleep(self.delay_for(retry_index))
        return fn()


def _counting_clock() -> Callable[[], float]:
    """Deterministic default clock: one tick per call."""
    ticks = iter(range(1 << 62))
    return lambda: float(next(ticks))


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a cooldown probe.

    States:

    * *closed* — requests flow; consecutive failures are counted.
    * *open* — tripped after ``failure_threshold`` consecutive failures;
      :meth:`allow` answers False until ``cooldown`` has elapsed on the
      injected clock.
    * *half-open* — after the cooldown one probe is allowed; success
      closes the breaker, failure re-opens it (restarting the cooldown).

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        cooldown: clock units the breaker stays open before probing.
        clock: monotonic time seam; defaults to a deterministic counter
            advancing by one per :meth:`allow` call, so ``cooldown`` is
            then measured in *dispatch attempts*.  Wire
            ``time.monotonic`` for wall-clock cooldowns.
    """

    def __init__(self, failure_threshold: int = 5, cooldown: float = 16.0,
                 clock: Callable[[], float] | None = None) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {failure_threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock if clock is not None else _counting_clock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (diagnostics)."""
        if self._opened_at is None:
            return "closed"
        return "half-open" if self._probing else "open"

    def allow(self) -> bool:
        """True if a request may be dispatched now.

        Advances the clock seam by one call; while open, flips to
        half-open (allowing a single probe) once the cooldown elapses.
        """
        now = self._clock()
        if self._opened_at is None:
            return True
        if self._probing:
            # A probe is already in flight; hold further traffic until
            # its outcome is recorded.
            return False
        if now - self._opened_at >= self.cooldown:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """Note a successful request: close and reset the breaker."""
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """Note a failed request; trips the breaker at the threshold."""
        if self._probing:
            # Failed probe: re-open and restart the cooldown.
            self._probing = False
            self._opened_at = self._clock()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold \
                and self._opened_at is None:
            self._opened_at = self._clock()
