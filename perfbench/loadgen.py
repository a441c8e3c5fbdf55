"""Seeded open-loop load: a precomputed arrival schedule, a generator
that submits on it, and a ticker that measures event-loop drift.

Everything runs as tasks on the caller's event loop; nothing here
starts a thread or a process.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, List, Optional

import numpy as np


def poisson_schedule(rate: float, seconds: float, seed: int, stream: int = 0) -> List[float]:
    """Due offsets (s) of a Poisson stream of ``rate``/s over ``seconds``.

    The count is fixed at ``round(rate * seconds)`` and the times are its
    sorted uniform draws — a Poisson process conditioned on its count —
    so goodput of an unsaturated run does not carry the count's own
    ±1/sqrt(n) noise from seed to seed.  ``stream`` selects an
    independent schedule for the same seed.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    n = max(1, int(round(rate * seconds)))
    rng = np.random.default_rng([seed, 0x5EED, stream])
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=n))


class OpenLoop:
    """Submits ``submit(i)`` at ``start + due[i]`` regardless of completions.

    ``lags[i]`` is how late submission ``i`` left the generator; the
    caller times each request from its due time, so a stalled loop is
    charged to the requests it delayed.
    """

    def __init__(self, due: List[float], submit: Callable[[int], Awaitable[None]]) -> None:
        self.due = due
        self.submit = submit
        self.lags: List[float] = []
        self.start: Optional[float] = None
        self.tasks: List[asyncio.Task] = []

    def due_time(self, i: int) -> float:
        """Absolute loop time at which request ``i`` was due."""
        return self.start + self.due[i]

    async def run(self, start: float) -> None:
        """Submit every request on schedule from loop time ``start``,
        then await them all."""
        loop = asyncio.get_running_loop()
        self.start = start
        for i in range(len(self.due)):
            wait = self.due_time(i) - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            self.lags.append(loop.time() - self.due_time(i))
            self.tasks.append(asyncio.ensure_future(self.submit(i)))
        await asyncio.gather(*self.tasks)


TICK_S = 0.01  # the ticker's sleep


class LoopTicker:
    """A task that sleeps :data:`TICK_S` repeatedly and records the drift
    between when it asked to wake and when it ran."""

    def __init__(self) -> None:
        self.drifts: List[float] = []
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            target = loop.time() + TICK_S
            await asyncio.sleep(TICK_S)
            self.drifts.append(max(0.0, loop.time() - target))

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
