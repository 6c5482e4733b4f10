"""Clients of the client-agent-server model.

A client "is a program that requests for computational resources.  It asks
the agent to find a set of the most suitable servers that are able to solve
its problems" (Section 2.1), then performs an RPC-like call to the chosen
server.  In the simulation, a :class:`Client` walks through the tasks of a
metatask in arrival order, submits each one to the middleware at its arrival
date (one calendar callback per wait), and records nothing else — every
observable quantity lives on the :class:`~repro.workload.tasks.Task` objects
themselves.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..simulation import URGENT, Environment
from ..workload.tasks import Task

__all__ = ["Client"]


class Client:
    """Submits the tasks of a metatask to the agent at their arrival dates.

    Parameters
    ----------
    env:
        The simulation environment.
    name:
        Client name (e.g. ``"zanzibar"``); stored on the submitted tasks.
    tasks:
        The tasks to submit (their :attr:`~repro.workload.tasks.Task.arrival`
        dates drive the submissions).
    submit:
        Callback invoked with each task at its arrival date — in practice
        :meth:`repro.platform.middleware.GridMiddleware.submit`.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        tasks: Sequence[Task],
        submit: Callable[[Task], None],
    ):
        self.env = env
        self.name = name
        self.tasks: List[Task] = sorted(tasks, key=lambda t: (t.arrival, t.task_id))
        self._submit = submit
        self.submitted = 0
        for task in self.tasks:
            task.client = name
        env.call_in(0.0, self._submit_due, priority=URGENT)

    def _submit_due(self) -> None:
        """Submit every task already due, then wait for the next arrival."""
        while self.submitted < len(self.tasks):
            delay = self.tasks[self.submitted].arrival - self.env.now
            if delay > 0:
                self.env.call_in(delay, self._submit_waited)
                return
            self._submit_next()

    def _submit_waited(self) -> None:
        # The awaited task is due by construction: ``now + (arrival - now)``
        # need not equal ``arrival`` bit for bit, so its delay is not re-tested.
        self._submit_next()
        self._submit_due()

    def _submit_next(self) -> None:
        self._submit(self.tasks[self.submitted])
        self.submitted += 1

    def __repr__(self) -> str:
        return f"<Client {self.name} submitted={self.submitted}/{len(self.tasks)}>"
