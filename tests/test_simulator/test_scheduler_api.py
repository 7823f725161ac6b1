"""Gate: nothing outside ``events.py`` touches scheduler internals.

The seed simulation loop reached into ``queue._heap`` / ``queue._counter``
on its hot paths; the timestamp-lane rewrite replaced those with first-class
APIs (``schedule_message``, ``pop_lane``, ``requeue_lane``).  The gate is
the AST-based ``private-internals`` lint from :mod:`repro.analysis.lint`
(also enforced repo-wide by ``python -m repro.analysis.lint`` in CI) — a
private-attribute reach can never quietly come back, and the public API
must stay sufficient.
"""

from __future__ import annotations

from repro.analysis.lint import PRIVATE_STATE, private_state_findings


def test_no_scheduler_internals_reached_outside_events_py():
    rows = [row for row in PRIVATE_STATE if row.owner == "EventQueue"]
    offenders = [str(finding) for finding in private_state_findings(rows=rows)]
    assert not offenders, (
        "scheduler internals reached outside events.py (use push/"
        "schedule_message/pop/pop_lane/requeue_lane/peek_time instead):\n"
        + "\n".join(offenders)
    )


def test_public_api_is_sufficient_for_a_simulation_loop():
    """Drive a miniature event loop through the public API only."""
    from repro.simulator.events import EventKind, EventQueue

    queue = EventQueue()
    queue.push(5.0, EventKind.TICK, target=1)
    queue.schedule_message(0.25, 0, 1, "hello")
    queue.schedule_message(0.25, 1, 0, "world")
    seen = []
    while True:
        popped = queue.pop_lane()
        if popped is None:
            break
        time, lane = popped
        for event in lane:
            seen.append((time, int(event[1]), event[2]))
    assert seen == [(0.25, 0, 1), (0.25, 0, 0), (5.0, 1, 1)]
    assert queue.peek_time() is None and len(queue) == 0
