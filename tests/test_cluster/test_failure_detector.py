"""Quorums follow the failure detector, end to end.

A new command is proposed to the nearest quorum its coordinator does not
suspect (``docs/fault_injection.md``, "Failure detector").  So once a
replica has crashed, no command submitted afterwards waits on it, and none
reaches recovery: only the commands already in flight at the crash do.
"""

from __future__ import annotations

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.process import TempoProcess
from repro.faults import Crash, FaultPlan, Restart

CRASH_MS = 3_000.0
RESTART_MS = 4_500.0


def test_no_command_submitted_after_the_crash_is_recovered(monkeypatch):
    submitted_at = {}
    recovered = set()
    submit, recover = TempoProcess.submit, TempoProcess.recover

    def recording_submit(self, command, now=0.0):
        submitted_at.setdefault(command.dot, now)
        submit(self, command, now)

    def recording_recover(self, dot, now=0.0):
        recovered.add(dot)
        recover(self, dot, now)

    monkeypatch.setattr(TempoProcess, "submit", recording_submit)
    monkeypatch.setattr(TempoProcess, "recover", recording_recover)
    result = run_experiment(
        ExperimentConfig(
            protocol="tempo",
            num_sites=5,
            clients_per_site=16,
            conflict_rate=0.05,
            seed=3,
            duration_ms=6_000.0,
            fault_plan=FaultPlan(
                [Crash(CRASH_MS, site_rank=1), Restart(RESTART_MS, site_rank=1)]
            ),
            record_execution_trace=True,
        )
    )
    # Recovery still runs, for the commands in flight at the crash (8 here;
    # 84 when new commands were proposed to the dead replica, 76 of them
    # minted after the crash).
    assert recovered
    assert all(submitted_at[dot] < CRASH_MS for dot in recovered), sorted(
        (submitted_at[dot], dot) for dot in recovered if submitted_at[dot] >= CRASH_MS
    )
    # Every replica, the restarted one included, drains its pending set.
    for process in result.deployment.processes:
        assert process.alive
        assert process.pending_dots() == [], process.process_id
