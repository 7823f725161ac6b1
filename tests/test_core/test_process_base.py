"""Tests for the process base class."""

from __future__ import annotations

from repro.core.base import Envelope, ProcessBase
from repro.core.commands import Command
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot


class Recorder(ProcessBase):
    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.handled = []

    def submit(self, command, now=0.0):
        self.send([self.process_id], command, now)

    def on_message(self, sender, message, now):
        self.handled.append((sender, message))


class TestProcessBase:
    def _config(self):
        return ProtocolConfig(num_processes=3, faults=1)

    def test_self_addressed_messages_are_delivered_immediately(self):
        process = Recorder(0, self._config())
        process.send([0, 1], "msg", 0.0)
        assert process.handled == [(0, "msg")]
        assert process.outbox == [Envelope(0, 1, "msg")]

    def test_drain_outbox_clears_it(self):
        process = Recorder(0, self._config())
        process.send([1, 2], "msg", 0.0)
        assert len(process.drain_outbox()) == 2
        assert process.drain_outbox() == []

    def test_crashed_process_ignores_deliveries(self):
        process = Recorder(0, self._config())
        process.crash()
        process.deliver(1, "msg", 0.0)
        assert process.handled == []
        process.recover_process()
        process.deliver(1, "msg", 0.0)
        assert process.handled == [(1, "msg")]

    def test_message_counts_track_kinds(self):
        process = Recorder(0, self._config())
        process.deliver(1, "a", 0.0)
        process.deliver(1, "b", 0.0)
        assert process.message_counts["str"] == 2

    def test_leader_of_partition_skips_suspected_processes(self):
        process = Recorder(2, self._config())
        assert process.leader_of_partition() == 0
        process.set_alive_view(0, False)
        assert process.leader_of_partition() == 1

    def test_execution_listener_and_record(self):
        process = Recorder(0, self._config())
        seen = []
        process.add_execution_listener(lambda pid, dot, cmd, now: seen.append(dot))
        command = Command.write(Dot(0, 1), ["k"])
        process.record_execution(command.dot, command, 1.0)
        assert seen == [Dot(0, 1)]
        assert process.executed_dots() == [Dot(0, 1)]
