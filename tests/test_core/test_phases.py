"""Figure 1's phase machine, as replicas run it: ``CommandInfo.move_to``
enforces the transitions and ``CommandInfo.is_pending`` reads the pending set."""

from __future__ import annotations

import pytest

from repro.core.info import CommandInfo
from repro.core.phases import InvalidPhaseTransition, Phase


def _record(phase: Phase) -> CommandInfo:
    return CommandInfo(phase=phase)


class TestPhaseSets:
    def test_pending_phases(self):
        pending = {phase for phase in Phase if _record(phase).is_pending}
        assert pending == {
            Phase.PAYLOAD,
            Phase.PROPOSE,
            Phase.RECOVER_R,
            Phase.RECOVER_P,
        }

    def test_start_commit_execute_are_not_pending(self):
        for phase in (Phase.START, Phase.COMMIT, Phase.EXECUTE):
            assert not _record(phase).is_pending

    def test_only_execute_is_terminal(self):
        for phase in Phase:
            moves = [new for new in Phase if new is not phase]
            blocked = []
            for new in moves:
                try:
                    _record(phase).move_to(new)
                except InvalidPhaseTransition:
                    blocked.append(new)
            assert (blocked == moves) == (phase is Phase.EXECUTE), phase


class TestTransitions:
    @pytest.mark.parametrize(
        "current,new",
        [
            (Phase.START, Phase.PAYLOAD),
            (Phase.START, Phase.PROPOSE),
            (Phase.START, Phase.COMMIT),
            (Phase.PAYLOAD, Phase.RECOVER_R),
            (Phase.PROPOSE, Phase.RECOVER_P),
            (Phase.PAYLOAD, Phase.COMMIT),
            (Phase.PROPOSE, Phase.COMMIT),
            (Phase.RECOVER_R, Phase.COMMIT),
            (Phase.RECOVER_P, Phase.COMMIT),
            (Phase.COMMIT, Phase.EXECUTE),
        ],
    )
    def test_allowed_transitions(self, current, new):
        record = _record(current)
        record.move_to(new)
        assert record.phase is new

    @pytest.mark.parametrize(
        "current,new",
        [
            (Phase.EXECUTE, Phase.COMMIT),
            (Phase.COMMIT, Phase.PROPOSE),
            (Phase.COMMIT, Phase.PAYLOAD),
            (Phase.EXECUTE, Phase.START),
            (Phase.PAYLOAD, Phase.PROPOSE),
            (Phase.PROPOSE, Phase.PAYLOAD),
            (Phase.PAYLOAD, Phase.EXECUTE),
        ],
    )
    def test_forbidden_transitions_raise(self, current, new):
        record = _record(current)
        with pytest.raises(InvalidPhaseTransition):
            record.move_to(new)
        assert record.phase is current

    def test_self_transition_is_allowed(self):
        record = _record(Phase.COMMIT)
        record.move_to(Phase.COMMIT)
        assert record.phase is Phase.COMMIT

    def test_exception_carries_phases(self):
        with pytest.raises(InvalidPhaseTransition) as excinfo:
            _record(Phase.EXECUTE).move_to(Phase.COMMIT)
        assert excinfo.value.current is Phase.EXECUTE
        assert excinfo.value.new is Phase.COMMIT

    def test_command_cannot_be_executed_before_commit(self):
        for phase in (Phase.START, Phase.PAYLOAD, Phase.PROPOSE):
            with pytest.raises(InvalidPhaseTransition):
                _record(phase).move_to(Phase.EXECUTE)
