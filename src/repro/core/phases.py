"""Command phases (Figure 1 of the paper).

A command travels through the following phases at each process::

    start -> payload -> recover-r --.
    start -> propose -> recover-p --+--> commit -> execute

``pending`` is defined as the union of payload, propose, recover-r and
recover-p (the phases in which the command is known but not yet committed).
``start -> commit`` is allowed because a process may learn about a command
directly from an ``MCommit`` message.  :meth:`CommandInfo.move_to
<repro.core.info.CommandInfo.move_to>` enforces the transitions and
:attr:`CommandInfo.is_pending <repro.core.info.CommandInfo.is_pending>` reads
the pending set; both read the per-member flags stamped below.
"""

from __future__ import annotations

import enum


class Phase(enum.Enum):
    """Phase of a command at a process."""

    START = "start"
    PAYLOAD = "payload"
    PROPOSE = "propose"
    RECOVER_R = "recover-r"
    RECOVER_P = "recover-p"
    COMMIT = "commit"
    EXECUTE = "execute"


# Each member carries its allowed successors as a small tuple: ``in`` on a
# tuple of enum members compares by identity, avoiding the enum hashing a set
# probe pays (this runs once per phase move on the per-message hot path).
_TRANSITIONS = {
    Phase.START: (Phase.PAYLOAD, Phase.PROPOSE, Phase.COMMIT),
    Phase.PAYLOAD: (Phase.RECOVER_R, Phase.COMMIT),
    Phase.PROPOSE: (Phase.RECOVER_P, Phase.COMMIT),
    Phase.RECOVER_R: (Phase.RECOVER_P, Phase.COMMIT),
    Phase.RECOVER_P: (Phase.RECOVER_R, Phase.COMMIT),
    Phase.COMMIT: (Phase.EXECUTE,),
    Phase.EXECUTE: (),
}

_PENDING = (Phase.PAYLOAD, Phase.PROPOSE, Phase.RECOVER_R, Phase.RECOVER_P)

for _phase, _allowed in _TRANSITIONS.items():
    _phase._allowed_next = _allowed
    _phase._is_pending = _phase in _PENDING


class InvalidPhaseTransition(RuntimeError):
    """Raised when a command attempts an illegal phase transition."""

    def __init__(self, current: Phase, new: Phase) -> None:
        super().__init__(f"invalid phase transition {current.value} -> {new.value}")
        self.current = current
        self.new = new
