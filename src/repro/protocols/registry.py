"""Registry mapping protocol names to process factories.

The cluster runner, the experiments and the benchmarks select protocols by
name (``"tempo"``, ``"atlas"``, ``"epaxos"``, ``"fpaxos"``, ``"caesar"``,
``"janus"``), mirroring how the paper's framework selects the protocol under
test.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.base import ProcessBase
from repro.core.config import ProtocolConfig
from repro.core.process import TempoProcess
from repro.protocols.atlas import AtlasProcess
from repro.protocols.caesar import CaesarProcess
from repro.protocols.epaxos import EPaxosProcess
from repro.protocols.fpaxos import FPaxosProcess
from repro.protocols.janus import JanusProcess

ProcessFactory = Callable[..., ProcessBase]

#: Name -> process class for every protocol in the evaluation.
PROTOCOLS: Dict[str, ProcessFactory] = {
    "tempo": TempoProcess,
    "atlas": AtlasProcess,
    "epaxos": EPaxosProcess,
    "caesar": CaesarProcess,
    "fpaxos": FPaxosProcess,
    "janus": JanusProcess,
}


def protocol_names() -> list:
    """Names of all available protocols."""
    return sorted(PROTOCOLS)


def build_process(
    name: str, process_id: int, config: ProtocolConfig, **kwargs
) -> ProcessBase:
    """Instantiate a protocol process by name.

    Keyword arguments are forwarded to the process constructor: the shell's
    ``partitioner`` / ``quorum_system`` / ``apply_fn`` and the protocol's own
    (e.g. ``leader_rank`` for FPaxos).
    """
    try:
        factory = PROTOCOLS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown protocol {name!r}; available: {', '.join(protocol_names())}"
        ) from exc
    return factory(process_id, config, **kwargs)
