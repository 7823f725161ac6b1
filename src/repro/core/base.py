"""Runtime-agnostic process abstraction.

Every replication protocol in this repository (Tempo and the baselines) is a
*message-driven state machine*: it reacts to messages and periodic ticks and
appends outgoing messages to an outbox.  A runtime — the discrete-event
simulator, the asyncio runtime, or a plain test — drives the state machine
by delivering messages and draining the outbox.

Self-addressed messages are delivered synchronously (the paper assumes
"self-addressed messages are delivered immediately", §3.1).

The replica shell
-----------------

:class:`ProcessBase` is the one replica shell under all six protocols (the
paper's "implemented in the same framework", §6).  The shell owns

* identity and deployment: ``process_id``, ``config``, the partition and its
  peers, the shared ``partitioner`` and ``quorum_system`` (which alone knows
  "the ``k`` closest peers", :meth:`QuorumSystem.closest`), ``apply_fn``,
  and the failure detector's output ``suspected`` that every new command's
  quorum avoids;
* command minting: ``dot_generator`` and :meth:`ProcessBase.new_command`,
  the only place an identifier is drawn, with the per-partition chain tails
  its links come from;
* message plumbing: the outbox, synchronous self-delivery, ``MBatch``
  unpacking, the per-type ``_dispatch`` probe and the dispatch-or-
  ``TypeError`` :meth:`ProcessBase.on_message`;
* the execution seam :meth:`ProcessBase._execute_command`: record the
  execution, at most once, in ``chains`` (:class:`repro.core.gc.ExecutedChains`,
  which the GC reads), apply, report to the execution listeners, and
  reply when the dot was minted here, where it was submitted;
* the per-command record table ``_info`` and the accounting read off it
  (:meth:`ProcessBase.memory_footprint`, :meth:`ProcessBase.committed_dots`).

A protocol supplies :meth:`ProcessBase.submit`, a ``_dispatch`` table of
bound handlers, optionally :meth:`ProcessBase.tick`, its own record type
(with an ``is_committed`` flag) stored in ``_info``, and calls
``_execute_command`` once per command at the point its ordering rule lets
the command execute.  :meth:`ProcessBase.committed_timestamp` is overridden
by the protocols that order execution by an agreed timestamp.
"""

from __future__ import annotations

import abc
from array import array
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.commands import Command, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.gc import ExecutedChains
from repro.core.identifiers import Dot, DotGenerator, intern_dot
from repro.core.messages import ClientReply, MDeliveryAck
from repro.core.quorums import QuorumSystem


class Envelope(NamedTuple):
    """An outgoing message: who sends it, to whom, and what.

    A ``NamedTuple`` rather than a dataclass: envelopes are created once per
    message per destination on the simulator's hot path, and tuple creation
    is several times cheaper.
    """

    sender: int
    destination: int
    message: object


class MBatch(NamedTuple):
    """Transport-level envelope bundling several messages from one sender to
    one destination into a single delivery.

    ``MBatch`` is not a protocol message: it never appears in a dispatch
    table and protocols never see it.  Runtimes that coalesce same-
    destination traffic (the discrete-event simulator batches every message
    a process emits while handling one event) wrap the messages in an
    ``MBatch`` and :meth:`ProcessBase.deliver` unpacks it, dispatching the
    inner messages in their original send order.  See ``docs/batching.md``.
    """

    messages: Tuple[object, ...]


class ExecutionLog:
    """The identifiers a replica executed, in execution order.

    The log is the execution-order witness and grows with the run, so it
    holds no object per command: each dot is one ``array('Q')`` word,
    ``sequence * 64 + source`` (the dot's hash, collision-free for sources
    below 64; a larger source raises ``ValueError``).  Iteration yields the
    interned dots back, and ``len``, ``in``, ``count`` and ``==`` against a
    list of dots read as they would on that list.
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words = array("Q")

    def append(self, dot: Dot) -> None:
        if dot.source >= 64:
            raise ValueError(f"cannot log {dot}: sources must be below 64")
        self._words.append(dot._hash)

    def __iter__(self) -> Iterator[Dot]:
        for word in self._words:
            yield intern_dot(word & 63, word >> 6)

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, dot: object) -> bool:
        return self._word(dot) in self._words

    def count(self, dot: object) -> int:
        return self._words.count(self._word(dot))

    @staticmethod
    def _word(dot: object) -> int:
        """``dot``'s word, or ``-1``, in no log, for what was never logged."""
        if dot.__class__ is Dot and dot.source < 64:
            return dot._hash
        return -1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, list):
            return len(other) == len(self._words) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def canonical(self) -> Tuple[Tuple[int, int], ...]:
        """The explorer's digest form: ``(source, sequence)`` per dot, in
        order, which is what a list of dots digests to."""
        return tuple([(word & 63, word >> 6) for word in self._words])

    def __repr__(self) -> str:
        return f"ExecutionLog({list(self)!r})"


ExecutionListener = Callable[[int, Dot, Command, float], None]
"""Callback ``(process_id, dot, command, now)`` invoked on command execution."""

ApplyFn = Callable[[Command], Optional[Dict[str, Optional[str]]]]
"""Applies an executed command to the replicated state (e.g. a key-value
store) and returns the per-key results sent back to the client."""


class ProcessBase(abc.ABC):
    """The replica shell: base class of every protocol process.

    Subclasses implement :meth:`submit`, fill ``_dispatch`` and usually
    override :meth:`tick`; see the module docstring for what the shell owns.

    Args:
        process_id: global process identifier.
        config: deployment configuration (``r``, ``f``, partitions, ...).
        partitioner: key-to-partition mapping used to derive the partitions a
            command accesses.
        quorum_system: optional pre-built quorum system (e.g. latency-aware);
            a rank-distance one is built by default.
        apply_fn: optional callable invoked with each command when it is
            executed (e.g. to apply it to a key-value store).
    """

    #: Type-indexed message dispatch table.  Every protocol populates an
    #: instance attribute of this name in ``__init__``; :meth:`deliver`
    #: dispatches through it directly (one pointer-hash dict probe per
    #: message), skipping the :meth:`on_message` call frame.  A type the
    #: table does not hold goes to :meth:`on_message`, so the empty default
    #: routes everything there.
    _dispatch: Dict[type, Callable[[int, object, float], None]] = {}

    #: Whether a replica executes *every* command of its partition in
    #: ``(timestamp, id)`` order (Tempo, Theorem 1); ``check_run`` then holds
    #: every pair of commands to the order rows, not only conflicting ones.
    TOTAL_TIMESTAMP_ORDER = False

    #: Attributes the explorer's state digest skips
    #: (:func:`repro.analysis.smallmodel.canonical`); subclasses add theirs.
    _DIGEST_EXEMPT = frozenset(
        {
            "config",  # constant wiring
            "partitioner",  # constant wiring, shared by the cluster
            "quorum_system",  # constant wiring, shared by the cluster
            "apply_fn",  # wiring to the store, whose contents `executed` fixes
            "partition",  # constant, derived from process_id
            "_partition_peers",  # constant, derived from process_id
            "_other_peers",  # cache of _partition_peers
            "_dispatch",  # constant wiring: bound handlers
            "_execution_listeners",  # observers, not protocol state
            "chains",  # derived from executed and the chain links
            "_wants_flush",  # constant, derived from the class
            "outbox",  # drained by the runtime after every step
            "_step_depth",  # zero between deliveries
            "_message_counts",  # statistic
        }
    )

    def __init__(
        self,
        process_id: int,
        config: ProtocolConfig,
        partitioner: Optional[Partitioner] = None,
        quorum_system: Optional[QuorumSystem] = None,
        apply_fn: Optional[ApplyFn] = None,
    ) -> None:
        self.process_id = process_id
        self.config = config
        self.partitioner = partitioner or Partitioner(config.num_partitions)
        self.quorum_system = quorum_system or QuorumSystem(config)
        self.apply_fn = apply_fn
        self.dot_generator = DotGenerator(process_id)
        #: Per partition, the last sequence minted here over it: the tails of
        #: this source's chains (:meth:`new_command`; single-partition
        #: deployments need no links and keep none).
        self._chain_tails: Dict[int, int] = {}
        #: Live per-command records, keyed by identifier; each protocol
        #: stores its own record type (FPaxos, a log, stores none).
        self._info: Dict[Dot, object] = {}
        #: Watermark-GC tracker, built by
        #: :class:`repro.core.gc.WatermarkGcMixin` for the protocols that
        #: collect (FPaxos does not).
        self.gc = None
        self.partition = config.partition_of_process(process_id)
        self._partition_peers: Tuple[int, ...] = tuple(
            config.processes_of_partition(self.partition)
        )
        #: The partition's other replicas: everyone this process broadcasts to.
        self._other_peers: List[int] = [
            peer for peer in self._partition_peers if peer != process_id
        ]
        #: Depth of the current delivery step (``deliver`` nests through
        #: synchronous self-addressed sends); ``_flush_step`` fires when the
        #: outermost delivery unwinds.
        self._step_depth = 0
        #: Whether the subclass actually overrides :meth:`_flush_step`;
        #: detected once here so :meth:`deliver` skips the no-op call frame
        #: per delivery for protocols that don't use the hook.
        self._wants_flush = type(self)._flush_step is not ProcessBase._flush_step
        self.outbox: List[Envelope] = []
        #: Identifiers executed here, in execution order (the command itself
        #: goes to the listeners and is not retained).
        self.executed = ExecutionLog()
        #: Per source, the chain of its dots executed here: the at-most-once
        #: check and, when the protocol collects, the GC's local frontier.
        self.chains = ExecutedChains()
        self._execution_listeners: List[ExecutionListener] = []
        self.alive = True
        #: Recovery epoch: bumped on every :meth:`recover_process`, stamped
        #: into delivery acks so the reliable-delivery layer can tell a
        #: pre-crash ack from a post-restart one.
        self.epoch = 0
        #: Reliable-delivery state (:class:`repro.reliability.RetransmitBuffer`),
        #: installed by :meth:`enable_reliability` only for runs whose fault
        #: plan can lose messages; ``None`` — the default — keeps every hook
        #: a single attribute test so healthy runs stay bit-identical.
        self.reliability = None
        #: The failure detector's output: the processes this one suspects.
        #: The simulator is the detector (an oracle: :meth:`set_alive_view`
        #: on every ``Crash`` / ``Restart``); the asyncio runtime has none.
        #: Read by :meth:`leader_of_partition` and by the quorum choice of
        #: every new command (:meth:`QuorumSystem.closest`).
        self.suspected: FrozenSet[int] = frozenset()
        #: Count of handled messages per message *type*.  Keyed by class on
        #: the hot path (pointer hashing beats string hashing); the public
        #: :attr:`message_counts` property derives the kind-name view used
        #: by tests and the resource model calibration.
        self._message_counts: Dict[type, int] = {}

    # -- wiring ---------------------------------------------------------------

    def add_execution_listener(self, listener: ExecutionListener) -> None:
        """Register a callback invoked whenever this process executes a
        command."""
        self._execution_listeners.append(listener)

    def drain_outbox(self) -> List[Envelope]:
        """Return and clear the pending outgoing messages."""
        envelopes, self.outbox = self.outbox, []
        return envelopes

    def send(self, destinations: Iterable[int], message: object, now: float = 0.0) -> None:
        """Queue ``message`` for each destination.

        A copy addressed to this very process is handled immediately and
        synchronously rather than queued, matching the paper's assumption
        about self-addressed messages.
        """
        process_id = self.process_id
        if type(destinations) is list and len(destinations) == 1:
            # Single-destination sends (acks, replies) dominate; skip the
            # loop machinery for them.
            destination = destinations[0]
            if destination == process_id:
                self.deliver(process_id, message, now)
            else:
                self.outbox.append(Envelope(process_id, destination, message))
            return
        self_addressed = False
        for destination in destinations:
            if destination == process_id:
                self_addressed = True
            else:
                self.outbox.append(Envelope(process_id, destination, message))
        if self_addressed:
            self.deliver(process_id, message, now)

    # -- runtime entry points --------------------------------------------------

    def deliver(self, sender: int, message: object, now: float = 0.0) -> None:
        """Deliver one message (or one :class:`MBatch`) to this process.

        Batches are unpacked here, preserving the send order of the inner
        messages; crashed processes drop the whole delivery.

        Every delivery runs inside a *delivery scope*: reactive work a
        protocol wants to run once per delivered batch rather than once per
        inner message (e.g. Tempo's stability check) is deferred via
        :meth:`_flush_step`, which fires exactly once when the outermost
        delivery unwinds — nested self-addressed deliveries share the
        enclosing scope.
        """
        if not self.alive:
            return
        depth = self._step_depth
        self._step_depth = depth + 1
        counts = self._message_counts
        dispatch_get = self._dispatch.get
        try:
            if type(message) is MBatch:
                for inner in message.messages:
                    message_type = inner.__class__
                    counts[message_type] = counts.get(message_type, 0) + 1
                    handler = dispatch_get(message_type)
                    if handler is not None:
                        handler(sender, inner, now)
                    else:
                        self.on_message(sender, inner, now)
            else:
                message_type = message.__class__
                counts[message_type] = counts.get(message_type, 0) + 1
                handler = dispatch_get(message_type)
                if handler is not None:
                    handler(sender, message, now)
                else:
                    self.on_message(sender, message, now)
        finally:
            self._step_depth = depth
        if depth == 0 and self._wants_flush:
            self._flush_step(now)

    def _flush_step(self, now: float) -> None:
        """Hook run once per outermost delivery (the batch-delivery scope).

        The default does nothing; protocols override it to coalesce
        per-message reactive work into per-batch work.
        """

    def new_command(
        self,
        keys: Iterable[str],
        payload_size: int = 100,
        client_id: Optional[int] = None,
        read_only: bool = False,
    ) -> Command:
        """Mint a command over ``keys`` with an identifier drawn here.

        Under partial replication the command also gets its chain links
        (:attr:`Command.links`): per accessed partition, the last sequence
        minted here over it, where that is not the sequence just before.
        """
        dot = self.dot_generator.next_id()
        links = ()
        if self.partitioner.num_partitions > 1:
            keys = tuple(keys)
            links = self._chain_links(dot.sequence, keys)
        build = Command.read if read_only else Command.write
        return build(
            dot, keys, payload_size=payload_size, client_id=client_id, links=links
        )

    def _chain_links(
        self, sequence: int, keys: Sequence[str]
    ) -> Tuple[Tuple[int, int], ...]:
        """Advance the per-partition chain tails to ``sequence`` and return
        the links of the partitions whose tail was not ``sequence - 1``."""
        tails = self._chain_tails
        links = []
        partition_of = self.partitioner.partition_of
        for partition in sorted({partition_of(key) for key in keys}):
            previous = tails.get(partition, 0)
            if previous != sequence - 1:
                links.append((partition, previous))
            tails[partition] = sequence
        return tuple(links)

    def _sentinel(self) -> Dot:
        """Sender-identifying dot of the messages not tied to one command."""
        return Dot(self.process_id, self.dot_generator.peek().sequence)

    @abc.abstractmethod
    def submit(self, command: Command, now: float = 0.0) -> None:
        """Submit a command minted here (:meth:`_check_minted_here`)."""

    def on_message(self, sender: int, message: object, now: float) -> None:
        """Handle one protocol message: dispatch by exact type, or raise."""
        handler = self._dispatch.get(message.__class__)
        if handler is None:
            raise TypeError(f"unexpected message {message!r}")
        handler(sender, message, now)

    def tick(self, now: float) -> None:
        """Periodic processing (promise broadcast, stability, recovery).

        The default implementation does nothing; protocols override it.
        """

    @property
    def message_counts(self) -> Dict[str, int]:
        """Count of handled messages per kind name (derived view of the
        type-keyed hot-path counters)."""
        return {
            message_type.__name__: count
            for message_type, count in self._message_counts.items()
        }

    def messages_handled(self) -> int:
        """Total messages handled, without materialising the per-kind view
        (perfbench divides handler time by it for ``us_per_msg``)."""
        return sum(self._message_counts.values())

    # -- failure injection ------------------------------------------------------

    def crash(self) -> None:
        """Crash this process: it stops reacting to messages and ticks."""
        self.alive = False

    def recover_process(self) -> None:
        """Un-crash the process (crash-recovery model: the replica returns
        holding its durable state under a new recovery epoch)."""
        self.alive = True
        self.epoch += 1

    # -- reliable delivery -------------------------------------------------------

    def enable_reliability(self, buffer) -> None:
        """Install a retransmit buffer (:mod:`repro.reliability`).

        Protocols gate all reliable-delivery work — tracking critical
        outbound messages, acking tracked inbound ones, retransmission on
        ticks — on ``self.reliability is not None``, so a process without a
        buffer behaves (and costs) exactly as before this layer existed.
        """
        self.reliability = buffer

    def _reliability_tick(self, now: float) -> None:
        """Re-send tracked messages whose ack is overdue (called from every
        protocol's ``tick``; no-op without a buffer)."""
        buffer = self.reliability
        if buffer is None:
            return
        for destination, message in buffer.due(now):
            self.send([destination], message, now)

    def _on_delivery_ack(self, sender: int, message: object, now: float) -> None:
        """Retire the retransmit-buffer entry a peer just acknowledged."""
        buffer = self.reliability
        if buffer is not None:
            buffer.record_ack(sender, message.kind_id, message.dot, message.epoch)

    def _ack_delivery(self, sender: int, message: object, now: float) -> None:
        """Acknowledge one tracked inbound message by dot and kind byte.

        Callers gate on ``self.reliability is not None`` and on
        ``sender != self.process_id`` (self-deliveries need no ack).
        """
        ack = MDeliveryAck(message.dot, kind_id=message.WIRE_KIND, epoch=self.epoch)
        self.send([sender], ack, now)

    def believes_alive(self, process: int) -> bool:
        """Failure-detector view of ``process`` (defaults to alive)."""
        return process not in self.suspected

    def set_alive_view(self, process: int, alive: bool) -> None:
        """Update the failure-detector view for ``process``."""
        if alive:
            self.suspected = self.suspected - {process}
        else:
            self.suspected = self.suspected | {process}

    # -- execution bookkeeping ---------------------------------------------------

    def _check_minted_here(self, command: Command) -> None:
        """Refuse a command minted elsewhere: the seam answers its client."""
        if command.dot.source != self.process_id:
            raise ValueError(f"{command.dot} was not minted at {self.process_id}")

    def _execute_command(self, dot: Dot, command: Command, now: float) -> None:
        """The one execution seam and the only execution bookkeeping: add
        ``dot`` to ``chains``, apply, record, report a moved frontier to the
        GC, and answer the client if the dot was minted here.  A protocol
        calls it once per command, after marking its own record executed; a
        second call for the same dot raises ``ValueError`` (Validity)."""
        moved_from = self.chains.add(dot, self._chain_previous(command))
        result = self._apply(command)
        self.record_execution(dot, command, now)
        if moved_from is not None and self.gc is not None:
            self.gc.frontier_moved(dot.source, moved_from)
        if dot.source == self.process_id and command.client_id is not None:
            # Clients have negative addresses; the runtime routes the reply.
            client = -(command.client_id + 1)
            reply = ClientReply(dot, result=result)
            self.outbox.append(Envelope(self.process_id, client, reply))

    def _chain_previous(self, command: Command) -> int:
        """The sequence before ``command``'s in its source's chain here
        (``repro.core.gc``): every dot executes everywhere by default, and
        Tempo, which executes only its partition's, follows the link."""
        return command.dot.sequence - 1

    def _apply(self, command: Command) -> Optional[Dict[str, Optional[str]]]:
        """Apply ``command`` to the replicated state (Janus* narrows it to
        the local shard's operations)."""
        return self.apply_fn(command) if self.apply_fn is not None else None

    def record_execution(self, dot: Dot, command: Command, now: float) -> None:
        """Record that this process executed ``command``."""
        self.executed.append(dot)
        for listener in self._execution_listeners:
            listener(self.process_id, dot, command, now)

    def executed_dots(self) -> List[Dot]:
        """Identifiers executed so far, in execution order."""
        return list(self.executed)

    # -- introspection -----------------------------------------------------------

    def memory_footprint(self) -> Dict[str, int]:
        """Uniform live-state accounting for the memory-bound witnesses.

        ``records`` counts the live per-command bookkeeping (``_info``),
        ``archived`` the executed history a protocol keeps for dependency
        computation (zero here; dependency protocols override),
        ``peak_live_per_key`` the per-key conflict-window high-water mark,
        ``conflict_keys`` the keys holding per-key conflict state,
        ``issued_promises`` the entries of Tempo's issued-promise ledger,
        ``gc_collected`` the identifiers dropped by the watermark GC and
        ``executed_ranges`` the ranges of the at-most-once check (about one
        per source).  ``executed`` (the execution-order witness, one packed
        word per command) is deliberately unbounded and reported separately
        so the bounds can exclude it.
        """
        return {
            "records": len(self._info),
            "executed": len(self.executed),
            "archived": 0,
            "peak_live_per_key": 0,
            "conflict_keys": 0,
            "issued_promises": 0,
            "gc_collected": self.gc.collected_count if self.gc is not None else 0,
            "executed_ranges": self.chains.range_count(),
        }

    def committed_timestamp(self, dot: Dot) -> Optional[object]:
        """Final timestamp of ``dot`` if committed or executed here; ``None``
        for the protocols that do not order execution by an agreed
        timestamp (dependency order, log slot)."""
        return None

    def committed_dots(self) -> List[Dot]:
        """Identifiers committed (or executed) here whose record is live."""
        return [dot for dot, record in self._info.items() if record.is_committed]

    def pending_dots(self) -> List[Dot]:
        """Identifiers in a pending phase here."""
        return [dot for dot, record in self._info.items() if record.is_pending]

    def partition_peers(self) -> Sequence[int]:
        """Processes replicating the same partition (including self)."""
        return self._partition_peers

    def leader_of_partition(self) -> Optional[int]:
        """Simple Omega-style leader: lowest-id peer believed alive."""
        for peer in self.partition_peers():
            if self.believes_alive(peer):
                return peer
        return None
