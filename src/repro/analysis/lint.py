"""AST-based source gates, runnable as ``python -m repro.analysis.lint``.

Each check returns :class:`LintFinding` records; the module exit code is
non-zero when any check fails.  The checks promote the historical grep gates
into real static analysis (import/alias aware) and add new repo-wide ones:

* ``struct-outside-wire`` — ``struct`` (binary packing) imported outside
  ``repro/wire/``; everything else talks in message objects.
* ``private-internals`` — private state of a class listed in
  :data:`PRIVATE_STATE` touched outside its module: the
  :class:`~repro.simulator.events.EventQueue` (``_lanes``, ``_times``, or any
  ``queue._x`` reach), Tempo's
  :class:`~repro.core.stability.TimestampOrder` (any ``order._x`` reach)
  the :class:`~repro.protocols.depgraph.DependencyGraphExecutor` (any
  ``executor._x`` reach) and the :class:`~repro.core.gc.ExecutedChains`
  (any ``chains._x`` reach).
* ``missing-slots`` — a registered hot class lost its ``__slots__`` /
  ``@dataclass(slots=True)`` declaration.
* ``codec-exhaustiveness`` — a :class:`~repro.core.messages.Message`
  subclass without a wire codec or a canonical sample.
* ``dispatch-completeness`` — a protocol module constructs a protocol
  message its dispatch table cannot handle, or a declared message kind has
  no protocol that sends it or none that handles it.
* ``nondeterminism`` — ``random`` or wall-clock ``time`` reads outside
  ``simulator/rng.py`` and ``repro/runtime/`` (the simulator must be a
  deterministic function of the seed).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class LintFinding:
    """One lint violation at one source location."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.code}] {self.message}"


def _src_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _python_files(root: Path) -> List[Path]:
    return sorted(root.rglob("*.py"))


def _relative(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root.parent))
    except ValueError:  # pragma: no cover - absolute fallback
        return str(path)


def _parse(path: Path) -> Optional[ast.AST]:
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError:  # pragma: no cover - the tree must parse to be shipped
        return None


# -- struct stays inside repro/wire/ ---------------------------------------------


def struct_import_findings(root: Optional[Path] = None) -> List[LintFinding]:
    """``struct`` (or ``from struct import ...``) outside ``repro/wire/``."""
    root = root or _src_root()
    findings: List[LintFinding] = []
    for path in _python_files(root):
        if path.parent.name == "wire":
            continue
        tree = _parse(path)
        if tree is None:
            continue
        for node in ast.walk(tree):
            modules: List[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            for module in modules:
                if module == "struct" or module.startswith("struct."):
                    findings.append(
                        LintFinding(
                            path=_relative(path, root),
                            line=node.lineno,
                            code="struct-outside-wire",
                            message=(
                                "binary packing belongs to the codec layer "
                                "(repro/wire/)"
                            ),
                        )
                    )
    return findings


# -- owned private state stays inside its module --------------------------------


@dataclass(frozen=True)
class PrivateState:
    """One row of the ``private-internals`` gate: a class whose private
    state no module but its own may touch.

    ``names`` are flagged wherever they are reached; ``receivers`` are the
    names the owner's instances go by, through which *any* private
    attribute is flagged (``queue._heap``, ``process.order._commit_heap``).
    """

    module: str  # owning module, relative to repro/
    owner: str
    names: FrozenSet[str]
    receivers: FrozenSet[str]
    remedy: str


PRIVATE_STATE: Tuple[PrivateState, ...] = (
    PrivateState(
        "simulator/events.py",
        "EventQueue",
        frozenset({"_times", "_lanes"}),
        frozenset({"queue"}),
        "use push/schedule_message/pop_lane/requeue_lane/peek_time",
    ),
    # Other classes name their own state ``_clock`` or ``_commit_heap``
    # (Caesar), so TimestampOrder's privates are flagged through ``order``.
    PrivateState(
        "core/stability.py",
        "TimestampOrder",
        frozenset(),
        frozenset({"order"}),
        "use the TimestampOrder operations",
    ),
    # The graph's private names are common ones (``_nodes``, ``_missing``),
    # so they are flagged through ``executor``, the name its hosts give it.
    PrivateState(
        "protocols/depgraph.py",
        "DependencyGraphExecutor",
        frozenset(),
        frozenset({"executor"}),
        "use commit/advance/missing/pending_execution",
    ),
    # Common private names (``_ranges``, ``_links``): flagged through ``chains``.
    PrivateState(
        "core/gc.py",
        "ExecutedChains",
        frozenset(),
        frozenset({"chains"}),
        "use add/frontier/clock/release/range_count",
    ),
    # The codec's string table: write_string and Reader.read_string register
    # into it, and nothing else may read, swap or fill it.
    PrivateState(
        "core/wireschema.py",
        "wire codec",
        frozenset({"_CANONICAL_STRINGS", "_register_string"}),
        frozenset(),
        "strings come canonical from write_string / Reader.read_string",
    ),
)


def _receiver_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def private_state_findings(
    root: Optional[Path] = None, rows: Sequence[PrivateState] = PRIVATE_STATE
) -> List[LintFinding]:
    """Private state of a :data:`PRIVATE_STATE` owner reached outside its
    module: one of the row's ``names`` anywhere, as an attribute or an
    imported name, or any private attribute through one of its
    ``receivers``."""
    root = root or _src_root()
    findings: List[LintFinding] = []
    for path in _python_files(root):
        relative = path.relative_to(root).as_posix()
        outsiders = [row for row in rows if row.module != relative]
        if not outsiders:
            continue
        tree = _parse(path)
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attr, receiver = node.attr, _receiver_name(node.value)
            elif isinstance(node, ast.alias):  # a name an import binds
                attr, receiver = node.name, None
            else:
                continue
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            for row in outsiders:
                if attr in row.names or receiver in row.receivers:
                    findings.append(
                        LintFinding(
                            path=_relative(path, root),
                            line=node.lineno,
                            code="private-internals",
                            message=(
                                f"{row.owner} internal {attr!r} reached outside "
                                f"{row.module} ({row.remedy})"
                            ),
                        )
                    )
    return findings


# -- __slots__ on registered hot classes ----------------------------------------

#: Classes on the simulator/protocol hot path that must stay dict-free.
#: ``(module path relative to repro/, class name)``.
HOT_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("core/base.py", "ExecutionLog"),
    ("core/gc.py", "ExecutedChains"),
    ("core/identifiers.py", "Dot"),
    ("core/info.py", "CommandInfo"),
    ("core/promises.py", "_IntRanges"),
    ("core/promises.py", "PromiseSet"),
    ("core/wireschema.py", "Reader"),
    ("simulator/events.py", "EventQueue"),
    ("protocols/dependency.py", "KeyConflicts"),
    ("protocols/dependency.py", "DepInfo"),
    ("protocols/depgraph.py", "GraphNode"),
)


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            name = decorator.func
            is_dataclass = (
                isinstance(name, ast.Name) and name.id == "dataclass"
            ) or (isinstance(name, ast.Attribute) and name.attr == "dataclass")
            if is_dataclass:
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
    return False


def hot_class_slots_findings(root: Optional[Path] = None) -> List[LintFinding]:
    """Registered hot classes must declare ``__slots__`` (or ``slots=True``)."""
    root = root or _src_root()
    findings: List[LintFinding] = []
    for module, class_name in HOT_CLASSES:
        path = root / module
        tree = _parse(path) if path.exists() else None
        if tree is None:
            findings.append(
                LintFinding(
                    path=_relative(path, root),
                    line=1,
                    code="missing-slots",
                    message=f"hot class {class_name} not found in {module}",
                )
            )
            continue
        found = False
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                found = True
                if not _declares_slots(node):
                    findings.append(
                        LintFinding(
                            path=_relative(path, root),
                            line=node.lineno,
                            code="missing-slots",
                            message=(
                                f"hot class {class_name} must declare __slots__ "
                                "(or @dataclass(slots=True)) — it is allocated "
                                "on the simulator hot path"
                            ),
                        )
                    )
        if not found:
            findings.append(
                LintFinding(
                    path=_relative(path, root),
                    line=1,
                    code="missing-slots",
                    message=f"hot class {class_name} not found in {module}",
                )
            )
    return findings


# -- codec exhaustiveness -------------------------------------------------------


def codec_exhaustiveness_findings() -> List[LintFinding]:
    """Every concrete ``Message`` subclass has a codec.  (Every registered
    kind has a sample frame by construction: ``sample_messages`` builds one
    per registered class.)"""
    import inspect

    import repro.core.messages as core_messages
    import repro.protocols.dep_messages as dep_messages
    from repro.core.base import MBatch
    from repro.core.messages import Message
    from repro.wire import has_codec

    findings: List[LintFinding] = []
    for module in (core_messages, dep_messages):
        path = module.__name__.replace(".", "/") + ".py"
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, Message)
                and obj is not Message
                and obj.__module__ == module.__name__
                and not has_codec(obj)
            ):
                findings.append(
                    LintFinding(
                        path=path,
                        line=1,
                        code="codec-exhaustiveness",
                        message=(
                            f"{obj.__name__} has no wire codec — declare its "
                            "kind byte with @wire_schema on the class"
                        ),
                    )
                )
    if not has_codec(MBatch):
        findings.append(
            LintFinding(
                path="repro/wire/codecs.py",
                line=1,
                code="codec-exhaustiveness",
                message="the MBatch transport envelope has no codec",
            )
        )
    return findings


# -- per-protocol dispatch completeness ------------------------------------------

#: The one kind a replica constructs and no replica dispatches: the reply
#: leaves for the client.  (The ``MBatch`` envelope is not a class of the
#: message modules; ``ProcessBase.deliver`` unpacks it.)
_DISPATCH_EXEMPT = frozenset({"ClientReply"})

#: Where message kinds are declared (``@wire_schema`` on the class).
_MESSAGE_MODULES = ("core/messages.py", "protocols/dep_messages.py")

#: The replica shell and its GC mixin: what they construct is sent by every
#: protocol built on them, so it has a sender, but it is held against no one
#: group's dispatch table (FPaxos mixes no GC in).
_SHELL_MODULES = ("core/base.py", "core/gc.py")

#: Module groups whose construction/dispatch sets are checked together (the
#: Tempo state machine spans process.py and the recovery and repair mixins).
_DISPATCH_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("tempo", ("core/process.py", "core/recovery.py", "core/repair.py")),
    # Atlas, EPaxos and Janus share DependencyProcessBase's dispatch table
    # (Janus subclasses Atlas), so their construction sets are pooled.
    (
        "dependency-family",
        (
            "protocols/dependency.py",
            "protocols/atlas.py",
            "protocols/epaxos.py",
            "protocols/janus.py",
        ),
    ),
    ("caesar", ("protocols/caesar.py",)),
    ("fpaxos", ("protocols/fpaxos.py",)),
)


def _declared_kinds(root: Path) -> Dict[str, Tuple[Path, int]]:
    """``class name -> (module path, line)`` of every message kind declared
    with ``@wire_schema`` in the message modules under ``root``."""
    kinds: Dict[str, Tuple[Path, int]] = {}
    for module in _MESSAGE_MODULES:
        path = root / module
        tree = _parse(path)
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.bases and any(
                isinstance(decorator, ast.Call)
                and isinstance(decorator.func, ast.Name)
                and decorator.func.id == "wire_schema"
                for decorator in node.decorator_list
            ):
                kinds[node.name] = (path, node.lineno)
    return kinds


def _scan_module(path: Path, message_names: Set[str]) -> Tuple[Set[str], Set[str], int]:
    """``(constructed, dispatch_keys, dispatch_line)`` for one module."""
    constructed: Set[str] = set()
    dispatch_keys: Set[str] = set()
    dispatch_line = 1
    tree = _parse(path)
    if tree is None:
        return constructed, dispatch_keys, dispatch_line
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in message_names:
                constructed.add(name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            is_dispatch = any(
                isinstance(target, ast.Attribute) and target.attr == "_dispatch"
                for target in targets
            )
            if is_dispatch and isinstance(node.value, ast.Dict):
                dispatch_line = node.lineno
                for key in node.value.keys:
                    if isinstance(key, ast.Name):
                        dispatch_keys.add(key.id)
    return constructed, dispatch_keys, dispatch_line


def dispatch_completeness_findings(root: Optional[Path] = None) -> List[LintFinding]:
    """Every message kind has a sender and a handler, and a protocol can
    route what it sends.

    Two rules over the kinds declared in the message modules:

    * a message class instantiated by a protocol group is on its wire; if
      the group's ``_dispatch`` table cannot route it, a replica would raise
      (or silently drop) on delivery;
    * a kind exists because a protocol sends it: every declared kind is
      constructed somewhere in a protocol group or the shared shell, and is
      a ``_dispatch`` key of at least one group.  A kind with neither is a
      decoder that faces the network for nothing.
    """
    root = root or _src_root()
    kinds = _declared_kinds(root)
    message_names = set(kinds)
    findings: List[LintFinding] = []
    sent: Set[str] = set()
    handled: Set[str] = set()
    for module in _SHELL_MODULES:
        sent |= _scan_module(root / module, message_names)[0]
    for group, modules in _DISPATCH_GROUPS:
        constructed: Set[str] = set()
        dispatch_keys: Set[str] = set()
        anchor_path = root / modules[0]
        anchor_line = 1
        for module in modules:
            module_constructed, module_dispatch, line = _scan_module(
                root / module, message_names
            )
            constructed |= module_constructed
            if module_dispatch:
                dispatch_keys |= module_dispatch
                anchor_path = root / module
                anchor_line = line
        sent |= constructed
        handled |= dispatch_keys
        missing = sorted((constructed - _DISPATCH_EXEMPT) - dispatch_keys)
        for name in missing:
            findings.append(
                LintFinding(
                    path=_relative(anchor_path, root),
                    line=anchor_line,
                    code="dispatch-completeness",
                    message=(
                        f"{group}: {name} is constructed but missing from the "
                        "_dispatch table — a replica cannot route it"
                    ),
                )
            )
    for name in sorted(message_names - _DISPATCH_EXEMPT):
        lacks = [
            what
            for what, having in (("sender", sent), ("handler", handled))
            if name not in having
        ]
        if lacks:
            path, line = kinds[name]
            findings.append(
                LintFinding(
                    path=_relative(path, root),
                    line=line,
                    code="dispatch-completeness",
                    message=(
                        f"{name} is a declared kind with no {' and no '.join(lacks)} "
                        "in any protocol — retire it (RETIRED_KINDS) or wire it in"
                    ),
                )
            )
    return findings


# -- determinism ------------------------------------------------------------------

#: Paths (relative to repro/) allowed to draw randomness or read wall clocks:
#: the seeded RNG wrapper and the real asyncio runtime.
_DETERMINISM_EXEMPT_PREFIXES = ("runtime/",)
_DETERMINISM_EXEMPT_FILES = ("simulator/rng.py",)

#: Wall-clock readers on the ``time`` module.
_WALL_CLOCK_NAMES = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)


def determinism_findings(root: Optional[Path] = None) -> List[LintFinding]:
    """``random`` / wall-clock ``time`` reads outside the sanctioned modules.

    Alias-aware: ``import random as r`` and ``from time import time as now``
    are both caught.  Simulated runs must be a pure function of the seed —
    every random draw goes through :class:`repro.simulator.rng.SeededRng`
    and simulated time comes from the event clock.
    """
    root = root or _src_root()
    findings: List[LintFinding] = []
    for path in _python_files(root):
        relative = path.relative_to(root).as_posix()
        if relative in _DETERMINISM_EXEMPT_FILES or relative.startswith(
            _DETERMINISM_EXEMPT_PREFIXES
        ):
            continue
        tree = _parse(path)
        if tree is None:
            continue
        time_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(
                            LintFinding(
                                path=_relative(path, root),
                                line=node.lineno,
                                code="nondeterminism",
                                message=(
                                    "import random outside simulator/rng.py — "
                                    "draw through SeededRng instead"
                                ),
                            )
                        )
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    findings.append(
                        LintFinding(
                            path=_relative(path, root),
                            line=node.lineno,
                            code="nondeterminism",
                            message=(
                                "from random import ... outside simulator/rng.py "
                                "— draw through SeededRng instead"
                            ),
                        )
                    )
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_NAMES:
                            findings.append(
                                LintFinding(
                                    path=_relative(path, root),
                                    line=node.lineno,
                                    code="nondeterminism",
                                    message=(
                                        f"wall-clock time.{alias.name} outside the "
                                        "runtime — simulated time comes from the "
                                        "event clock"
                                    ),
                                )
                            )
        if not time_aliases:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in time_aliases
                and node.attr in _WALL_CLOCK_NAMES
            ):
                findings.append(
                    LintFinding(
                        path=_relative(path, root),
                        line=node.lineno,
                        code="nondeterminism",
                        message=(
                            f"wall-clock time.{node.attr} outside the runtime — "
                            "simulated time comes from the event clock"
                        ),
                    )
                )
    return findings


# -- entry points -----------------------------------------------------------------

ALL_CHECKS = (
    ("struct-outside-wire", struct_import_findings),
    ("private-internals", private_state_findings),
    ("missing-slots", hot_class_slots_findings),
    ("codec-exhaustiveness", lambda root=None: codec_exhaustiveness_findings()),
    ("dispatch-completeness", dispatch_completeness_findings),
    ("nondeterminism", determinism_findings),
)


def run_all(root: Optional[Path] = None) -> List[LintFinding]:
    """Run every lint over the source tree; returns all findings."""
    findings: List[LintFinding] = []
    for _, check in ALL_CHECKS:
        findings.extend(check(root))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: print findings, return non-zero when any exist."""
    findings = run_all()
    for finding in findings:
        print(finding)
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    if findings:
        summary = ", ".join(f"{code}={count}" for code, count in sorted(counts.items()))
        print(f"lint: {len(findings)} finding(s) ({summary})")
        return 1
    print(f"lint: OK ({len(ALL_CHECKS)} checks clean)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
