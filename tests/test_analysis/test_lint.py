"""Tests for the AST lint suite: repo-wide cleanliness plus seeded offenders.

The seeded tests build a miniature ``repro``-shaped tree under ``tmp_path``
and point each check's ``root`` at it, proving the checks actually fire (a
lint that can never fail enforces nothing) and that the sanctioned locations
(``repro/wire/``, ``simulator/events.py``, ``simulator/rng.py``,
``runtime/``) are exempt.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.lint import (
    ALL_CHECKS,
    determinism_findings,
    dispatch_completeness_findings,
    hot_class_slots_findings,
    private_state_findings,
    run_all,
    struct_import_findings,
)


def _tree(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "repro"
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestRepoWide:
    def test_source_tree_is_clean(self):
        findings = [str(finding) for finding in run_all()]
        assert not findings, "\n".join(findings)

    def test_module_entry_point_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lint: OK" in result.stdout

    def test_every_check_is_registered(self):
        assert len(ALL_CHECKS) == 6
        assert [name for name, _ in ALL_CHECKS] == [
            "struct-outside-wire",
            "private-internals",
            "missing-slots",
            "codec-exhaustiveness",
            "dispatch-completeness",
            "nondeterminism",
        ]


#: The four retired kinds (bytes 15, 24, 25 and 31), declared the way the
#: message modules declare a kind: registered, sampled, round-tripped — and
#: sent or handled by nothing.
_PARENT_ONLY_KINDS = {
    "core/messages.py": '''

@wire_schema(15)
@dataclass(frozen=True)
class ClientSubmit(Message):
    command: WireCommand
''',
    "protocols/dep_messages.py": '''

@wire_schema(24)
@dataclass(frozen=True)
class MCaesarRetry(Message):
    command: WireCommand
    timestamp: TsPair
    dependencies: DotSet


@wire_schema(25)
@dataclass(frozen=True)
class MCaesarRetryAck(Message):
    timestamp: TsPair
    dependencies: DotSet


@wire_schema(31)
@dataclass(frozen=True)
class MJanusDeps(Message):
    shard: Uvarint
    dependencies: DotSet
''',
}


def _shipped_tree(tmp_path: Path) -> Path:
    """A copy of the shipped source tree the rule can be pointed at."""
    root = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def _append(path: Path, source: str) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(source)


class TestSenderAndHandlerGate:
    def test_the_parents_four_unsent_kinds_are_reported_and_nothing_else(
        self, tmp_path
    ):
        root = _shipped_tree(tmp_path)
        assert dispatch_completeness_findings(root) == []
        for module, declarations in _PARENT_ONLY_KINDS.items():
            _append(root / module, declarations)
        findings = dispatch_completeness_findings(root)
        assert {finding.code for finding in findings} == {"dispatch-completeness"}
        assert sorted(finding.message.split()[0] for finding in findings) == [
            "ClientSubmit",
            "MCaesarRetry",
            "MCaesarRetryAck",
            "MJanusDeps",
        ]
        assert all("no sender and no handler" in f.message for f in findings)

    def test_a_kind_that_is_sent_but_never_handled_is_reported(self, tmp_path):
        root = _shipped_tree(tmp_path)
        _append(root / "core/messages.py", _PARENT_ONLY_KINDS["core/messages.py"])
        _append(
            root / "protocols/fpaxos.py",
            "\n\ndef _forward(command):\n    return ClientSubmit(command.dot, command)\n",
        )
        messages = [finding.message for finding in dispatch_completeness_findings(root)]
        # Once as "this group cannot route what it sends", once as "no
        # protocol handles this kind".
        assert len(messages) == 2
        assert any("fpaxos: ClientSubmit is constructed but missing" in m for m in messages)
        assert any("ClientSubmit is a declared kind with no handler" in m for m in messages)


class TestStructGate:
    def test_import_outside_wire_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/codec.py": "import struct\n"})
        findings = struct_import_findings(root)
        assert [finding.code for finding in findings] == ["struct-outside-wire"]
        assert findings[0].line == 1

    def test_from_import_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/codec.py": "from struct import pack\n"})
        assert struct_import_findings(root)

    def test_wire_package_is_exempt(self, tmp_path):
        root = _tree(tmp_path, {"wire/codecs.py": "import struct\n"})
        assert not struct_import_findings(root)

    def test_unrelated_imports_pass(self, tmp_path):
        root = _tree(tmp_path, {"core/x.py": "import json\nimport io\n"})
        assert not struct_import_findings(root)


class TestSchedulerGate:
    def test_private_lane_access_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"simulator/loop.py": "n = events._lanes\n"})
        findings = private_state_findings(root)
        assert [finding.code for finding in findings] == ["private-internals"]

    def test_any_private_reach_through_queue_is_flagged(self, tmp_path):
        # The historical pattern the public API replaced: queue._heap.
        root = _tree(tmp_path, {"simulator/loop.py": "x = queue._heap\n"})
        assert private_state_findings(root)

    def test_events_py_itself_is_exempt(self, tmp_path):
        root = _tree(
            tmp_path, {"simulator/events.py": "x = self._lanes\ny = queue._heap\n"}
        )
        assert not private_state_findings(root)

    def test_other_private_attributes_pass(self, tmp_path):
        root = _tree(tmp_path, {"simulator/loop.py": "x = process._info\n"})
        assert not private_state_findings(root)


class TestTimestampOrderGate:
    def test_commit_heap_reached_outside_stability_py_is_flagged(self, tmp_path):
        source = (
            "def head(process):\n"
            "    heap = process.order._commit_heap\n"
            "    return heap[0] if heap else None\n"
        )
        root = _tree(tmp_path, {"core/repair.py": source})
        findings = private_state_findings(root)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("private-internals", 2)
        ]
        assert "TimestampOrder internal '_commit_heap'" in findings[0].message

    def test_stability_py_itself_and_caesars_own_heap_pass(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "core/stability.py": "x = self._commit_heap\ny = other._tracker\n",
                "protocols/caesar.py": "heap = self._commit_heap\n",
            },
        )
        assert not private_state_findings(root)

    def test_other_classes_own_clock_and_tracker_pass(self, tmp_path):
        # Only a reach through ``order`` is TimestampOrder's; another class
        # may name its own state alike.
        source = "self._clock = 0\nself._tracker = None\nx = self._buffered\n"
        root = _tree(tmp_path, {"runtime/loop.py": source})
        assert not private_state_findings(root)


class TestDependencyGraphGate:
    def test_graph_state_reached_through_executor_is_flagged(self, tmp_path):
        source = (
            "def blocked(process):\n"
            "    return process.executor._missing\n"
        )
        root = _tree(tmp_path, {"protocols/dependency.py": source})
        findings = private_state_findings(root)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("private-internals", 2)
        ]
        assert "DependencyGraphExecutor internal '_missing'" in findings[0].message

    def test_depgraph_py_itself_and_other_owners_of_alike_names_pass(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "protocols/depgraph.py": "x = self._missing\ny = self._nodes\n",
                "protocols/dependency.py": (
                    "x = process.executor.missing()\ny = self._nodes\n"
                ),
            },
        )
        assert not private_state_findings(root)


class TestExecutedChainsGate:
    def test_the_record_reached_through_chains_is_flagged(self, tmp_path):
        source = (
            "def frontier(process, source):\n"
            "    return process.chains._ranges[source]\n"
        )
        root = _tree(tmp_path, {"protocols/dependency.py": source})
        findings = private_state_findings(root)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("private-internals", 2)
        ]
        assert "ExecutedChains internal '_ranges'" in findings[0].message

    def test_gc_py_itself_and_other_owners_of_alike_names_pass(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "core/gc.py": "x = self._ranges\ny = self._chains._links\n",
                "core/promises.py": "x = self._ranges\n",
                "protocols/dependency.py": "x = self.chains.frontier(0)\n",
            },
        )
        assert not private_state_findings(root)


class TestCanonicalStringGate:
    def test_the_table_reached_or_imported_elsewhere_is_flagged(self, tmp_path):
        source = (
            "from repro.core import wireschema\n"
            "from repro.core.wireschema import _register_string, write_string\n"
            "wireschema._CANONICAL_STRINGS.clear()\n"
        )
        root = _tree(tmp_path, {"runtime/channel.py": source})
        findings = private_state_findings(root)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("private-internals", 2),
            ("private-internals", 3),
        ]
        assert "wire codec internal '_register_string'" in findings[0].message
        assert "'_CANONICAL_STRINGS'" in findings[1].message

    def test_wireschema_py_itself_and_the_public_codec_pass(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "core/wireschema.py": "table = _CANONICAL_STRINGS\n",
                "wire/codecs.py": (
                    "from repro.core.wireschema import Reader, write_string\n"
                    "text = Reader(b'').read_string()\n"
                ),
            },
        )
        assert not private_state_findings(root)


class TestDeterminismGate:
    def test_import_random_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/x.py": "import random\n"})
        findings = determinism_findings(root)
        assert [finding.code for finding in findings] == ["nondeterminism"]

    def test_from_random_import_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/x.py": "from random import choice\n"})
        assert determinism_findings(root)

    def test_wall_clock_read_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/x.py": "import time\nt = time.time()\n"})
        findings = determinism_findings(root)
        assert findings and findings[0].line == 2

    def test_aliased_wall_clock_read_is_flagged(self, tmp_path):
        # Alias-aware: a grep for "time.time" misses this.
        root = _tree(
            tmp_path, {"core/x.py": "import time as clock\nt = clock.monotonic()\n"}
        )
        assert determinism_findings(root)

    def test_from_time_import_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/x.py": "from time import perf_counter\n"})
        assert determinism_findings(root)

    def test_import_time_alone_passes(self, tmp_path):
        # Importing the module is fine (e.g. for time.sleep in tooling);
        # only wall-clock reads are nondeterministic.
        root = _tree(tmp_path, {"core/x.py": "import time\ntime.sleep(0)\n"})
        assert not determinism_findings(root)

    def test_rng_module_is_exempt(self, tmp_path):
        root = _tree(tmp_path, {"simulator/rng.py": "import random\n"})
        assert not determinism_findings(root)

    def test_runtime_package_is_exempt(self, tmp_path):
        root = _tree(
            tmp_path, {"runtime/loop.py": "import time\nt = time.monotonic()\n"}
        )
        assert not determinism_findings(root)


class TestSlotsGate:
    def test_registered_class_without_slots_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/info.py": "class CommandInfo:\n    pass\n"})
        findings = [
            finding
            for finding in hot_class_slots_findings(root)
            if "CommandInfo" in finding.message and "not found" not in finding.message
        ]
        assert [finding.code for finding in findings] == ["missing-slots"]

    def test_dunder_slots_declaration_passes(self, tmp_path):
        root = _tree(
            tmp_path,
            {"core/info.py": "class CommandInfo:\n    __slots__ = ('x',)\n"},
        )
        assert not [
            finding
            for finding in hot_class_slots_findings(root)
            if "CommandInfo" in finding.message and "not found" not in finding.message
        ]

    def test_dataclass_slots_true_passes(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "core/info.py": (
                    "from dataclasses import dataclass\n"
                    "@dataclass(slots=True)\n"
                    "class CommandInfo:\n"
                    "    x: int = 0\n"
                )
            },
        )
        assert not [
            finding
            for finding in hot_class_slots_findings(root)
            if "CommandInfo" in finding.message and "not found" not in finding.message
        ]

    def test_missing_registered_file_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"core/info.py": "class CommandInfo:\n    __slots__ = ()\n"})
        findings = hot_class_slots_findings(root)
        # Every other registered hot class is absent from the tiny tree.
        assert any("not found" in finding.message for finding in findings)
