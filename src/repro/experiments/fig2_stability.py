"""Figures 2 and 3 — stability-detection examples.

Figure 2 shows, for three promise sets X, Y and Z over r = 3 processes,
the highest stable timestamp for every combination of the sets.  Figure 3
contrasts Tempo's timestamp stability with the behaviour of explicit-
dependency protocols (EPaxos-style dependency graphs and Caesar-style
blocking) on a four-command example.

Both figures are reproduced as executable scenarios returning the same
values as the paper, and are also asserted by unit tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.identifiers import Dot
from repro.core.promises import Promise, PromiseSet
from repro.protocols.depgraph import DependencyGraphExecutor

#: Processes A, B, C of Figure 2 mapped to identifiers 0, 1, 2.
FIGURE2_PROCESSES: Tuple[int, ...] = (0, 1, 2)

#: The three promise sets of Figure 2.
FIGURE2_SETS: Dict[str, Tuple[Promise, ...]] = {
    "X": (Promise(0, 1), Promise(2, 3)),
    "Y": (Promise(1, 1), Promise(1, 2), Promise(1, 3)),
    "Z": (Promise(0, 2), Promise(2, 1), Promise(2, 2)),
}

#: Expected highest stable timestamp per combination (right side of Fig. 2).
FIGURE2_EXPECTED: Dict[str, int] = {
    "X": 0,
    "Y": 0,
    "Z": 0,
    "X+Y": 1,
    "X+Z": 2,
    "Y+Z": 2,
    "X+Y+Z": 3,
}


def promise_table(
    promise_sets: Iterable[Iterable[Promise]], processes: Sequence[int]
) -> List[Tuple[str, int]]:
    """The right-hand side of Figure 2: for every non-empty combination of
    ``promise_sets``, the highest stable timestamp (Theorem 1) when exactly
    that combination is known.  Combinations are labelled by the indices of
    the included sets (e.g. ``"0+2"``).
    """
    sets = [tuple(promise_set) for promise_set in promise_sets]
    results: List[Tuple[str, int]] = []
    for mask in range(1, 2 ** len(sets)):
        included = [index for index in range(len(sets)) if mask & (1 << index)]
        known = PromiseSet()
        for index in included:
            known.add_all(sets[index])
        label = "+".join(str(index) for index in included)
        results.append((label, known.stable_timestamp(processes)))
    return results


def figure2_rows() -> List[Dict[str, object]]:
    """Stable timestamp for every combination of the X/Y/Z promise sets."""
    labels = list(FIGURE2_SETS)
    combos = promise_table(
        [FIGURE2_SETS[label] for label in labels], FIGURE2_PROCESSES
    )
    rows: List[Dict[str, object]] = []
    for mask_label, stable in combos:
        included = [labels[int(index)] for index in mask_label.split("+")]
        name = "+".join(included)
        rows.append(
            {
                "sets": name,
                "stable_timestamp": stable,
                "expected": FIGURE2_EXPECTED.get(name, None),
            }
        )
    return rows


# -- Figure 3 -----------------------------------------------------------------

#: Commands of the Figure 3 example: w and x are submitted by A (process 0),
#: y by B (process 1), z by C (process 2).
W, X, Y, Z = Dot(0, 1), Dot(0, 2), Dot(1, 1), Dot(2, 1)


def figure3_tempo() -> Dict[str, object]:
    """Tempo's view of the Figure 3 example.

    The command arrival order generates the attached promises listed in the
    paper; commands w, y, z commit with timestamps 2, 2, 3 while x is still
    uncommitted.  Timestamp 2 is stable, so w and y can be executed even
    though x (timestamp > 2) is not yet committed.
    """
    promises = PromiseSet()
    # Attached promises of the committed commands w, y, z (Figure 3, left).
    promises.add_all(
        [
            Promise(0, 1), Promise(1, 2),              # w -> ts 2
            Promise(1, 1), Promise(2, 2),              # y -> ts 2
            Promise(2, 1), Promise(0, 3),              # z -> ts 3
        ]
    )
    stable = promises.stable_timestamp(FIGURE2_PROCESSES)
    committed = {W: 2, Y: 2, Z: 3}
    executable = sorted(
        (dot for dot, timestamp in committed.items() if timestamp <= stable),
        key=lambda dot: (committed[dot], dot),
    )
    return {
        "stable_timestamp": stable,
        "executable": executable,
        "blocked_on_x": False,
    }


def figure3_epaxos() -> Dict[str, object]:
    """EPaxos' view of the Figure 3 example.

    The committed dependencies form the cycle w -> y -> z -> {w, x}; since x
    is not committed, the strongly connected component cannot be executed:
    no command makes progress.
    """
    executed: Set[Dot] = set()
    executor = DependencyGraphExecutor(executed.__contains__)
    executable: List[Dot] = []
    for dot, dependencies in ((W, {Y}), (Y, {Z}), (Z, {W, X})):
        newly = executor.commit(dot, dependencies)
        executed.update(newly)
        executable.extend(newly)
    return {
        "executable": executable,
        "blocked_on_x": not executable,
        "largest_component": executor.largest_pending_component(),
    }


def figure3_caesar() -> Dict[str, object]:
    """Caesar's view of the Figure 3 example.

    With the proposal order of §3.3 (A proposes w:1 and x:4, B proposes y:2,
    C proposes z:3 and the commands arrive as in Figure 3), every reply is
    blocked by the wait condition on a not-yet-committed conflicting command
    with a higher timestamp, so nothing commits.
    """
    # Chain of blocking: w waits for y at B, y waits for z at C, z waits for
    # x at A; x has the highest timestamp but has only been seen by A.
    blocked_chain = [("w", "y"), ("y", "z"), ("z", "x")]
    return {
        "blocked_chain": blocked_chain,
        "committed": [],
        "blocked_on_x": True,
    }


def figure3_rows() -> List[Dict[str, object]]:
    """Figure 3 as one row per approach: how far each gets while x is
    uncommitted."""
    tempo = figure3_tempo()
    epaxos = figure3_epaxos()
    caesar = figure3_caesar()
    return [
        {
            "approach": "tempo (timestamp stability)",
            "progress": f"executes {len(tempo['executable'])} of 3 committed",
            "blocked_on_x": tempo["blocked_on_x"],
        },
        {
            "approach": "epaxos (dependency graph)",
            "progress": f"executes {len(epaxos['executable'])} of 3 committed",
            "blocked_on_x": epaxos["blocked_on_x"],
        },
        {
            "approach": "caesar (dependency stability)",
            "progress": f"commits {len(caesar['committed'])} of 4 proposed",
            "blocked_on_x": caesar["blocked_on_x"],
        },
    ]
