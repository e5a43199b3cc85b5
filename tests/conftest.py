"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

import json
import os
import random
import signal
import time
import uuid
from typing import List, NamedTuple, Optional

import pytest

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

# ----------------------------------------------------------------------
# process hygiene: no `repro serve` process may outlive the session
# ----------------------------------------------------------------------
#: Environment tag inherited by every process the suite starts (servers,
#: fleet replicas and their forked workers), so the leak check below
#: only ever counts this session's processes.
SESSION_TAG = "REPRO_TEST_SESSION"


def _proc_file(pid: int, name: str) -> bytes:
    try:
        with open(f"/proc/{pid}/{name}", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def serve_pids() -> List[int]:
    """Live ``repro serve`` processes started by this test session."""
    if not os.path.isdir("/proc"):
        return []
    tag = f"{SESSION_TAG}={os.environ.get(SESSION_TAG, '')}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        argv = _proc_file(int(entry), "cmdline").split(b"\0")
        serving = any(
            a == b"repro" and b == b"serve" for a, b in zip(argv, argv[1:])
        )
        if serving and tag in _proc_file(int(entry), "environ").split(b"\0"):
            pids.append(int(entry))
    return sorted(pids)


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (read from ``/proc``; [] elsewhere)."""
    if not os.path.isdir("/proc"):
        return []
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_file(int(entry), "stat")
            fields = stat.rsplit(b")", 1)[-1].split()
            if len(fields) > 1 and int(fields[1]) == pid:
                children.append(int(entry))
    return children


def reap(pids, timeout: float = 5.0) -> List[int]:
    """Wait for ``pids`` to exit; SIGKILL and return the ones that did not."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [p for p in alive if _running(p)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return alive


def _running(pid: int) -> bool:
    stat = _proc_file(pid, "stat")
    return bool(stat) and stat.rsplit(b")", 1)[-1].split()[0] != b"Z"


def pytest_configure(config) -> None:
    # xdist workers inherit the controller's tag, so one session = one tag.
    os.environ.setdefault(SESSION_TAG, uuid.uuid4().hex)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Fail the run, listing pids, when a ``repro serve`` process leaked."""
    if hasattr(session.config, "workerinput"):
        return  # an xdist worker: the controller checks after all of them
    leaked = reap(serve_pids())
    if leaked:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(
                f"leaked `repro serve` processes (killed): {leaked}", red=True
            )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


class CorpusCase(NamedTuple):
    """One regression-corpus instance (see tests/corpus/README.md)."""

    name: str
    description: str
    graph: Graph
    terminals: List[int]
    weights: dict
    keywords: Optional[dict]  # node -> keyword list, or None
    query: Optional[List[str]]
    expected_solutions: int
    expected_fragments: Optional[int]

    def datagraph(self):
        """The instance as a DataGraph (keyword corpora only)."""
        from repro.datagraph.model import DataGraph

        dg = DataGraph()
        for v in self.graph.vertices():
            dg.add_node(v, (self.keywords or {}).get(str(v), []))
        for edge in self.graph.edges():
            dg.add_link(edge.u, edge.v)
        return dg


def load_corpus() -> List[CorpusCase]:
    """Load every pinned instance from tests/corpus/*.json."""
    cases = []
    for fname in sorted(os.listdir(CORPUS_DIR)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(CORPUS_DIR, fname)) as fh:
            raw = json.load(fh)
        graph = Graph.from_edges(
            [tuple(e) for e in raw["edges"]], vertices=range(raw["num_vertices"])
        )
        cases.append(
            CorpusCase(
                name=raw["name"],
                description=raw["description"],
                graph=graph,
                terminals=list(raw["terminals"]),
                weights={int(k): v for k, v in raw.get("weights", {}).items()},
                keywords=raw.get("keywords"),
                query=raw.get("query"),
                expected_solutions=raw["expected_solutions"],
                expected_fragments=raw.get("expected_fragments"),
            )
        )
    assert cases, "regression corpus is empty"
    return cases


def random_simple_graph(rng: random.Random, max_n: int = 7, p: float = 0.5) -> Graph:
    """A random simple undirected graph on 2..max_n vertices."""
    n = rng.randint(2, max_n)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(edges, vertices=range(n))


def random_simple_digraph(rng: random.Random, max_n: int = 6, p: float = 0.4) -> DiGraph:
    """A random simple digraph on 2..max_n vertices."""
    n = rng.randint(2, max_n)
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    ]
    return DiGraph.from_arcs(arcs, vertices=range(n))


@pytest.fixture
def triangle_with_tail() -> Graph:
    """A triangle a-b-c plus pendant edge c-d; the smallest graph with both
    a cycle and a bridge."""
    return Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])


@pytest.fixture
def diamond() -> Graph:
    """s-a-t / s-b-t: two internally disjoint s-t paths."""
    return Graph.from_edges([("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")])


@pytest.fixture
def two_triangles_bridge() -> Graph:
    """Two triangles joined by one bridge (classic bridge test case)."""
    return Graph.from_edges(
        [
            ("a", "b"), ("b", "c"), ("c", "a"),
            ("c", "d"),
            ("d", "e"), ("e", "f"), ("f", "d"),
        ]
    )


@pytest.fixture
def rooted_dag() -> DiGraph:
    """A small rooted digraph with branching used by directed tests."""
    return DiGraph.from_arcs(
        [
            ("r", "a"), ("r", "b"),
            ("a", "w1"), ("b", "w1"),
            ("a", "w2"), ("b", "w2"),
        ]
    )
