"""The render-equivalence wall: ``JobSearch`` lines ≡ the reference renderers.

:class:`repro.engine.suspend.JobSearch` renders every solution from
per-job tables that fill in lazily (one sort key and one text per edge
or vertex, computed the first time the id appears).  This wall pins
that fast path to the reference renderers — ``render_structure`` over
``solution_edge_structure`` for edge and arc sets, and the original
vertex-set, path and fragment formulas — for every kind × declared
backend, on labels chosen to break naive orderings: ints across digit
widths and signs, strings, tuples, mixed int/str, and parallel edges.
Mid-stream snapshot/restore must continue the same stream, and the
RSNAP1 snapshot bytes of the pinned corpus must equal the digests
recorded from the per-solution renderer the tables replaced.

Regenerate the digest file (only when the snapshot format changes on
purpose) with::

    PYTHONPATH=src python tests/test_render_tables.py > tests/rsnap_corpus_digests.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_corpus
from repro.core.capabilities import JOB_KINDS, spec as kind_spec
from repro.engine.jobs import (
    EnumerationJob,
    render_structure,
    run_job,
    solution_edge_structure,
)
from repro.engine.suspend import JobSearch
from repro.enumeration.events import SOLUTION
from repro.exceptions import ReproError
from repro.graphs.graph import Graph
from repro.graphs.linegraph import line_graph
from repro.graphs.vecgraph import vec_available

CAP = 200  # per-job solution cap keeps worst cases bounded
DIGESTS = os.path.join(os.path.dirname(__file__), "rsnap_corpus_digests.json")

#: Label pools, each larger than any drawn instance.  Orderings by
#: ``repr`` differ from numeric / natural order on every one of them.
LABEL_POOLS = {
    "int-widths": [9, 10, -1, -10, 0, 1, 99, 100, -9, 11, 2, 20, 101, -100,
                   3, 30, 999, 1000, -99, 19],
    "str": ["a", "b", "B", "aa", "a b", "10", "9", "-1", "é", "z", "A",
            "ab", "ba", "_", "0", "x y", "yy", "Z", "k", "a-b"],
    "tuple": [("w", 9), ("w", 10), ("w", -1), ("v", 0), (1, "a"), ("w", 1),
              (10,), (9,), ("a", ("b", 1)), ("a", ("b", 10)), (), ("", 0),
              ("w", 100), (-1, -1), ("x",), ("x", "y"), (0, 0), (2, 1),
              ("b",), ("w", 2)],
    "mixed": [1, "1", 10, "10", 9, "9", -1, "-1", "a", 0, "0", 100, "100",
              -10, "-10", "b", 2, "2", 11, "11"],
}

BACKENDS = {
    kind: [b for b in kind_spec(kind).backends if b != "vector" or vec_available()]
    for kind in JOB_KINDS
}


# ----------------------------------------------------------------------
# reference renderers (per-solution repr/str sorts, no tables)
# ----------------------------------------------------------------------
def _reference_fragment(job, labels, fragment) -> str:
    pairs = sorted(
        "{}-{}".format(*sorted(map(str, job.edges[e])))
        for e in fragment.structural_edges
    )
    edges = " ".join(pairs) if pairs else "(single node)"
    matches = ",".join(f"{kw}={labels[node]}" for kw, node in fragment.matches)
    return f"[{fragment.size}] {edges} | {matches}"


def reference_stream(job, cap=CAP):
    """``(line, structure)`` pairs rendered from the raw machine output."""
    search = JobSearch(job)
    machine, labels, kind = search._machine, search.labels, job.kind
    shape = kind_spec(kind).result_shape
    out = []
    while len(out) < cap:
        if shape in ("edge-set", "arc-set"):
            event = machine.advance()
            while event is not None and event[0] != SOLUTION:
                event = machine.advance()
            if event is None:
                break
            structure = solution_edge_structure(job, event[1])
        elif shape == "vertex-set":
            solution = machine.advance()
            if solution is None:
                break
            structure = tuple(sorted((labels[v] for v in solution), key=repr))
        elif shape == "path":
            if kind == "st-path":
                path = machine.next_path()
                vertices = None if path is None else path.vertices
            else:
                vertices = machine.advance()
            if vertices is None:
                break
            structure = tuple(labels[v] for v in vertices)
        else:
            fragment = machine.advance()
            if fragment is None:
                break
            structure = _reference_fragment(job, labels, fragment)
        line = structure if shape == "fragment" else render_structure(kind, structure)
        out.append((line, structure))
    return out


def table_stream(search, cap=CAP):
    out = []
    while len(out) < cap:
        pair = search.next()
        if pair is None:
            break
        out.append(pair)
    return out


# ----------------------------------------------------------------------
# adversarial instances
# ----------------------------------------------------------------------
@st.composite
def labelled_jobs(draw):
    """One job of a drawn kind, on a small multigraph with hostile labels."""
    kind = draw(st.sampled_from(sorted(JOB_KINDS)))
    pool = draw(st.sampled_from(sorted(LABEL_POOLS)))
    n = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=14))
    pairs = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            pairs.append((u, v))
            if draw(st.booleans()) and draw(st.booleans()):
                pairs.append(draw(st.sampled_from([(u, v), (v, u)])))  # parallel
    if kind == "directed-steiner":
        pairs += [(v, u) for u, v in pairs if draw(st.booleans())]
    elif kind == "induced-steiner":
        # Line graphs are claw-free: the kind's precondition.
        lg = line_graph(Graph.from_edges(pairs[:12], vertices=range(n)))
        index = {x: i for i, x in enumerate(lg.vertices())}
        pairs = [(index[e.u], index[e.v]) for e in lg.edges()]
        n = max(len(index), 2)
    labels = draw(st.permutations(LABEL_POOLS[pool]))[:n]
    order = [labels[i] for i in draw(st.permutations(range(n)))]
    edges = tuple((labels[u], labels[v]) for u, v in pairs)
    vertices = tuple(labels)
    opts = dict(edges=edges, vertices=vertices, limit=CAP)
    if kind == "steiner-forest":
        opts["families"] = (tuple(order[:2]), tuple(order[2:4]) or (order[0],))
    elif kind_spec(kind).result_shape == "path":
        opts.update(source=order[0], target=order[1])
    elif kind == "kfragments":
        tagged = st.lists(st.sampled_from("xyz"), min_size=1, max_size=2, unique=True)
        table = {v: tuple(draw(tagged)) for v in labels if draw(st.booleans())}
        table[order[0]] = ("x",)
        table[order[-1]] = ("y",)
        opts["keywords"] = ("x", "y")
        opts["node_keywords"] = tuple(table.items())
    else:
        least = 2 if kind == "terminal-steiner" else 1
        opts["terminals"] = tuple(order[: draw(st.integers(least, min(3, n)))])
        if kind == "directed-steiner":
            opts["root"] = order[-1]
    cut = draw(st.integers(min_value=0, max_value=12))
    return EnumerationJob(kind=kind, **opts), cut


@settings(max_examples=400, deadline=None)
@given(labelled_jobs())
def test_tables_render_like_the_reference(case):
    job, cut = case
    for backend in BACKENDS[job.kind]:
        job = dataclasses.replace(job, backend=backend)
        try:
            reference = reference_stream(job)
        except ReproError:
            with pytest.raises(ReproError):
                JobSearch(job)
            continue
        assert table_stream(JobSearch(job)) == reference, backend
        # Mid-stream suspension: the restored search (empty tables)
        # renders the same tail.
        at = min(cut, len(reference))
        search = JobSearch(job)
        head = table_stream(search, at)
        restored = JobSearch.restore(job, search.snapshot())
        assert head + table_stream(restored, CAP - at) == reference, backend


def test_tables_start_empty_and_stay_out_of_snapshots():
    job = EnumerationJob.steiner_tree(
        [(10, 9), (9, -1), (-1, 10), (10, "10"), ("10", 9)], [10, -1]
    )
    search = JobSearch(job)
    assert search._table == {}  # no build-time pass over the edges
    search.next()
    assert search._table
    fresh = JobSearch(job)
    fresh.next()
    assert search.snapshot() == fresh.snapshot()
    assert JobSearch.restore(job, search.snapshot())._table == {}


def test_parallel_edges_render_equal_pairs():
    edges = [("b", "a"), ("a", "b"), ("b", "c"), ("a", "c")]
    job = EnumerationJob.steiner_tree(edges, ["a", "b"])
    lines = [line for line, _s in JobSearch(job)]
    assert lines == [line for line, _s in reference_stream(job)]
    assert lines.count("a-b") == 2


# ----------------------------------------------------------------------
# pinned corpus: RSNAP1 bytes unchanged by the render tables
# ----------------------------------------------------------------------
def _corpus_jobs(case):
    edges = tuple(case.graph.endpoints(e) for e in sorted(case.graph.edge_ids()))
    vertices = tuple(v for v in case.graph.vertices() if case.graph.degree(v) == 0)
    base = EnumerationJob(kind="steiner-tree", edges=edges, vertices=vertices)
    jobs = []
    if case.terminals:
        jobs.append(dataclasses.replace(base, terminals=tuple(case.terminals)))
        if len(case.terminals) >= 2:
            jobs.append(
                dataclasses.replace(
                    base, kind="terminal-steiner", terminals=tuple(case.terminals)
                )
            )
            jobs.append(
                dataclasses.replace(
                    base,
                    kind="st-path",
                    source=case.terminals[0],
                    target=case.terminals[1],
                )
            )
    return jobs


def corpus_snapshot_digests(backends=("object", "fast", "vector")):
    """sha256 of the RSNAP1 snapshots at cuts 0, 1 and 7 of every corpus job."""
    digests = {}
    for case in load_corpus():
        for job in _corpus_jobs(case):
            for backend in backends:
                job_b = dataclasses.replace(job, backend=backend)
                search = JobSearch(job_b)
                hasher = hashlib.sha256()
                taken = 0
                for cut in (0, 1, 7):
                    while taken < cut and search.next() is not None:
                        taken += 1
                    hasher.update(search.snapshot())
                digests[f"{case.name}/{job.kind}/{backend}"] = hasher.hexdigest()
    return digests


def test_corpus_snapshot_bytes_unchanged():
    with open(DIGESTS) as handle:
        pinned = json.load(handle)
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    if version not in pinned:
        pytest.skip(f"no snapshot digests recorded for Python {version}")
    backends = [b for b in ("object", "fast", "vector") if b != "vector" or vec_available()]
    expected = {k: v for k, v in pinned[version].items() if k.rsplit("/", 1)[1] in backends}
    assert corpus_snapshot_digests(backends) == expected


# ----------------------------------------------------------------------
# JSON-array labels come back as tuples
# ----------------------------------------------------------------------
def _tuple_label_jobs():
    w = [("w", i) for i in range(4)]
    edges = [(w[0], w[1]), (w[1], w[2]), (w[2], w[3]), (w[0], w[2]), (w[1], (w[3], 9))]
    return [
        EnumerationJob.terminal_steiner(edges, [w[0], w[3]], vertices=(("iso", 0),)),
        EnumerationJob.steiner_tree(edges, [w[0], (w[3], 9)]),
        EnumerationJob.steiner_forest(edges, [[w[0], w[2]], [w[1], (w[3], 9)]]),
        EnumerationJob.induced_steiner(edges, [w[0], w[3]]),
        EnumerationJob.directed_steiner(edges, [w[2], w[3]], w[0]),
        EnumerationJob.st_path(edges, w[0], (w[3], 9)),
        EnumerationJob.chordless_path(edges, w[0], w[3]),
        EnumerationJob(
            kind="kfragments",
            edges=tuple(edges),
            keywords=("x",),
            node_keywords=((w[2], ("x",)),),
        ),
    ]


@pytest.mark.parametrize("job", _tuple_label_jobs(), ids=lambda j: j.kind)
def test_from_dict_restores_tuple_labels(job):
    spec = json.loads(json.dumps(job.to_dict()))
    again = EnumerationJob.from_dict(spec)
    assert again == job
    assert hash(again) == hash(job)
    assert run_job(again).lines == run_job(job).lines


def test_tuple_labels_stream_over_http(tmp_path):
    from repro.serve import EnumerationServer, ServeClient, ServerThread

    job = _tuple_label_jobs()[0]
    expected = list(run_job(job).lines)
    assert expected
    server = EnumerationServer(workers=1, store=str(tmp_path / "store"))
    with ServerThread(server) as thread:
        assert ServeClient(port=thread.port).solutions(job) == expected


if __name__ == "__main__":
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    pinned = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as handle:
            pinned = json.load(handle)
    pinned[version] = corpus_snapshot_digests()
    json.dump(pinned, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
