"""Tests for the CLI subcommands added alongside the extension modules
(stp / zdd-count / ranked / yen / chordless / transversal / figure1)."""

import io

import pytest

from repro.cli import load_hypergraph, load_weighted_graph, main


@pytest.fixture
def weighted_graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("a b 1\nb c 2\na c 5\nc d 1\n")
    return str(path)


@pytest.fixture
def hypergraph_file(tmp_path):
    path = tmp_path / "hyp.txt"
    path.write_text("# comment\nx y\ny z\n")
    return str(path)


@pytest.fixture
def stp_file(tmp_path):
    path = tmp_path / "inst.stp"
    path.write_text(
        "33D32945 STP File, STP Format Version 1.0\n"
        "SECTION Graph\nNodes 4\nEdges 4\n"
        "E 1 2 1\nE 2 3 2\nE 1 3 5\nE 3 4 1\nEND\n"
        "SECTION Terminals\nTerminals 2\nT 1\nT 4\nEND\nEOF\n"
    )
    return str(path)


@pytest.fixture
def directed_stp_file(tmp_path):
    path = tmp_path / "dir.stp"
    path.write_text(
        "33D32945 STP File, STP Format Version 1.0\n"
        "SECTION Graph\nNodes 3\nArcs 3\n"
        "A 1 2 1\nA 2 3 1\nA 1 3 1\nEND\n"
        "SECTION Terminals\nTerminals 1\nRoot 1\nT 3\nEND\nEOF\n"
    )
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue().strip().splitlines()


class TestLoaders:
    def test_weighted_graph(self, weighted_graph_file):
        g, weights = load_weighted_graph(weighted_graph_file)
        assert g.num_edges == 4
        assert weights == {0: 1.0, 1: 2.0, 2: 5.0, 3: 1.0}

    def test_bad_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b heavy\n")
        with pytest.raises(SystemExit):
            load_weighted_graph(str(path))

    def test_hypergraph(self, hypergraph_file):
        h = load_hypergraph(hypergraph_file)
        assert h.num_edges == 2
        assert sorted(h.universe) == ["x", "y", "z"]


class TestStp:
    def test_enumerate(self, stp_file):
        code, lines = run(["stp", stp_file])
        assert code == 0
        assert sorted(lines) == ["1-2 2-3 3-4", "1-3 3-4"]

    def test_count(self, stp_file):
        _, lines = run(["stp", stp_file, "--count"])
        assert lines == ["2"]

    def test_optimum(self, stp_file):
        _, lines = run(["stp", stp_file, "--optimum"])
        assert lines == ["4"]  # 1 + 2 + 1 via 1-2-3-4

    def test_limit(self, stp_file):
        _, lines = run(["stp", stp_file, "--limit", "1"])
        assert len(lines) == 1

    def test_directed_instance(self, directed_stp_file):
        code, lines = run(["stp", directed_stp_file])
        assert code == 0
        assert sorted(lines) == ["1->2 2->3", "1->3"]

    def test_directed_optimum_rejected(self, directed_stp_file):
        with pytest.raises(SystemExit):
            run(["stp", directed_stp_file, "--optimum"])


class TestZddCount:
    def test_count(self, weighted_graph_file):
        _, lines = run(["zdd-count", weighted_graph_file, "--terminals", "a", "d"])
        assert lines == ["2"]

    def test_histogram(self, weighted_graph_file):
        _, lines = run(
            ["zdd-count", weighted_graph_file, "--terminals", "a", "d", "--histogram"]
        )
        assert lines[0] == "2"
        assert sorted(lines[1:]) == ["2 1", "3 1"]


class TestRankedAndYen:
    def test_ranked_orders_by_weight(self, weighted_graph_file):
        _, lines = run(["ranked", weighted_graph_file, "--terminals", "a", "d", "-k", "3"])
        weights = [float(line.split()[0]) for line in lines]
        assert weights == sorted(weights)
        assert len(lines) == 2  # only two minimal trees exist

    def test_yen(self, weighted_graph_file):
        _, lines = run(
            ["yen", weighted_graph_file, "--source", "a", "--target", "c", "-k", "2"]
        )
        assert lines == ["3 a->b->c", "5 a->c"]


class TestChordless:
    def test_chord_excluded(self, weighted_graph_file):
        _, lines = run(
            ["chordless", weighted_graph_file, "--source", "a", "--target", "d"]
        )
        assert lines == ["a->c->d"]


class TestTransversal:
    def test_berge(self, hypergraph_file):
        _, lines = run(["transversal", hypergraph_file])
        assert sorted(lines) == ["x z", "y"]

    def test_fk_agrees(self, hypergraph_file):
        _, berge = run(["transversal", hypergraph_file])
        _, fk = run(["transversal", hypergraph_file, "--fk"])
        assert sorted(berge) == sorted(fk)

    def test_limit(self, hypergraph_file):
        _, lines = run(["transversal", hypergraph_file, "--limit", "1"])
        assert len(lines) == 1


class TestFigure1:
    def test_renders_tree(self, weighted_graph_file):
        _, lines = run(["figure1", weighted_graph_file, "--terminals", "a", "d"])
        assert "improved enumeration tree" in lines[0]
        assert any("[pre]" in line for line in lines)


class TestConvert:
    def test_edge_list_to_stp(self, weighted_graph_file, tmp_path):
        out_path = tmp_path / "converted.stp"
        code, lines = run(
            ["convert", weighted_graph_file, str(out_path), "--terminals", "a", "d"]
        )
        assert code == 0
        assert "label map" in lines[0]
        from repro.graphs.stp import read_stp

        inst = read_stp(out_path)
        assert inst.num_vertices == 4
        assert len(inst.terminals) == 2
        assert sorted(inst.weights.values()) == [1.0, 1.0, 2.0, 5.0]

    def test_missing_terminal_rejected(self, weighted_graph_file, tmp_path):
        with pytest.raises(SystemExit):
            run(
                [
                    "convert",
                    weighted_graph_file,
                    str(tmp_path / "x.stp"),
                    "--terminals",
                    "zz",
                ]
            )

    def test_round_trip_solutions_match(self, weighted_graph_file, tmp_path):
        out_path = tmp_path / "rt.stp"
        run(["convert", weighted_graph_file, str(out_path), "--terminals", "a", "d"])
        _, direct = run(["steiner-tree", weighted_graph_file, "--terminals", "a", "d"])
        _, via_stp = run(["stp", str(out_path)])
        assert len(direct) == len(via_stp)


class TestServeClientCLI:
    """`repro serve --port` + `repro client`: the network smoke path."""

    @pytest.fixture
    def server_proc(self, tmp_path):
        import os
        import re
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1",
                "--store", str(tmp_path / "store"),
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stderr.readline()
            match = re.search(r":(\d+)$", line.strip())
            assert match, f"no port announcement in {line!r}"
            port = int(match.group(1))
            deadline = time.monotonic() + 20
            from repro.serve.client import ServeClient

            while True:
                try:
                    ServeClient(port=port, timeout=5).health()
                    break
                except Exception:
                    assert time.monotonic() < deadline, "server never became healthy"
                    time.sleep(0.05)
            yield port
        finally:
            from conftest import child_pids, reap

            workers = child_pids(proc.pid)
            proc.terminate()
            proc.wait(timeout=20)
            proc.stderr.close()
            assert not reap(workers), "serve workers outlived the server"

    def test_client_streams_solution_lines(self, tmp_path, server_proc):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"kind": "steiner-tree", "edges": [["a","b"],["b","c"],["a","c"],'
            '["c","d"]], "terminals": ["a","d"]}\n'
        )
        out = io.StringIO()
        code = main(["client", str(jobs), "--port", str(server_proc)], out=out)
        assert code == 0
        assert sorted(out.getvalue().strip().splitlines()) == [
            "a-b b-c c-d",
            "a-c c-d",
        ]

    def test_client_events_and_stats(self, tmp_path, server_proc):
        import json

        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"kind": "st-path", "edges": [["a","b"],["b","c"]],'
            ' "source": "a", "target": "c"}\n'
        )
        out = io.StringIO()
        assert main(
            ["client", str(jobs), "--port", str(server_proc), "--events"], out=out
        ) == 0
        events = [json.loads(line) for line in out.getvalue().strip().splitlines()]
        assert events[0]["event"] == "accepted"
        assert events[-1]["event"] == "end"

        out = io.StringIO()
        assert main(["client", "--port", str(server_proc), "--stats"], out=out) == 0
        stats = json.loads(out.getvalue())
        assert stats["ok"] is True and stats["streams"] >= 1

    def test_client_health(self, server_proc):
        out = io.StringIO()
        assert main(["client", "--port", str(server_proc), "--health"], out=out) == 0
        assert out.getvalue().strip() == "ok"

    def test_client_surfaces_server_errors(self, tmp_path, server_proc):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"kind": "steiner-tree", "edges": [], "terminals": ["a"]}\n')
        out = io.StringIO()
        code = main(["client", str(jobs), "--port", str(server_proc)], out=out)
        assert code == 1
