"""The seeded inputs of every workload and the pinned streams they map to.

Each workload runs a fixed pool of generated instances
(``repro.bench.workloads`` / ``repro.graphs.generators``); ``--seed``
orders the pool and, on the serve workloads, assigns requests to
clients.  Every seed runs the same mix of jobs, so runs on different
seeds measure the same work and their figures can be compared.  The
program never sees the seed.

Every pool member's expected output is pinned in ``pins.json`` (see
``pin.py``), generated once from the ``object`` oracle.  A pin names a
slice ``[start, stop)`` of one instance's stream.  Most pins are whole
limited streams (``start == 0``); a serve-warm resume pins the page it
delivers.  Relabeled repeats are pinned as a set: a
replay translated from an isomorphic donor arrives in the donor's order
(``repro.engine.cache.entry_usable``).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.workloads import (
    dense_vector_instance,
    directed_size_sweep,
    forest_size_sweep,
    steiner_tree_size_sweep,
    steiner_tree_terminal_sweep,
    terminal_steiner_size_sweep,
)
from repro.core.capabilities import VECTOR_KINDS
from repro.engine.jobs import EnumerationJob
from repro.graphs.generators import (
    random_bipartite_terminal_instance,
    random_connected_graph,
    random_terminal_pairs,
    random_terminals,
)


@dataclass(frozen=True)
class Item:
    """One job of a workload, the pin its output must match and its class.

    Percentile metrics are taken within a class (jobs of one kind and
    size, or requests of one type) and then averaged over classes.
    """

    pin: str
    job: EnumerationJob
    group: str

    @property
    def tag(self) -> str:
        return f"{self.job.kind}.{self.job.backend}"

    @property
    def cls(self) -> str:
        return f"{self.group}.{self.job.backend}"

    @property
    def size(self) -> int:
        """``n + m`` of the instance."""
        return job_size(self.job)


@dataclass(frozen=True)
class PinSpec:
    """How ``pin.py`` computes one pin: a slice of an oracle stream."""

    pin: str
    job: EnumerationJob  # object backend; its limit covers ``stop``
    start: int
    stop: Optional[int]
    ordered: bool = True


def job_size(job: EnumerationJob) -> int:
    vertices = set(job.vertices)
    for u, v in job.edges:
        vertices.add(u)
        vertices.add(v)
    return len(vertices) + len(job.edges)


def _line_graph_edges(base) -> List[Tuple[int, int]]:
    pairs = set()
    for v in base.vertices():
        inc = sorted(e.eid for e in base.incident(v))
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                pairs.add((inc[i], inc[j]))
    return sorted(pairs)


def _whole(pin: str, job: EnumerationJob) -> PinSpec:
    return PinSpec(pin, dataclasses.replace(job, backend="object"), 0, job.limit)


# ----------------------------------------------------------------------
# engine-sparse
# ----------------------------------------------------------------------
SPARSE_VARIANTS = 2


def _sparse_jobs(v: int) -> Dict[str, EnumerationJob]:
    """One mid-size (n=120) sparse job per kind, plus the T1-st sweep."""
    from repro.datagraph.model import synthetic_data_graph

    seed = 2022 + 101 * v
    sweep = steiner_tree_size_sweep(seed)
    st = sweep[2]
    sf = forest_size_sweep(seed)[2]
    ts = terminal_steiner_size_sweep(seed)[2]
    ds = directed_size_sweep(seed)[2]
    dg = synthetic_data_graph(240, 120, 80, 2, seed=13 + v)
    vocab = sorted(dg.vocabulary(), key=lambda kw: (len(dg.nodes_with_keyword(kw)), kw))
    base = random_connected_graph(18, 14, 11 + v)
    eids = sorted(base.edge_ids())
    s, t = st.terminals[0], st.terminals[1]
    jobs = {
        "steiner-tree": EnumerationJob.steiner_tree(st.graph, st.terminals, limit=500),
        "steiner-forest": EnumerationJob.steiner_forest(sf.graph, sf.families, limit=300),
        "terminal-steiner": EnumerationJob.terminal_steiner(
            ts.graph, ts.terminals, limit=300
        ),
        "directed-steiner": EnumerationJob.directed_steiner(
            ds.digraph, ds.terminals, ds.root, limit=150
        ),
        "st-path": EnumerationJob.st_path(st.graph, s, t, limit=500),
        "chordless-path": EnumerationJob.chordless_path(st.graph, s, t, limit=300),
        "kfragments": EnumerationJob.kfragments(dg, vocab[:4], limit=100),
        "induced-steiner": EnumerationJob.induced_steiner(
            _line_graph_edges(base), [eids[0], eids[len(eids) // 2], eids[-1]], limit=8
        ),
    }
    for inst in sweep:
        n = inst.graph.num_vertices
        jobs[f"sweep-n{n}"] = EnumerationJob.steiner_tree(
            inst.graph, inst.terminals, limit=300
        )
    return jobs


def _terminal_jobs() -> Dict[str, EnumerationJob]:
    """The |W| sweep behind the paper-claim check (metered, not timed)."""
    return {
        f"terminals-t{len(inst.terminals)}": EnumerationJob.steiner_tree(
            inst.graph, inst.terminals, limit=300, backend="fast"
        )
        for inst in steiner_tree_terminal_sweep()
    }


def sparse_items(seed: int) -> Tuple[List[Item], List[Item], List[Item]]:
    """``(timed jobs in seeded order, size sweep, terminal sweep)``.

    The pool: every slot of every variant on ``fast``, the vector kinds
    on ``vector`` too.  The sweeps are the repository's pinned ones
    (variant 0).
    """
    timed: List[Item] = []
    sweep: List[Item] = []
    for v in range(SPARSE_VARIANTS):
        for slot, job in _sparse_jobs(v).items():
            pin = f"sparse/v{v}/{slot}"
            fast = Item(pin, dataclasses.replace(job, backend="fast"), slot)
            timed.append(fast)
            if slot.startswith("sweep-") and v == 0:
                sweep.append(fast)
            elif slot in VECTOR_KINDS:
                timed.append(Item(pin, dataclasses.replace(job, backend="vector"), slot))
    terminal = [Item(f"sparse/{k}", j, k) for k, j in _terminal_jobs().items()]
    random.Random(f"engine-sparse:{seed}").shuffle(timed)
    return timed, sweep, terminal


# ----------------------------------------------------------------------
# engine-dense
# ----------------------------------------------------------------------
#: The dense instance: dense_vector_instance at n=240, m~10k instead of
#: its default n=480, m~40k.  A pass over the six jobs then takes ~1 s
#: instead of 5-7 s, so a run holds ~20 samples of each job; at n=480 its
#: 3-4 samples left ten runs spread 31-40% on a shared 2-vCPU VM.
#: Machine build is still most of the time to first solution and vector
#: still beats fast (1.2-2.6x).
DENSE_N, DENSE_EXTRA, DENSE_LIMIT = 240, 10000, 160


def _dense_jobs() -> Dict[str, EnumerationJob]:
    inst = dense_vector_instance(n=DENSE_N, extra=DENSE_EXTRA)
    w = inst.terminals
    return {
        "steiner-tree": EnumerationJob.steiner_tree(inst.graph, w, limit=DENSE_LIMIT),
        "terminal-steiner": EnumerationJob.terminal_steiner(inst.graph, w, limit=DENSE_LIMIT),
        "st-path": EnumerationJob.st_path(inst.graph, w[0], w[1], limit=DENSE_LIMIT),
    }


def dense_items(seed: int) -> List[Item]:
    """The dense instance x 3 kinds x {fast, vector}, in seeded order."""
    items = [
        Item(f"dense/{kind}", dataclasses.replace(job, backend=backend), kind)
        for kind, job in _dense_jobs().items()
        for backend in ("fast", "vector")
    ]
    random.Random(f"engine-dense:{seed}").shuffle(items)
    return items


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------
COLD_KINDS = ("steiner-tree", "terminal-steiner", "steiner-forest", "st-path")
COLD_SIZES = ((60, 40), (120, 80), (240, 160))
#: Generator variants served cold, one per round, cheapest canonical
#: keys first so that every run covers the same early rounds.  Variants
#: 4 and 5 are left out: at n=240 their keys take 1.0-3.9 s per cache
#: tier on the event loop (vs 4-380 ms for these), so whether a run drew
#: one would decide its numbers, as n=480 would (``engine.cache.key_ms``
#: keeps the keying cost in view).
COLD_VARIANTS = (9, 8, 1, 11, 0, 3, 10, 7, 6, 2)


def cold_job(kind: str, n: int, extra: int, v: int) -> EnumerationJob:
    seed = 7000 + 131 * v + n
    if kind == "terminal-steiner":
        g, w = random_bipartite_terminal_instance(n, 4, extra, seed)
        # The generator labels terminals ("w", i); over JSON those arrive
        # as lists, which /enumerate cannot hash, so serve them as "w<i>".
        names = {t: f"w{t[1]}" for t in w}
        edges = [(names.get(u, u), names.get(v, v)) for u, v in EnumerationJob.steiner_tree(g, w).edges]
        return EnumerationJob.terminal_steiner(
            edges, [names[t] for t in w], limit=300, backend="fast"
        )
    g = random_connected_graph(n, extra, seed)
    if kind == "steiner-forest":
        fams = [list(p) for p in random_terminal_pairs(g, 3, seed + 7)]
        return EnumerationJob.steiner_forest(g, fams, limit=300, backend="fast")
    w = random_terminals(g, 4, seed + 1)
    if kind == "st-path":
        return EnumerationJob.st_path(g, w[0], w[1], limit=500, backend="fast")
    return EnumerationJob.steiner_tree(g, w, limit=300, backend="fast")


def cold_items(seed: int) -> List[List[Item]]:
    """Rounds of one request per kind x size class.

    Round ``r`` serves generator variant ``COLD_VARIANTS[r]`` of every
    class, so no request repeats an instance and every seed runs the
    same rounds; the seed orders the requests within each round.
    """
    rng = random.Random(f"serve-cold:{seed}")
    rounds = []
    for v in COLD_VARIANTS:
        rnd = [
            Item(f"cold/{kind}/n{n}/v{v}", cold_job(kind, n, extra, v), f"{kind}/n{n}")
            for kind in COLD_KINDS
            for n, extra in COLD_SIZES
        ]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
#: Exhaustible instances (n=60): exact and relabeled repeats replay them.
WARM_E = 4
RELABELS = 4
#: Instances behind the next-page (P) and resume (R) requests, one per
#: round; even indices are n=120, odd ones n=240.  Each serves one page
#: after its first, so every round costs the same.
WARM_PAGED = 16
PAGED_SIZES = ((120, 80), (240, 160))
FIRST_PAGE = 200
PAGE = 100


def warm_e_job(v: int) -> EnumerationJob:
    g = random_connected_graph(60, 9, 5000 + 7 * v + 60)
    w = random_terminals(g, 4, 5001 + 7 * v + 60)
    return EnumerationJob.steiner_tree(g, w, backend="fast")


def relabeled(job: EnumerationJob, r: int) -> EnumerationJob:
    """An isomorphic copy of ``job`` under a seeded vertex permutation."""
    labels = sorted({x for e in job.edges for x in e})
    perm = list(labels)
    random.Random(9000 + r).shuffle(perm)
    m = {a: 1000 + b for a, b in zip(labels, perm)}
    return dataclasses.replace(
        job,
        edges=tuple((m[u], m[v]) for u, v in job.edges),
        terminals=tuple(m[t] for t in job.terminals),
    )


def warm_paged_job(group: str, i: int) -> EnumerationJob:
    n, extra = PAGED_SIZES[i % 2]
    seed = (6000 if group == "P" else 6500) + 53 * i + n
    g = random_connected_graph(n, extra, seed)
    w = random_terminals(g, 4, seed + 1)
    return EnumerationJob.steiner_tree(g, w, limit=FIRST_PAGE, backend="fast")


def e_item(v: int) -> Item:
    return Item(f"warm/E{v}", warm_e_job(v), "exact-n60")


def relabeled_item(v: int, r: int) -> Item:
    return Item(f"warm/E{v}/r{r}", relabeled(warm_e_job(v), r), "relabeled-n60")


def first_page_item(group: str, i: int) -> Item:
    return Item(f"warm/{group}{i}/L{FIRST_PAGE}", warm_paged_job(group, i), "first-page")


def next_page_item(i: int) -> Item:
    stop = FIRST_PAGE + PAGE
    job = dataclasses.replace(warm_paged_job("P", i), limit=stop)
    return Item(f"warm/P{i}/L{stop}", job, "next-page")


def resume_item(i: int) -> Item:
    stop = FIRST_PAGE + PAGE
    job = dataclasses.replace(warm_paged_job("R", i), limit=stop)
    return Item(f"warm/R{i}/{FIRST_PAGE}-{stop}", job, "resume")


def warm_order(seed: int) -> List[int]:
    """Which P and R instance each round pages, alternating n=120/n=240."""
    rng = random.Random(f"serve-warm:{seed}")
    small = list(range(0, WARM_PAGED, 2))
    large = list(range(1, WARM_PAGED, 2))
    rng.shuffle(small)
    rng.shuffle(large)
    return [i for pair in zip(small, large) for i in pair]


# ----------------------------------------------------------------------
# reference instances for max_delay_ops_per_nm
# ----------------------------------------------------------------------
def reference_items(workload: str) -> List[Item]:
    """The seed-independent instances ``max_delay_ops_per_nm`` is metered on.

    ``induced-steiner`` is left out: the paper bounds its delay by a
    polynomial, not by O(n+m).
    """
    if workload == "engine-sparse":
        return [
            Item(f"sparse/v0/{slot}", dataclasses.replace(job, backend="fast"), slot)
            for slot, job in _sparse_jobs(0).items()
            if slot != "induced-steiner"
        ]
    if workload == "engine-dense":
        return [
            Item(f"dense/{kind}", dataclasses.replace(job, backend="fast"), kind)
            for kind, job in _dense_jobs().items()
        ]
    if workload == "serve-cold":
        v = COLD_VARIANTS[0]
        return [
            Item(f"cold/{kind}/n{n}/v{v}", cold_job(kind, n, extra, v), kind)
            for kind in COLD_KINDS
            for n, extra in COLD_SIZES
        ]
    return [e_item(v) for v in range(WARM_E)] + [
        first_page_item(group, i) for group in ("P", "R") for i in (0, 1)
    ]


# ----------------------------------------------------------------------
# the pin catalogue
# ----------------------------------------------------------------------
def pin_specs() -> List[PinSpec]:
    """Every stream slice any seed of any workload can check."""
    specs: List[PinSpec] = []
    for v in range(SPARSE_VARIANTS):
        for slot, job in _sparse_jobs(v).items():
            specs.append(_whole(f"sparse/v{v}/{slot}", job))
    for slot, job in _terminal_jobs().items():
        specs.append(_whole(f"sparse/{slot}", job))
    for kind, job in _dense_jobs().items():
        specs.append(_whole(f"dense/{kind}", job))
    for kind in COLD_KINDS:
        for n, extra in COLD_SIZES:
            for v in COLD_VARIANTS:
                specs.append(_whole(f"cold/{kind}/n{n}/v{v}", cold_job(kind, n, extra, v)))
    for v in range(WARM_E):
        specs.append(_whole(e_item(v).pin, warm_e_job(v)))
        for r in range(RELABELS):
            item = relabeled_item(v, r)
            specs.append(dataclasses.replace(_whole(item.pin, item.job), ordered=False))
    for i in range(WARM_PAGED):
        for group in ("P", "R"):
            item = first_page_item(group, i)
            specs.append(_whole(item.pin, item.job))
        item = next_page_item(i)
        specs.append(_whole(item.pin, item.job))
        item = resume_item(i)
        oracle = dataclasses.replace(item.job, backend="object")
        specs.append(PinSpec(item.pin, oracle, FIRST_PAGE, FIRST_PAGE + PAGE))
    return specs
