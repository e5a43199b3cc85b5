"""Instance cache: canonical hashing + LRU result store with disk spill.

Two jobs that describe the *same* instance should pay for enumeration
once.  "Same" is stronger than textual equality: a relabeled copy of a
solved graph (vertex names permuted, edge list reordered) is the same
instance, and serving it from cache only needs the relabeling map.

:func:`canonical_signature` computes a complete isomorphism invariant
for a job's instance-plus-query: colour-refinement (1-WL) seeded with
the vertices' query roles (terminal / family membership / root / source
/ target / keyword bag), followed by an individualization search that
returns the lexicographically least certificate over all refinement-
consistent vertex orders.  Because the certificate *contains* the full
adjacency under the chosen order, equal certificates imply genuinely
isomorphic instances — the key is sound, never merely probabilistic.
The search is exponential on highly symmetric inputs, so it carries a
work budget; when exceeded, :class:`InstanceCache` falls back to an
exact label-sensitive key (still correct, just not relabel-stable for
that instance).  The budget depends only on the instance's symmetry
structure, never on its labels, so relabeled copies agree on which tier
they use.

Cached solutions are stored as canonical-index structures and translated
back through the requesting job's own canonical order on a hit, so a hit
for a relabeled instance is rendered in the *caller's* vertex names.
A hit replays the donor's enumeration order; for a relabeled instance
that may be a permutation of the order a fresh run would use, but the
solution set is identical.  Order-sensitive serves are therefore gated
on an exact-instance fingerprint: relabeled hits serve only *complete*
solution sets (a ``limit`` that would truncate one misses instead — a
limit at or above the complete count serves it whole), and
cursor prefixes are served only to the identical instance (splicing a
donor-ordered prefix onto a different job's live stream would duplicate
and drop solutions).

Entries evicted from the LRU can spill to a directory as pickles and
are transparently reloaded on the next miss.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.capabilities import spec as kind_spec
from repro.engine.jobs import (
    EnumerationJob,
    JobResult,
    structure_line,
)

#: Abort the individualization search after this many refinement passes.
#: Structure-determined (independent of labels), so relabeled copies of
#: an instance always agree on canonical-vs-exact key tier.
_CANON_BUDGET = 4096


class _CanonBudgetExceeded(Exception):
    pass


def _job_vertices_and_roles(job: EnumerationJob):
    """All instance vertices plus a hashable query-role token per vertex."""
    vertices: List[Any] = []
    seen = set()

    def add(v):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for u, v in job.edges:
        add(u)
        add(v)
    for v in job.vertices:
        add(v)
    roles: Dict[Any, tuple] = {v: () for v in vertices}
    for t in job.terminals:
        add(t)
        roles.setdefault(t, ())
        roles[t] = roles[t] + ("T",)
    for i, family in enumerate(job.families):
        for t in family:
            add(t)
            roles.setdefault(t, ())
            roles[t] = roles[t] + (("F", i),)
    for name in ("root", "source", "target"):
        v = getattr(job, name)
        if v is not None:
            add(v)
            roles.setdefault(v, ())
            roles[v] = roles[v] + (name,)
    return vertices, {v: tuple(sorted(map(repr, roles[v]))) for v in vertices}


def _refine(
    n: int,
    out_adj: Sequence[Sequence[int]],
    in_adj: Optional[Sequence[Sequence[int]]],
    colors: List[int],
) -> List[int]:
    """Colour refinement (1-WL) to a fixed point; returns dense colours."""
    while True:
        if in_adj is None:
            sigs = [
                (colors[v], tuple(sorted(colors[u] for u in out_adj[v])))
                for v in range(n)
            ]
        else:
            sigs = [
                (
                    colors[v],
                    tuple(sorted(colors[u] for u in out_adj[v])),
                    tuple(sorted(colors[u] for u in in_adj[v])),
                )
                for v in range(n)
            ]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_signature(job: EnumerationJob) -> Optional[Tuple[List[Any], tuple]]:
    """Canonical vertex order and certificate for ``job``'s instance.

    Returns ``(order, certificate)`` where ``order[i]`` is the vertex in
    canonical position ``i``, or ``None`` when the kind is not
    relabelable or the symmetry search exceeds its budget.  Two jobs get
    equal certificates iff their role-annotated instances are isomorphic.
    """
    if not kind_spec(job.kind).relabelable:
        return None
    vertices, roles = _job_vertices_and_roles(job)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    directed = job.is_directed
    out_adj: List[List[int]] = [[] for _ in range(n)]
    in_adj: Optional[List[List[int]]] = [[] for _ in range(n)] if directed else None
    edge_pairs: List[Tuple[int, int]] = []
    for u, v in job.edges:
        iu, iv = index[u], index[v]
        edge_pairs.append((iu, iv))
        out_adj[iu].append(iv)
        if directed:
            in_adj[iv].append(iu)  # type: ignore[index]
        else:
            out_adj[iv].append(iu)

    role_palette = {r: i for i, r in enumerate(sorted(set(roles.values())))}
    role_color = [role_palette[roles[v]] for v in vertices]
    budget = [_CANON_BUDGET]

    def refine(colors: List[int]) -> List[int]:
        budget[0] -= 1
        if budget[0] < 0:
            raise _CanonBudgetExceeded
        return _refine(n, out_adj, in_adj, colors)

    def certificate(order: List[int]) -> tuple:
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        role_seq = tuple(roles[vertices[v]] for v in order)
        if directed:
            enc = tuple(sorted((pos[a], pos[b]) for a, b in edge_pairs))
        else:
            enc = tuple(
                sorted(
                    (min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in edge_pairs
                )
            )
        return (role_seq, enc)

    best: List[Optional[Tuple[tuple, List[int]]]] = [None]

    def search(colors: List[int]) -> None:
        classes: Dict[int, List[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        non_singleton = sorted(
            (len(members), color)
            for color, members in classes.items()
            if len(members) > 1
        )
        if not non_singleton:
            order = sorted(range(n), key=lambda v: colors[v])
            cert = certificate(order)
            if best[0] is None or cert < best[0][0]:
                best[0] = (cert, order)
            return
        _, color = non_singleton[0]
        next_color = n  # strictly larger than any dense colour in use
        for v in classes[color]:
            branched = list(colors)
            branched[v] = next_color
            search(refine(branched))

    try:
        search(refine(role_color))
    except _CanonBudgetExceeded:
        return None
    assert best[0] is not None
    cert, order = best[0]
    return ([vertices[v] for v in order], cert)


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def job_fingerprint(job: EnumerationJob) -> str:
    """Exact-instance identity (labels, edge order, query params).

    Two jobs with equal fingerprints produce identical enumeration
    streams, so order-sensitive serves (cursor prefixes, limit
    truncation) are gated on fingerprint equality; canonical-key hits
    with a different fingerprint are relabelings whose stream is a
    permutation of the requester's own.
    """
    return _digest(
        (
            "fp",
            job.kind,
            job.edges,
            job.vertices,
            job.terminals,
            job.families,
            job.root,
            job.source,
            job.target,
            job.keywords,
            job.node_keywords,
        )
    )


def instance_key(job: EnumerationJob) -> Tuple[str, Optional[List[Any]]]:
    """The cache key for ``job`` plus its canonical order (if available).

    Execution-envelope fields (``limit``, ``deadline``, ``budget``,
    ``shards``, ``job_id``) are deliberately excluded: they shape *how
    much* of the result is delivered, not what the result is.
    """
    signature = canonical_signature(job)
    if signature is not None:
        order, cert = signature
        return _digest(("canon", job.kind, tuple(job.keywords), cert)), order
    exact = (
        "exact",
        job.kind,
        job.edges,
        job.vertices,
        job.terminals,
        job.families,
        job.root,
        job.source,
        job.target,
        job.keywords,
        job.node_keywords,
    )
    return _digest(exact), None


def to_canonical(kind: str, structures, order: List[Any]) -> tuple:
    """Re-express label-level ``structures`` in canonical vertex indices."""
    pos = {v: i for i, v in enumerate(order)}
    if kind_spec(kind).result_shape in ("vertex-set", "path"):
        return tuple(tuple(pos[v] for v in s) for s in structures)
    return tuple(tuple((pos[u], pos[v]) for u, v in s) for s in structures)


def from_canonical(job: EnumerationJob, canonical, order: List[Any]) -> tuple:
    """Translate canonical-index structures into ``job``'s own labels."""
    if kind_spec(job.kind).result_shape == "vertex-set":
        # Vertex sets are rendered sorted by repr (matching
        # JobSearch); paths keep their traversal order.
        return tuple(
            tuple(sorted((order[i] for i in s), key=repr)) for s in canonical
        )
    if kind_spec(job.kind).result_shape == "path":
        return tuple(tuple(order[i] for i in s) for s in canonical)
    structures = []
    for s in canonical:
        if job.is_directed:
            pairs = [(order[i], order[j]) for i, j in s]
        else:
            pairs = [tuple(sorted((order[i], order[j]), key=repr)) for i, j in s]
        pairs.sort(key=lambda p: (repr(p[0]), repr(p[1])))
        structures.append(tuple(pairs))
    return tuple(structures)


@dataclass
class _Entry:
    """One cached enumeration: solutions plus completeness metadata."""

    payload: tuple  # canonical structures, or rendered lines when order is None
    canonical: bool
    exhausted: bool
    fingerprint: str  # exact-instance identity of the donor job
    # The donor's own rendered lines (canonical entries only): lets an
    # exact-fingerprint hit skip the canonical->label translation and
    # re-rendering entirely — the donor's stream IS the requester's.
    lines: Optional[tuple] = None


def line_result(job: EnumerationJob, lines: tuple, exhausted: bool) -> JobResult:
    """A replayed result served straight from stored rendered lines.

    Exactly :func:`entry_result` on a raw-line payload — the named
    wrapper marks the exact-fingerprint fast path (no canonical
    translation) at its call sites.
    """
    return entry_result(job, tuple(lines), False, exhausted, None)


def cacheable(result: JobResult) -> bool:
    """True when ``result`` is sound to record for future replay.

    Deadline- and budget-stopped runs are rejected: their cut point is
    timing-dependent, so replaying them would be nondeterministic.
    Errored runs carry no reusable content either.
    """
    return result.stop_reason not in ("deadline", "budget") and result.error is None


def entry_usable(
    job: EnumerationJob, same_fingerprint: bool, exhausted: bool, count: int
) -> bool:
    """Serve gating shared by :class:`InstanceCache` and the disk store.

    An exact-fingerprint entry is the job's own stream, so a stored
    prefix may satisfy a ``limit`` by truncation.  A relabeled entry is
    a permutation of the job's stream, so only the *complete* solution
    set may be served (truncating it would return a different subset
    than a fresh limited run would).
    """
    if same_fingerprint:
        return exhausted or (job.limit is not None and count >= job.limit)
    return exhausted and (job.limit is None or job.limit >= count)


def entry_result(
    job: EnumerationJob,
    payload: tuple,
    canonical: bool,
    exhausted: bool,
    order: Optional[List[Any]],
    apply_limit: bool = True,
) -> JobResult:
    """Materialize a stored entry as a :class:`JobResult` for ``job``.

    Canonical payloads are translated through ``order`` into the job's
    own labels; raw-line payloads are served verbatim.  With
    ``apply_limit`` the job's ``limit`` truncates the stream (the stored
    entry may know more solutions than the job asked for).
    """
    structures: Optional[tuple]
    if canonical:
        if order is None:
            raise RuntimeError("canonical cache entry hit through a non-canonical key")
        structures = from_canonical(job, payload, order)
        lines = tuple(structure_line(job, s) for s in structures)
    else:
        structures = None
        lines = payload
    stop_reason = None
    if apply_limit and job.limit is not None and len(lines) >= job.limit:
        lines = lines[: job.limit]
        structures = structures[: job.limit] if structures is not None else None
        exhausted = False
        stop_reason = "limit"
    elif not exhausted:
        stop_reason = "limit"
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        lines=lines,
        exhausted=exhausted,
        stop_reason=stop_reason,
        elapsed=0.0,
        ops=0,
        cached=True,
        structures=structures,
    )


@dataclass
class CacheStats:
    """Counters exposed for tests, benchmarks and the service stats op."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for JSON serving."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "stores": self.stores,
        }


class InstanceCache:
    """LRU cache of enumeration results keyed by canonical instance hash.

    Parameters
    ----------
    maxsize:
        In-memory entry cap; least-recently-used entries beyond it are
        evicted (to disk when ``spill_dir`` is set, otherwise dropped).
    spill_dir:
        Directory for evicted entries.  Created on demand; entries are
        pickled one file per key and reloaded transparently on a miss.

    Examples
    --------
    >>> from repro.engine.jobs import EnumerationJob, run_job
    >>> cache = InstanceCache(maxsize=8)
    >>> job = EnumerationJob.steiner_tree([("a", "b"), ("b", "c")], ["a", "c"])
    >>> cache.store(job, run_job(job))
    >>> relabeled = EnumerationJob.steiner_tree([("x", "y"), ("y", "z")], ["x", "z"])
    >>> cache.lookup(relabeled).lines
    ('x-y y-z',)
    """

    def __init__(self, maxsize: int = 256, spill_dir: Optional[str] = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.spill_dir = spill_dir
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        # Memo for the (expensive) canonicalization, bounded alongside
        # the entry LRU so lookup()+store() pay for it once per job.
        self._key_memo: "OrderedDict[EnumerationJob, Tuple[str, Optional[List[Any]]]]" = (
            OrderedDict()
        )

    def _instance_key(self, job: EnumerationJob) -> Tuple[str, Optional[List[Any]]]:
        memo = self._key_memo
        hit = memo.get(job)
        if hit is not None:
            memo.move_to_end(job)
            return hit
        computed = instance_key(job)
        memo[job] = computed
        while len(memo) > 4 * self.maxsize:
            memo.popitem(last=False)
        return computed

    # ------------------------------------------------------------------
    def lookup(self, job: EnumerationJob) -> Optional[JobResult]:
        """Return a complete :class:`JobResult` for ``job``, or ``None``.

        Serves only when the stored enumeration satisfies the job in
        full: the entry is exhausted, or the job has a ``limit`` the
        stored prefix covers.  Results are marked ``cached=True``.
        """
        key, order = self._instance_key(job)
        entry = self._load(key)
        if entry is None:
            self.stats.misses += 1
            return None
        same = entry.fingerprint == job_fingerprint(job)
        if not entry_usable(job, same, entry.exhausted, len(entry.payload)):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if same and entry.canonical and entry.lines is not None:
            return line_result(job, entry.lines, entry.exhausted)
        return self._result_from_entry(job, entry, order)

    def prefix(self, job: EnumerationJob) -> Optional[JobResult]:
        """The stored solution prefix for ``job``, complete or not.

        Unlike :meth:`lookup` this also serves incomplete entries (e.g.
        a checkpointed cursor's delivered prefix) and never truncates to
        the job's ``limit``; the result's ``exhausted`` flag says whether
        the stored prefix is the whole enumeration.  Returns ``None``
        only on a true miss.
        """
        key, order = self._instance_key(job)
        entry = self._load(key)
        if entry is None or entry.fingerprint != job_fingerprint(job):
            # A relabeled donor's prefix is in the donor's order; splicing
            # it onto this job's live enumeration would duplicate some
            # solutions and drop others, so only exact matches serve.
            return None
        return self._result_from_entry(job, entry, order, apply_limit=False)

    def store(self, job: EnumerationJob, result: JobResult) -> None:
        """Record ``result`` for ``job``.

        Deadline- and budget-stopped runs are not cached (their cut point
        is timing-dependent, so replaying them would be nondeterministic).
        An existing entry is only replaced by one that knows strictly
        more solutions.
        """
        if not cacheable(result):
            return
        key, order = self._instance_key(job)
        if order is not None and result.structures is None:
            return  # canonical entries need structures to translate on hit
        existing = self._load(key)
        if existing is not None:
            upgrades = result.exhausted and not existing.exhausted
            if existing.exhausted or (
                len(existing.payload) >= result.count and not upgrades
            ):
                return
        fingerprint = job_fingerprint(job)
        if order is not None:
            payload = to_canonical(job.kind, result.structures, order)
            entry = _Entry(
                payload, True, result.exhausted, fingerprint, tuple(result.lines)
            )
        else:
            entry = _Entry(tuple(result.lines), False, result.exhausted, fingerprint)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats.stores += 1
        self._shrink()

    def adopt_entry(
        self,
        job: EnumerationJob,
        payload: tuple,
        canonical: bool,
        exhausted: bool,
        fingerprint: str,
        lines: Optional[tuple] = None,
    ) -> None:
        """Insert a pre-built entry for ``job``'s key (tier promotion).

        Used by the disk tier to promote a hit into memory without
        re-deriving structures.  The caller asserts the payload matches
        the entry shape ``job``'s key implies (canonical payload iff the
        key canonicalizes).
        """
        key, order = self._instance_key(job)
        if canonical != (order is not None):
            return  # shape mismatch: refuse rather than corrupt the tier
        self._entries[key] = _Entry(payload, canonical, exhausted, fingerprint, lines)
        self._entries.move_to_end(key)
        self.stats.stores += 1
        self._shrink()

    def clear(self) -> None:
        """Drop all in-memory entries (spilled files are left on disk)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def _result_from_entry(
        self,
        job: EnumerationJob,
        entry: _Entry,
        order: Optional[List[Any]],
        apply_limit: bool = True,
    ) -> JobResult:
        return entry_result(
            job, entry.payload, entry.canonical, entry.exhausted, order, apply_limit
        )

    # ------------------------------------------------------------------
    # LRU + spill machinery
    # ------------------------------------------------------------------
    def _load(self, key: str) -> Optional[_Entry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if self.spill_dir is None:
            return None
        path = self._spill_path(key)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        self.stats.disk_hits += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._shrink(exclude=key)
        return entry

    def _shrink(self, exclude: Optional[str] = None) -> None:
        while len(self._entries) > self.maxsize:
            key = next(iter(self._entries))
            if key == exclude:  # pragma: no cover - maxsize >= 1 guards this
                break
            entry = self._entries.pop(key)
            self.stats.evictions += 1
            if self.spill_dir is not None:
                self._spill(key, entry)

    def _spill(self, key: str, entry: _Entry) -> None:
        os.makedirs(self.spill_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.spill_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle)
            os.replace(tmp, self._spill_path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _spill_path(self, key: str) -> str:
        return os.path.join(self.spill_dir, f"{key}.pkl")
