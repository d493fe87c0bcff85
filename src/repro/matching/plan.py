"""Plan-compiled pattern matching: one step program, one executor.

The seed matcher re-derived everything per call: candidate sets from
scratch, ``sorted(candidates[variable])`` inside every backtracking
frame, successor-set copies for every edge check.  This module splits
that work into three reusable layers:

* **candidate pools** — :func:`compile_sigma`: each pattern's
  :func:`~repro.matching.candidates.candidate_sets`, frozen and cached
  in the graph's :class:`~repro.matching.view.PoolView` per (graph
  version, index attachment), so repeated matching of an unmutated
  graph derives them once;
* a **pattern program** — the binding order ranked from the effective
  pool sizes and the step list for that order (scan / extend-forward /
  extend-backward / edge-check / self-loop-check), memoized per
  ``(pattern, effective pool sizes)`` (:func:`_pool_program`) since
  patterns are immutable and shared across dependencies;
* an **iterative executor** (:func:`_execute`) — an explicit-stack
  enumerator whose per-depth candidates come from intersecting the
  variable's pool with the adjacency rows of already-bound neighbors
  (smallest operand first), instead of scanning the pool and probing
  every edge per candidate.  Run as a count, it walks the same frames
  and adds the deepest step's candidate count instead of binding it,
  so support counting builds no match dicts and sorts nothing.

:func:`execute_over_pools` runs the executor over any candidate pools,
straight on the graph's own adjacency sets (:func:`_adjacency_rows`):
nothing of O(|G|) is built per call or per graph version.  Pools are
read, never copied, so a caller may pass live graph sets — the
streaming delta kernel runs once per (Σ group, pattern variable) with
that variable's pool replaced by a pin set of the batch's nodes, and
once per (Σ group, pattern edge) with the edge's two end pools replaced
by the sources and targets of the batch's added edges; every other
variable keeps its :meth:`~repro.graph.graph.Graph.label_row` set, on a
graph that mutates every batch.  Every other consumer passes
:func:`compile_sigma`'s cached pools.

**Byte-identity.**  The executor yields exactly the seed matcher's
stream: the pools are the seed's own candidate sets, the variable order
is the same cost ranking the seed used (candidate cardinality, then
pattern degree, then name — see
:func:`repro.matching.candidates.order_for_sizes`), the scanned pools
are sorted by node id as the seed sorted them, and row membership is
equivalent to the seed's per-candidate edge checks.  The differential
suite (``tests/matching/test_plan_equivalence.py``) asserts this byte
for byte, with and without an index, under ``fixed`` / ``restrict`` /
``limit``.

Runtime parameters (``fixed`` / ``restrict``) shrink candidate pools
and therefore the order: the program is ranked from the *effective*
pool sizes.  ``restrict`` is the plan vocabulary's **attr-filter**
step: the validation layer derives those pools from X-literals via the
attribute inverted index and the executor intersects them in before
the search.

**Cost model.**  :func:`explain_pools` renders the program a run
executes, each step annotated with an estimate from
:func:`repro.indexing.stats.matching_cost_profile` (per-label degree
counters when an index is attached, one edge scan otherwise).  Because
the emitted order is part of the public contract, the estimates order
nothing that could change the stream.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Set as AbstractSet
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_

from repro.errors import PatternError
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.indexing.stats import matching_cost_profile
from repro.matching.candidates import candidate_sets, order_for_sizes
from repro.matching.view import get_view
from repro.patterns.labels import WILDCARD
from repro.patterns.pattern import Pattern
from repro.telemetry import metrics as _metrics

Match = dict[str, str]

_EMPTY: tuple = ()


# ----------------------------------------------------------------------
# Pattern programs (graph-independent, memoized per (pattern, order))
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCheck:
    """One membership probe against a bound variable's adjacency row.

    The candidate for this step must lie in the ``out_dir`` row (True =
    successors, False = predecessors) of the image bound at stack depth
    ``depth``.  ``label=None`` is the wildcard row.  ``via`` names the
    bound variable (explain output only).
    """

    out_dir: bool
    label: str | None
    depth: int
    via: str


@dataclass(frozen=True)
class PlanStep:
    """One executor step: bind ``variable`` at its depth.

    ``checks`` empty — a **scan** over the variable's pool;
    ``checks`` non-empty — an **extend** (forward and/or backward): the
    pool is intersected with every check's adjacency row.
    ``self_loops`` lists the labels of ``(v, ι, v)`` pattern edges,
    verified per candidate against its own successor row.
    """

    variable: str
    checks: tuple[EdgeCheck, ...]
    self_loops: tuple[str | None, ...]

    @property
    def kind(self) -> str:
        return "extend" if self.checks else "scan"


@lru_cache(maxsize=4096)
def _steps_for(pattern: Pattern, order: tuple[str, ...]) -> tuple[PlanStep, ...]:
    """The step list for one binding order (cached per pattern and
    order; :func:`_pool_program` reads it)."""
    depth_of = {variable: depth for depth, variable in enumerate(order)}
    steps: list[PlanStep] = []
    for depth, variable in enumerate(order):
        checks: list[EdgeCheck] = []
        loops: list[str | None] = []
        for label, target in pattern.out_edges(variable):
            wire = None if label == WILDCARD else label
            if target == variable:
                loops.append(wire)
            elif depth_of[target] < depth:
                # Edge v -> t with t bound: candidate ∈ pred(image_t).
                checks.append(EdgeCheck(False, wire, depth_of[target], target))
        for label, source in pattern.in_edges(variable):
            if source == variable:
                continue  # self-loop already covered via out_edges
            if depth_of[source] < depth:
                # Edge s -> v with s bound: candidate ∈ succ(image_s).
                wire = None if label == WILDCARD else label
                checks.append(EdgeCheck(True, wire, depth_of[source], source))
        steps.append(PlanStep(variable, tuple(checks), tuple(loops)))
    return tuple(steps)


# ----------------------------------------------------------------------
# The iterative executor
# ----------------------------------------------------------------------


class _ExecObserver:
    """Per-run execution accounting, created only when telemetry is on.

    Accumulates locally (plain ints and one local histogram — no sink
    traffic inside the enumeration) and flushes once per run: global
    counters ``plan.frames_expanded`` / ``plan.candidates_produced`` /
    ``plan.intersections``, the ``plan.frame_candidates`` size
    histogram, and — when the caller passed one — the run's own
    per-variable totals into ``target``, which :func:`explain_pools`
    renders next to its estimates.
    """

    __slots__ = ("per_var", "sizes", "target", "_counts", "_bounds")

    def __init__(self, target: dict | None = None):
        self.per_var: dict[str, list[int]] = {}
        self.sizes = _metrics.Histogram(_metrics.DEFAULT_BOUNDS)
        self.target = target
        # Hot-path locals: only the bucket increment happens per frame;
        # the histogram's sum/count are derivable from the per-variable
        # totals and patched in at flush time.
        self._counts = self.sizes.counts
        self._bounds = self.sizes.bounds

    def frame(self, variable: str, produced: int, probes: int) -> None:
        entry = self.per_var.get(variable)
        if entry is None:
            entry = self.per_var[variable] = [0, 0, 0]
        entry[0] += 1
        entry[1] += produced
        entry[2] += probes
        self._counts[bisect_left(self._bounds, produced)] += 1

    def flush(self, sink) -> None:
        per_var = self.per_var
        if not per_var:
            return
        frames = sum(entry[0] for entry in per_var.values())
        produced = sum(e[1] for e in per_var.values())
        sink.incr("plan.frames_expanded", frames)
        sink.incr("plan.candidates_produced", produced)
        sink.incr("plan.intersections", sum(e[2] for e in per_var.values()))
        self.sizes.count = frames
        self.sizes.sum = produced
        sink.merge_histogram("plan.frame_candidates", self.sizes)
        if self.target is not None:
            for variable, entry in per_var.items():
                totals = self.target.get(variable)
                if totals is None:
                    self.target[variable] = list(entry)
                else:
                    totals[0] += entry[0]
                    totals[1] += entry[1]
                    totals[2] += entry[2]


def _execute(order, steps, pools_sorted, pools_set, row_set, limit, observer=None, count=False):
    """Enumerate matches with an explicit stack.

    ``pools_sorted`` holds each scanned variable's effective candidate
    pool in ascending order, ``pools_set`` every variable's pool as a
    set; ``row_set(out_dir, label, image)`` returns an adjacency row as
    a set.  Yields matches in ascending lexicographic order of the
    binding order — the seed matcher's exact stream.

    ``count=True`` yields one int instead: the length of the unlimited
    stream, which :func:`_count_frames` computes over this run's own
    frame function without building a match.  Selecting it here, once
    per run, keeps the match path free of an extra call.  A count needs
    no order, so it sorts nothing: frame results stay unsorted and
    ``pools_sorted`` may hold the unsorted pools.
    """
    k = len(order)
    last = k - 1
    emitted = 0
    assign = [None] * k
    arrange = _as_is if count else sorted

    def candidates_at(depth: int):
        step = steps[depth]
        checks = step.checks
        if checks:
            operands = [pools_set[step.variable]]
            for check in checks:
                row = row_set(check.out_dir, check.label, assign[check.depth])
                if not row:
                    if observer is not None:
                        # len(operands) == adjacency rows probed so far
                        # (the pool slot stands in for the failing row).
                        observer.frame(step.variable, 0, len(operands))
                    return _EMPTY
                operands.append(row)
            operands.sort(key=len)
            # ``&`` rather than ``.intersection``: a pool may be a live
            # dict-keys view (the wildcard label row), which ``&``
            # intersects in O(other operand) instead of iterating.
            found = reduce(and_, operands)
            if step.self_loops:
                loops = step.self_loops
                found = [
                    image
                    for image in found
                    if all(image in row_set(True, wire, image) for wire in loops)
                ]
            result = arrange(found)
            if observer is not None:
                observer.frame(step.variable, len(result), len(checks))
            return result
        pool = pools_sorted[step.variable]
        if step.self_loops:
            loops = step.self_loops
            result = [
                image
                for image in pool
                if all(image in row_set(True, wire, image) for wire in loops)
            ]
            if observer is not None:
                observer.frame(step.variable, len(result), 0)
            return result
        if observer is not None:
            observer.frame(step.variable, len(pool), 0)
        return pool

    if count:
        yield _count_frames(candidates_at, assign, last)
        return
    stack = [iter(candidates_at(0))]
    while stack:
        depth = len(stack) - 1
        frame = stack[-1]
        if depth == last:
            for image in frame:
                assign[depth] = image
                emitted += 1
                yield dict(zip(order, assign))
                if limit is not None and emitted >= limit:
                    return
            stack.pop()
        else:
            descended = False
            for image in frame:
                assign[depth] = image
                below = candidates_at(depth + 1)
                if below:
                    stack.append(iter(below))
                    descended = True
                    break
                # Fruitless descent: the seed recursed into an empty
                # frame, returned, and *then* checked the limit — which
                # matters for the degenerate limit<=0 case (0 >= limit
                # stops the whole enumeration there, before any yield).
                if limit is not None and emitted >= limit:
                    return
            if not descended:
                stack.pop()


def _as_is(found):
    return found


def _count_frames(candidates_at, assign, last: int) -> int:
    """Count :func:`_execute`'s unlimited stream from its frame function:
    for each image bound one level above the deepest step (``last``),
    add the number of candidates that step produces."""
    top = candidates_at(0)
    if last == 0:
        return len(top)
    total = 0
    stack = [iter(top)]
    while stack:
        depth = len(stack) - 1
        frame = stack[-1]
        if depth == last - 1:
            for image in frame:
                assign[depth] = image
                total += len(candidates_at(last))
            stack.pop()
            continue
        for image in frame:
            assign[depth] = image
            below = candidates_at(depth + 1)
            if below:
                stack.append(iter(below))
                break
        else:
            stack.pop()
    return total


# ----------------------------------------------------------------------
# Candidate pools, cached per (graph version, index attachment)
# ----------------------------------------------------------------------


def compile_sigma(
    graph: Graph, patterns: Iterable[Pattern]
) -> dict[Pattern, dict[str, frozenset[str]]]:
    """The candidate pools of each distinct pattern of a rule set, in
    first-appearance order: :func:`~repro.matching.candidates.candidate_sets`,
    frozen, and cached in the graph's
    :class:`~repro.matching.view.PoolView` per (graph version, index
    attachment).

    These are the seed matcher's own pools, so :func:`execute_over_pools`
    over them emits the seed's stream.  Every consumer but the streaming
    delta kernel matches over them.
    """
    cache = get_view(graph).pools
    indexed = get_index(graph) is not None
    compiled = {}
    for pattern in dict.fromkeys(patterns):
        pools = cache.get((pattern, indexed))
        if pools is None:
            pools = cache[(pattern, indexed)] = {
                variable: frozenset(pool)
                for variable, pool in candidate_sets(pattern, graph).items()
            }
        compiled[pattern] = pools
    return compiled


# ----------------------------------------------------------------------
# Running the executor over candidate pools on a (possibly mutating) graph
# ----------------------------------------------------------------------


def _adjacency_rows(graph: Graph):
    """A ``row_set`` provider over the graph's own adjacency indexes.

    Labeled rows are the internal per-label sets (no copies); wildcard
    rows are unions built lazily and cached for the duration of one
    executor run.
    """
    any_out: dict[str, set[str]] = {}
    any_in: dict[str, set[str]] = {}

    def row_set(out_dir: bool, label: str | None, node_id: str):
        if label is None:
            cache = any_out if out_dir else any_in
            row = cache.get(node_id)
            if row is None:
                row = graph.successors(node_id) if out_dir else graph.predecessors(node_id)
                cache[node_id] = row
            return row
        return graph.out_row(node_id, label) if out_dir else graph.in_row(node_id, label)

    return row_set


@lru_cache(maxsize=512)
def _pool_program(
    pattern: Pattern, sizes: tuple[int, ...]
) -> tuple[tuple[str, ...], tuple[PlanStep, ...], tuple[str, ...]]:
    """The binding order, step list and scanned variables for one
    ``(pattern, effective pool sizes)`` — ``sizes`` in
    ``pattern.variables`` order.

    The order is a pure function of the sizes, so a caller that runs
    the same pattern over pools of the same sizes many times (the shard
    kernel: one call per shard) ranks the variables once instead of
    once per call.  The streaming delta kernel's pin sets and label
    rows change size from batch to batch, so its entries mostly serve
    one run; the small bound lets the stale ones age out.
    """
    order = tuple(order_for_sizes(pattern, dict(zip(pattern.variables, sizes))))
    steps = _steps_for(pattern, order)
    return order, steps, tuple(step.variable for step in steps if not step.checks)


def _effective_pools(
    pattern: Pattern,
    graph: Graph,
    candidates: Mapping[str, "AbstractSet[str]"],
    fixed: Mapping[str, str] | None,
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None,
) -> dict[str, "AbstractSet[str]"] | None:
    """Each variable's pool after ``restrict`` and ``fixed``, keyed in
    ``pattern.variables`` order — ``None`` when a pinned node can never
    host its variable.  Raises the seed matcher's errors for a variable
    outside the pattern or a pinned node outside the graph."""
    fixed = fixed or {}
    for variable, node_id in fixed.items():
        if not pattern.has_variable(variable):
            raise PatternError(f"fixed variable {variable!r} is not in the pattern")
        if not graph.has_node(node_id):
            raise PatternError(f"fixed image {node_id!r} is not a node of the graph")
    pools = {variable: candidates[variable] for variable in pattern.variables}
    if restrict:
        for variable, pool in restrict.items():
            if not pattern.has_variable(variable):
                raise PatternError(f"restricted variable {variable!r} is not in the pattern")
            pools[variable] = pools[variable] & pool
    for variable, node_id in fixed.items():
        if node_id not in pools[variable]:
            return None
        pools[variable] = {node_id}
    return pools


def execute_over_pools(
    pattern: Pattern,
    graph: Graph,
    candidates: Mapping[str, "AbstractSet[str]"],
    fixed: Mapping[str, str] | None = None,
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
    limit: int | None = None,
    observed: dict[str, list[int]] | None = None,
) -> Iterator[Match]:
    """Run the plan executor over candidate pools.

    The binding order and pattern program come from the
    :func:`_pool_program` memo and adjacency rows from the graph's own
    indexes.  Pools are read, never mutated or copied: only the ones
    ``restrict`` / ``fixed`` narrow are replaced, and only the pools
    the executor scans (steps with no edge check) are sorted.  A pool
    may therefore be a live graph set — the streaming delta kernel
    passes :meth:`~repro.graph.graph.Graph.label_row` sets, with one
    variable's pool replaced by the batch's node pins, once per
    (Σ group, variable), or one pattern edge's end pools by its edge
    pins, once per (Σ group, pattern edge); the small pin set opens
    its component, so the per-batch work stays proportional to the
    update's neighborhood.

    ``observed``, when given, receives this run's per-variable
    ``[frames, candidates, row probes]`` totals if telemetry is enabled
    (:func:`explain_pools` renders them).
    """
    pools = _effective_pools(pattern, graph, candidates, fixed, restrict)
    if pools is None:
        return  # The pinned node can never host this variable.
    # ``pools`` is keyed in ``pattern.variables`` order.
    order, steps, scanned = _pool_program(pattern, tuple(map(len, pools.values())))
    pools_sorted = {variable: sorted(pools[variable]) for variable in scanned}
    sink = _metrics.sink()
    if not sink.enabled:
        yield from _execute(order, steps, pools_sorted, pools, _adjacency_rows(graph), limit)
        return
    observer = _ExecObserver(observed)
    try:
        yield from _execute(
            order, steps, pools_sorted, pools, _adjacency_rows(graph), limit, observer
        )
    finally:
        observer.flush(_metrics.sink())


def count_over_pools(
    pattern: Pattern, graph: Graph, candidates: Mapping[str, "AbstractSet[str]"]
) -> int:
    """The length of ``execute_over_pools(pattern, graph, candidates)``'s
    stream, counted over the same frames without building a match or
    sorting a pool (:func:`_count_frames`)."""
    pools = {variable: candidates[variable] for variable in pattern.variables}
    order, steps, _ = _pool_program(pattern, tuple(map(len, pools.values())))
    observer = _ExecObserver() if _metrics.sink().enabled else None
    run = _execute(order, steps, pools, pools, _adjacency_rows(graph), None, observer, count=True)
    try:
        return next(run)
    finally:
        if observer is not None:
            observer.flush(_metrics.sink())


def explain_pools(
    pattern: Pattern,
    graph: Graph,
    candidates: Mapping[str, "AbstractSet[str]"],
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
    observed: Mapping[str, list[int]] | None = None,
) -> str:
    """A stable, human-readable rendering of the program
    :func:`execute_over_pools` runs over ``candidates`` narrowed by
    ``restrict``: its binding order, each step's effective pool size,
    edge checks and self-loop checks, and an estimated per-frame cost
    from ``graph``'s :func:`~repro.indexing.stats.matching_cost_profile`.

    With ``observed`` (a run's totals, see :func:`execute_over_pools`),
    each step additionally shows what that run did — frames expanded,
    candidates produced (and the per-frame mean, directly comparable to
    the ``est. ~X/frame`` estimate), and adjacency rows probed.
    """
    pools = _effective_pools(pattern, graph, candidates, None, restrict)
    _, steps, _ = _pool_program(pattern, tuple(map(len, pools.values())))
    profile = matching_cost_profile(graph)
    lines = [
        f"match plan for Q[{', '.join(pattern.variables)}] — "
        f"graph: {graph.num_nodes} node(s), {graph.num_edges} edge(s), "
        f"{'indexed' if get_index(graph) is not None else 'unindexed'} pools"
    ]
    for depth, step in enumerate(steps):
        pool = len(pools[step.variable])
        head = (
            f"  step {depth + 1}: {step.kind} {step.variable} "
            f"[label {pattern.label_of(step.variable)}] — pool {pool} candidate(s)"
        )
        estimate = float(pool)
        if step.checks:
            probes = ", ".join(
                (
                    f"{step.variable} -[{check.label or '_'}]-> {check.via}"
                    if not check.out_dir
                    else f"{check.via} -[{check.label or '_'}]-> {step.variable}"
                )
                for check in step.checks
            )
            head += f" ∩ {{{probes}}}"
            fanouts = (profile.fanout(check.label) for check in step.checks)
            estimate = min([estimate] + [f for f in fanouts if f is not None])
        if step.self_loops:
            loops = ", ".join(wire or "_" for wire in step.self_loops)
            head += f"; self-loop check({loops})"
        head += f"  [est. ~{estimate:.1f}/frame]"
        if observed is not None:
            totals = observed.get(step.variable)
            if totals is None:
                head += "  [obs. not executed]"
            else:
                frames, produced, probed = totals
                mean = produced / frames if frames else 0.0
                head += (
                    f"  [obs. {frames} frame(s), ~{mean:.1f}/frame, "
                    f"{probed} row probe(s)]"
                )
        lines.append(head)
    if observed is not None and not observed:
        lines.append("  (no observed execution — run with telemetry enabled first)")
    return "\n".join(lines)


def program_cache_info():
    """Hit/miss counters of the order/program memo
    (:func:`_pool_program`, consulted by every run)."""
    return _pool_program.cache_info()


__all__ = [
    "EdgeCheck",
    "Match",
    "PlanStep",
    "compile_sigma",
    "count_over_pools",
    "execute_over_pools",
    "explain_pools",
    "program_cache_info",
]
