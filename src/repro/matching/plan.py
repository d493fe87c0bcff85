"""Plan-compiled pattern matching: compile once, execute many.

The seed matcher re-derived everything per call: candidate sets from
scratch, ``sorted(candidates[variable])`` inside every backtracking
frame, successor-set copies for every edge check.  This module splits
that work into three reusable layers:

* a **pattern program** — per variable-order step list (scan /
  extend-forward / extend-backward / edge-check / self-loop-check),
  memoized per ``(pattern, order)`` since patterns are immutable and
  shared across dependencies;
* a **:class:`MatchPlan`** — the program bound to one
  :class:`~repro.matching.view.GraphView`: candidate pools materialized
  once as sorted interned slot tuples (plus frozensets for C-speed
  intersection), the default variable order chosen by the cost model,
  and per-step cost estimates for ``explain``;
* an **iterative executor** (:func:`_execute`) — an explicit-stack
  enumerator whose per-depth candidates come from intersecting the
  variable's pool with the adjacency rows of already-bound neighbors
  (smallest operand first), instead of scanning the pool and probing
  every edge per candidate.  Run as a count, it walks the same frames
  and adds the deepest step's candidate count instead of binding it,
  so support counting builds no match dicts.

**Byte-identity.**  The executor yields exactly the seed matcher's
stream: canonical interning makes ascending slot order equal ascending
node-id order, the variable order is the same cost ranking the seed
used (candidate cardinality, then pattern degree, then name — see
:func:`repro.matching.candidates.order_for_sizes`), and row-membership
is equivalent to the seed's per-candidate edge checks.  The
differential suite (``tests/matching/test_plan_equivalence.py``)
asserts this byte for byte, with and without an index, under ``fixed``
/ ``restrict`` / ``limit``.

**Cost model.**  Pool cardinalities come from the same index-backed
pruner the seed consulted; extension fan-outs come from
:func:`repro.indexing.stats.matching_cost_profile` (per-label degree
counters when an index is attached, one edge scan otherwise).  Because
the emitted order is part of the public contract, the cost model ranks
variables with the seed's own key; its estimates additionally annotate
every step for ``cli explain`` and order nothing that could change the
stream.

Runtime parameters (``fixed`` / ``restrict``) shrink candidate pools
and therefore the order: :meth:`MatchPlan.matches` re-ranks variables
from the *effective* pool sizes — a cheap O(k²) pass — while reusing
the expensive artifacts (interning, CSR rows, materialized pools).
``restrict`` is the plan vocabulary's **attr-filter** step: the
validation layer derives those pools from X-literals via the attribute
inverted index and the executor intersects them in before the search.

:func:`execute_over_pools` is the view-free twin for callers that bring
their own candidate pools: same step programs, same executor, the
binding order memoized per (pattern, effective pool sizes), and
adjacency rows straight from the graph's internal per-label sets, so
no O(|G|) view build is paid.  Its callers are the streaming delta
kernel (pinned live label rows over a graph that mutates every batch)
and validation (:func:`compile_sigma`'s cached candidate pools: a
one-shot scan would never reuse a view).
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
from repro.indexing.stats import MatchCostProfile, matching_cost_profile
from repro.matching.candidates import candidate_sets, order_for_sizes
from repro.matching.view import GraphView, get_view
from repro.patterns.labels import WILDCARD
from repro.patterns.pattern import Pattern
from repro.telemetry import metrics as _metrics
from repro.utils.registry import WeakIdRegistry

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
    order; view-bound plans and :func:`_pool_program` share it)."""
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
# The iterative executor (shared by view mode and pool mode)
# ----------------------------------------------------------------------


class _ExecObserver:
    """Per-run execution accounting, created only when telemetry is on.

    Accumulates locally (plain ints and one local histogram — no sink
    traffic inside the enumeration) and flushes once per run: global
    counters ``plan.frames_expanded`` / ``plan.candidates_produced`` /
    ``plan.intersections``, the ``plan.frame_candidates`` size
    histogram, and — for view-bound plans — the plan's own ``observed``
    per-variable totals that :meth:`MatchPlan.explain` renders next to
    its estimates.
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


def _execute(
    order, steps, pools_sorted, pools_set, row_set, to_id, limit, observer=None, count=False
):
    """Enumerate matches with an explicit stack.

    ``pools_sorted`` / ``pools_set`` hold each variable's effective
    candidate pool (ascending sequence + set); ``row_set(out_dir,
    label, image)`` returns an adjacency row as a set; ``to_id`` maps
    executor-space images back to node-id strings.  Yields matches in
    ascending lexicographic order of the binding order — the seed
    matcher's exact stream.

    ``count=True`` yields one int instead: the length of the unlimited
    stream, which :func:`_count_frames` computes over this run's own
    frame function without building a match.  Selecting it here, once
    per run, keeps the match path free of an extra call.
    """
    k = len(order)
    last = k - 1
    emitted = 0
    assign = [0] * k

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
            # dict-keys view (pool mode's wildcard row), which ``&``
            # intersects in O(other operand) instead of iterating.
            found = reduce(and_, operands)
            if step.self_loops:
                loops = step.self_loops
                found = [
                    image
                    for image in found
                    if all(image in row_set(True, wire, image) for wire in loops)
                ]
            result = sorted(found)
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
                yield {order[d]: to_id(assign[d]) for d in range(k)}
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
# Compiled plans (pattern program × graph view × materialized pools)
# ----------------------------------------------------------------------


class MatchPlan:
    """A pattern compiled against one graph view.

    Build via :func:`compile_plan` (cached per view) — or, on engine
    workers, via :func:`install_plan` from a broadcast payload.
    """

    __slots__ = (
        "pattern",
        "view",
        "indexed",
        "pools_sorted",
        "pools_set",
        "order",
        "steps",
        "profile",
        "observed",
    )

    def __init__(
        self,
        pattern: Pattern,
        view: GraphView,
        indexed: bool,
        pool_slots: Mapping[str, "list[int] | tuple[int, ...]"],
        profile: MatchCostProfile,
    ):
        self.pattern = pattern
        self.view = view
        self.indexed = indexed
        self.pools_sorted: dict[str, tuple[int, ...]] = {}
        self.pools_set: dict[str, frozenset[int]] = {}
        for variable in pattern.variables:
            slots = tuple(pool_slots[variable])
            self.pools_sorted[variable] = slots
            self.pools_set[variable] = frozenset(slots)
        sizes = {v: len(self.pools_sorted[v]) for v in pattern.variables}
        self.order: tuple[str, ...] = tuple(order_for_sizes(pattern, sizes))
        self.steps: tuple[PlanStep, ...] = _steps_for(pattern, self.order)
        self.profile = profile
        #: Observed execution totals per variable — ``[frames,
        #: candidates, probes]`` — accumulated across telemetry-enabled
        #: runs of this plan (``explain(observed=True)`` renders them).
        self.observed: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    def matches(
        self,
        fixed: Mapping[str, str] | None = None,
        restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
        limit: int | None = None,
    ) -> Iterator[Match]:
        """Enumerate matches; same contract and stream as the seed
        matcher's ``fixed`` / ``restrict`` / ``limit`` parameters."""
        pattern = self.pattern
        view = self.view
        fixed_slots: dict[str, int] = {}
        if fixed:
            for variable, node_id in fixed.items():
                if not pattern.has_variable(variable):
                    raise PatternError(f"fixed variable {variable!r} is not in the pattern")
                slot = view.slot_of.get(node_id)
                if slot is None:
                    raise PatternError(f"fixed image {node_id!r} is not a node of the graph")
                fixed_slots[variable] = slot
        if not fixed_slots and not restrict:
            order, steps = self.order, self.steps
            pools_sorted, pools_set = self.pools_sorted, self.pools_set
        else:
            pools_set = dict(self.pools_set)
            if restrict:
                slot_of, node_of = view.slot_of, view.node_of
                for variable, pool in restrict.items():
                    if not pattern.has_variable(variable):
                        raise PatternError(
                            f"restricted variable {variable!r} is not in the pattern"
                        )
                    base = pools_set[variable]
                    if len(pool) < len(base):
                        pools_set[variable] = frozenset(
                            slot
                            for node_id in pool
                            if (slot := slot_of.get(node_id)) is not None and slot in base
                        )
                    else:
                        pools_set[variable] = frozenset(
                            slot for slot in base if node_of[slot] in pool
                        )
            for variable, slot in fixed_slots.items():
                if slot not in pools_set[variable]:
                    return  # The pinned node can never host this variable.
                pools_set[variable] = frozenset((slot,))
            sizes = {v: len(pools_set[v]) for v in pattern.variables}
            order = tuple(order_for_sizes(pattern, sizes))
            steps = _steps_for(pattern, order)
            pools_sorted = {
                v: self.pools_sorted[v]
                if pools_set[v] is self.pools_set[v]
                else tuple(sorted(pools_set[v]))
                for v in pattern.variables
            }
        sink = _metrics.sink()
        if not sink.enabled:
            yield from _execute(
                order,
                steps,
                pools_sorted,
                pools_set,
                view.row_set,
                view.node_of.__getitem__,
                limit,
            )
            return
        observer = _ExecObserver(self.observed)
        try:
            yield from _execute(
                order,
                steps,
                pools_sorted,
                pools_set,
                view.row_set,
                view.node_of.__getitem__,
                limit,
                observer,
            )
        finally:
            observer.flush(_metrics.sink())

    def count(self) -> int:
        """The number of matches, counted without materializing them
        (:func:`_count_frames`); equal to ``len(list(self.matches()))``."""
        observer = _ExecObserver(self.observed) if _metrics.sink().enabled else None
        run = _execute(
            self.order,
            self.steps,
            self.pools_sorted,
            self.pools_set,
            self.view.row_set,
            None,
            None,
            observer,
            count=True,
        )
        try:
            return next(run)
        finally:
            if observer is not None:
                observer.flush(_metrics.sink())

    # ------------------------------------------------------------------
    def step_cost(self, depth: int) -> float:
        """Estimated candidates examined at one step (explain output)."""
        step = self.steps[depth]
        pool = len(self.pools_sorted[step.variable])
        if not step.checks:
            return float(pool)
        fanouts = (self.profile.fanout(check.label) for check in step.checks)
        return min([float(pool)] + [f for f in fanouts if f is not None])

    def explain(self, observed: bool = False) -> str:
        """A stable, human-readable rendering of the compiled plan.

        With ``observed=True``, each step additionally shows the actual
        execution totals telemetry-enabled runs accumulated — frames
        expanded, candidates produced (and the per-frame mean, directly
        comparable to the ``est. ~X/frame`` estimate), and adjacency
        rows probed.  The default rendering is byte-identical to what it
        was before observation existed.
        """
        view = self.view
        lines = [
            f"match plan for Q[{', '.join(self.pattern.variables)}] — "
            f"view: {view.num_nodes} node(s), {view.num_edges} edge(s), "
            f"{'indexed' if self.indexed else 'unindexed'} pools"
        ]
        for depth, step in enumerate(self.steps):
            pool = len(self.pools_sorted[step.variable])
            label = self.pattern.label_of(step.variable)
            head = (
                f"  step {depth + 1}: {step.kind} {step.variable} "
                f"[label {label}] — pool {pool} candidate(s)"
            )
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
            if step.self_loops:
                loops = ", ".join(wire or "_" for wire in step.self_loops)
                head += f"; self-loop check({loops})"
            head += f"  [est. ~{self.step_cost(depth):.1f}/frame]"
            if observed:
                totals = self.observed.get(step.variable)
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
        if observed and not self.observed:
            lines.append(
                "  (no observed execution — run with telemetry enabled first)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchPlan({list(self.pattern.variables)!r}, order={list(self.order)!r}, "
            f"indexed={self.indexed})"
        )


def compile_plan(graph: Graph, pattern: Pattern) -> MatchPlan:
    """The compiled plan for ``(pattern, graph)`` — cached on the
    graph's current view, keyed by index attachment, and invalidated
    wholesale when the graph version moves (the view is replaced)."""
    view = get_view(graph)
    indexed = get_index(graph) is not None
    key = (pattern, indexed)
    plan = view.plans.get(key)
    if plan is None:
        pools = candidate_sets(pattern, graph)
        slot_of = view.slot_of
        pool_slots = {
            variable: sorted(slot_of[node_id] for node_id in pool)
            for variable, pool in pools.items()
        }
        plan = MatchPlan(pattern, view, indexed, pool_slots, _view_profile(view, graph))
        view.plans[key] = plan
        view.plan_compiles += 1
        _metrics.sink().incr("plan.compiles")
    else:
        _metrics.sink().incr("plan.cache_hits")
    return plan


# Validation's candidate pools, per graph: ``(version, {(pattern,
# indexed): pools})``.  Identity-keyed and weak like the view registry;
# a version bump replaces the whole entry.
_sigma_pools: WeakIdRegistry = WeakIdRegistry()


def compile_sigma(
    graph: Graph, patterns: Iterable[Pattern]
) -> dict[Pattern, dict[str, frozenset[str]]]:
    """The candidate pools of each distinct pattern of a rule set, in
    first-appearance order: :func:`~repro.matching.candidates.candidate_sets`,
    frozen, and cached per (graph version, index attachment).

    These are the pools a view-bound :class:`MatchPlan` interns, so
    :func:`execute_over_pools` over them ranks the variables — and
    emits the matches — exactly as the plan would, without building a
    view.  Validation scans run this way.
    """
    entry = _sigma_pools.get(graph)
    if entry is None or entry[0] != graph.version:
        entry = (graph.version, {})
        _sigma_pools.set(graph, entry)
    cache = entry[1]
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


def release_sigma_pools(graph: Graph) -> None:
    """Drop ``graph``'s cached validation pools.

    For a caller that scans a graph once and then mutates it (a ledger
    bootstrap): the entry would otherwise stay, never read again, until
    the next :func:`compile_sigma` call on that graph.
    """
    _sigma_pools.pop(graph)


def _view_profile(view: GraphView, graph: Graph) -> MatchCostProfile:
    """The view's cost profile, computed once per (graph, version) —
    not once per pattern (one full node+edge pass either way)."""
    profile = view.cost_profile
    if profile is None:
        profile = view.cost_profile = matching_cost_profile(graph)
    return profile


def install_plan(
    graph: Graph,
    pattern: Pattern,
    pool_slots: Mapping[str, "tuple[int, ...] | list[int]"],
) -> MatchPlan | None:
    """Install a coordinator-compiled plan from its broadcast pools.

    Engine workers call this while restoring a snapshot: the slots are
    valid verbatim because canonical interning assigns identical slots
    to identical node sets.  Returns ``None`` (and compiles lazily on
    first use instead) if the payload does not line up with the
    restored graph.
    """
    view = get_view(graph)
    n = view.num_nodes
    for pool in pool_slots.values():
        if any(slot >= n for slot in pool):
            return None
    indexed = get_index(graph) is not None
    plan = MatchPlan(pattern, view, indexed, pool_slots, _view_profile(view, graph))
    view.plans[(pattern, indexed)] = plan
    view.plan_installs += 1
    _metrics.sink().incr("plan.installs")
    return plan


# ----------------------------------------------------------------------
# Pool mode: caller-supplied candidates over a (possibly mutating) graph
# ----------------------------------------------------------------------


def _identity(value: str) -> str:
    return value


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
    """Pool mode's binding order, step list and scanned variables for
    one ``(pattern, effective pool sizes)`` — ``sizes`` in
    ``pattern.variables`` order.

    The order is a pure function of the sizes, so a caller that runs
    the same pattern over pools of the same sizes many times (the
    streaming delta kernel: one call per pinned node) ranks the
    variables once instead of once per call.  Label-pool sizes drift
    as a streamed graph grows, so entries mostly serve one batch; the
    small bound lets the stale ones age out.
    """
    order = tuple(order_for_sizes(pattern, dict(zip(pattern.variables, sizes))))
    steps = _steps_for(pattern, order)
    return order, steps, tuple(step.variable for step in steps if not step.checks)


def execute_over_pools(
    pattern: Pattern,
    graph: Graph,
    candidates: Mapping[str, "AbstractSet[str]"],
    fixed: Mapping[str, str] | None = None,
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
    limit: int | None = None,
) -> Iterator[Match]:
    """Run the plan executor over caller-supplied candidate pools.

    This is the view-free path: no interning, no O(|G|) build — the
    binding order and pattern program come from the
    :func:`_pool_program` memo and adjacency rows from the graph's own
    indexes.  Pools are read, never mutated or copied: only the ones
    ``restrict`` / ``fixed`` narrow are replaced, and only the pools
    the executor scans (steps with no edge check) are sorted.  A pool
    may therefore be a live graph set — the streaming delta kernel
    passes :meth:`~repro.graph.graph.Graph.label_row` sets and pins
    one variable per call, so its per-batch work stays proportional
    to the update's neighborhood.
    """
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
            return  # The pinned node can never host this variable.
        pools[variable] = {node_id}
    # ``pools`` is keyed in ``pattern.variables`` order.
    order, steps, scanned = _pool_program(pattern, tuple(map(len, pools.values())))
    pools_sorted = {variable: sorted(pools[variable]) for variable in scanned}
    sink = _metrics.sink()
    if not sink.enabled:
        yield from _execute(
            order, steps, pools_sorted, pools, _adjacency_rows(graph), _identity, limit
        )
        return
    observer = _ExecObserver()
    try:
        yield from _execute(
            order,
            steps,
            pools_sorted,
            pools,
            _adjacency_rows(graph),
            _identity,
            limit,
            observer,
        )
    finally:
        observer.flush(_metrics.sink())


def program_cache_info():
    """Hit/miss counters of pool mode's order/program memo
    (:func:`_pool_program`, consulted by every pool-mode run)."""
    return _pool_program.cache_info()


__all__ = [
    "EdgeCheck",
    "Match",
    "MatchPlan",
    "PlanStep",
    "compile_plan",
    "compile_sigma",
    "execute_over_pools",
    "install_plan",
    "program_cache_info",
    "release_sigma_pools",
]
