"""Command-line interface for the GED toolchain.

Operates on JSON files in the formats of :mod:`repro.graph.io` and
:mod:`repro.deps.io`::

    python -m repro.cli validate --graph kb.json --rules rules.json
    python -m repro.cli validate --graph kb.json --rules rules.json --index
    python -m repro.cli satisfiable --rules rules.json
    python -m repro.cli implies --rules rules.json --phi target.json
    python -m repro.cli chase --graph kb.json --rules keys.json -o out.json
    python -m repro.cli repair --graph kb.json --rules rules.json -o clean.json
    python -m repro.cli discover --graph kb.json --min-support 3 -o rules.json
    python -m repro.cli cover --rules rules.json -o cover.json
    python -m repro.cli pvalidate --graph kb.json --rules rules.json --backend engine --workers 4
    python -m repro.cli pvalidate --graph kb.json --rules rules.json --backend fragment
    python -m repro.cli partition --graph kb.json --fragments 4 --mode greedy
    python -m repro.cli index --graph kb.json [--rules rules.json]
    python -m repro.cli explain --graph kb.json --rules rules.json --index
    python -m repro.cli engine --graph kb.json --rules rules.json --workers 4
    python -m repro.cli stream --log updates.jsonl --rules rules.json --index
    python -m repro.cli serve --log updates.jsonl --rules rules.json --graph kb.json
    python -m repro.cli subscribe --port 4200 --label city --rule one-capital
    python -m repro.cli stats --graph kb.json --rules rules.json --backend fragment
    python -m repro.cli pvalidate --graph kb.json --rules rules.json \
        --backend engine --telemetry ndjson:run.ndjson
    python -m repro.cli trace run.ndjson

Rule files contain either a single GED dictionary or a list of them.
Exit status: 0 for "yes/clean", 1 for "no/violations", 2 for usage or
input errors — scriptable in data-quality pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.chase.engine import chase
from repro.deps.io import ged_from_dict
from repro.errors import ReproError
from repro.graph.io import graph_from_json, graph_to_json
from repro.reasoning.implication import check_implication
from repro.reasoning.satisfiability import check_satisfiability
from repro.reasoning.validation import find_violations


def load_rules(path: str):
    """Load a JSON rule file (one GED dict or a list of them)."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = [data]
    return [ged_from_dict(entry) for entry in data]


def load_graph(path: str):
    """Load a JSON graph file (repro.graph.io format)."""
    return graph_from_json(Path(path).read_text())


def cmd_validate(args: argparse.Namespace) -> int:
    """`validate`: list violations of Σ in G; exit 1 when dirty."""
    graph = load_graph(args.graph)
    rules = load_rules(args.rules)
    if getattr(args, "index", False):
        from repro.indexing import attach_index

        attach_index(graph)
    violations = find_violations(graph, rules, limit=args.limit)
    print(f"{len(violations)} violation(s)")
    for violation in violations:
        print(f"  {violation}")
    return 0 if not violations else 1


def cmd_satisfiable(args: argparse.Namespace) -> int:
    """`satisfiable`: the Theorem 2 check; exit 1 when unsatisfiable."""
    rules = load_rules(args.rules)
    outcome = check_satisfiability(rules)
    print("satisfiable" if outcome.satisfiable else f"unsatisfiable: {outcome.reason}")
    return 0 if outcome.satisfiable else 1


def cmd_implies(args: argparse.Namespace) -> int:
    """`implies`: the Theorem 4 check; exit 1 when not implied."""
    rules = load_rules(args.rules)
    (phi,) = load_rules(args.phi)
    outcome = check_implication(rules, phi)
    if outcome.implied:
        print(f"implied ({outcome.mode})")
        return 0
    missing = ", ".join(str(l) for l in outcome.missing)
    print(f"not implied; underivable literals: {missing}")
    return 1


def cmd_chase(args: argparse.Namespace) -> int:
    """`chase`: chase G by Σ, optionally writing the coercion."""
    graph = load_graph(args.graph)
    rules = load_rules(args.rules)
    result = chase(graph, rules)
    if not result.consistent:
        print(f"chase inconsistent: {result.reason}")
        return 1
    merged = sum(1 for c in result.eq.node_classes() if len(c) > 1)
    print(f"chase valid: {len(result.steps)} step(s), {merged} merged class(es)")
    if args.output:
        Path(args.output).write_text(graph_to_json(result.graph, indent=2))
        print(f"coerced graph written to {args.output}")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    """`repair`: greedy violation-driven repair; exit 1 when dirty."""
    from repro.repair import CostModel, repair

    graph = load_graph(args.graph)
    rules = load_rules(args.rules)
    model = CostModel()
    report = repair(
        graph,
        rules,
        cost_model=model,
        max_operations=args.max_operations,
        allow_backward=not args.forward_only,
        suggest_workers=args.suggest_workers,
    )
    print(report.summary())
    if args.output:
        Path(args.output).write_text(graph_to_json(report.graph, indent=2))
        print(f"repaired graph written to {args.output}")
    return 0 if report.clean else 1


def cmd_discover(args: argparse.Namespace) -> int:
    """`discover`: mine GFDs from a graph; exit 1 when none found."""
    from repro.deps.io import ged_to_dict
    from repro.discovery import discover_gfds

    graph = load_graph(args.graph)
    rules = discover_gfds(
        graph,
        max_lhs=args.max_lhs,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        include_paths=args.paths,
        include_forks=args.forks,
        workers=args.workers,
    )
    print(f"{len(rules)} rule(s) discovered")
    for rule in rules:
        print(f"  {rule}")
    if args.output:
        payload = [ged_to_dict(rule.ged) for rule in rules]
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"rules written to {args.output}")
    return 0 if rules else 1


def cmd_cover(args: argparse.Namespace) -> int:
    """`cover`: minimize a rule set (structural dedup + implication)."""
    from repro.deps.io import ged_to_dict
    from repro.optimization import compute_cover

    rules = load_rules(args.rules)
    report = compute_cover(rules)
    print(
        f"cover: {len(rules)} -> {len(report.cover)} "
        f"({len(report.structural_duplicates)} duplicate(s), "
        f"{len(report.implied)} implied)"
    )
    if args.output:
        payload = [ged_to_dict(ged) for ged in report.cover]
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"cover written to {args.output}")
    return 0


def cmd_pvalidate(args: argparse.Namespace) -> int:
    """`pvalidate`: sharded validation; exit 1 when dirty."""
    from repro.parallel import parallel_find_violations

    graph = load_graph(args.graph)
    rules = load_rules(args.rules)
    if getattr(args, "index", False):
        from repro.indexing import attach_index

        attach_index(graph)
    report = parallel_find_violations(
        graph,
        rules,
        workers=args.workers,
        backend=args.backend,
        fragment_mode=getattr(args, "fragment_mode", "hash"),
    )
    print(
        f"{len(report.violations)} violation(s) "
        f"[{report.backend}, {report.workers} worker(s), "
        f"{report.total_matches()} matches, balance {report.balance():.2f}"
        f"{', indexed' if report.indexed else ''}]"
    )
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.valid else 1


def cmd_engine(args: argparse.Namespace) -> int:
    """`engine`: snapshot/pool stats, then engine-pooled validation.

    Shows what the persistent runtime buys: the broadcast snapshot size
    versus naively pickling the graph, the scheduler's costed work
    queue, and — with ``--rules`` — cold-versus-warm wall clock for
    repeated validations on the same pool.
    """
    import pickle
    import time

    from repro.engine import get_pool, plan_tasks
    from repro.parallel import parallel_find_violations

    graph = load_graph(args.graph)
    pool = get_pool(graph, args.workers, ensure_index=not args.no_index)
    naive = len(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))
    compact = pool.broadcast_bytes
    print(
        f"snapshot: {compact} byte(s) broadcast once "
        f"(naive per-task graph pickle: {naive} byte(s), "
        f"{naive / compact:.1f}x larger)"
    )
    print(
        f"pool: {pool.workers} worker(s), graph version {pool.version}, "
        f"{'indexed' if pool.indexed else 'unindexed'}"
    )
    if not args.rules:
        return 0

    rules = load_rules(args.rules)
    units = plan_tasks(graph, rules, pool.workers)
    print(f"work queue ({len(units)} unit(s), largest estimated cost first):")
    for unit in units[:10]:
        print(f"  {unit}")
    if len(units) > 10:
        print(f"  ... {len(units) - 10} more")

    report = None
    for attempt in range(max(1, args.repeat)):
        started = time.perf_counter()
        report = parallel_find_violations(
            graph, rules, workers=pool.workers, backend="engine"
        )
        wall = time.perf_counter() - started
        label = "cold" if attempt == 0 else "warm"
        print(
            f"run {attempt + 1} ({label}): {wall * 1000:.1f} ms, "
            f"{len(report.violations)} violation(s), "
            f"{report.total_matches()} match(es)"
        )
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.valid else 1


def cmd_partition(args: argparse.Namespace) -> int:
    """`partition`: edge-cut the graph, print fragment + broadcast stats.

    Shows what the fragmented core buys: per-fragment interior/border
    sizes, the cut and replication totals, partition balance, and the
    per-worker broadcast payloads versus the whole-graph snapshot
    (fragment-resident workers receive only their fragment).  With
    ``--rules``, also reports how much of each dependency's pivot work
    is locally decidable under the ball-completeness rule.
    """
    from repro.engine.snapshot import snapshot_fragments, snapshot_graph, snapshot_size
    from repro.graph.fragments import fragment_stats, partition_graph

    graph = load_graph(args.graph)
    fragmentation = partition_graph(graph, args.fragments, args.mode)
    stats = fragment_stats(fragmentation)
    print(
        f"partition: {stats['k']} fragment(s), mode {stats['mode']}, "
        f"{stats['cut_edges']} cut edge(s), {stats['replicated_nodes']} "
        f"border replica(s), balance {stats['balance']:.2f}"
    )
    whole_bytes = snapshot_size(snapshot_graph(graph))
    payload_sizes = [len(s.payload()) for s in snapshot_fragments(fragmentation)]
    for entry, payload in zip(stats["fragments"], payload_sizes):
        print(
            f"  fragment {entry['fragment']}: {entry['interior']} interior + "
            f"{entry['border']} border node(s), {entry['local_edges']} edge(s), "
            f"{payload} byte(s) broadcast"
        )
    largest = max(payload_sizes, default=0)
    print(
        f"broadcast: whole graph {whole_bytes} byte(s) per worker; "
        f"fragment-resident max {largest} byte(s) "
        f"({largest / whole_bytes:.2f}x) / total {sum(payload_sizes)} byte(s)"
    )
    if args.rules:
        from repro.parallel.validate import plan_fragment_pivots

        rules = load_rules(args.rules)
        print(f"ball-completeness over {len(rules)} rule(s):")
        for ged in rules:
            _, per_fragment, escalated = plan_fragment_pivots(graph, ged, fragmentation)
            local = sum(len(pivots) for _, pivots in per_fragment)
            total = local + len(escalated)
            percent = 100.0 * local / total if total else 100.0
            print(
                f"  {ged.name or 'GED'}: {local}/{total} pivot(s) fragment-local "
                f"({percent:.0f}%), {len(escalated)} escalated"
            )
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """`stream`: replay an update log, emit NDJSON violation deltas.

    One JSON line per event on stdout: a ``bootstrap`` line (the full
    validation of the base state), one ``delta`` line per batch
    (introduced / retired / updated violations), and a closing
    ``summary`` line.  The base graph comes from ``--graph`` or, when
    omitted, from the log's leading checkpoint.  Exit 1 when violations
    remain after the final batch.
    """
    from repro.graph.io import graph_from_arrays, scan_update_log, update_from_dict
    from repro.streaming import ViolationLedger, violation_to_dict

    rules = load_rules(args.rules)
    # Raw scan: checkpoint graphs are only decoded when they serve as
    # the base, and updates stream straight into the ledger — one delta
    # line out per record in, without materializing the log.
    records = scan_update_log(args.log)
    base_seq = 0
    if args.graph:
        graph = load_graph(args.graph)
    else:
        first = next(records, None)
        if first is None or first["type"] != "checkpoint":
            print(
                "error: no --graph given and the log does not start with a checkpoint",
                file=sys.stderr,
            )
            return 2
        graph = graph_from_arrays(first["arrays"])
        base_seq = first["seq"]
    if getattr(args, "index", False):
        from repro.indexing import attach_index

        attach_index(graph)
    with ViolationLedger(
        graph,
        rules,
        backend=args.backend,
        workers=args.workers,
        fragment_mode=getattr(args, "fragment_mode", "hash"),
    ) as ledger:
        initial = ledger.bootstrap()
        print(
            json.dumps(
                {
                    "type": "bootstrap",
                    "violations": len(initial),
                    "rules": len(rules),
                    "nodes": graph.num_nodes,
                    "edges": graph.num_edges,
                },
                sort_keys=True,
            ),
            flush=True,
        )
        batches = 0
        for record in records:
            if record["type"] != "update" or record["seq"] <= base_seq:
                continue
            delta = ledger.refresh(update_from_dict(record["update"]))
            batches += 1
            payload = {"type": "delta", "log_seq": record["seq"], **delta.to_dict()}
            print(json.dumps(payload, sort_keys=True), flush=True)
        remaining = ledger.violations()
        sample_size = 5 if args.limit is None else args.limit
        transport = ledger.transport_stats()
        print(
            json.dumps(
                {
                    "type": "summary",
                    "batches": batches,
                    "violations": len(remaining),
                    "routed_ops": transport["routed_ops"],
                    "full_ops": transport["full_ops"],
                    "escalated_nodes": transport["escalated_nodes"],
                    "sample": [violation_to_dict(v) for v in remaining[:sample_size]],
                },
                sort_keys=True,
            ),
            flush=True,
        )
        return 0 if not remaining else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """`serve`: run the violation-subscription push server.

    Serves one (log, Σ) pair over TCP (``docs/serve-protocol.md``): an
    existing log is replayed and seq numbering continues; a fresh log
    needs ``--graph`` for the base state.  The first stdout line is a
    ``listening`` NDJSON record carrying the bound address (port 0
    picks an ephemeral port — scripts read it from there); on shutdown
    a ``served`` record summarizes the run.  ``--max-batches`` bounds
    the run for smoke tests and demos; otherwise serve until SIGINT.

    Collector policy: this command owns its process, so it recovers
    (``ViolationServer.from_log``) with CPython's cyclic collector
    paused, then ``gc.freeze()``s what recovery built and turns
    collection back on — in a ``finally``, so a failed recovery leaves
    the collector as it found it (an embedding caller's disabled
    collector stays disabled).  Recovery allocates ~100k-215k tracked
    objects and no garbage (a ``gc.collect()`` after it finds 0
    unreachable on both benchmark workloads), so the 186-562 collections
    it would trigger, 1-3 of them full passes, find nothing; frozen,
    that heap is never walked again.  ``from_log`` itself stays
    collector-neutral, since tests build many servers in one process.
    Recovery forks no worker (engine and fragment pools start on the
    first batch), so no child inherits the paused collector.
    """
    import asyncio
    import gc

    from repro.serve import ViolationServer

    rules = load_rules(args.rules)
    base_graph = load_graph(args.graph) if args.graph else None

    async def serve() -> dict:
        collecting = gc.isenabled()
        gc.disable()
        try:
            server = ViolationServer.from_log(
                args.log,
                rules,
                base_graph=base_graph,
                backend=args.backend,
                workers=args.workers,
                fragment_mode=getattr(args, "fragment_mode", "hash"),
                checkpoint_every=args.checkpoint_every,
                queue_size=args.queue_size,
                host=args.host,
                port=args.port,
            )
            gc.freeze()
        finally:
            if collecting:
                gc.enable()
        await server.start()
        print(
            json.dumps(
                {
                    "type": "listening",
                    "host": args.host,
                    "port": server.port,
                    "seq": server.seq,
                    "epoch": server.epoch,
                    "rules": len(rules),
                    "violations": len(server.ledger),
                },
                sort_keys=True,
            ),
            flush=True,
        )
        try:
            await server.run(max_batches=args.max_batches)
        finally:
            if not server._stopped.is_set():
                await server.stop()
        return server.stats()

    try:
        stats = asyncio.run(serve())
    except KeyboardInterrupt:
        return 0
    print(json.dumps({"type": "served", **stats}, sort_keys=True), flush=True)
    return 0


def cmd_subscribe(args: argparse.Namespace) -> int:
    """`subscribe`: attach to a running server, print pushed events.

    One NDJSON line per received frame (hello, bootstrap, then deltas /
    resyncs), so the stream composes with `jq` and friends.  The filter
    flags map onto the wire filter: ``--rule`` (name or Σ position),
    ``--node``, ``--label`` — repeatable, OR within a flag, AND across
    flags.  ``--max-events`` exits after that many pushed events
    (bootstrap included); otherwise read until the server says bye.
    """
    import asyncio

    from repro.serve import LINE_DELIMITED, ServeClient

    filter_payload: dict = {}
    if args.rule:
        filter_payload["rules"] = [
            int(entry) if entry.lstrip("-").isdigit() else entry for entry in args.rule
        ]
    if args.node:
        filter_payload["nodes"] = args.node
    if args.label:
        filter_payload["labels"] = args.label

    async def consume() -> int:
        framing = LINE_DELIMITED if args.lines else "length"
        client = await ServeClient.connect(args.host, args.port, framing=framing)
        try:
            bootstrap = await client.subscribe(filter_payload or None)
            print(json.dumps(client.hello, sort_keys=True), flush=True)
            print(json.dumps(bootstrap, sort_keys=True), flush=True)
            events = 1
            while args.max_events is None or events < args.max_events:
                event = await client.next_event()
                print(json.dumps(event, sort_keys=True), flush=True)
                if event.get("type") == "bye":
                    break
                events += 1
        finally:
            await client.close()
        return 0

    try:
        return asyncio.run(consume())
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_explain(args: argparse.Namespace) -> int:
    """`explain`: print the match program validation runs for each rule.

    Each rule is rendered with the program of its group of rules
    sharing a pattern and an X-restriction — the enumerations
    validation's grouped scan performs: the binding order ranked from
    the group's effective candidate pools (the pattern's pools narrowed
    by the attr-filter stage, which an attached index derives from the
    rule's X constant literals), each step's pool size, edge checks and
    self-loop checks, and an estimated per-frame cost.  The rendered
    order and steps are the ones validation executes.

    With ``--observed`` each step also carries the counters of one
    profiled run of its group's program.
    """
    from repro.deps.literals import ConstantLiteral
    from repro.indexing import attach_index, get_index
    from repro.matching.plan import compile_sigma, execute_over_pools, explain_pools
    from repro.reasoning.validation import sigma_groups

    graph = load_graph(args.graph)
    rules = load_rules(args.rules)
    if getattr(args, "index", False):
        attach_index(graph)
    pools = compile_sigma(graph, [ged.pattern for ged in rules])
    groups = sigma_groups(graph, rules)
    observed = getattr(args, "observed", False)
    totals = [{} if observed else None for _ in groups]
    if observed:
        # Exhaust each group's program once under telemetry: that fills
        # the per-step counters the rendering annotates.
        from repro import telemetry

        was_enabled = telemetry.enabled()
        telemetry.enable()
        try:
            for (pattern, restrict, _), run_totals in zip(groups, totals):
                for _ in execute_over_pools(
                    pattern, graph, pools[pattern], restrict=restrict, observed=run_totals
                ):
                    pass
        finally:
            if not was_enabled:
                telemetry.disable()
    group_of = {
        position: (restrict, run_totals)
        for (_, restrict, members), run_totals in zip(groups, totals)
        for position in members
    }
    indexed = get_index(graph) is not None
    source = "attribute inverted index" if indexed else "no index — full pools"
    for position, ged in enumerate(rules):
        if position:
            print()
        print(f"== {ged.name or 'GED'} ==")
        restrict, run_totals = group_of[position]
        text = explain_pools(
            ged.pattern, graph, pools[ged.pattern], restrict=restrict, observed=run_totals
        )
        print(text)
        for literal in ged.X:
            if isinstance(literal, ConstantLiteral):
                print(f"  attr-filter {literal.var}: {literal}  [{source}]")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    """`index`: build the repro.indexing bundle for a graph, print stats.

    With ``--rules``, also reports the per-dependency candidate-pool
    reduction the index buys on the matching hot path.
    """
    from repro.indexing import attach_index, index_stats
    from repro.matching.candidates import candidate_sets

    graph = load_graph(args.graph)
    index = attach_index(graph)
    print(index_stats(graph, index).summary())
    if args.rules:
        rules = load_rules(args.rules)
        print(f"candidate pruning over {len(rules)} rule(s):")
        for ged in rules:
            raw = candidate_sets(ged.pattern, graph, use_index=False)
            pruned = candidate_sets(ged.pattern, graph)
            raw_total = sum(len(pool) for pool in raw.values())
            pruned_total = sum(len(pool) for pool in pruned.values())
            saved = raw_total - pruned_total
            percent = (100.0 * saved / raw_total) if raw_total else 0.0
            print(
                f"  {ged.name or 'GED'}: {raw_total} -> {pruned_total} "
                f"candidate node(s) (-{percent:.0f}%)"
            )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """`stats`: one profiled validation run, then the telemetry report.

    Runs :func:`~repro.parallel.parallel_find_violations` on the chosen
    backend with telemetry enabled and renders the collected registry —
    as the human-readable derived report (``text``), the raw snapshot
    plus derived rates (``json``), or Prometheus text exposition format
    (``prom``).  Exit status follows the validation (0 clean, 1 dirty),
    so `stats` composes with pipelines exactly like `pvalidate`.
    """
    from repro import telemetry
    from repro.parallel import parallel_find_violations

    graph = load_graph(args.graph)
    rules = load_rules(args.rules)
    if getattr(args, "index", False):
        from repro.indexing import attach_index

        attach_index(graph)
    telemetry.reset()
    telemetry.clear_spans()
    telemetry.enable()
    try:
        report = parallel_find_violations(
            graph,
            rules,
            workers=args.workers,
            backend=args.backend,
            fragment_mode=getattr(args, "fragment_mode", "hash"),
        )
        snapshot = telemetry.snapshot()
    finally:
        telemetry.disable()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "derived": telemetry.derived_stats(snapshot),
                    "snapshot": snapshot,
                    "violations": len(report.violations),
                    "backend": report.backend,
                    "workers": report.workers,
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif args.format == "prom":
        sys.stdout.write(telemetry.render_prometheus(snapshot))
    else:
        print(
            f"stats: {len(report.violations)} violation(s) "
            f"[{report.backend}, {report.workers} worker(s), "
            f"{report.wall_seconds * 1000:.1f} ms]"
        )
        print(telemetry.format_text(snapshot))
    return 0 if report.valid else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """`trace`: render an exported telemetry NDJSON file as span trees.

    Reads the file a ``--telemetry ndjson:<path>`` run wrote (the serve
    flush path appends per batch, so a killed server's partial file
    renders fine), assembles one causal tree per trace id from the span
    records' ``trace_id``/``ref``/``parent_ref`` links, and prints each
    as an indented tree with per-span durations, cross-process markers,
    self-time attribution, and any slow-plan captures.  Exit 1 when the
    file holds no traced spans.
    """
    from repro import telemetry

    records = []
    with open(args.file, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    slow_plans = [r for r in records if r.get("type") == "slow_plan"]
    forests = telemetry.assemble_traces(records)
    if args.trace_id:
        forests = {
            trace_id: roots
            for trace_id, roots in forests.items()
            if trace_id.startswith(args.trace_id)
        }
    if not forests:
        wanted = f" matching {args.trace_id!r}" if args.trace_id else ""
        print(f"no traced spans{wanted} in {args.file}", file=sys.stderr)
        return 1
    # Oldest trace first: root start time orders the batches as applied.
    ordered = sorted(
        forests.items(),
        key=lambda item: min(
            (root.record.get("ts", 0.0) for root in item[1]), default=0.0
        ),
    )
    for position, (trace_id, roots) in enumerate(ordered):
        if position:
            print()
        plans = [p for p in slow_plans if p.get("trace_id") == trace_id]
        print(telemetry.format_trace(trace_id, roots, slow_plans=plans))
    return 0


def _validation_backend(name: str) -> str:
    """``--backend`` of ``pvalidate`` and ``stats``: a name from
    :mod:`repro.parallel.validate`'s backend tuple.  Imported here, not
    at module level, so ``serve`` and the other commands start without
    loading the parallel package."""
    from repro.parallel.validate import _BACKENDS

    if name not in _BACKENDS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(_BACKENDS)})"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (one sub-command per pipeline stage)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Graph entity dependencies (Fan & Lu, PODS 2017)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check G |= Σ, list violations")
    validate.add_argument("--graph", required=True)
    validate.add_argument("--rules", required=True)
    validate.add_argument("--limit", type=int, default=None)
    validate.add_argument(
        "--index",
        action="store_true",
        help="attach a repro.indexing index before validating",
    )
    validate.set_defaults(func=cmd_validate)

    satisfiable = sub.add_parser("satisfiable", help="Theorem 2 satisfiability check")
    satisfiable.add_argument("--rules", required=True)
    satisfiable.set_defaults(func=cmd_satisfiable)

    implies_cmd = sub.add_parser("implies", help="Theorem 4 implication check")
    implies_cmd.add_argument("--rules", required=True)
    implies_cmd.add_argument("--phi", required=True, help="file with the single target GED")
    implies_cmd.set_defaults(func=cmd_implies)

    chase_cmd = sub.add_parser("chase", help="chase a graph (entity resolution)")
    chase_cmd.add_argument("--graph", required=True)
    chase_cmd.add_argument("--rules", required=True)
    chase_cmd.add_argument("-o", "--output", default=None)
    chase_cmd.set_defaults(func=cmd_chase)

    repair_cmd = sub.add_parser("repair", help="greedy violation-driven repair")
    repair_cmd.add_argument("--graph", required=True)
    repair_cmd.add_argument("--rules", required=True)
    repair_cmd.add_argument("--max-operations", type=int, default=1000)
    repair_cmd.add_argument(
        "--forward-only",
        action="store_true",
        help="never retract attributes or delete edges/nodes",
    )
    repair_cmd.add_argument(
        "--suggest-workers",
        type=int,
        default=1,
        help="fan per-round repair suggestion out over the engine pool",
    )
    repair_cmd.add_argument("-o", "--output", default=None)
    repair_cmd.set_defaults(func=cmd_repair)

    discover_cmd = sub.add_parser("discover", help="mine GFDs from a data graph")
    discover_cmd.add_argument("--graph", required=True)
    discover_cmd.add_argument("--max-lhs", type=int, default=1)
    discover_cmd.add_argument("--min-support", type=int, default=2)
    discover_cmd.add_argument("--min-confidence", type=float, default=1.0)
    discover_cmd.add_argument("--paths", action="store_true", help="also profile 2-edge chains")
    discover_cmd.add_argument("--forks", action="store_true", help="also profile 2-edge forks")
    discover_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="count pattern supports on the engine worker pool",
    )
    discover_cmd.add_argument("-o", "--output", default=None)
    discover_cmd.set_defaults(func=cmd_discover)

    cover_cmd = sub.add_parser("cover", help="minimize a rule set (drop implied rules)")
    cover_cmd.add_argument("--rules", required=True)
    cover_cmd.add_argument("-o", "--output", default=None)
    cover_cmd.set_defaults(func=cmd_cover)

    pvalidate_cmd = sub.add_parser("pvalidate", help="sharded/parallel validation")
    pvalidate_cmd.add_argument("--graph", required=True)
    pvalidate_cmd.add_argument("--rules", required=True)
    pvalidate_cmd.add_argument("--workers", type=int, default=2)
    pvalidate_cmd.add_argument(
        "--backend",
        type=_validation_backend,
        default="serial",
    )
    pvalidate_cmd.add_argument(
        "--fragment-mode",
        choices=["hash", "greedy"],
        default="hash",
        help="partitioner for --backend fragment (workers = fragment count)",
    )
    pvalidate_cmd.add_argument(
        "--index",
        action="store_true",
        help="attach a repro.indexing index shared by all in-process shards",
    )
    pvalidate_cmd.set_defaults(func=cmd_pvalidate)

    partition_cmd = sub.add_parser(
        "partition",
        help="edge-cut the graph into fragments, print partition/broadcast stats",
    )
    partition_cmd.add_argument("--graph", required=True)
    partition_cmd.add_argument(
        "--fragments", type=int, default=4, help="fragment count (default 4)"
    )
    partition_cmd.add_argument(
        "--mode",
        choices=["hash", "greedy"],
        default="greedy",
        help="edge-cut partitioner (default greedy)",
    )
    partition_cmd.add_argument(
        "--rules",
        default=None,
        help="also report per-rule fragment-local vs escalated pivot counts",
    )
    partition_cmd.set_defaults(func=cmd_partition)

    stream_cmd = sub.add_parser(
        "stream",
        help="replay a JSONL update log, emit NDJSON violation deltas per batch",
    )
    stream_cmd.add_argument("--log", required=True, help="JSONL update log (graph.io format)")
    stream_cmd.add_argument("--rules", required=True)
    stream_cmd.add_argument(
        "--graph",
        default=None,
        help="base graph JSON (default: restore the log's leading checkpoint)",
    )
    stream_cmd.add_argument(
        "--backend",
        choices=["serial", "engine", "fragment"],
        default="serial",
        help="delta path: in-process, sharded over a warm engine pool, "
        "or routed to fragment-resident replicas",
    )
    stream_cmd.add_argument(
        "--fragment-mode",
        choices=["hash", "greedy"],
        default="hash",
        help="partitioner for --backend fragment (workers = fragment count)",
    )
    stream_cmd.add_argument(
        "--workers", type=int, default=None, help="engine pool size (default: one per CPU)"
    )
    stream_cmd.add_argument(
        "--index",
        action="store_true",
        help="attach a repro.indexing index (maintained across every batch)",
    )
    stream_cmd.add_argument(
        "--limit", type=int, default=None, help="violations sampled into the summary line"
    )
    stream_cmd.set_defaults(func=cmd_stream)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the violation-subscription push server over a durable update log",
    )
    serve_cmd.add_argument(
        "--log", required=True, help="JSONL update log (replayed when it exists)"
    )
    serve_cmd.add_argument("--rules", required=True)
    serve_cmd.add_argument(
        "--graph",
        default=None,
        help="base graph JSON, required when the log does not exist yet",
    )
    serve_cmd.add_argument(
        "--backend",
        choices=["serial", "engine", "fragment"],
        default="serial",
        help="ledger delta path (same choices as `stream`)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=None, help="pool size / fragment count"
    )
    serve_cmd.add_argument(
        "--fragment-mode",
        choices=["hash", "greedy"],
        default="hash",
        help="partitioner for --backend fragment",
    )
    serve_cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="write a log checkpoint every k batches (recovery stays O(tail))",
    )
    serve_cmd.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="per-subscriber outbound queue bound before drop-oldest + resync",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port (default)"
    )
    serve_cmd.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="stop after this many applied batches (bounded smoke mode)",
    )
    serve_cmd.set_defaults(func=cmd_serve)

    subscribe_cmd = sub.add_parser(
        "subscribe",
        help="attach to a running serve instance, print pushed events as NDJSON",
    )
    subscribe_cmd.add_argument("--host", default="127.0.0.1")
    subscribe_cmd.add_argument("--port", type=int, required=True)
    subscribe_cmd.add_argument(
        "--rule",
        action="append",
        default=None,
        help="filter: rule name or Σ position (repeatable)",
    )
    subscribe_cmd.add_argument(
        "--node", action="append", default=None, help="filter: node id (repeatable)"
    )
    subscribe_cmd.add_argument(
        "--label", action="append", default=None, help="filter: node label (repeatable)"
    )
    subscribe_cmd.add_argument(
        "--lines",
        action="store_true",
        help="speak the line-delimited framing instead of length-prefixed",
    )
    subscribe_cmd.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="exit after this many pushed events (bootstrap counts as one)",
    )
    subscribe_cmd.set_defaults(func=cmd_subscribe)

    explain_cmd = sub.add_parser(
        "explain",
        help="print the compiled match plan (steps, pools, costs) for each rule",
    )
    explain_cmd.add_argument("--graph", required=True)
    explain_cmd.add_argument("--rules", required=True)
    explain_cmd.add_argument(
        "--index",
        action="store_true",
        help="attach a repro.indexing index before compiling (pruned pools, live attr filters)",
    )
    explain_cmd.add_argument(
        "--observed",
        action="store_true",
        help="run each rule group's plan once under telemetry first and "
        "annotate each step with its observed frame/candidate/probe counts",
    )
    explain_cmd.set_defaults(func=cmd_explain)

    index_cmd = sub.add_parser(
        "index", help="build graph indexes, print stats (and pruning with --rules)"
    )
    index_cmd.add_argument("--graph", required=True)
    index_cmd.add_argument("--rules", default=None)
    index_cmd.set_defaults(func=cmd_index)

    engine_cmd = sub.add_parser(
        "engine",
        help="persistent worker-pool runtime: snapshot/pool stats, "
        "costed work queue, engine-pooled validation",
    )
    engine_cmd.add_argument("--graph", required=True)
    engine_cmd.add_argument("--rules", default=None)
    engine_cmd.add_argument(
        "--workers", type=int, default=None, help="pool size (default: one per CPU)"
    )
    engine_cmd.add_argument(
        "--no-index",
        action="store_true",
        help="broadcast the graph without attaching an index first",
    )
    engine_cmd.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="validation runs on the same warm pool (default 2: cold then warm)",
    )
    engine_cmd.set_defaults(func=cmd_engine)

    stats_cmd = sub.add_parser(
        "stats",
        help="run one profiled validation, report the telemetry registry "
        "(text, json, or Prometheus exposition)",
    )
    stats_cmd.add_argument("--graph", required=True)
    stats_cmd.add_argument("--rules", required=True)
    stats_cmd.add_argument("--workers", type=int, default=2)
    stats_cmd.add_argument(
        "--backend",
        type=_validation_backend,
        default="fragment",
    )
    stats_cmd.add_argument(
        "--fragment-mode",
        choices=["hash", "greedy"],
        default="hash",
        help="partitioner for --backend fragment (workers = fragment count)",
    )
    stats_cmd.add_argument(
        "--index",
        action="store_true",
        help="attach a repro.indexing index before validating",
    )
    stats_cmd.add_argument(
        "--format",
        choices=["text", "json", "prom"],
        default="text",
        help="report rendering (default text)",
    )
    stats_cmd.set_defaults(func=cmd_stats)

    trace_cmd = sub.add_parser(
        "trace",
        help="render an exported telemetry NDJSON file as causal span trees",
    )
    trace_cmd.add_argument("file", help="NDJSON file a --telemetry run wrote")
    trace_cmd.add_argument(
        "--trace-id",
        default=None,
        help="render only traces whose id starts with this prefix",
    )
    trace_cmd.set_defaults(func=cmd_trace)

    # NDJSON telemetry export rides along any of the heavy run commands;
    # main() enables the registry, wraps the run in a traced root span,
    # and appends spans incrementally to the given path (the serve loop
    # flushes per batch), closing with the final metrics snapshot.
    for runnable in (validate, pvalidate_cmd, stream_cmd, engine_cmd, serve_cmd):
        runnable.add_argument(
            "--telemetry",
            default=None,
            metavar="ndjson:PATH",
            help="collect metrics/spans during the run and export them "
            "as NDJSON to PATH",
        )
        runnable.add_argument(
            "--slow-plan-ms",
            type=float,
            default=None,
            metavar="MS",
            help="capture the observed match plan of any "
            "validation shard slower than MS milliseconds "
            "(exported with --telemetry; env: REPRO_SLOW_PLAN_MS)",
        )
    return parser


def _telemetry_path(args: argparse.Namespace) -> str | None:
    """Parse the ``--telemetry ndjson:<path>`` spec (None when absent)."""
    spec = getattr(args, "telemetry", None)
    if spec is None:
        return None
    prefix, _, path = spec.partition(":")
    if prefix != "ndjson" or not path:
        raise ValueError(
            f"--telemetry expects 'ndjson:<path>', got {spec!r}"
        )
    return path


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse, dispatch, map library errors to exit 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        export_path = _telemetry_path(args)
        slow_ms = getattr(args, "slow_plan_ms", None)
        if export_path is None:
            if slow_ms is not None:
                from repro import telemetry

                telemetry.set_slow_plan_threshold(slow_ms / 1000.0)
            return args.func(args)
        from repro import telemetry

        telemetry.reset()
        telemetry.clear_spans()
        telemetry.clear_slow_plans()
        if slow_ms is not None:
            telemetry.set_slow_plan_threshold(slow_ms / 1000.0)
        telemetry.enable()
        # Incremental export: the file is open for the whole run and the
        # serve loop flushes after every batch, so a killed process still
        # leaves every completed batch's trace on disk.  close_export
        # appends whatever remains plus the final metrics snapshot — a
        # partial trace of a failed run is exactly when it matters most.
        telemetry.open_export(export_path)
        try:
            with telemetry.tracing(telemetry.start_trace()):
                with telemetry.span(f"cli.{args.command}"):
                    code = args.func(args)
        finally:
            lines = telemetry.close_export()
            telemetry.disable()
        print(
            f"telemetry: {lines} line(s) written to {export_path}",
            file=sys.stderr,
        )
        return code
    except (ReproError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
