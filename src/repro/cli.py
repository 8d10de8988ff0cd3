"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``detect``
    Run community detection on a graph file or a Table-1 stand-in and
    write/print the labels plus quality metrics.
``info``
    Print structural statistics of a graph.
``generate``
    Generate a synthetic graph (one of the dataset-family generators) and
    write it to a file.
``compare``
    Run the five comparison systems on one graph and print a Figure-6-style
    row set.
``serve``
    Run a batch of detection jobs through the resilient job service
    (admission control, retries, circuit breakers, degradation ladder,
    crash-recovering journal) and emit a health-stats JSON.  With
    ``--snapshot-dir`` every completed job (and every streaming epoch)
    publishes a versioned, CRC-checked label snapshot for the read path.
``query``
    Serve reads from a snapshot directory published by ``serve``:
    membership of a vertex, roster of a community, community sizes, and
    version-over-version churn diffs.
``fsck``
    Unified at-rest integrity audit: walk a directory tree, find every
    durable store (checkpoints, service journal, delta WALs, epoch
    journals, snapshot catalogs), verify all of them, and report one
    machine-readable verdict.

Exit codes
----------
0 success · 1 generic ``ReproError`` / failed jobs · 3 resume misuse
(``--resume`` without ``--checkpoint-dir``) · 4 nothing to resume ·
5 every checkpoint generation damaged · 130/143 interrupted by
SIGINT/SIGTERM (after writing a final checkpoint and flushing the trace).

The fsck family (``fsck --all``, ``ckpt fsck``, ``stream fsck``) shares
one contract: **0** every store clean (recoverable findings — a torn WAL
tail, a stale temp file — don't count as damage) · **1** at least one
damaged entry · **2** the audited directory is missing or unreadable.
All three support ``--json`` for the machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import numpy as np

from repro import LPAConfig, RunBudget, nu_lpa
from repro.core.config import ResilienceConfig
from repro.errors import (
    CheckpointCorruptError,
    CheckpointNotFoundError,
    CheckpointResumeError,
    MemoryPressure,
    ReproError,
    ServiceOverloaded,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import dataset_names, generate_standin
from repro.graph.generators import (
    kmer_graph,
    lfr_like,
    rmat_graph,
    road_network,
    web_graph,
)
from repro.graph.io import load_graph, write_edgelist, write_matrix_market
from repro.graph.properties import degree_statistics, largest_component_fraction
from repro.hashing.probing import ProbeStrategy
from repro.metrics import modularity, summarize_communities
from repro.resilience.faults import FAULT_KINDS, FaultSpec

__all__ = ["build_parser", "main"]


def _load(args) -> CSRGraph:
    if args.dataset:
        return generate_standin(args.dataset, scale=args.scale, seed=args.seed)
    if args.input:
        # --validate also relaxes the parse-time weight checks, which
        # default to strict rejection.
        return load_graph(args.input, validate=getattr(args, "validate", None) or "strict")
    raise SystemExit("provide --input FILE or --dataset NAME")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=Path, help="graph file (.mtx/.txt/.graph)")
    parser.add_argument(
        "--dataset", choices=dataset_names(), help="Table-1 stand-in name"
    )
    parser.add_argument("--scale", type=float, default=0.25,
                        help="stand-in scale (default 0.25)")
    parser.add_argument("--seed", type=int, default=42)


def _resilience_from_args(args) -> ResilienceConfig | None:
    faults = None
    if args.inject_faults:
        faults = FaultSpec(
            kinds=tuple(args.inject_faults),
            rate=args.fault_rate,
            seed=args.fault_seed,
            max_fires=args.fault_max_fires,
        )
    integrity = None
    if getattr(args, "integrity", False):
        from repro.integrity import IntegrityConfig

        integrity = IntegrityConfig()
    if (
        faults is None
        and integrity is None
        and args.checkpoint_dir is None
        and not args.resume
    ):
        return None
    return ResilienceConfig(
        faults=faults,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        integrity=integrity,
    )


def _budget_from_args(args) -> RunBudget | None:
    if (
        args.deadline is None
        and args.gpu_budget is None
        and args.iteration_budget is None
    ):
        return None
    return RunBudget(
        wall_seconds=args.deadline,
        gpu_seconds=args.gpu_budget,
        max_iterations=args.iteration_budget,
    )


class _SignalToken:
    """Records the first SIGINT/SIGTERM so runs can stop gracefully.

    Used as the ``cancel`` callable of :func:`repro.nu_lpa` (and as the
    service's stop trigger): the run finishes its current iteration,
    writes a final checkpoint when checkpointing is on, and the CLI exits
    with the conventional ``128 + signum`` code.
    """

    def __init__(self) -> None:
        self.signum: int | None = None
        #: Optional extra reaction (e.g. ``service.request_stop``).
        self.on_fire = None

    def __call__(self) -> bool:
        return self.signum is not None

    def _handler(self, signum, frame) -> None:  # pragma: no cover - trivial
        self.signum = signum
        if self.on_fire is not None:
            self.on_fire()

    def install(self) -> dict[int, object]:
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, self._handler)
            except (ValueError, OSError):  # non-main thread / platform quirk
                pass
        return previous

    @staticmethod
    def restore(previous: dict[int, object]) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _preflight_resume(args) -> None:
    """Typed, actionable failures for every ``--resume`` misuse."""
    if not args.resume:
        return
    if args.checkpoint_dir is None:
        raise CheckpointResumeError(
            "--resume needs --checkpoint-dir: there is no checkpoint "
            "directory to resume from"
        )
    from repro.resilience.checkpoint import preflight_resume

    preflight_resume(args.checkpoint_dir)


def _cmd_detect(args) -> int:
    _preflight_resume(args)
    token = _SignalToken()
    previous = token.install()
    try:
        return _detect_body(args, token)
    finally:
        _SignalToken.restore(previous)


def _detect_body(args, token: _SignalToken) -> int:
    graph = _load(args)
    config = LPAConfig(
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        pl_period=args.pl_period if args.pl_period > 0 else None,
        probing=ProbeStrategy(args.probing),
        switch_degree=args.switch_degree,
        compact_layout=not args.no_compact_layout,
        memory_budget_bytes=args.memory_budget,
        reserved_memory_fraction=args.reserved_memory_fraction,
    )
    resilience = _resilience_from_args(args)
    want_profile = args.profile or args.trace_out is not None
    result = nu_lpa(
        graph, config, engine=args.engine, resilience=resilience,
        profile=want_profile, validate=args.validate,
        budget=_budget_from_args(args),
        cancel=token,
    )
    q = modularity(graph, result.labels)
    s = summarize_communities(result.labels)
    print(f"graph:       {graph}")
    if result.validation is not None:
        print(f"validation:  {result.validation.summary()}")
    if result.resumed_from is not None:
        print(f"resumed:     from iteration {result.resumed_from}")
    if result.degraded_reason == "interrupted":
        sig_name = (
            signal.Signals(token.signum).name if token.signum else "signal"
        )
        ckpt_note = (
            f"; final checkpoint in {args.checkpoint_dir}"
            if args.checkpoint_dir is not None else ""
        )
        print(f"interrupted: {sig_name} at iteration boundary "
              f"{result.num_iterations}; labels are the best-so-far "
              f"partition{ckpt_note}")
    elif result.degraded_reason is not None:
        print(f"degraded:    stopped on {result.degraded_reason} budget; "
              f"labels are the best-so-far partition")
    print(f"iterations:  {result.num_iterations} "
          f"({'converged' if result.converged else 'not converged'})")
    print(f"communities: {s.num_communities} (largest {s.largest}, "
          f"{s.singletons} singletons)")
    print(f"modularity:  {q:.4f}")
    if result.fault_events:
        by_action: dict[str, int] = {}
        for ev in result.fault_events:
            by_action[ev.action] = by_action.get(ev.action, 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(by_action.items()))
        print(f"faults:      {len(result.fault_events)} events ({summary})"
              f"{' [degraded]' if result.degraded else ''}")
    if result.integrity is not None:
        g = result.integrity
        print(f"integrity:   {g['scrubs']} scrub(s) "
              f"({g['scrub_repairs']} repaired), "
              f"{g['shadow_replays']} shadow replay(s), "
              f"{g['spot_audits']} spot audit(s), "
              f"{g['violations']} violation(s), {g['rewinds']} rewind(s)")
    if result.memory is not None:
        mem = result.memory
        rungs = ",".join(mem["construction_rungs"]) or "none"
        print(f"memory:      high-water {mem['high_water_bytes']:,} B of "
              f"{mem['budget_bytes']:,} B budget; {mem['ooms']} OOM(s), "
              f"{mem['shrinks']} budget shrink(s), "
              f"construction rungs: {rungs}")
    if args.profile:
        print(result.profile.summary())
    if args.trace_out is not None:
        doc = {
            "profile": result.profile.as_dict(),
            "events": result.trace.as_dicts(),
        }
        args.trace_out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"trace written to {args.trace_out} "
              f"({len(result.trace)} events)")
    if args.output:
        np.savetxt(args.output, result.labels, fmt="%d")
        print(f"labels written to {args.output}")
    if token.signum is not None:
        return 128 + int(token.signum)
    return 0


def _cmd_info(args) -> int:
    graph = _load(args)
    st = degree_statistics(graph)
    print(f"vertices:        {graph.num_vertices:,}")
    print(f"arcs:            {graph.num_edges:,}")
    print(f"undirected:      {graph.num_undirected_edges:,}")
    print(f"degree:          min={st.min} mean={st.mean:.2f} "
          f"median={st.median:.0f} max={st.max}")
    print(f"degree gini:     {st.gini:.3f}")
    print(f"below degree 32: {st.frac_low_degree:.1%}")
    print(f"giant component: {largest_component_fraction(graph):.1%}")
    return 0


_GENERATORS = {
    "web": lambda n, seed: web_graph(n, seed=seed),
    "social": lambda n, seed: lfr_like(n, avg_degree=18, seed=seed)[0],
    "road": lambda n, seed: road_network(
        max(3, int(np.sqrt(n / 11))), max(3, int(np.sqrt(n / 11))), seed=seed
    ),
    "kmer": lambda n, seed: kmer_graph(n, seed=seed),
    "rmat": lambda n, seed: rmat_graph(
        max(4, int(np.ceil(np.log2(max(n, 2))))), 8, seed=seed
    ),
}


def _cmd_generate(args) -> int:
    graph = _GENERATORS[args.family](args.vertices, args.seed)
    if args.output.suffix == ".mtx":
        write_matrix_market(graph, args.output)
    else:
        write_edgelist(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    return 0


#: Fsck entry statuses that count as damage under the unified contract
#: (0 clean / 1 damaged / 2 unreadable directory); ``torn-tail`` and
#: ``stale-tmp`` are recoverable findings, not damage.
_FSCK_DAMAGED = ("corrupt", "unreadable")


def _fsck_json(kind: str, directory, entries, extra=None) -> dict:
    damaged = sum(1 for e in entries if e["status"] in _FSCK_DAMAGED)
    doc = {
        "schema": "repro.integrity/fsck",
        "version": 1,
        "kind": kind,
        "path": str(directory),
        "ok": damaged == 0,
        "damaged": damaged,
        "findings": entries,
    }
    if extra:
        doc.update(extra)
    return doc


def _cmd_ckpt_fsck(args) -> int:
    from repro.errors import CheckpointError
    from repro.resilience.checkpoint import fsck

    try:
        entries = fsck(args.directory)
    except CheckpointError as exc:
        if args.json:
            print(json.dumps({
                "schema": "repro.integrity/fsck", "version": 1,
                "kind": "checkpoint", "path": str(args.directory),
                "ok": False, "error": str(exc),
            }, indent=2))
        else:
            print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    bad = [e for e in entries if e.status in _FSCK_DAMAGED]
    stale = [e for e in entries if e.status == "stale-tmp"]
    if args.json:
        print(json.dumps(_fsck_json(
            "checkpoint", args.directory,
            [{"path": str(e.path), "status": e.status, "detail": e.detail}
             for e in entries],
        ), indent=2))
    elif not entries:
        print(f"{args.directory}: no checkpoints")
    else:
        for e in entries:
            if e.status == "ok":
                print(f"ok        {e.path.name}  iteration={e.iteration} "
                      f"digest={e.digest}")
            else:
                print(f"{e.status:9s} {e.path.name}  {e.detail}")
        print(f"{len(entries)} file(s): "
              f"{len(entries) - len(bad) - len(stale)} ok, "
              f"{len(stale)} stale (recoverable), {len(bad)} damaged")
    if args.delete and (bad or stale):
        for e in bad + stale:
            e.path.unlink(missing_ok=True)
        if not args.json:
            print(f"deleted {len(bad) + len(stale)} damaged/stale file(s)")
        return 0
    return 1 if bad else 0


def _cmd_stream_fsck(args) -> int:
    from repro.errors import StreamError
    from repro.stream import fsck_log

    try:
        entries = fsck_log(args.directory)
    except StreamError as exc:
        if args.json:
            print(json.dumps({
                "schema": "repro.integrity/fsck", "version": 1,
                "kind": "wal", "path": str(args.directory),
                "ok": False, "error": str(exc),
            }, indent=2))
        else:
            print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    bad = [e for e in entries if e.status in _FSCK_DAMAGED]
    if args.json:
        print(json.dumps(_fsck_json(
            "wal", args.directory,
            [{"path": str(e.path), "status": e.status, "detail": e.detail}
             for e in entries],
        ), indent=2))
    elif not entries:
        print(f"{args.directory}: no segments")
    else:
        for e in entries:
            if e.status == "ok":
                print(f"ok        {e.path.name}  frames={e.frames} "
                      f"seq={e.first_seq}..{e.last_seq}")
            else:
                print(f"{e.status:9s} {e.path.name}  frames={e.frames}  "
                      f"{e.detail}")
        torn = sum(1 for e in entries if e.status == "torn-tail")
        print(f"{len(entries)} segment(s): {len(entries) - len(bad) - torn} "
              f"ok, {torn} torn tail (recoverable), {len(bad)} corrupt")
    return 1 if bad else 0


def _cmd_fsck(args) -> int:
    from repro.integrity import fsck_all

    report = fsck_all(args.directory)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return report.exit_code
    if report.error:
        print(f"repro: error: {report.error}", file=sys.stderr)
        return report.exit_code
    for store in report.stores:
        print(f"{store.kind:17s} {store.path}: {len(store.findings)} "
              f"entrie(s), {store.damaged} damaged")
        for f in store.findings:
            if f.status != "ok":
                print(f"  {f.status:9s} {f.path}  {f.detail}")
    print(f"{len(report.stores)} store(s), "
          f"{sum(len(s.findings) for s in report.stores)} entrie(s), "
          f"{report.damaged} damaged")
    return report.exit_code


def _cmd_stream_status(args) -> int:
    from repro.stream import DeltaLog
    from repro.stream.epoch import EpochJournal

    log = DeltaLog(args.directory)
    if log.repairs:
        for repair in log.repairs:
            print(f"repaired  {repair}")
    print(f"log head: seq {log.head_seq} "
          f"({len(log.segments())} segment(s))")
    if args.epochs is not None:
        journal = EpochJournal(args.epochs)
        state = journal.latest()
        if state is None:
            print("epochs: none journaled")
        else:
            print(f"epoch {state.epoch}: {state.num_vertices} vertices, "
                  f"{state.num_edges} arcs"
                  + (f", modularity gap {state.modularity_gap:.4f}"
                     if state.modularity_gap is not None else ""))
        lag = max(0, log.head_seq - (state.epoch if state else 0))
        print(f"lag: {lag} batch(es)")
    return 0


def _job_spec_from_json(raw: dict, index: int):
    """One jobs-file entry → JobSpec (shorthand or full ``graph`` ref)."""
    from repro.errors import ConfigurationError
    from repro.service.job import GraphRef, JobSpec

    if "graph" in raw:
        graph = GraphRef.from_dict(raw["graph"])
    elif "dataset" in raw:
        graph = GraphRef(
            kind="dataset", name=str(raw["dataset"]),
            scale=float(raw.get("scale", 0.25)), seed=int(raw.get("seed", 42)),
        )
    elif "file" in raw:
        graph = GraphRef(kind="file", name=str(raw["file"]))
    else:
        raise ConfigurationError(
            f"jobs file entry #{index}: provide 'dataset', 'file', or a "
            f"full 'graph' reference"
        )
    return JobSpec(
        job_id=str(raw.get("job_id", f"job-{index}")),
        graph=graph,
        engine=str(raw.get("engine", "vectorized")),
        tenant=str(raw.get("tenant", "default")),
        priority=int(raw.get("priority", 0)),
        deadline_s=raw.get("deadline_s"),
        gpu_budget_s=raw.get("gpu_budget_s"),
        max_iterations=raw.get("max_iterations"),
        tolerance=raw.get("tolerance"),
        validate=raw.get("validate"),
        kind=str(raw.get("kind", "detect")),
        stream_dir=raw.get("stream_dir"),
        hops=int(raw.get("hops", 1)),
        delta_policy=str(raw.get("delta_policy", "strict")),
    )


def _cmd_serve(args) -> int:
    from repro.errors import ConfigurationError
    from repro.observe.schema import validate_service_stats
    from repro.observe.trace import Tracer
    from repro.service.backoff import BackoffPolicy
    from repro.service.job import JobState
    from repro.service.service import DetectionService, ServiceConfig

    raw_jobs = json.loads(args.jobs.read_text())
    if not isinstance(raw_jobs, list):
        raise ConfigurationError(
            f"jobs file {args.jobs} must hold a JSON list of job objects"
        )
    specs = [_job_spec_from_json(raw, i) for i, raw in enumerate(raw_jobs)]

    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        tenant_inflight=args.tenant_inflight,
        max_attempts=args.max_attempts,
        backoff=BackoffPolicy(seed=args.seed),
        breaker_enabled=not args.no_breaker,
        journal_dir=args.journal,
        default_deadline_s=args.default_deadline,
        snapshot_dir=args.snapshot_dir,
        snapshot_keep=args.snapshot_keep,
        memory_budget_bytes=args.memory_budget,
        reserved_memory_fraction=args.reserved_memory_fraction,
    )
    tracer = Tracer(enabled=args.trace_out is not None)
    service = DetectionService(config, tracer=tracer)
    token = _SignalToken()
    token.on_fire = service.request_stop
    previous = token.install()
    rejected = 0
    try:
        for spec in specs:
            if spec.job_id in service.jobs:
                continue  # journal recovery already owns this id
            try:
                service.submit(spec)
            except ServiceOverloaded as exc:
                rejected += 1
                print(f"rejected {spec.job_id}: {exc.reason} "
                      f"(retry after ~{exc.retry_after_s:.1f}s)",
                      file=sys.stderr)
            except MemoryPressure as exc:
                rejected += 1
                print(f"rejected {spec.job_id}: memory pressure "
                      f"(estimate {exc.estimate_bytes:,} B > budget "
                      f"{exc.budget_bytes:,} B)",
                      file=sys.stderr)
        service.drain()
    finally:
        _SignalToken.restore(previous)

    stats = service.snapshot()
    validate_service_stats(stats)
    if args.stats_out is not None:
        args.stats_out.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"stats written to {args.stats_out}")
    if args.trace_out is not None:
        args.trace_out.write_text(
            json.dumps({"events": tracer.as_dicts()}, indent=2) + "\n"
        )
        print(f"trace written to {args.trace_out} ({len(tracer)} events)")

    jobs = stats["jobs"]
    print(f"jobs:        {jobs['completed']} completed "
          f"({jobs['degraded']} degraded), {jobs['failed']} failed, "
          f"{jobs['pending'] + jobs['running']} unfinished, "
          f"{rejected} rejected")
    print(f"retries:     {jobs['retries']} (reroutes {jobs['reroutes']})")
    print(f"rungs:       " + ", ".join(
        f"{k}={v}" for k, v in stats["rungs"].items()))
    print(f"breakers:    " + ", ".join(
        f"{b['engine']}={b['state']}" for b in stats["breakers"]))
    print(f"latency:     p50 {stats['latency']['p50_modeled_s']:.4f}s "
          f"p95 {stats['latency']['p95_modeled_s']:.4f}s (modelled)")
    memory = stats["memory"]
    if memory["enabled"]:
        print(f"memory:      high-water {memory['high_water_bytes']:,} B "
              f"of {memory['budget_bytes']:,} B budget; "
              f"{memory['rejections']} rejection(s), "
              f"{memory['serialized']} serialisation(s), "
              f"{memory['degradations']} degraded run(s)")
    if args.snapshot_dir is not None:
        served = sum(
            1 for s in specs if service.read_catalog.versions(s.job_id)
        )
        print(f"snapshots:   {served} job(s) published under "
              f"{args.snapshot_dir}")
    if token.signum is not None:
        sig_name = signal.Signals(token.signum).name
        note = (
            f"; journal in {args.journal} resumes the rest"
            if args.journal is not None else ""
        )
        print(f"interrupted: {sig_name}{note}")
        return 128 + int(token.signum)
    failed = [
        s.job_id for s in specs
        if s.job_id in service.jobs
        and service.result(s.job_id).state is JobState.FAILED
    ]
    return 1 if failed else 0


def _cmd_query(args) -> int:
    from repro.service.read import QueryEngine, SnapshotCatalog, read_header

    catalog = SnapshotCatalog(args.snapshots)
    if args.versions:
        paths = catalog.versions(args.job)
        if not paths:
            print(f"{args.job}: no snapshots under {args.snapshots}",
                  file=sys.stderr)
            return 1
        for path in paths:
            try:
                h = read_header(path)
            except ReproError as exc:
                print(f"damaged   {path.name}  {exc}")
                continue
            epoch = "" if h["epoch"] is None else f" epoch={h['epoch']}"
            print(f"v{h['snapshot_version']:<4d} {h['source']:5s}{epoch}  "
                  f"{h['num_vertices']:,} vertices, "
                  f"{h['num_communities']:,} communities  {path.name}")
        return 0

    engine = QueryEngine(catalog)
    try:
        snap = engine.snapshot_for(args.job)
        epoch = "" if snap.epoch is None else f" epoch={snap.epoch}"
        print(f"serving:     v{snap.snapshot_version} ({snap.source}{epoch}) "
              f"{snap.num_vertices:,} vertices, "
              f"{snap.num_communities:,} communities")
        if catalog.skipped:
            print(f"skipped:     {len(catalog.skipped)} damaged newer "
                  f"version(s)", file=sys.stderr)
        if args.membership is not None:
            for vertex in args.membership:
                print(f"membership({vertex}) = "
                      f"{engine.membership(args.job, vertex)}")
        if args.roster is not None:
            members = engine.roster(args.job, args.roster)
            shown = ", ".join(str(v) for v in members[: args.top])
            more = ("" if members.shape[0] <= args.top
                    else f", ... ({members.shape[0] - args.top} more)")
            print(f"roster({args.roster}) = [{shown}{more}] "
                  f"size={members.shape[0]}")
        if args.sizes:
            ids, sizes = engine.community_sizes(args.job)
            order = np.argsort(sizes)[::-1][: args.top]
            print(f"communities: {ids.shape[0]:,} "
                  f"(largest {int(sizes.max()) if sizes.size else 0})")
            for c in order:
                print(f"  community {int(ids[c]):>10d}  "
                      f"size {int(sizes[c]):,}")
        if args.diff or args.diff_versions is not None:
            if args.diff_versions is None:
                d = engine.diff(args.job)
            else:
                d = engine.diff(
                    args.job, from_version=args.diff_versions[0],
                    to_version=args.diff_versions[1],
                )
            print(f"diff v{d.from_version} -> v{d.to_version}: "
                  f"{d.changed.shape[0]:,} relabeled, "
                  f"{d.grown.shape[0]:,} grown "
                  f"({d.fraction:.2%} churn)")
    finally:
        engine.close()
    return 0


def _cmd_compare(args) -> int:
    from repro.perf.harness import ALGORITHMS, run_measurement

    graph = _load(args)
    print(f"graph: {graph}\n")
    print(f"{'system':18s} {'Q':>8s} {'comms':>7s} {'iters':>6s} "
          f"{'modelled s':>11s}")
    for system in ALGORITHMS:
        m = run_measurement(system, graph, dataset=args.dataset, seed=args.seed)
        print(f"{system:18s} {m.modularity:8.4f} {m.num_communities:7d} "
              f"{m.iterations:6d} {m.modeled_seconds:11.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser: one subcommand per command above."""
    parser = argparse.ArgumentParser(
        prog="repro", description="nu-LPA reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run nu-LPA community detection")
    _add_graph_source(p)
    p.add_argument("--engine", choices=["vectorized", "hashtable"],
                   default="vectorized")
    p.add_argument("--max-iterations", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--pl-period", type=int, default=4,
                   help="Pick-Less period; 0 disables")
    p.add_argument("--probing", default="quadratic-double",
                   choices=[s.value for s in ProbeStrategy])
    p.add_argument("--switch-degree", type=int, default=32)
    p.add_argument("--no-compact-layout", action="store_true",
                   help="keep 64-bit offsets/targets/labels even when the "
                        "graph fits 32-bit indices")
    p.add_argument("--output", type=Path, help="write labels to this file")
    p.add_argument("--profile", action="store_true",
                   help="print a per-kernel/per-iteration profile of the run")
    p.add_argument("--trace-out", type=Path, metavar="FILE",
                   help="write the profile plus the full structured trace "
                        "(kernel launches, waves, iterations, fault rungs) "
                        "as JSON to FILE")
    p.add_argument("--checkpoint-dir", type=Path,
                   help="snapshot run state into this directory")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   help="snapshot every N iterations (default 1)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest checkpoint in --checkpoint-dir")
    p.add_argument("--inject-faults", action="append", choices=list(FAULT_KINDS),
                   metavar="KIND", default=None,
                   help="inject device faults (repeatable; "
                        f"choices: {', '.join(FAULT_KINDS)})")
    p.add_argument("--fault-rate", type=float, default=1.0,
                   help="per-opportunity fire probability (default 1.0)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="fault injector RNG seed (default 0)")
    p.add_argument("--fault-max-fires", type=int, default=None,
                   help="total injection budget (default: unlimited)")
    p.add_argument("--validate", choices=["strict", "repair", "quarantine"],
                   default=None,
                   help="validate (and under repair/quarantine, fix) the "
                        "input graph before the run; strict rejects any "
                        "defect, repair rewrites defective weights and "
                        "restores symmetry, quarantine drops offending arcs")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; on breach the run stops at the "
                        "next iteration boundary with its best-so-far "
                        "partition instead of failing")
    p.add_argument("--gpu-budget", type=float, default=None, metavar="SECONDS",
                   help="modelled GPU-seconds budget (same graceful-"
                        "degradation contract as --deadline)")
    p.add_argument("--iteration-budget", type=int, default=None, metavar="N",
                   help="iteration budget; unlike --max-iterations, a breach "
                        "marks the result degraded rather than merely "
                        "unconverged")
    p.add_argument("--integrity", action="store_true",
                   help="enable the ABFT corruption guards (CSR scrub "
                        "checksums, label-conservation audits, hashtable "
                        "spot-audits, shadow replay, ECC model); detections "
                        "recover through the resilience ladder")
    p.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                   help="modelled device-memory budget; allocations are "
                        "metered through a ledger and an over-budget "
                        "reservation triggers the memory degradation rungs "
                        "(compact layout, table shrink, fallback) instead "
                        "of a silent wrong result")
    p.add_argument("--reserved-memory-fraction", type=float, default=0.0,
                   metavar="FRAC",
                   help="fraction of the budget held back from the run "
                        "(runtime/fragmentation slack; default 0.0)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("info", help="print graph statistics")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("family", choices=sorted(_GENERATORS))
    p.add_argument("--vertices", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", type=Path, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compare", help="run the five comparison systems")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "serve",
        help="run a batch of jobs through the resilient job service",
    )
    p.add_argument("--jobs", type=Path, required=True, metavar="FILE",
                   help="JSON list of job objects; each needs 'dataset' "
                        "(plus optional scale/seed), 'file', or a full "
                        "'graph' ref, and may set job_id, engine, tenant, "
                        "priority, deadline_s, gpu_budget_s, "
                        "max_iterations, tolerance, validate, and (for "
                        "kind='subscription') stream_dir, hops, "
                        "delta_policy")
    p.add_argument("--journal", type=Path, default=None, metavar="DIR",
                   help="durable job journal; a re-run over the same "
                        "directory recovers finished jobs and resumes "
                        "unfinished ones bit-identically")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queue-capacity", type=int, default=64)
    p.add_argument("--tenant-inflight", type=int, default=None, metavar="N",
                   help="per-tenant in-flight cap (default: uncapped)")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="full-run attempts per job before the degradation "
                        "ladder (default 3)")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="deadline for jobs that do not set one")
    p.add_argument("--no-breaker", action="store_true",
                   help="disable the per-engine circuit breakers")
    p.add_argument("--seed", type=int, default=0,
                   help="backoff-jitter seed (default 0)")
    p.add_argument("--stats-out", type=Path, default=None, metavar="FILE",
                   help="write the schema-validated health stats JSON here")
    p.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                   help="write job/breaker/stats trace events as JSON")
    p.add_argument("--snapshot-dir", type=Path, default=None, metavar="DIR",
                   help="publish a versioned, CRC-checked label snapshot "
                        "for every completed job and streaming epoch; "
                        "'repro query' serves reads from this directory")
    p.add_argument("--snapshot-keep", type=int, default=None, metavar="N",
                   help="retain only the newest N snapshot versions per "
                        "job (default: keep all)")
    p.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                   help="modelled device-memory budget for admission "
                        "control: oversized jobs are rejected with a typed "
                        "memory-pressure error, concurrent jobs that would "
                        "not fit together are serialised, and each run "
                        "enforces the budget live through its allocation "
                        "ledger")
    p.add_argument("--reserved-memory-fraction", type=float, default=0.0,
                   metavar="FRAC",
                   help="fraction of the memory budget held back from jobs "
                        "(default 0.0)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "query",
        help="serve membership/roster/diff reads from published snapshots",
    )
    p.add_argument("--snapshots", type=Path, required=True, metavar="DIR",
                   help="snapshot directory written by 'serve "
                        "--snapshot-dir'")
    p.add_argument("--job", required=True, metavar="JOB_ID",
                   help="job (or subscription) whose labels to serve")
    p.add_argument("--membership", type=int, action="append", default=None,
                   metavar="VERTEX",
                   help="print the community of VERTEX (repeatable)")
    p.add_argument("--roster", type=int, default=None, metavar="COMMUNITY",
                   help="print the members of COMMUNITY")
    p.add_argument("--sizes", action="store_true",
                   help="print the largest communities by size")
    p.add_argument("--diff", action="store_true",
                   help="churn between the two newest readable versions")
    p.add_argument("--diff-versions", type=int, nargs=2, default=None,
                   metavar=("FROM", "TO"),
                   help="churn between two explicit snapshot versions")
    p.add_argument("--versions", action="store_true",
                   help="list every published snapshot version and exit")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="row cap for --sizes/--roster output (default 10)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("ckpt", help="checkpoint maintenance")
    ckpt_sub = p.add_subparsers(dest="ckpt_command", required=True)
    pf = ckpt_sub.add_parser(
        "fsck",
        help="verify every checkpoint in a directory (CRC32s, schema, "
             "stale temp files); exits 0 clean / 1 damaged / 2 unreadable "
             "directory (stale temp files are recoverable)",
    )
    pf.add_argument("directory", type=Path, help="checkpoint directory")
    pf.add_argument("--delete", action="store_true",
                    help="delete damaged checkpoints and stale temp files")
    pf.add_argument("--json", action="store_true",
                    help="print the machine-readable report")
    pf.set_defaults(func=_cmd_ckpt_fsck)

    p = sub.add_parser("stream", help="delta-log stream maintenance")
    stream_sub = p.add_subparsers(dest="stream_command", required=True)
    pf = stream_sub.add_parser(
        "fsck",
        help="verify every WAL segment in a delta-log directory without "
             "modifying it; exits 0 clean / 1 damaged / 2 unreadable "
             "directory (a torn tail on the final segment is recoverable)",
    )
    pf.add_argument("directory", type=Path, help="delta log directory")
    pf.add_argument("--json", action="store_true",
                    help="print the machine-readable report")
    pf.set_defaults(func=_cmd_stream_fsck)
    pf = stream_sub.add_parser(
        "status",
        help="open a delta log (truncating any torn tail) and report its "
             "head; with --epochs also report the newest epoch and lag",
    )
    pf.add_argument("directory", type=Path, help="delta log directory")
    pf.add_argument("--epochs", type=Path, default=None, metavar="DIR",
                    help="epoch journal directory of the stream's consumer")
    pf.set_defaults(func=_cmd_stream_status)

    p = sub.add_parser(
        "fsck",
        help="unified at-rest integrity audit: walk a directory tree, "
             "verify every durable store found (checkpoints, service "
             "journal, delta WALs, epoch journals, snapshot catalogs); "
             "exits 0 clean / 1 damaged / 2 unreadable directory",
    )
    p.add_argument("--all", action="store_true",
                   help="audit every store kind found under the tree "
                        "(the default and only mode; the flag documents "
                        "intent in scripts)")
    p.add_argument("directory", type=Path, help="root directory to audit")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable IntegrityReport")
    p.set_defaults(func=_cmd_fsck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointCorruptError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 5
    except CheckpointNotFoundError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 4
    except CheckpointResumeError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
