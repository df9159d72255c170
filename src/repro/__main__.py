"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro                 # run every experiment
    python -m repro fig11 fig12     # run selected experiments
    python -m repro --list          # list experiment ids
    python -m repro fig03 --trace out/ --profile --json out/
                                    # + trace/metrics artifacts, a
                                    # hot-span profile, JSON results
    python -m repro smoke --trace out/ --sample-every 50000
                                    # + job-level counter timelines
                                    # (timeline.jsonl, Perfetto
                                    # counter tracks in trace.json)
    python -m repro report out/     # render report.md + report.json
                                    # from an exported artifact dir
    python -m repro groups list     # the performance-group registry
    python -m repro groups show BGP_MEM
    python -m repro groups validate my_group.toml
    python -m repro smoke --group BGP_MEM --sample-every 50000 --json out
                                    # sample/derive through a named
                                    # performance group instead of the
                                    # default BGP_BASE
    python -m repro summarize-fleet runs/ --datasource sqlite
                                    # index an archive of runs and
                                    # build the cross-run fleet report
                                    # (fleet_report.md/json)
    python -m repro gen-corpus runs/ --runs 20
                                    # generate a deterministic corpus
                                    # of small archived runs
    python -m repro --resume ckpt/
                                    # checkpoint every completed sweep
                                    # point/experiment into ckpt/; an
                                    # interrupted run restarted with the
                                    # same directory resumes from there
    python -m repro fault-audit --faults seed=7,link_stall_rate=0.1
                                    # seeded fault injection (RAS log
                                    # exported as ras.jsonl)
    python -m repro serve --port 8423 --cache .repro-cache
                                    # always-on simulation service with
                                    # the shared cross-request cache
                                    # tier (POST /v1/sweep,
                                    # /v1/experiment; GET /healthz,
                                    # /stats)
    python -m repro --shared-cache .repro-cache fig11
                                    # offline run through the same
                                    # shared tier a service uses

Experiment tables go to stdout; progress/telemetry goes to the
structured log on stderr (``-v`` for timings, ``-vv`` for debug,
``-q`` for errors only).  Every simulation runs in this process.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import faults as faults_mod
from . import markers as _markers
from .harness import (
    ABLATION_EXPERIMENTS,
    ALL_EXPERIMENTS,
    ExperimentResult,
    attach_resume,
    detach_resume,
    experiment_catalog,
    format_table,
)
from .obs import kv, metrics, setup_logging, tracer
from .obs import timeline as obs_timeline
from .parallel import set_batch_sweep, set_vectorize


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["report"]:
        return _report_main(argv[1:])
    if argv[:1] == ["summarize-fleet"]:
        return _fleet_main(argv[1:])
    if argv[:1] == ["gen-corpus"]:
        return _gen_corpus_main(argv[1:])
    if argv[:1] == ["groups"]:
        return _groups_main(argv[1:])
    if argv[:1] == ["serve"]:
        return _serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables/figures of Ganesan et al., "
                    "ICPP 2008, on the simulated Blue Gene/P.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all paper figures)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--ablations", action="store_true",
                        help="also run the ablation / future-work "
                             "experiments")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each experiment's rows to "
                             "DIR/<experiment>.csv (the paper's "
                             "spreadsheet workflow)")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write each experiment's full result "
                             "to DIR/<experiment>.json")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="record simulator spans; write Chrome/"
                             "Perfetto trace.json, spans.jsonl and "
                             "metrics.json into DIR")
    parser.add_argument("--sample-every", type=int, default=None,
                        metavar="N",
                        help="attach a monitoring thread to every job "
                             "node, sampling counters every N simulated "
                             "cycles; writes timeline.jsonl into the "
                             "--trace/--json/--csv directory and merges "
                             "Perfetto counter tracks into trace.json")
    parser.add_argument("--group", metavar="NAME", default=None,
                        help="evaluate derived metrics through this "
                             "performance group (see 'python -m repro "
                             "groups list'); with --sample-every the "
                             "group's event list is what gets sampled "
                             "(default: BGP_BASE)")
    parser.add_argument("--no-vectorize", action="store_true",
                        help="run the scalar (per-stream / per-message "
                             "/ per-thread) model engines instead of "
                             "the batched NumPy passes; results are "
                             "byte-identical either way (also: "
                             "REPRO_VECTORIZE=0)")
    parser.add_argument("--batch-sweep", action="store_true",
                        help="evaluate whole sweeps as one cross-point "
                             "batched pass: node equivalence classes "
                             "dedupe across points and the per-class "
                             "model stages run as stacked matrix "
                             "kernels; byte-identical to the per-point "
                             "path (also: REPRO_BATCH_SWEEP=1)")
    parser.add_argument("--pin-figures", action="store_true",
                        help="with --shared-cache: pin the paper-figure "
                             "working set in the shared tier (never "
                             "LRU-evicted) and pre-fill any missing "
                             "records")
    parser.add_argument("--profile", action="store_true",
                        help="print a hot-span summary table after the "
                             "run (implies span recording)")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="checkpoint every completed sweep point "
                             "and experiment into DIR (atomic JSON); "
                             "rerunning with the same DIR resumes an "
                             "interrupted run from the finished work")
    parser.add_argument("--shared-cache", metavar="DIR", default=None,
                        help="consult/fill the LRU-bounded shared "
                             "cache tier in DIR (the directory a "
                             "'python -m repro serve' instance uses); "
                             "sweep points, comm phases and node "
                             "classes are reused across processes")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="enable seeded fault injection, e.g. "
                             "'seed=7,sram_flip_rate=0.1,"
                             "link_stall_rate=0.5' (see repro.faults; "
                             "the RAS event log is written to the "
                             "--trace/--json/--csv directory as "
                             "ras.jsonl)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress at INFO (-v) or DEBUG (-vv)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log errors only")
    args = parser.parse_args(argv)

    log = setup_logging(-1 if args.quiet else args.verbose)
    if args.no_vectorize:
        set_vectorize(False)
    if args.batch_sweep:
        set_batch_sweep(True)
    if args.pin_figures and not args.shared_cache:
        parser.error("--pin-figures needs --shared-cache: pinning is a "
                     "shared-tier retention policy")
    if args.resume and args.faults:
        parser.error("--resume cannot be combined with --faults: "
                     "fault-perturbed results must never seed a resume "
                     "checkpoint")
    if args.shared_cache and args.faults:
        parser.error("--shared-cache cannot be combined with --faults: "
                     "fault-perturbed results must never seed the "
                     "shared tier")
    if args.shared_cache and args.resume:
        parser.error("--shared-cache and --resume both attach a store "
                     "to the sweep runners; pick one")
    injector = None
    if args.faults:
        try:
            injector = faults_mod.install(
                faults_mod.FaultConfig.parse(args.faults))
        except ValueError as exc:
            parser.error(f"--faults: {exc}")
    group = None
    if args.group:
        from . import groups as groups_mod
        try:
            group = groups_mod.set_active_group(args.group)
        except (KeyError, groups_mod.GroupError) as exc:
            parser.error(f"--group: {exc}")
    _markers.clear()
    if args.sample_every is not None:
        if args.sample_every < 1:
            parser.error(f"--sample-every must be >= 1 cycle, "
                         f"got {args.sample_every}")
        obs_timeline.clear_recorded()
        if group is not None:
            obs_timeline.install_sampling(obs_timeline.TimelineConfig(
                sample_every=args.sample_every,
                events=tuple(group.events)))
        else:
            obs_timeline.install_sampling(args.sample_every)

    catalog = experiment_catalog()
    # the module-level tables stay authoritative so tests can
    # monkeypatch repro.__main__.ALL_EXPERIMENTS with a fake catalog
    catalog.update(ABLATION_EXPERIMENTS)
    catalog.update(ALL_EXPERIMENTS)

    if args.list:
        for name, fn in catalog.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:16s} {doc}")
        return 0

    selected = list(args.experiments)
    if not selected:
        selected = list(ALL_EXPERIMENTS)
        if args.ablations:
            selected += list(ABLATION_EXPERIMENTS)
    unknown = [e for e in selected if e not in catalog]
    if unknown:
        parser.error(f"unknown experiments {unknown}; "
                     f"choose from {list(catalog)}")

    # fail fast on unusable output dirs, before 20 s of experiments
    import os
    for flag, directory in (("--csv", args.csv), ("--json", args.json),
                            ("--trace", args.trace)):
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                parser.error(f"{flag} {directory!r}: {exc}")

    store = None
    if args.resume:
        try:
            store = attach_resume(args.resume)
        except OSError as exc:
            parser.error(f"--resume {args.resume!r}: {exc}")
    shared_tier = None
    if args.shared_cache:
        from . import checkpoint as checkpoint_mod
        from .harness import attach_runner_store
        try:
            shared_tier = checkpoint_mod.install_shared_tier(
                args.shared_cache)
        except (OSError, ValueError) as exc:
            parser.error(f"--shared-cache {args.shared_cache!r}: {exc}")
        attach_runner_store(shared_tier)
        if args.pin_figures:
            from .harness import (
                pin_figure_working_set,
                prefill_figure_working_set,
            )
            pinned = pin_figure_working_set(shared_tier)
            filled = prefill_figure_working_set()
            log.info(kv("figures.pinned", records=pinned,
                        prefilled=filled))

    def emit(result) -> None:
        print(result.render())
        print()
        if args.csv:
            path = _write_csv(result, args.csv)
            log.info(kv("experiment.csv", id=result.experiment_id,
                        path=path))
        if args.json:
            path = _write_json(result, args.json)
            log.info(kv("experiment.json", id=result.experiment_id,
                        path=path))

    interrupted = False
    recording = tracer.install() if (args.trace or args.profile) else None
    try:
        try:
            for name in selected:
                if store is not None:
                    payload = store.load("experiments", name)
                    if payload is not None:
                        log.info(kv("experiment.resumed", id=name))
                        emit(ExperimentResult.from_dict(payload))
                        continue
                log.info(kv("experiment.start", id=name))
                start = time.perf_counter()
                result = catalog[name]()
                elapsed = time.perf_counter() - start
                log.info(kv("experiment.done", id=name, seconds=elapsed))
                if store is not None:
                    store.save("experiments", name, result.to_dict())
                emit(result)
        except KeyboardInterrupt:
            # completed sweep points/experiments are already on disk
            # (when --resume is active); tell the user how to continue
            interrupted = True
            log.warning(kv(
                "run.interrupted",
                resume=(f"rerun with --resume {args.resume} to continue"
                        if args.resume else
                        "rerun with --resume DIR to make runs resumable")))
    finally:
        if recording is not None:
            tracer.uninstall()
        if args.sample_every is not None:
            obs_timeline.uninstall_sampling()
        if store is not None:
            detach_resume()
        if shared_tier is not None:
            from . import checkpoint as checkpoint_mod
            detach_resume()
            checkpoint_mod.uninstall_shared_tier()
        if injector is not None:
            faults_mod.uninstall()

    if recording is not None:
        recording.close_open_spans()
        if args.profile:
            print(_profile_table(recording))
            print()
        if args.trace:
            counter_tracks = (obs_timeline.perfetto_events()
                              if args.sample_every is not None else None)
            for path in _export_trace(recording, args.trace,
                                      counter_tracks):
                log.info(kv("trace.artifact", path=path))
    if args.sample_every is not None:
        out_dir = args.trace or args.json or args.csv
        timelines = obs_timeline.recorded()
        if out_dir and timelines:
            path = obs_timeline.export_jsonl(
                os.path.join(out_dir, "timeline.jsonl"))
            log.info(kv("timeline.artifact", path=path,
                        jobs=len(timelines)))
        elif not out_dir:
            log.warning(kv("timeline.discarded",
                           reason="no --trace/--json/--csv directory"))
    if _markers.recorded():
        out_dir = args.trace or args.json or args.csv
        if out_dir:
            path = _markers.append_jsonl(
                os.path.join(out_dir, "timeline.jsonl"))
            log.info(kv("markers.artifact", path=path,
                        regions=len(_markers.recorded())))
        else:
            log.warning(kv("markers.discarded",
                           reason="no --trace/--json/--csv directory",
                           regions=len(_markers.recorded())))
    if injector is not None and injector.events:
        out_dir = args.trace or args.json or args.csv
        if out_dir:
            path = os.path.join(out_dir, "ras.jsonl")
            count = injector.export_jsonl(path)
            log.info(kv("ras.artifact", path=path, events=count))
        else:
            log.warning(kv("ras.discarded",
                           reason="no --trace/--json/--csv directory",
                           events=len(injector.events)))
    return 130 if interrupted else 0


def _serve_main(argv) -> int:
    """The ``python -m repro serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the always-on simulation service: an asyncio "
                    "HTTP server accepting sweep/experiment requests "
                    "(thin JSON protocol) backed by a persistent, "
                    "LRU-bounded, content-addressed shared cache tier "
                    "— repeated requests are answered from disk.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8423, metavar="N",
                        help="listen port (default 8423; 0 picks an "
                             "ephemeral port, printed at startup)")
    parser.add_argument("--cache", metavar="DIR",
                        default=".repro-cache",
                        help="shared cache tier directory (default "
                             ".repro-cache); safe to share with other "
                             "service instances and --shared-cache "
                             "offline runs")
    parser.add_argument("--max-records", type=int, default=4096,
                        metavar="N",
                        help="LRU bound: max cached records "
                             "(default 4096)")
    parser.add_argument("--max-bytes", type=int,
                        default=512 * 1024 * 1024, metavar="N",
                        help="LRU bound: max cache directory size "
                             "(default 512 MiB)")
    # accepted for launch scripts that still pass it; 1 is the only
    # value, since every simulation runs in the service's own process
    parser.add_argument("--jobs", type=int, choices=[1], default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-active", type=int, default=4,
                        metavar="N",
                        help="requests simulating concurrently; "
                             "beyond this they queue (default 4)")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="append one JSONL record per request to "
                             "DIR/requests.jsonl and export "
                             "metrics.json at shutdown")
    parser.add_argument("--group", metavar="NAME", default=None,
                        help="serve under this performance group "
                             "(part of every cache key; default "
                             "BGP_BASE)")
    parser.add_argument("--no-vectorize", action="store_true",
                        help="serve with the scalar model engines "
                             "(also part of every cache key)")
    parser.add_argument("--batch-sweep", action="store_true",
                        help="serve sweep requests through the "
                             "cross-point batched engine (byte-"
                             "identical responses, one stacked pass "
                             "per request)")
    parser.add_argument("--pin-figures", action="store_true",
                        help="pin + pre-fill the paper-figure working "
                             "set in the shared tier at startup so LRU "
                             "eviction never drops it")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress at INFO (-v) or DEBUG (-vv)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log errors only")
    args = parser.parse_args(argv)
    setup_logging(-1 if args.quiet else max(1, args.verbose))
    if not 0 <= args.port <= 65535:
        parser.error(f"--port must be in [0, 65535], got {args.port}")
    if args.no_vectorize:
        set_vectorize(False)
    if args.group:
        from . import groups as groups_mod
        try:
            groups_mod.set_active_group(args.group)
        except (KeyError, groups_mod.GroupError) as exc:
            parser.error(f"--group: {exc}")
    from .serve import ServeConfig, SimulationService

    config = ServeConfig(host=args.host, port=args.port,
                         cache_dir=args.cache,
                         max_records=args.max_records,
                         max_bytes=args.max_bytes,
                         max_active=args.max_active,
                         telemetry_dir=args.telemetry,
                         batch_sweep=args.batch_sweep,
                         pin_figures=args.pin_figures)
    try:
        return SimulationService(config).run()
    except (OSError, ValueError) as exc:
        parser.error(str(exc))


def _report_main(argv) -> int:
    """The ``python -m repro report RUNDIR`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render a SUPReMM-style job report (report.md + "
                    "report.json) from a run's exported artifacts "
                    "(timeline.jsonl, plus spans.jsonl/metrics.json "
                    "when present).")
    parser.add_argument("directory",
                        help="artifact directory of a sampled run "
                             "(needs timeline.jsonl)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write report.md/report.json here "
                             "(default: the artifact directory)")
    args = parser.parse_args(argv)
    from .obs import report as obs_report

    try:
        paths = obs_report.write_report(args.directory, args.out)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    for path in paths.values():
        print(path)
    return 0


def _fleet_main(argv) -> int:
    """The ``python -m repro summarize-fleet DIR`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro summarize-fleet",
        description="Incrementally index a directory tree of archived "
                    "run artifacts and summarize every run with the "
                    "registered derived-metric plugins; writes "
                    "fleet_report.md + fleet_report.json with "
                    "percentile bands and outlier-run flags.")
    parser.add_argument("directory",
                        help="root of the run archive (each run is a "
                             "directory holding timeline.jsonl etc.)")
    parser.add_argument("--datasource", metavar="SPEC", default=None,
                        help="summary storage backend: 'jsonl' "
                             "(default, tables under DIR/.fleet), "
                             "'sqlite', 'jsonl:DIR' or 'sqlite:PATH'")
    parser.add_argument("--plugins", metavar="NAMES", default=None,
                        help="comma-separated summarizer subset "
                             "(default: all discovered plugins)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write fleet_report.md/json here "
                             "(default: the archive root)")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="record the scan's own spans/metrics into "
                             "DIR (trace.json, spans.jsonl, "
                             "metrics.json)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress at INFO (-v) or DEBUG (-vv)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log errors only")
    args = parser.parse_args(argv)
    log = setup_logging(-1 if args.quiet else args.verbose)
    import os
    if not os.path.isdir(args.directory):
        parser.error(f"{args.directory!r} is not a directory")
    from .fleet import summarize_fleet

    plugins = None
    if args.plugins:
        plugins = [p.strip() for p in args.plugins.split(",")
                   if p.strip()]
    recording = tracer.install() if args.trace else None
    try:
        try:
            summary = summarize_fleet(
                args.directory, datasource=args.datasource,
                plugins=plugins, out_dir=args.out)
        except (KeyError, ValueError, OSError) as exc:
            parser.error(str(exc))
    finally:
        if recording is not None:
            tracer.uninstall()
    if recording is not None:
        recording.close_open_spans()
        for path in _export_trace(recording, args.trace):
            log.info(kv("trace.artifact", path=path))
    counts = summary.delta
    print(f"[fleet] {counts['total']} run(s) indexed via "
          f"{summary.datasource_kind} "
          f"(+{counts['added']} ~{counts['changed']} "
          f"-{counts['removed']} ={counts['unchanged']}); "
          f"{summary.processed} plugin process call(s)")
    for path in summary.report_paths.values():
        print(path)
    return 0


def _gen_corpus_main(argv) -> int:
    """The ``python -m repro gen-corpus DIR`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro gen-corpus",
        description="Generate a deterministic corpus of small archived "
                    "runs (rotating workloads, rank counts and counter "
                    "modes; includes one fault-injected and one "
                    "interrupted run) for exercising summarize-fleet.")
    parser.add_argument("directory", help="corpus root to create")
    parser.add_argument("--runs", type=int, default=20, metavar="N",
                        help="number of runs to generate (default 20)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="base seed for the fault-injected runs")
    parser.add_argument("--class", dest="problem_class", default="S",
                        metavar="C",
                        help="NPB problem class (default S: seconds, "
                             "not minutes)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress at INFO (-v) or DEBUG (-vv)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log errors only")
    args = parser.parse_args(argv)
    setup_logging(-1 if args.quiet else args.verbose)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    from .fleet import generate_corpus

    created = generate_corpus(args.directory, runs=args.runs,
                              seed=args.seed,
                              problem_class=args.problem_class)
    print(f"[corpus] {len(created)} run(s) under {args.directory}")
    return 0


def _groups_main(argv) -> int:
    """The ``python -m repro groups`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro groups",
        description="Inspect the performance-group registry: the "
                    "built-in group documents plus any directories on "
                    "REPRO_GROUPS_PATH.")
    sub = parser.add_subparsers(dest="action")
    sub.add_parser("list", help="one line per available group")
    show = sub.add_parser("show",
                          help="a group's events, constants and "
                               "metric formulas")
    show.add_argument("name", help="group name (see 'groups list')")
    validate = sub.add_parser(
        "validate",
        help="load + validate every registered group document "
             "(and any extra files given); non-zero exit on the "
             "first broken one")
    validate.add_argument("paths", nargs="*", metavar="FILE",
                          help="extra group files to validate")
    args = parser.parse_args(argv)
    if not args.action:
        parser.error("choose an action: list, show or validate")
    from . import groups as groups_mod

    try:
        index = groups_mod.available_groups()
    except groups_mod.GroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.action == "list":
        for name in index:
            group = groups_mod.get_group(name)
            modes = ",".join(str(m) for m in group.modes())
            print(f"{name:12s} {len(group.events):3d} events  "
                  f"{len(group.metrics):3d} metrics  modes {modes:7s} "
                  f"{group.description}")
        return 0

    if args.action == "show":
        try:
            group = groups_mod.get_group(args.name)
        except (KeyError, groups_mod.GroupError) as exc:
            parser.error(str(exc))
        print(f"group {group.name}: {group.description}")
        print(f"source: {group.source}")
        print(f"modes:  {list(group.modes())}")
        print(f"events ({len(group.events)}):")
        for name in group.events:
            print(f"  {name}")
        if group.constants:
            print("constants:")
            for cname, value in group.constants.items():
                print(f"  {cname} = {value}")
        print(f"metrics ({len(group.metrics)}):")
        for mdef in group.metrics:
            unit = f" [{mdef.unit}]" if mdef.unit else ""
            flags = "".join(
                f" <{flag}>" for flag, on in
                (("timeline", mdef.timeline), ("track", mdef.track))
                if on)
            print(f"  {mdef.name}{unit} = {mdef.formula}{flags}")
            if mdef.description:
                print(f"      {mdef.description}")
        return 0

    failures = 0
    for name, source in index.items():
        try:
            group = groups_mod.get_group(name)
        except groups_mod.GroupError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"ok   {name} ({len(group.events)} events, "
              f"{len(group.metrics)} metrics) {source}")
    for path in args.paths:
        try:
            group = groups_mod.load_group_file(path)
        except (OSError, groups_mod.GroupError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
            continue
        print(f"ok   {group.name} ({len(group.events)} events, "
              f"{len(group.metrics)} metrics) {path}")
    return 1 if failures else 0


def _write_csv(result, directory: str) -> str:
    """One experiment's table as a spreadsheet-ready CSV file."""
    import csv
    import os

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.experiment_id}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.headers)
        writer.writerows(result.rows)
    return path


def _write_json(result, directory: str) -> str:
    """One experiment's full result as a JSON document."""
    import os

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.experiment_id}.json")
    with open(path, "w") as fh:
        fh.write(result.to_json() + "\n")
    return path


def _profile_table(recording: "tracer.Tracer") -> str:
    """Hot-span summary: where the simulator's wall time went."""
    rows = []
    for name, agg in sorted(recording.summary().items(),
                            key=lambda kv_: -kv_[1]["total_us"]):
        rows.append([name, int(agg["count"]),
                     agg["total_us"] / 1000.0, agg["max_us"] / 1000.0,
                     agg["cycles"]])
    return format_table(
        ["span", "calls", "total ms", "max ms", "sim cycles"],
        rows, title="[profile] hot spans (wall time, simulated cycles)")


def _export_trace(recording: "tracer.Tracer", directory: str,
                  counter_tracks=None):
    """Write trace.json + spans.jsonl + metrics.json into ``directory``.

    ``counter_tracks`` are the timeline pipeline's Perfetto counter
    events; merged into trace.json they render the sampled counters as
    graphs under the span rows.
    """
    import os

    os.makedirs(directory, exist_ok=True)
    return [
        recording.export_chrome(os.path.join(directory, "trace.json"),
                                extra_events=counter_tracks),
        recording.export_jsonl(os.path.join(directory, "spans.jsonl")),
        metrics.REGISTRY.export_json(
            os.path.join(directory, "metrics.json")),
    ]


if __name__ == "__main__":
    sys.exit(main())
