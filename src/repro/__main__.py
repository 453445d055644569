"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's figures from the terminal without writing any
code.  ``python -m repro all`` reproduces the whole evaluation.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.rng import DEFAULT_SEED


def _cmd_fig14(args) -> None:
    from repro.core import figure14_report, full_evaluation
    print(figure14_report(full_evaluation(seed=args.seed,
                                          requests=args.requests,
                                          jobs=args.jobs)))


def _cmd_fig15(args) -> None:
    from repro.core import figure15_report, full_evaluation
    print(figure15_report(full_evaluation(seed=args.seed,
                                          requests=args.requests,
                                          jobs=args.jobs)))


def _cmd_energy(args) -> None:
    from repro.core import energy_report, full_evaluation
    print(energy_report(full_evaluation(seed=args.seed,
                                        requests=args.requests,
                                        jobs=args.jobs)))


def _cmd_fig1(args) -> None:
    from repro.core import leaf_distribution
    from repro.core.report import format_table, pct
    dist = leaf_distribution(seed=args.seed)
    checkpoints = [1, 5, 10, 26, 50, 100]
    rows = [
        [name] + [pct(cum[min(n, len(cum)) - 1], 1) for n in checkpoints]
        for name, cum in sorted(dist.items())
    ]
    print(format_table(
        ["workload"] + [f"top {n}" for n in checkpoints], rows,
        title="Figure 1: cumulative cycle share over leaf functions",
    ))


def _cmd_uarch(args) -> None:
    from repro.core.experiment import uarch_characterization
    from repro.core.report import format_table
    from repro.workloads.apps import php_applications
    rows = []
    for app in php_applications():
        r = uarch_characterization(
            app, seed=args.seed, instructions=args.instructions
        )
        rows.append([
            app.name, f"{r.branch_mpki:.2f}",
            f"{100 * r.btb_hit_rate_4k:.2f}%",
            f"{100 * r.btb_hit_rate_64k:.2f}%",
            f"{r.l1i_mpki:.2f}", f"{r.l1d_mpki:.2f}", f"{r.l2_mpki:.2f}",
        ])
    print(format_table(
        ["app", "branch MPKI", "BTB 4K", "BTB 64K",
         "L1I MPKI", "L1D MPKI", "L2 MPKI"],
        rows, title="Section 2: microarchitectural characterization",
    ))


def _cmd_fig7(args) -> None:
    from repro.core.experiment import hash_hit_rate_sweep
    from repro.core.report import format_table, pct
    from repro.workloads.apps import wordpress
    sizes = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    sweep = hash_hit_rate_sweep(
        wordpress(), sizes=sizes, seed=args.seed, requests=args.requests
    )
    print(format_table(
        ["entries", "hit rate"],
        [[str(s), pct(sweep[s])] for s in sizes],
        title="Figure 7: hardware hash-table hit rate vs entries",
    ))


def _cmd_fig12(args) -> None:
    from repro.core.experiment import regex_opportunity
    from repro.core.report import format_table, pct
    opp = regex_opportunity(seed=args.seed, requests=args.requests)
    print(format_table(
        ["app", "skippable content"],
        [[app, pct(v)] for app, v in opp.items()],
        title="Figure 12: content sifting + reuse opportunity",
    ))


def _cmd_area(args) -> None:
    from repro.core.report import format_table, pct
    from repro.power import accelerator_area_report
    report = accelerator_area_report()
    rows = [[name, f"{mm2:.4f}"] for name, mm2 in report.rows()]
    rows.append(["TOTAL", f"{report.total_mm2:.4f}"])
    rows.append(["fraction of core", pct(report.core_fraction)])
    print(format_table(["structure", "mm² (45 nm)"], rows,
                       title="Section 5.1: accelerator area"))


def _cmd_ablation(args) -> None:
    from repro.core.ablation import run_ablations
    from repro.core.report import format_table, pct
    results = run_ablations(requests=args.requests, seed=args.seed)
    print(format_table(
        ["variant", "efficiency", "benefit given up"],
        [[r.name, pct(r.efficiency), pct(r.efficiency_loss)]
         for r in results],
        title="Accelerator design ablations (WordPress)",
    ))


def _cmd_resilience(args) -> None:
    from repro.core.latency import request_latency_report
    from repro.core.report import resilience_report
    from repro.resilience import (
        ResilientServerConfig,
        run_matrix,
        standard_policies,
        standard_scenarios,
    )
    rep = request_latency_report(
        "wordpress", requests=max(args.requests, 8), seed=args.seed
    )
    cfg = ResilientServerConfig(
        workers=4, requests=1_200, warmup_requests=30, offered_load=0.6
    )
    reports = run_matrix(
        rep.accelerated.samples, rep.software.samples,
        standard_scenarios(), standard_policies(), cfg, seed=args.seed,
    )
    print(resilience_report(reports))


def _cmd_fleet(args) -> None:
    from dataclasses import replace

    from repro.core.latency import request_latency_report
    from repro.core.report import fleet_report
    from repro.fleet import (
        CacheTierConfig,
        FleetConfig,
        homogeneous_fleet,
        mixed_fleet,
        run_fleet,
        run_fleet_matrix,
    )
    from repro.resilience.faults import FaultScenario

    smoke = bool(getattr(args, "smoke", False))
    rep = request_latency_report(
        "wordpress", requests=max(args.requests, 8), seed=args.seed
    )
    accel = rep.accelerated.samples
    soft = rep.software.samples
    cache = CacheTierConfig(shards=4, shard_capacity=256)
    cfg = FleetConfig(
        requests=300 if smoke else 3_000,
        warmup_requests=20 if smoke else 100,
        offered_load=0.7,
    )
    cached = homogeneous_fleet("accel-4", accel, nodes=4, cache=cache)
    topologies = [
        cached,
        cached.without_cache(),
        mixed_fleet("mixed-2+2", accel, soft, 2, 2, cache=cache),
        homogeneous_fleet(
            "software-4", soft, nodes=4, kind="software", cache=cache
        ),
    ]
    balancers = (
        ["p2c"] if smoke
        else ["round-robin", "least-outstanding", "p2c"]
    )
    reports = run_fleet_matrix(
        topologies, balancers, cfg, seed=args.seed, jobs=args.jobs
    )
    # One storm cell: TTL-invalidation waves flushing shards mid-run.
    storm = FaultScenario(
        "cache-storms", accel_fault_rate=0.10,
        accel_fault_window_services=5.0,
    )
    reports.append(run_fleet(
        replace(cached, name="accel-4+storm"),
        replace(cfg, storm_scenario=storm),
        seed=args.seed,
    ))
    print(fleet_report(reports))


def _cmd_overload(args) -> None:
    from dataclasses import replace

    from repro.core.report import (
        format_table,
        overload_report,
        overload_timeline,
    )
    from repro.fleet import (
        defended_config,
        headline_scenarios,
        min_nodes_to_survive,
        overload_topology,
        run_overload_matrix,
        undefended_config,
    )

    smoke = bool(getattr(args, "smoke", False))
    topology = overload_topology()
    reports = run_overload_matrix(
        topology, headline_scenarios(smoke), seed=args.seed,
        jobs=args.jobs,
    )
    print(overload_report(reports))
    print()
    for report in reports:
        print(overload_timeline(report))
    print()
    # Node-count price of skipping the defenses: pin the storm to an
    # absolute rate so every fleet size faces the same traffic.
    storm_rate = 5.6
    need = {
        name: min_nodes_to_survive(
            lambda n: overload_topology(nodes=n),
            replace(cfg, arrival_rate=storm_rate),
            seed=args.seed,
        )
        for name, cfg in (
            ("undefended", undefended_config(smoke)),
            ("defended", defended_config(smoke)),
        )
    }
    print(format_table(
        ["scenario", "min nodes to ride out the storm"],
        [[name, str(n) if n is not None else f"> {8}"]
         for name, n in need.items()],
        title=f"Fleet sizing vs the same absolute storm "
              f"(rate {storm_rate} req/svc)",
    ))


def _cmd_export(args) -> None:
    from repro.core.export import save_evaluation_json
    out = save_evaluation_json(
        args.out, seed=args.seed, requests=args.requests, jobs=args.jobs
    )
    print(f"wrote {out}")


def _cmd_sens(args) -> None:
    from repro.core.report import format_table, pct
    from repro.core.sensitivity import (
        sweep_probe_width,
        sweep_reuse_content_bytes,
        sweep_reuse_entries,
        sweep_segment_size,
    )
    probe = sweep_probe_width(seed=args.seed, jobs=args.jobs)
    print(format_table(
        ["probe width", "hit rate"],
        [[str(w), pct(v)] for w, v in probe.items()],
        title="Sensitivity: hash hit rate vs probe width",
    ))
    print()
    seg = sweep_segment_size(seed=args.seed, jobs=args.jobs)
    print(format_table(
        ["segment bytes", "skip fraction", "HV bits"],
        [[str(s), pct(v["skip_fraction"]), f"{v['hv_bits']:.0f}"]
         for s, v in seg.items()],
        title="Sensitivity: content sifting vs segment size",
    ))
    print()
    content = sweep_reuse_content_bytes(seed=args.seed, jobs=args.jobs)
    print(format_table(
        ["content bytes", "skip rate"],
        [[str(s), pct(v)] for s, v in content.items()],
        title="Sensitivity: content reuse vs memoized bytes",
    ))
    print()
    entries = sweep_reuse_entries(seed=args.seed, jobs=args.jobs)
    print(format_table(
        ["entries", "jump rate"],
        [[str(n), pct(v)] for n, v in entries.items()],
        title="Sensitivity: reuse-table jump rate vs entries",
    ))


def _cmd_perf(args) -> None:
    from repro.core.perf import format_perf_report, run_perf
    from repro.core.report import perf_observability_report
    payload = run_perf(
        smoke=bool(getattr(args, "smoke", False)),
        seed=args.seed,
    )
    print(format_perf_report(payload))
    print()
    print(perf_observability_report())


def _cmd_backends(args) -> None:
    from repro.accel.registry import available_backends
    from repro.core.report import format_table
    rows = [
        [row["name"], ", ".join(row["kernels"]) or "(optimized fallback)"]
        for row in available_backends()
    ]
    print(format_table(
        ["backend", "registered kernels"], rows,
        title="Accelerator backend registry",
    ))


def _cmd_conform(args) -> None:
    from repro.conformance.fuzzer import (
        run_conformance,
        write_failure_artifacts,
    )
    from repro.core.report import conformance_report
    report = run_conformance(
        smoke=bool(getattr(args, "smoke", False)),
        seed=args.seed,
        jobs=args.jobs,
    )
    print(conformance_report(report))
    artifact = write_failure_artifacts(report)
    if artifact is not None:
        print(f"\nshrunk failing cases written to {artifact}")
    if not report.ok:
        raise SystemExit(1)


def _cmd_serve(args) -> None:
    from repro.accel.registry import backend_names
    from repro.core.report import serve_report
    from repro.serve.run import run_serve
    backend = getattr(args, "backend", None) or "optimized"
    if backend not in backend_names():
        print(f"serve: unknown backend {backend!r}; registered: "
              f"{', '.join(backend_names())}", file=sys.stderr)
        raise SystemExit(2)
    payload = run_serve(
        bench=bool(getattr(args, "bench", False)),
        smoke=bool(getattr(args, "smoke", False)),
        seed=args.seed,
        backend=backend,
    )
    print(serve_report(payload))
    print()
    print("served-bytes oracle: PASS (HTTP responses byte-identical "
          "to direct renders)")
    if not payload["slo_ok"]:
        raise SystemExit(1)


def _cmd_calibrate(args) -> None:
    from repro.calibrate.run import run_calibrate
    from repro.core.report import calibrate_report
    payload = run_calibrate(
        smoke=bool(getattr(args, "smoke", False)),
        seed=args.seed,
        jobs=args.jobs,
        telemetry=getattr(args, "telemetry", None),
    )
    print(calibrate_report(payload))
    if not payload["ok"]:
        raise SystemExit(1)


def _cmd_lint(args) -> None:
    from pathlib import Path

    from repro import analysis

    paths = args.paths or None
    if args.fix_waivers:
        changed = analysis.fix_waivers(paths)
        for path in changed:
            print(f"rewrote cache-key-covers waivers in {path}")
        if not changed:
            print("all cache-key-covers waivers already accurate")
    findings = analysis.run(paths)
    if args.rule:
        try:
            selected = analysis.match_rules(args.rule)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            raise SystemExit(2)
        findings = [f for f in findings if f.rule in selected]
    baseline_path = Path(args.baseline)
    if args.update_baseline:
        out = analysis.save_baseline(findings, baseline_path)
        print(f"wrote baseline with {len(findings)} finding(s) to {out}")
        return
    grandfathered = analysis.load_baseline(baseline_path)
    fresh, suppressed = analysis.apply_baseline(findings, grandfathered)
    shown = str(baseline_path) if grandfathered else None
    if args.json:
        sys.stdout.write(
            analysis.render_json(fresh, suppressed, shown)
        )
    else:
        print(analysis.render_text(fresh, suppressed))
    if fresh:
        raise SystemExit(1)


def _cmd_all(args) -> None:
    for fn in (_cmd_fig1, _cmd_uarch, _cmd_fig7, _cmd_fig12,
               _cmd_fig14, _cmd_fig15, _cmd_energy, _cmd_area,
               _cmd_resilience, _cmd_fleet):
        fn(args)
        print()


_COMMANDS = {
    "fig1": (_cmd_fig1, "Figure 1: leaf-function distribution"),
    "uarch": (_cmd_uarch, "Section 2 / Figure 2: µarch characterization"),
    "fig7": (_cmd_fig7, "Figure 7: hash-table hit-rate sweep"),
    "fig12": (_cmd_fig12, "Figure 12: regexp skip opportunity"),
    "fig14": (_cmd_fig14, "Figure 14: execution-time results"),
    "fig15": (_cmd_fig15, "Figure 15: per-accelerator benefits"),
    "energy": (_cmd_energy, "Section 5.2: energy savings"),
    "area": (_cmd_area, "Section 5.1: area budget"),
    "ablation": (_cmd_ablation, "design-choice ablations"),
    "resilience": (_cmd_resilience,
                   "fault-injection scenarios × resilience policies"),
    "fleet": (_cmd_fleet,
              "multi-node fleets × balancers with the object cache"),
    "overload": (_cmd_overload,
                 "flash crowds, retry storms, metastability verdicts"),
    "sens": (_cmd_sens, "sensitivity sweeps over accelerator sizing"),
    "perf": (_cmd_perf,
             "wall-clock speedups vs the pinned reference kernels"),
    "backends": (_cmd_backends, "list registered accelerator backends"),
    "conform": (_cmd_conform,
                "differential oracles + metamorphic fuzzing vs shadows"),
    "serve": (_cmd_serve,
              "live asyncio HTTP server + open-loop load, wall-clock "
              "SLOs"),
    "calibrate": (_cmd_calibrate,
                  "fit the fleet twin to serve telemetry, report "
                  "prediction MAPE + fitted what-if capacity"),
    "lint": (_cmd_lint,
             "static analysis: determinism / pool purity / cache keys "
             "/ async safety / schema contracts"),
    "export": (_cmd_export, "write the evaluation as JSON"),
    "all": (_cmd_all, "everything above"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate results from 'Architectural Support for "
                    "Server-Side PHP Processing' (ISCA 2017).",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="which result to regenerate")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--requests", type=int, default=5,
                        help="requests per app for evaluation commands")
    parser.add_argument("--instructions", type=int, default=400_000,
                        help="trace length for uarch characterization")
    parser.add_argument("--out", type=str, default="results.json",
                        help="output path for the export command")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast run (fleet/perf commands; used "
                             "by CI — perf --smoke skips the speedup "
                             "assertions)")
    parser.add_argument("--bench", action="store_true",
                        help="serve: run the open-loop load bench "
                             "(1k connections with --smoke, 10k "
                             "requested without) instead of the "
                             "self-test")
    parser.add_argument("--backend", type=str, default=None,
                        help="serve: run the server on this backend's "
                             "kernels (default: optimized)")
    parser.add_argument("--telemetry", type=str, default=None,
                        help="calibrate: fit this repro-serve-telemetry/1 "
                             "JSONL instead of the self-consistency "
                             "twin stream")
    parser.add_argument("--jobs", type=int, default=None,
                        help="process-pool workers for sweep commands "
                             "(default: REPRO_JOBS env, else 1)")
    parser.add_argument("--json", action="store_true",
                        help="lint: emit the repro-lint/2 JSON payload "
                             "instead of text (exit 0 = clean, 1 = "
                             "fresh findings, 2 = usage error)")
    parser.add_argument("--rule", type=str, default=None,
                        help="lint: only report this rule id (ASY002) "
                             "or family prefix (ASY) — cheap re-runs "
                             "of one family")
    parser.add_argument("--fix-waivers", action="store_true",
                        help="lint: rewrite stale/missing cache-key-"
                             "covers waiver comments in place")
    parser.add_argument("--paths", nargs="*", default=None,
                        help="lint: files/directories to analyze "
                             "(default: the installed repro package)")
    parser.add_argument("--baseline", type=str,
                        default=".repro-lint-baseline.json",
                        help="lint: grandfathered-findings file")
    parser.add_argument("--update-baseline", action="store_true",
                        help="lint: rewrite the baseline to the "
                             "current findings instead of failing")
    args = parser.parse_args(argv)
    _COMMANDS[args.command][0](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
