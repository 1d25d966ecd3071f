"""Command-line interface: reproduce any paper experiment from a shell.

Examples
--------
::

    crossbar-repro figure1
    crossbar-repro figure4
    crossbar-repro table2 --set 1
    crossbar-repro solve --n 32 --poisson 0.001 --pascal 0.0005:0.3
    crossbar-repro simulate --n 8 --poisson 0.05 --horizon 2000
    crossbar-repro multistage --stages 3 --n 8 --poisson 0.01

(also available as ``python -m repro ...``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core.state import SwitchDimensions
from .core.traffic import TrafficClass
from .exceptions import ConfigurationError, CrossbarError
from .methods import SolveMethod

__all__ = ["main", "build_parser"]


def _parse_classes(args: argparse.Namespace) -> list[TrafficClass]:
    """Build traffic classes from ``--poisson``/``--pascal``/``--bernoulli``.

    * ``--poisson RHO[:A]`` — Poisson class with per-pair load RHO;
    * ``--pascal ALPHA:BETA[:A]`` — peaky class;
    * ``--bernoulli SOURCES:RATE[:A]`` — smooth finite-source class.
    """
    classes: list[TrafficClass] = []
    for spec in args.poisson or []:
        parts = spec.split(":")
        rho = float(parts[0])
        a = int(parts[1]) if len(parts) > 1 else 1
        classes.append(
            TrafficClass.poisson(rho, a=a, name=f"poisson-{len(classes)}")
        )
    for spec in args.pascal or []:
        parts = spec.split(":")
        if len(parts) < 2:
            raise CrossbarError(
                f"--pascal needs ALPHA:BETA[:A], got {spec!r}"
            )
        a = int(parts[2]) if len(parts) > 2 else 1
        classes.append(
            TrafficClass(
                alpha=float(parts[0]), beta=float(parts[1]), a=a,
                name=f"pascal-{len(classes)}",
            )
        )
    for spec in args.bernoulli or []:
        parts = spec.split(":")
        if len(parts) < 2:
            raise CrossbarError(
                f"--bernoulli needs SOURCES:RATE[:A], got {spec!r}"
            )
        a = int(parts[2]) if len(parts) > 2 else 1
        classes.append(
            TrafficClass.bernoulli(
                int(parts[0]), float(parts[1]), a=a,
                name=f"bernoulli-{len(classes)}",
            )
        )
    if not classes:
        raise CrossbarError(
            "specify at least one class via --poisson/--pascal/--bernoulli"
        )
    return classes


def _add_traffic_arguments(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    parser.add_argument(
        "--n", type=int, required=required, help="switch size N"
    )
    parser.add_argument("--n2", type=int, help="outputs (default: N)")
    parser.add_argument(
        "--poisson", action="append", metavar="RHO[:A]",
        help="add a Poisson class (repeatable)",
    )
    parser.add_argument(
        "--pascal", action="append", metavar="ALPHA:BETA[:A]",
        help="add a peaky (Pascal) class (repeatable)",
    )
    parser.add_argument(
        "--bernoulli", action="append", metavar="SOURCES:RATE[:A]",
        help="add a smooth (Bernoulli) class (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossbar-repro",
        description=(
            "Asynchronous multi-rate crossbar analysis "
            "(Stirpe & Pinsky, SIGCOMM 1992 reproduction)"
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for fig in ("figure1", "figure2", "figure3", "figure4"):
        p = sub.add_parser(fig, help=f"reproduce {fig} as a text table")
        p.add_argument(
            "--precision", type=int, default=6, help="digits to print"
        )
        p.add_argument(
            "--plot", action="store_true",
            help="also render an ASCII chart",
        )

    sub.add_parser("table1", help="Table 1: printed vs formula loads")

    p = sub.add_parser("table2", help="Table 2: revenue analysis")
    p.add_argument(
        "--set", type=int, default=0, choices=(0, 1, 2),
        dest="param_set", help="parameter set (row group) of Table 2",
    )

    p = sub.add_parser("solve", help="solve an arbitrary configuration")
    _add_traffic_arguments(p, required=False)
    p.add_argument(
        "--method", default=SolveMethod.CONVOLUTION.value,
        choices=tuple(
            m.value for m in SolveMethod
            # robust has its own subcommand; the series solver does not
            # expose the full summary/JSON measure set.
            if m not in (SolveMethod.ROBUST, SolveMethod.SERIES)
        ),
        help="algorithm",
    )
    p.add_argument(
        "--config", help="JSON model file (see repro.io); overrides --n "
        "and the class flags",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the solution as JSON instead of a table",
    )

    p = sub.add_parser("simulate", help="simulate and compare with analysis")
    _add_traffic_arguments(p)
    p.add_argument("--horizon", type=float, default=2000.0)
    p.add_argument("--warmup", type=float, default=200.0)
    p.add_argument("--replications", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("multistage", help="tandem network reduced-load analysis")
    _add_traffic_arguments(p)
    p.add_argument("--stages", type=int, default=2)

    p = sub.add_parser(
        "asymptotic",
        help="O(1) large-system approximation (for very large N)",
    )
    _add_traffic_arguments(p)

    p = sub.add_parser(
        "report",
        help="regenerate every figure/table + reproduction summary",
    )
    p.add_argument(
        "--output", default="reproduction-report",
        help="output directory (default: ./reproduction-report)",
    )

    p = sub.add_parser(
        "validate",
        help="cross-check every feasible solver on a configuration",
    )
    _add_traffic_arguments(p)

    p = sub.add_parser(
        "robust",
        help="resilient solve: fallback chain, degraded mode, availability",
    )
    _add_traffic_arguments(p)
    p.add_argument(
        "--failed-inputs", default="", metavar="PORTS",
        help="comma-separated dead input ports (e.g. 0,3): also print "
             "degraded-mode measures",
    )
    p.add_argument(
        "--failed-outputs", default="", metavar="PORTS",
        help="comma-separated dead output ports",
    )
    p.add_argument(
        "--availability", type=float, metavar="A",
        help="per-port availability in [0, 1]: also print "
             "availability-weighted long-run measures",
    )
    p.add_argument(
        "--availability-out", type=float, metavar="A",
        help="output-side availability (default: --availability)",
    )
    p.add_argument(
        "--routing", default="reroute", choices=("reroute", "oblivious"),
        help="how sources react to failures (default: reroute)",
    )
    p.add_argument(
        "--budget", type=float, metavar="SECONDS",
        help="wall-clock budget for the whole solver chain",
    )
    p.add_argument(
        "--solver-budget", type=float, metavar="SECONDS",
        help="wall-clock budget per solver attempt",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="structured log lines for every solver attempt",
    )

    p = sub.add_parser(
        "batch",
        help="evaluate a batch of solve requests through the engine",
    )
    _add_traffic_arguments(p, required=False)
    p.add_argument(
        "--sizes", metavar="N1,N2,...",
        help="comma-separated square sizes to sweep with the class flags",
    )
    p.add_argument(
        "--requests", metavar="FILE",
        help="JSON file with a list of solve-request records "
             "(overrides --n/--sizes and the class flags)",
    )
    p.add_argument(
        "--method", default=SolveMethod.CONVOLUTION.value,
        choices=tuple(
            m.value for m in SolveMethod if m is not SolveMethod.SERIES
        ),
        help="algorithm for --sizes sweeps",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit results as JSON instead of a table",
    )
    p.add_argument(
        "--metrics-json", metavar="PATH", dest="metrics_json",
        help="dump the run's BatchMetrics as JSON to PATH "
             "('-' for stdout)",
    )
    p.add_argument(
        "--parallel", action="store_true", default=None,
        help="force process-pool fan-out for cache misses",
    )

    p = sub.add_parser(
        "serve",
        help="run the solve-serving daemon or a sharded cluster of them "
             "(see docs/service.md)",
    )
    # Every knob defaults to "not given" so ServiceConfig.load() can
    # layer defaults < --config TOML < REPRO_SERVICE_* env < flags.
    p.add_argument(
        "--config", metavar="FILE", default=None,
        help="TOML service config ([service] / [service.brownout] / "
             "[cluster] sections; flags and env override it)",
    )
    p.add_argument("--host", default=None)
    p.add_argument("--port", type=int, default=None)
    p.add_argument(
        "--gate-capacity", type=int, default=None, metavar="TOKENS",
        help="admission tokens; full gate => 503, blocked calls cleared "
             "(default 64)",
    )
    p.add_argument(
        "--point-weight", type=int, default=None, metavar="TOKENS",
        help="tokens one /solve request holds (default 1)",
    )
    p.add_argument(
        "--batch-member-weight", type=int, default=None, metavar="TOKENS",
        help="tokens per member of a /batch request (default 1)",
    )
    p.add_argument(
        "--batch-window", type=float, default=None, metavar="SECONDS",
        help="seconds an idle micro-batcher holds a request before "
             "flushing (default 0: flush on the next loop turn)",
    )
    p.add_argument(
        "--max-batch", type=int, default=None, metavar="N",
        help="flush as soon as this many requests are pending",
    )
    p.add_argument(
        "--min-hold", type=float, default=None, metavar="SECONDS",
        help="artificial admission-token holding time (load emulation; "
             "default 0)",
    )
    p.add_argument(
        "--read-timeout", type=float, default=None, metavar="SECONDS",
        help="slow-loris bound: close connections that take longer than "
             "this to deliver a request head or body (0 disables; "
             "default 10)",
    )
    p.add_argument(
        "--write-timeout", type=float, default=None, metavar="SECONDS",
        help="abort connections whose peer stops draining the reply "
             "(0 disables; default 10)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="how long a SIGTERM drain waits for in-flight work before "
             "stopping anyway (default 10)",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes; above 1 runs the sharded cluster "
             "supervisor (default 1)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared disk-cache directory handed to every worker",
    )
    p.add_argument(
        "--no-brownout", action="store_true",
        help="disable the brownout ladder (serve at full fidelity until "
             "the gate alone sheds load)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="structured request logs on stderr",
    )

    p = sub.add_parser(
        "loadgen",
        help="drive a daemon or cluster with a declarative load spec "
             "and print the merged report",
    )
    p.add_argument(
        "--spec", metavar="FILE", default=None,
        help="TOML load spec ([loadgen] section; defaults used if "
             "omitted)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377)
    p.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="override the spec's measured duration",
    )
    p.add_argument(
        "--mode", default=None, choices=("open", "closed"),
        help="override the spec's arrival mode",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of a summary table",
    )

    p = sub.add_parser(
        "hotspot",
        help="hot-spot skew sweep (exact lumped chain, Poisson a=1)",
    )
    p.add_argument("--n", type=int, required=True, help="switch size N")
    p.add_argument("--n2", type=int, help="outputs (default: N)")
    p.add_argument(
        "--rho", type=float, required=True, help="per-pair Poisson load"
    )
    p.add_argument(
        "--factors", default="1,2,4,8",
        help="comma-separated skew factors (default 1,2,4,8)",
    )

    p = sub.add_parser(
        "verify",
        help="differential + metamorphic verification campaign "
             "(see docs/testing.md)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="fuzzer seed; a campaign is reproducible from it (default 0)",
    )
    p.add_argument(
        "--budget", default="60s", metavar="DURATION",
        help="fuzzing time budget, e.g. 30s, 2m, 0.5h (default 60s)",
    )
    p.add_argument(
        "--max-configs", type=int, default=None, metavar="N",
        help="stop fuzzing after N configs even with budget left",
    )
    p.add_argument(
        "--max-side", type=int, default=12, metavar="N",
        help="largest switch side the fuzzer samples (default 12)",
    )
    p.add_argument(
        "--repro-dir", default="verify-repros", metavar="DIR",
        help="where shrunk JSON reproducers are written (default "
             "verify-repros/)",
    )
    p.add_argument(
        "--skip-named", action="store_true",
        help="skip the Table 1 / Table 2 paper configurations",
    )
    p.add_argument(
        "--skip-fuzz", action="store_true",
        help="only check the named paper configurations",
    )
    p.add_argument(
        "--invariant", action="append", metavar="NAME", dest="invariants",
        help="restrict to one invariant (repeatable; default: all)",
    )
    p.add_argument(
        "--list-invariants", action="store_true",
        help="print the invariant registry and exit",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CrossbarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    # The analysis packages (sim, multistage, workloads, reporting, and
    # scipy behind them) are imported by the subcommands that use them,
    # so a serving process never loads them.
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "batch":
        return _cmd_batch(args)

    if args.command == "verify":
        from .verify import runner as verify_runner
        from .verify.invariants import INVARIANTS

        if args.list_invariants:
            for inv in INVARIANTS.values():
                print(f"{inv.name}  [{inv.paper_ref}]")
                print(f"    {inv.description}")
            return 0
        options = verify_runner.VerifyOptions(
            seed=args.seed,
            budget_seconds=verify_runner.parse_budget(args.budget),
            max_configs=args.max_configs,
            repro_dir=args.repro_dir,
            skip_named=args.skip_named,
            skip_fuzz=args.skip_fuzz,
            invariants=tuple(args.invariants) if args.invariants else None,
            max_side=args.max_side,
        )
        report = verify_runner.run_verify(options, echo=print)
        print(report.render())
        return 0 if report.passed else 1

    from .reporting.tables import format_table

    if args.command in ("figure1", "figure2", "figure3", "figure4"):
        from . import workloads

        figure = getattr(workloads, args.command)()
        print(figure.render(precision=args.precision))
        if args.plot:
            from .reporting import render_ascii_chart

            print()
            print(render_ascii_chart(figure))
        return 0

    if args.command == "report":
        from .experiments import generate_report

        checks = generate_report(args.output)
        for check in checks:
            print(check.render())
        passed = sum(c.passed for c in checks)
        print(f"\n{passed}/{len(checks)} reproduction criteria pass; "
              f"artifacts in {args.output}/")
        return 0 if passed == len(checks) else 1

    if args.command == "table1":
        from .workloads import table1_rows

        print(
            format_table(
                ["N", "rho~1 (paper)", "rho~1 (formula)",
                 "rho~2 (paper)", "rho~2 (formula)"],
                table1_rows(),
                title="Table 1: Figure 4 input loads",
            )
        )
        return 0

    if args.command == "table2":
        from .workloads import table2_rows

        rows = table2_rows(args.param_set)
        print(
            format_table(
                ["N", "dW/drho1", "paper", "dW/db2", "paper",
                 "blocking", "paper", "W", "paper"],
                [
                    [
                        r["N"], r["dW_drho1"], r["paper_dW_drho1"],
                        r["dW_dburstiness2"], r["paper_dW_dburstiness2"],
                        r["blocking"], r["paper_blocking"],
                        r["revenue"], r["paper_revenue"],
                    ]
                    for r in rows
                ],
                title=f"Table 2, parameter set {args.param_set} "
                      "(computed vs paper)",
            )
        )
        return 0

    if args.command == "hotspot":
        from .core.traffic import TrafficClass
        from .extensions import solve_hot_spot

        dims = SwitchDimensions(args.n, args.n2 or args.n)
        cls = TrafficClass.poisson(args.rho, name="poisson")
        rows = []
        for token in args.factors.split(","):
            factor = float(token)
            solution = solve_hot_spot(dims, cls, factor=factor)
            rows.append(
                [
                    factor,
                    solution.blocking(),
                    solution.hot_request_blocking(),
                    solution.cold_request_blocking(),
                    solution.hot_output_utilization(),
                ]
            )
        print(
            format_table(
                ["factor", "blocking", "hot-request B", "cold-request B",
                 "hot-output util"],
                rows,
                title=f"Hot-spot sweep on {dims} (rho={args.rho:g})",
            )
        )
        return 0

    if args.command == "solve" and getattr(args, "config", None):
        from .io import load_model

        model = load_model(args.config)
        dims, classes = model.dims, list(model.classes)
    else:
        if args.n is None:
            raise CrossbarError("--n is required (or pass --config)")
        dims = SwitchDimensions(args.n, args.n2 or args.n)
        classes = _parse_classes(args)

    if args.command == "solve":
        from .api import SolveRequest
        from .engine import get_default_engine

        solution = get_default_engine().solution_for(
            SolveRequest(dims, tuple(classes), args.method)
        )
        if args.as_json:
            import json

            from .io import solution_to_dict

            print(json.dumps(solution_to_dict(solution), indent=2))
        else:
            print(solution.summary())
        return 0

    if args.command == "simulate":
        from .sim import compare_with_analysis, run_replications

        summary = run_replications(
            dims, classes, horizon=args.horizon, warmup=args.warmup,
            replications=args.replications, seed=args.seed,
        )
        comparison = compare_with_analysis(summary, classes)
        rows = [
            [
                c["name"],
                c["acceptance_sim"].estimate,
                c["acceptance_analytical"],
                c["acceptance_covered"],
                c["concurrency_sim"].estimate,
                c["concurrency_analytical"],
                c["concurrency_covered"],
            ]
            for c in comparison["classes"]
        ]
        print(
            format_table(
                ["class", "accept(sim)", "accept(ana)", "in CI",
                 "E(sim)", "E(ana)", "in CI"],
                rows,
                title=f"Simulation vs analysis on {dims} "
                      f"({summary.replications} replications)",
            )
        )
        return 0

    if args.command == "validate":
        from .validation import cross_validate

        report = cross_validate(dims, classes)
        print(report.render())
        return 0 if report.consistent else 1

    if args.command == "robust":
        from .robust import (
            FailureMask,
            availability_weighted_measures,
            solve_degraded,
            solve_robust,
        )

        if args.verbose:
            import logging

            from .logging import configure

            configure(logging.DEBUG)

        def parse_ports(spec: str) -> list[int]:
            try:
                return [int(tok) for tok in spec.split(",") if tok.strip()]
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad port list {spec!r}: expected comma-separated "
                    "integers"
                ) from exc

        result = solve_robust(
            dims, classes,
            total_budget=args.budget, solver_budget=args.solver_budget,
        )
        print(result.diagnostics.render())
        print()
        rows = [
            [
                cls.name or f"class-{r}",
                result.solution.blocking(r),
                result.solution.concurrency(r),
                result.solution.call_acceptance(r),
            ]
            for r, cls in enumerate(classes)
        ]
        print(
            format_table(
                ["class", "blocking", "E", "acceptance"],
                rows,
                title=f"Healthy {dims} via {result.method}",
            )
        )
        mask = FailureMask.from_ports(
            parse_ports(args.failed_inputs), parse_ports(args.failed_outputs)
        )
        if not mask.is_healthy:
            print()
            print(
                solve_degraded(
                    dims, classes, mask, routing=args.routing
                ).render()
            )
        if args.availability is not None:
            print()
            print(
                availability_weighted_measures(
                    dims, classes, args.availability,
                    args.availability_out, routing=args.routing,
                ).render()
            )
        return 0

    if args.command == "asymptotic":
        from .core.asymptotic import solve_asymptotic

        approx = solve_asymptotic(dims, classes)
        rows = [
            [
                cls.name or f"class-{r}",
                approx.concurrency(r),
                approx.blocking(r),
            ]
            for r, cls in enumerate(classes)
        ]
        print(
            format_table(
                ["class", "E (approx)", "blocking (approx)"],
                rows,
                title=f"Large-system approximation on {dims} "
                      f"(utilization {approx.utilization():.4g}, "
                      f"{approx.iterations} bisection steps)",
            )
        )
        return 0

    if args.command == "multistage":
        from .multistage import TandemNetwork, analyze_tandem

        network = TandemNetwork.uniform(args.stages, dims)
        result = analyze_tandem(network, classes)
        rows = [
            [s + 1] + list(stage)
            for s, stage in enumerate(result.stage_blocking)
        ]
        print(
            format_table(
                ["stage"] + [c.name or f"class-{r}"
                             for r, c in enumerate(result.classes)],
                rows,
                title=f"Per-stage blocking, {args.stages} stages of {dims} "
                      f"({result.iterations} fixed-point iterations)",
            )
        )
        for r, cls in enumerate(result.classes):
            print(
                f"end-to-end blocking[{cls.name or r}] = "
                f"{result.end_to_end_blocking(r):.6g}"
            )
        return 0

    raise CrossbarError(f"unhandled command {args.command!r}")


def _cmd_batch(args: argparse.Namespace) -> int:
    """``crossbar-repro batch``: one engine batch, metrics on request."""
    import json
    from pathlib import Path

    from .api import SolveRequest
    from .engine import get_default_engine
    from .reporting.tables import format_table

    if args.requests:
        try:
            payload = json.loads(Path(args.requests).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CrossbarError(
                f"cannot read request file {args.requests!r}: {exc}"
            ) from exc
        if isinstance(payload, dict):
            payload = payload.get("requests")
        if not isinstance(payload, list) or not payload:
            raise CrossbarError(
                "request file must hold a non-empty list of request "
                "records (or {'requests': [...]})"
            )
        try:
            requests = [SolveRequest.from_dict(rec) for rec in payload]
        except (KeyError, TypeError, ValueError) as exc:
            raise CrossbarError(f"malformed request record: {exc}") from exc
    else:
        classes = _parse_classes(args)
        if args.sizes:
            try:
                sizes = [
                    int(tok) for tok in args.sizes.split(",") if tok.strip()
                ]
            except ValueError as exc:
                raise CrossbarError(
                    f"bad --sizes {args.sizes!r}: expected comma-separated "
                    "integers"
                ) from exc
        elif args.n is not None:
            sizes = [args.n]
        else:
            raise CrossbarError(
                "batch needs --requests, or class flags with --sizes/--n"
            )
        requests = [
            SolveRequest(
                SwitchDimensions(n, args.n2 or n), tuple(classes),
                args.method,
            )
            for n in sizes
        ]

    engine = get_default_engine()
    results = engine.evaluate_many(requests, parallel=args.parallel)
    metrics = engine.last_metrics

    if args.metrics_json:
        text = json.dumps(metrics.to_dict(), indent=2) + "\n"
        if args.metrics_json == "-":
            print(text, end="")
        else:
            Path(args.metrics_json).write_text(text)

    failed = sum(1 for r in results if getattr(r, "failed", False))
    if args.as_json:
        records = [
            (r.to_dict() | {"failed": True})
            if getattr(r, "failed", False) else r.to_dict()
            for r in results
        ]
        print(json.dumps(records, indent=2))
    else:
        rows = []
        for request, result in zip(requests, results):
            if getattr(result, "failed", False):
                rows.append([
                    f"{request.dims.n1}x{request.dims.n2}",
                    request.method.value,
                    f"FAILED: {result.error_type}", "-", "-",
                ])
            else:
                rows.append([
                    f"{request.dims.n1}x{request.dims.n2}",
                    result.solved_by or request.method.value,
                    " / ".join(f"{b:.6g}" for b in result.blocking),
                    result.revenue,
                    result.utilization,
                ])
        print(
            format_table(
                ["dims", "method", "blocking (per class)", "W",
                 "utilization"],
                rows,
                title=f"Batch of {len(requests)} requests "
                      f"(hit-rate {metrics.hit_rate:.0%}, "
                      f"{metrics.grid_points} grid-served, "
                      f"{metrics.solved} solved)",
            )
        )
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``crossbar-repro serve``: run the daemon (or cluster) until
    interrupted.  Config precedence: defaults < ``--config`` TOML <
    ``REPRO_SERVICE_*`` env < explicit flags."""
    import os

    from .service import ServiceConfig, serve

    if args.verbose:
        import logging as _logging

        from .logging import configure

        configure(_logging.INFO)
    config = ServiceConfig.load(
        toml_path=args.config, environ=os.environ, args=args
    )
    workers = config.cluster.workers
    if workers > 1:
        print(
            f"serving cluster on http://{config.host}:{config.port} "
            f"({workers} workers, hash sharding, "
            f"gate {config.gate_capacity} tokens/worker; "
            f"Ctrl-C to stop)"
        )
    else:
        print(
            f"serving on http://{config.host}:{config.port} "
            f"(gate {config.gate_capacity} tokens, "
            f"batch window {config.batch_window:g}s; Ctrl-C to stop)"
        )
    try:
        # On 3.11+ asyncio.run turns Ctrl-C into a cancellation that the
        # daemon absorbs as its clean-shutdown path, so serve() returns
        # normally; older loops re-raise KeyboardInterrupt instead.
        if workers > 1:
            from .service import serve_cluster

            serve_cluster(config)
        else:
            serve(config)
    except KeyboardInterrupt:
        pass
    print("interrupted; shut down cleanly")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """``crossbar-repro loadgen``: run a load spec, print the report."""
    import dataclasses as _dataclasses
    import json as _json

    from .loadgen import LoadSpec, run_load

    spec = (
        LoadSpec.from_toml(args.spec) if args.spec is not None
        else LoadSpec()
    )
    overrides = {}
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        spec = _dataclasses.replace(spec, **overrides)
    report = run_load(spec, args.host, args.port)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    record = report.to_dict()
    print(
        f"{spec.mode} loop, {spec.generators} generator(s) x "
        f"{spec.connections} connections, {report.duration:.1f}s"
    )
    print(
        f"offered {report.offered}  completed {report.completed}  "
        f"rejected {report.rejected}  errors {report.errors}"
    )
    print(
        f"throughput {report.throughput_rps:.1f} req/s   "
        f"blocking {report.blocking_measured:.4f}"
    )
    latency = record["latency_ms"]
    print(
        f"latency ms: mean {latency['mean']:.2f}  "
        f"p50 {latency['p50']:.2f}  p90 {latency['p90']:.2f}  "
        f"p99 {latency['p99']:.2f}"
    )
    for shard, counts in sorted(report.per_shard.items()):
        label = "unsharded" if shard < 0 else f"shard {shard}"
        print(
            f"  {label}: ok {counts['ok']}  "
            f"rejected {counts['rejected']}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
