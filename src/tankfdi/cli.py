"""Command-line entry point wiring the pipeline together.

Subcommands: simulate, tune, detect, evaluate, compare, render. All
randomness flows from explicit --seed flags so runs are replayable; every
file-writing subcommand also drops a ``<output>.run.json`` with the
resolved options. Each subcommand checks its output paths before it
simulates or writes anything, so an output that is a directory or lies in
no directory fails the command without a partial output. Exit codes: 0
success, 2 usage/config error, 3 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import sys

from . import fuzzy, harness, plant, render, residuals, tuner

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _load_plant(path: str | None) -> plant.PlantParams:
    if path is None:
        return plant.PlantParams()
    return plant.PlantParams.from_dict(plant.read_json(path, "plant config"))


def _write_run_config(path: str, command: str, options: dict) -> None:
    plant.write_json({"schema": 1, "command": command, "options": options},
                     path + ".run.json")


def _check_outputs(files=(), dirs=()) -> None:
    """Raise the OSError that writing an output would raise, before any
    output is written: for a file path that is a directory or lies in no
    directory, or a directory path that is a file or lies under one. None
    entries (options not given) are skipped."""
    for path in filter(None, files):
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            code = errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)
    for path in filter(None, dirs):
        head = os.path.abspath(path)
        while not os.path.exists(head):
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            code = errno.EEXIST if head == os.path.abspath(path) else errno.ENOTDIR
            raise OSError(code, os.strerror(code), path)


def _resolve_suite(args, params: plant.PlantParams,
                   ) -> tuple[list[plant.FaultScenario], tuple[float, float]]:
    if args.suite:
        if args.generate is not None:
            raise plant.SchemaError("--suite and --generate exclude each other: give one")
        return harness.load_suite(args.suite)
    if args.generate is None:
        raise plant.SchemaError("either --suite FILE or --generate N is required")
    suite = harness.generate_suite(args.generate, args.suite_seed, params=params)
    return suite, plant.OPERATING_POINT


#: ``tune --method`` choices: each tuner's settings dataclass and optimizer.
_TUNERS = {"pso": (tuner.PsoParams, tuner.pso_tune), "ga": (tuner.GaParams, tuner.ga_tune)}


def _optimizer_fields(settings) -> list[dataclasses.Field]:
    """The settings fields that ``tune`` takes as flags: all but bounds and seed."""
    return [f for f in dataclasses.fields(settings) if f.name not in ("bounds", "seed")]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_simulate(args) -> int:
    _check_outputs([args.out_trace, args.out_residuals, args.out_trace + ".run.json"])
    params = _load_plant(args.plant)
    scenario, inputs = plant.load_scenario(args.scenario)
    trace = plant.run(scenario, params, inputs, mode=args.mode)
    plant.write_trace_csv(trace, args.out_trace)
    times, resid = residuals.residual_trace(trace, params, tau=args.tau)
    residuals.write_residual_csv(times, resid, args.out_residuals, t0=float(trace.times[0]))
    _write_run_config(args.out_trace, "simulate", {
        "scenario": args.scenario, "plant": args.plant, "mode": args.mode,
        "tau": args.tau, "out_trace": args.out_trace,
        "out_residuals": args.out_residuals,
    })
    print(f"wrote {len(trace)} frames to {args.out_trace} "
          f"and residuals to {args.out_residuals}")
    return EXIT_OK


def cmd_tune(args) -> int:
    _check_outputs([args.out_config, args.out_history, args.out_config + ".run.json"])
    settings_type, optimize = _TUNERS[args.method]
    names = [f.name for f in _optimizer_fields(settings_type)]
    given = {f.name: getattr(args, f.name) for other, _ in _TUNERS.values()
             for f in _optimizer_fields(other) if getattr(args, f.name) is not None}
    foreign = ["--" + name.replace("_", "-") for name in given if name not in names]
    if foreign:
        raise plant.SchemaError(f"--method {args.method} does not take {', '.join(foreign)}")
    settings = settings_type(**given, seed=args.seed)
    params = _load_plant(args.plant)
    suite, inputs = _resolve_suite(args, params)
    objective = tuner.make_fitness(suite, params, inputs,
                                   max_fault_order=args.max_fault_order)
    best, history, mean_history = optimize(objective, settings)

    cfg, _ = fuzzy.params_to_config(best, max_fault_order=args.max_fault_order)
    fuzzy.save_config(cfg, args.out_config)
    plant.write_csv(("iteration", "best_fitness", "mean_fitness"),
                    zip(range(len(history)), history, mean_history), args.out_history)
    _write_run_config(args.out_config, "tune", {
        "method": args.method, **{name: getattr(settings, name) for name in names},
        "seed": args.seed, "suite": args.suite,
        "generate": args.generate, "suite_seed": args.suite_seed,
        "plant": args.plant, "max_fault_order": args.max_fault_order,
        "out_config": args.out_config, "out_history": args.out_history,
    })
    print(f"final fitness: {history[-1]!r}")
    print(f"wrote tuned config to {args.out_config}, history to {args.out_history}")
    return EXIT_OK


def cmd_detect(args) -> int:
    _check_outputs([args.out, args.dot, args.out + ".run.json"])
    params = _load_plant(args.plant)
    cfg = fuzzy.load_config(args.config)
    scenario, inputs = plant.load_scenario(args.scenario)
    times, resid = harness._simulate_residuals(scenario, params, inputs)
    degrees, flags = fuzzy.DetectorKernel(cfg).run(resid)
    header = (["t"] + [f"deg_{v}" for v in plant.VARIABLES]
              + [f"flag_{v}" for v in plant.VARIABLES])
    plant.write_csv(header, ([t, *d, *f] for t, d, f in zip(
        times.tolist(), degrees.tolist(), flags.tolist())), args.out)
    if args.dot:
        graph = render.CausalGraph()
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render.emit_dot(graph, degrees[-1]))
    _write_run_config(args.out, "detect", {
        "config": args.config, "scenario": args.scenario,
        "plant": args.plant, "out": args.out, "dot": args.dot,
    })
    print(f"wrote degrees for {len(times)} samples to {args.out}")
    return EXIT_OK


def _render_reports(out_dir: str, reports: list[harness.DetectionReport]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    graph = render.CausalGraph()
    for rep in reports:
        path = os.path.join(out_dir, f"scenario_{rep.scenario_id:03d}.dot")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render.emit_dot(graph, rep.final_degrees))


def cmd_evaluate(args) -> int:
    if args.jobs != 1:
        raise plant.SchemaError(
            f"--jobs must be 1: a suite is built in one process, got {args.jobs}")
    _check_outputs([args.out, args.reports, args.out + ".run.json"], [args.render])
    params = _load_plant(args.plant)
    cfg = fuzzy.load_config(args.config)
    suite, inputs = _resolve_suite(args, params)
    bank = harness.ResidualBank.from_suite(suite, params, inputs)
    reports, metrics = harness.evaluate_bank(cfg, bank)
    name = args.name or os.path.splitext(os.path.basename(args.config))[0]
    harness.write_metrics_csv([harness.metrics_row(name, metrics)], args.out)
    if args.reports:
        harness.write_reports_jsonl(reports, args.reports)
    if args.render:
        _render_reports(args.render, reports)
    _write_run_config(args.out, "evaluate", {
        "config": args.config, "suite": args.suite, "generate": args.generate,
        "suite_seed": args.suite_seed, "plant": args.plant, "name": name,
        "jobs": args.jobs, "out": args.out, "reports": args.reports,
        "render": args.render,
    })
    print(harness.format_table([harness.metrics_row(name, metrics)]))
    return EXIT_OK


def cmd_compare(args) -> int:
    params = _load_plant(args.plant)
    configs = []
    for spec in args.config:
        if "=" not in spec:
            raise plant.SchemaError(
                f"--config expects NAME=PATH, got {spec!r}")
        name, path = spec.split("=", 1)
        if not name:
            raise plant.SchemaError(f"--config NAME is empty in {spec!r}")
        if any(name == seen for seen, _ in configs):
            raise plant.SchemaError(f"--config NAME {name!r} is given twice")
        configs.append((name, fuzzy.load_config(path)))
    _check_outputs([args.out, args.out + ".run.json"],
                   [os.path.join(args.render, name) for name, _ in configs] if args.render else [])
    suite, inputs = _resolve_suite(args, params)
    rows, reports = harness.compare(configs, suite, params, inputs)
    if args.render:
        for (name, _), config_reports in zip(configs, reports):
            _render_reports(os.path.join(args.render, name), config_reports)
    harness.write_metrics_csv(rows, args.out)
    _write_run_config(args.out, "compare", {
        "configs": list(args.config), "suite": args.suite,
        "generate": args.generate, "suite_seed": args.suite_seed,
        "plant": args.plant, "out": args.out, "render": args.render,
    })
    print(harness.format_table(rows))
    return EXIT_OK


def cmd_render(args) -> int:
    values = [float(x) for x in args.degrees.split(",")]
    if len(values) != 7:
        raise plant.SchemaError("--degrees needs exactly 7 comma-separated values")
    for i, (name, x) in enumerate(zip(plant.VARIABLES, values), 1):
        if not math.isfinite(x):
            raise plant.SchemaError(f"--degrees value {i} ({name}) is {x!r}, not a finite number")
    no_color = args.no_color or bool(os.environ.get("NO_COLOR"))
    if args.ansi:
        sys.stdout.write(render.emit_ansi(values, no_color=no_color))
    dot = render.emit_dot(render.CausalGraph(), values)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dot)
    elif not args.ansi:
        sys.stdout.write(dot)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def _add_suite_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", help="suite JSON file")
    p.add_argument("--generate", type=int, metavar="N",
                   help="generate an N-scenario suite instead of loading one")
    p.add_argument("--suite-seed", type=int, default=42,
                   help="seed for --generate (default 42)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tankfdi",
        description="Three-tank fault detection: simulate, detect, tune, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario, write trace and residual CSVs")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--plant", help="plant parameter JSON file")
    p.add_argument("--mode", choices=("linear", "nonlinear"), default="linear")
    p.add_argument("--tau", type=float, default=None,
                   help="derivative smoothing time constant (default: off)")
    p.add_argument("--out-trace", required=True)
    p.add_argument("--out-residuals", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tune", help="optimize detector membership parameters")
    p.add_argument("--method", choices=tuple(_TUNERS), required=True)
    _add_suite_options(p)
    p.add_argument("--plant", help="plant parameter JSON file")
    p.add_argument("--seed", type=int, default=42, help="optimizer seed")
    p.add_argument("--max-fault-order", type=int,
                   default=fuzzy.DEFAULT_MAX_FAULT_ORDER)
    for settings, _ in _TUNERS.values():
        for f in _optimizer_fields(settings):
            # default None: a flag not given takes the dataclass default,
            # and a given flag of the other method can be named
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))
    p.add_argument("--out-config", required=True)
    p.add_argument("--out-history", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("detect", help="stream a scenario through a detector config")
    p.add_argument("--config", required=True, help="detector config JSON")
    p.add_argument("--scenario", required=True)
    p.add_argument("--plant")
    p.add_argument("--out", required=True, help="degree/flag CSV output")
    p.add_argument("--dot", help="write a final-state DOT snapshot here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score one detector config over a suite")
    p.add_argument("--config", required=True)
    p.add_argument("--name", help="row label (default: config file stem)")
    _add_suite_options(p)
    p.add_argument("--plant")
    p.add_argument("--jobs", type=int, default=1, help="takes only 1")
    p.add_argument("--out", required=True, help="metrics CSV output")
    p.add_argument("--reports", help="per-scenario JSONL output")
    p.add_argument("--render", metavar="DIR",
                   help="also write per-scenario DOT files")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="side-by-side metrics for two or more configs")
    p.add_argument("--config", action="append", required=True, metavar="NAME=PATH",
                   help="give it twice or more; e.g. --config tuned=cfg.json "
                        "(score a single config with evaluate)")
    _add_suite_options(p)
    p.add_argument("--plant")
    p.add_argument("--out", required=True, help="metrics CSV output")
    p.add_argument("--render", metavar="DIR")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("render", help="emit a colored graph for seven degrees")
    p.add_argument("--degrees", required=True,
                   help="seven comma-separated alarm degrees")
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.add_argument("--ansi", action="store_true",
                   help="print colored terminal rows instead of DOT")
    p.add_argument("--no-color", action="store_true")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except plant.SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except plant.SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
