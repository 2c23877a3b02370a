"""Command-line entry point wiring the pipeline together.

Subcommands: simulate, tune, detect, evaluate, compare, render. All
randomness flows from explicit --seed flags so runs are replayable; every
file-writing subcommand also drops a ``<output>.run.json`` with its parsed
options, as resolved. Each subcommand checks its output paths before it
simulates or writes anything, so an output or ``--render`` DOT file that
is a directory, an output that lies in no directory, or an output or DOT
file that resolves to the same file or directory as another output or as
one of the command's inputs, fails the command without a partial output.
A compare NAME is also its directory under ``--render``, so a NAME that is
``.`` or ``..`` or holds a path separator fails the command, with or
without ``--render``.
Evaluate and compare score their configs through one function on one
``ResidualBank``; detect reads its scenario's residuals from a bank too.
Exit codes: 0 success, 2 usage/config error, 3 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import itertools
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
    return plant.from_json(plant.PlantParams, plant.read_json(path, "plant config"),
                           "plant config")


def _write_run_config(args, path: str, omit=(), **resolved) -> None:
    """Write ``<path>.run.json``: every parsed option but those in ``omit``,
    with the values the command resolved in place of the parsed ones."""
    options = {name: value for name, value in vars(args).items()
               if name not in ("command", "func", *omit)}
    plant.write_json({"schema": 1, "command": args.command,
                      "options": {**options, **resolved}}, path + ".run.json")


def _dot_paths(out_dir: str, n: int) -> list[str]:
    """The DOT files of n scenarios that ``--render out_dir`` writes."""
    return [os.path.join(out_dir, f"scenario_{i:03d}.dot") for i in range(n)]


def _check_outputs(files=(), dirs=(), inputs=(), n_dots=0) -> None:
    """Raise the OSError that writing an output would raise, before any
    output is written: for a file path that is a directory or lies in no
    directory, a directory path that is a file or lies under one, or one of
    the ``n_dots`` DOT files in each of ``dirs`` that is a directory. Then
    raise a SchemaError naming both paths if an output or DOT file resolves
    to the same file or directory as another output or as an input; None
    entries are skipped."""
    dirs = list(filter(None, dirs))
    for path in filter(None, files):
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            code = errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)
    for path in dirs:
        head = os.path.abspath(path)
        while not os.path.exists(head):
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            code = errno.EEXIST if head == os.path.abspath(path) else errno.ENOTDIR
            raise OSError(code, os.strerror(code), path)
    dots = [_dot_paths(out_dir, n_dots) for out_dir in dirs]
    for path in itertools.chain(*dots):
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    # inputs may share a file; an output may share none. A DOT file that is
    # no symlink resolves into its directory's real path.
    seen = {os.path.realpath(path): path for path in filter(None, inputs)}
    resolved = [(path, os.path.realpath(path)) for path in filter(None, [*files, *dirs])]
    for out_dir, dot_paths in zip(dirs, dots):
        real_dots = _dot_paths(os.path.realpath(out_dir), n_dots)
        resolved += [(path, os.path.realpath(path) if os.path.islink(path) else real)
                     for path, real in zip(dot_paths, real_dots)]
    for path, real in resolved:
        if real in seen:
            raise plant.SchemaError(f"{seen[real]!r} and {path!r} are the same path; an "
                                    "output must not overwrite an input or another output")
        seen[real] = path


def _write_dot(path: str, degrees) -> None:
    """Write the DOT graph of seven alarm degrees to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render.emit_dot(degrees))


#: Seed of ``--generate`` when ``--suite-seed`` is not given.
DEFAULT_SUITE_SEED = 42


def _resolve_suite(args, params: plant.PlantParams,
                   ) -> tuple[list[plant.FaultScenario], tuple[float, float], int | None]:
    """The suite, its inputs and the seed it was generated from (None for a
    --suite file)."""
    if args.suite:
        if args.generate is not None:
            raise plant.SchemaError("--suite and --generate exclude each other: give one")
        if args.suite_seed is not None:
            raise plant.SchemaError("--suite-seed seeds --generate: it does not apply to --suite")
        return (*harness.load_suite(args.suite), None)
    if args.generate is None:
        raise plant.SchemaError("either --suite FILE or --generate N is required")
    seed = DEFAULT_SUITE_SEED if args.suite_seed is None else args.suite_seed
    suite = harness.generate_suite(args.generate, seed, params=params)
    return suite, plant.OPERATING_POINT, seed


#: ``tune --method`` choices: each tuner's settings dataclass, the name of
#: its optimizer in ``tuner`` (looked up when ``tune`` runs, so a wrapped
#: optimizer is the one called) and its population size field.
_TUNERS = {"pso": (tuner.PsoParams, "pso_tune", "swarm_size"),
           "ga": (tuner.GaParams, "ga_tune", "population")}


def _optimizer_fields(settings) -> list[dataclasses.Field]:
    """The settings fields that ``tune`` takes as flags: all but bounds and seed."""
    return [f for f in dataclasses.fields(settings) if f.name not in ("bounds", "seed")]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_simulate(args) -> int:
    _check_outputs([args.out_trace, args.out_residuals, args.out_trace + ".run.json"],
                   inputs=[args.scenario, args.plant])
    params = _load_plant(args.plant)
    scenario, inputs = plant.load_scenario(args.scenario)
    trace = plant.run(scenario, params, inputs, mode=args.mode)
    plant.write_trace_csv(trace, args.out_trace)
    times, resid = residuals.residual_trace(trace, params, tau=args.tau)
    residuals.write_residual_csv(times, resid, args.out_residuals)
    _write_run_config(args, args.out_trace)
    print(f"wrote {len(trace)} frames to {args.out_trace} "
          f"and residuals to {args.out_residuals}")
    return EXIT_OK


def cmd_tune(args) -> int:
    _check_outputs([args.out_config, args.out_history, args.out_config + ".run.json"],
                   inputs=[args.suite, args.plant])
    settings_type, optimizer, size_field = _TUNERS[args.method]
    names = [f.name for f in _optimizer_fields(settings_type)]
    flags = [f.name for other, *_ in _TUNERS.values() for f in _optimizer_fields(other)]
    given = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    foreign = ["--" + name.replace("_", "-") for name in given if name not in names]
    if foreign:
        raise plant.SchemaError(f"--method {args.method} does not take {', '.join(foreign)}")
    settings = settings_type(**given, seed=args.seed)
    params = _load_plant(args.plant)
    suite, inputs, suite_seed = _resolve_suite(args, params)
    objective = tuner.make_fitness(suite, params, inputs)
    workers = tuner.worker_count(getattr(settings, size_field))
    with tuner.pooled(objective, workers) as scored:
        best, history, mean_history = getattr(tuner, optimizer)(scored, settings)

    cfg, _ = fuzzy.params_to_config(best)
    fuzzy.save_config(cfg, args.out_config)
    plant.write_csv(("iteration", "best_fitness", "mean_fitness"),
                    zip(range(len(history)), history, mean_history), args.out_history)
    _write_run_config(args, args.out_config, set(flags) - set(names),
                      **{name: getattr(settings, name) for name in names},
                      suite_seed=suite_seed, workers=workers)
    print(f"final fitness: {history[-1]!r}")
    print(f"wrote tuned config to {args.out_config}, history to {args.out_history}")
    return EXIT_OK


def cmd_detect(args) -> int:
    _check_outputs([args.out, args.dot, args.out + ".run.json"],
                   inputs=[args.config, args.scenario, args.plant])
    params = _load_plant(args.plant)
    cfg = fuzzy.load_config(args.config)
    scenario, inputs = plant.load_scenario(args.scenario)
    try:
        bank = harness.ResidualBank.from_suite([scenario], params, inputs)
    except plant.SimulationDiverged as exc:
        raise plant.SimulationDiverged(exc.variable, exc.t) from None
    degrees, flags = fuzzy.DetectorKernel(cfg).run(bank.block)
    header = (["t"] + [f"deg_{v}" for v in plant.VARIABLES]
              + [f"flag_{v}" for v in plant.VARIABLES])
    plant.write_csv(header, ([t, *d, *f] for t, d, f in zip(
        bank.row_times.tolist(), degrees.tolist(), flags.tolist())), args.out)
    if args.dot:
        _write_dot(args.dot, degrees[-1])
    _write_run_config(args, args.out)
    print(f"wrote degrees for {len(bank.row_times)} samples to {args.out}")
    return EXIT_OK


def _score(args, configs: list[tuple[str, str]], dirs: list[str | None],
           **resolved) -> int:
    """Score each (name, config file) of ``configs`` on one suite's residual
    bank: write one metrics row per config to ``--out``, the first config's
    reports to ``--reports`` (evaluate only), each config's DOT files in its
    entry of ``dirs`` (None: none) and run.json, then print the table."""
    params = _load_plant(args.plant)
    detectors = [(name, fuzzy.load_config(path)) for name, path in configs]
    suite, inputs, suite_seed = _resolve_suite(args, params)
    reports_path = getattr(args, "reports", None)
    _check_outputs([args.out, reports_path, args.out + ".run.json"], dirs,
                   [*(path for _, path in configs), args.suite, args.plant], len(suite))
    bank = harness.ResidualBank.from_suite(suite, params, inputs)
    scored = [(name, *harness.evaluate_bank(cfg, bank)) for name, cfg in detectors]
    rows = [harness.metrics_row(name, metrics) for name, _, metrics in scored]
    harness.write_metrics_csv(rows, args.out)
    if reports_path:
        harness.write_reports_jsonl(scored[0][1], reports_path)
    for out_dir, (_, reports, _) in zip(dirs, scored):
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            for path, rep in zip(_dot_paths(out_dir, len(reports)), reports):
                _write_dot(path, rep.final_degrees)
    _write_run_config(args, args.out, suite_seed=suite_seed, **resolved)
    print(harness.format_table(rows))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.jobs != 1:
        raise plant.SchemaError(
            f"--jobs must be 1: a suite is built in one process, got {plant.shown(args.jobs)}")
    name = args.name or os.path.splitext(os.path.basename(args.config))[0]
    return _score(args, [(name, args.config)], [args.render], name=name)


def cmd_compare(args) -> int:
    configs = []
    for spec in args.configs:
        if "=" not in spec:
            raise plant.SchemaError(
                f"--config expects NAME=PATH, got {plant.shown(spec)}")
        name, path = spec.split("=", 1)
        if not name:
            raise plant.SchemaError(f"--config NAME is empty in {plant.shown(spec)}")
        if name in (".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
            raise plant.SchemaError(f"--config NAME {plant.shown(name)} is not a directory "
                                    "name: it is '.' or '..' or holds a path separator")
        if any(name == seen for seen, _ in configs):
            raise plant.SchemaError(f"--config NAME {plant.shown(name)} is given twice")
        configs.append((name, path))
    if len(configs) < 2:
        raise plant.SchemaError("compare needs at least two configurations")
    return _score(args, configs,
                  [args.render and os.path.join(args.render, name) for name, _ in configs])


def cmd_render(args) -> int:
    values = [float(x) for x in args.degrees.split(",")]
    if len(values) != 7:
        raise plant.SchemaError("--degrees needs exactly 7 comma-separated values")
    for i, (name, x) in enumerate(zip(plant.VARIABLES, values), 1):
        if not math.isfinite(x):
            raise plant.SchemaError(f"--degrees value {i} ({name}) is {x!r}, not a finite number")
    _check_outputs([args.dot])
    no_color = args.no_color or bool(os.environ.get("NO_COLOR"))
    if args.ansi:
        sys.stdout.write(render.emit_ansi(values, no_color=no_color))
    if args.dot:
        _write_dot(args.dot, values)
    elif not args.ansi:
        sys.stdout.write(render.emit_dot(values))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def _number(kind, text: str):
    """``kind(text)``, failing with argparse's own message for ``type=kind``."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {plant.shown(text)}") from None


def _non_negative_int(text: str) -> int:
    """argparse type of a seed: an integer >= 0, so the error names the flag."""
    value = _number(int, text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {plant.shown(value)}")
    return value


def _checked(kind, check):
    """argparse type applying ``check`` to a ``kind`` value while parsing
    (``residuals.check_tau``), so its error names the flag before anything
    is simulated."""
    def parse(text: str):
        try:
            return check(_number(kind, text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_suite_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", help="suite JSON file")
    p.add_argument("--generate", type=int, metavar="N",
                   help="generate an N-scenario suite instead of loading one")
    p.add_argument("--suite-seed", type=_non_negative_int,
                   help=f"seed for --generate (default {DEFAULT_SUITE_SEED})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tankfdi`` parser, built on first use and shared by later calls:
    parsing reads it and returns a new Namespace each time."""
    parser = argparse.ArgumentParser(
        prog="tankfdi",
        description="Three-tank fault detection: simulate, detect, tune, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario, write trace and residual CSVs")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--plant", help="plant parameter JSON file")
    p.add_argument("--mode", choices=("linear", "nonlinear"), default="linear")
    p.add_argument("--tau", type=_checked(float, residuals.check_tau), default=None,
                   help="derivative smoothing time constant (default: off)")
    p.add_argument("--out-trace", required=True)
    p.add_argument("--out-residuals", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tune", help="optimize detector membership parameters")
    p.add_argument("--method", choices=tuple(_TUNERS), required=True)
    _add_suite_options(p)
    p.add_argument("--plant", help="plant parameter JSON file")
    p.add_argument("--seed", type=_non_negative_int, default=42, help="optimizer seed")
    for settings, *_ in _TUNERS.values():
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
    p.add_argument("--config", action="append", required=True, dest="configs",
                   metavar="NAME=PATH",
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except plant.SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
