"""Command-line entry point.

Subcommands cover the full workflow: ``gen`` writes a synthetic
instance, ``build`` compiles it to a coefficient file, ``solve`` runs a
sampler over a coefficient file, ``sweep`` executes a whole plan,
``report`` summarizes a sweep directory, and ``stats`` prints logical
circuit-shape numbers.  ``build`` has one flag per parameter label of
``qubo.VARIANT_KINDS`` (an unset one takes the largest value of its
default grid), as ``solve`` has one per parameter of ``bench.SOLVERS``.

Exit codes: 0 success, 2 usage or invalid input, 3 size guard
exceeded, memory refused or a sweep worker dead, 4 infeasible or
undefined result, 5 I/O failure.  All randomness is seeded, so
repeating a command reproduces its output.  The ``PRESSQUBO_OUT``
environment variable supplies the default sweep output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, fields
from pathlib import Path

from . import bench, lrqaoa, model, qubo, solvers
from .errors import GenerationFailed, Infeasible, TooLarge

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5


def _emit(args, human: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_gen(args) -> int:
    inst = model.sanitize_instance(
        model.generate_instance(args.toolkits, args.machines, args.capacity_bits, args.seed)
    )
    model.save_instance(inst, args.output)
    n_vars = qubo.VariableMap.for_instance(inst).n
    _emit(
        args,
        f"wrote {args.output}: {inst.n_toolkits} toolkits x {inst.n_machines} machines, "
        f"{n_vars} binary variables",
        {"path": str(args.output), "id": inst.id, "variables": n_vars},
    )
    return EXIT_OK


def _build_flags() -> dict[str, str]:
    """Help text of each ``build`` flag, one per label of the variant table."""
    helps: dict[str, list[str]] = {}
    for kind in qubo.VARIANT_KINDS:
        for label, name, grid in qubo.variant_parameters(kind):
            helps.setdefault(label, []).append(
                f"{name.replace('_', ' ')} ({kind}; default {max(grid)})")
    return {label: "; ".join(texts) for label, texts in helps.items()}


def _given_flags(args, flags, accepted, owner: str) -> dict:
    """The ``flags`` set in ``args``; ValueError naming those ``owner`` does not take."""
    given = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    foreign = sorted(given.keys() - accepted)
    if foreign:
        named = ", ".join("--" + k.replace("_", "-") for k in foreign)
        raise ValueError(f"{owner} does not take {named}")
    return given


def _variant_from_args(args) -> qubo.VariantSpec:
    # An unset flag takes the largest value of its default grid; a given
    # value off that grid is built, with a warning.
    params = qubo.variant_parameters(args.variant)
    given = _given_flags(args, _build_flags(), {label for label, _, _ in params},
                         f"variant {args.variant!r}")
    [variant] = qubo.variant_grid(
        args.variant, {label: [given.get(label, max(grid))] for label, _, grid in params})
    for (label, name, grid), (_, value) in zip(params, variant.params()):
        if value not in grid:
            print(f"warning: {name.replace('_', ' ')} {given[label]} is off the default grid "
                  f"{[str(s) for s in grid]}", file=sys.stderr)
    return variant


def cmd_build(args) -> int:
    inst = model.sanitize_instance(model.load_instance(args.instance))
    variant = _variant_from_args(args)
    q = qubo.build_qubo(inst, variant)
    qubo.save_qubo(q, args.output)
    label = qubo.variant_label(variant)
    _emit(args, f"wrote {args.output} ({label}): {q.n} variables, {len(q.coeffs)} coefficients",
          {"path": str(args.output), "variant": label, "variables": q.n,
           "coefficients": len(q.coeffs)})
    return EXIT_OK


# Every solver parameter of the registry is a ``solve`` flag of its type.
SOLVE_FLAGS: dict[str, type] = {key: solver.kind(key) for solver in bench.SOLVERS.values()
                                for key in (*solver.defaults, *solver.optional)}


def cmd_solve(args) -> int:
    # Unset flags keep the registry defaults.
    given = _given_flags(args, SOLVE_FLAGS, bench.SOLVERS[args.solver].keys(),
                         f"solver {args.solver!r}")
    # The plan's defaults merge and value check; the runner checks the seed.
    [(_, params)] = bench.expand_solver_params({"name": args.solver, "params": given})
    q = qubo.load_qubo(args.qubo)
    [[samples]] = bench.SOLVERS[args.solver].run([q], params, [args.seed])
    if args.postprocess:
        samples = solvers.postprocess_sampleset(q, samples)
    solvers.save_sampleset(samples, args.output)
    best = samples.best
    _emit(
        args,
        f"wrote {args.output}: {samples.total} samples, best energy {best.energy!r}",
        {
            "path": str(args.output),
            "samples": samples.total,
            "best_energy": best.energy,
            "best_bits": best.bits,
        },
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    plan = bench.load_plan(args.plan)
    try:
        records = bench.sweep(plan, workers=args.workers, base_dir=Path(args.plan).parent)
    except BrokenProcessPool:
        print("error: a sweep worker process died (for example, killed for memory); "
              "no reports were written", file=sys.stderr)
        return EXIT_TOO_LARGE
    paths = bench.export_report(records, args.output, plan=plan)
    failed = sum(1 for r in records if r.error is not None)
    _emit(
        args,
        f"{len(records)} runs ({failed} failed) -> {paths['report']}",
        {
            "runs": len(records),
            "failed": failed,
            "report": str(paths["report"]),
        },
    )
    return EXIT_OK


def _report_rows(report: dict, key: str, fields: dict[str, type | tuple]) -> list:
    """``report[key]`` when it is a list of objects whose ``fields`` hold
    values of the given types; ValueError otherwise."""
    rows = report.get(key, [])
    if not (isinstance(rows, list) and all(
            isinstance(row, dict) and all(k in row and isinstance(row[k], t)
                                          for k, t in fields.items())
            for row in rows)):
        raise ValueError(f"report.json {key!r} must be a list of objects holding "
                         f"{', '.join(fields)} as a sweep writes them")
    return rows


def cmd_report(args) -> int:
    report_path = Path(args.directory) / "report.json"
    report = model.load_json(report_path)
    if not isinstance(report, dict):
        raise ValueError("report.json must hold a JSON object")
    if args.select_best:
        rows = _report_rows(report, "best_penalties",
                            {"group": list, "variant_kind": object, "variant": object})
        if args.json:
            print(json.dumps(rows, sort_keys=True))
        else:
            if not rows:
                print("no scored runs to select from")
            for row in rows:
                group = ", ".join(str(g) for g in row["group"])
                print(f"{group} [{row['variant_kind']}] -> {row['variant']}")
        return EXIT_OK
    metrics = _report_rows(report, "metrics", {
        "instance_id": object, "variant": object, "solver": object, "solver_params": object,
        "percent_valid": (int, float, type(None))})
    if args.json:
        print(json.dumps(metrics, sort_keys=True))
    else:
        for row in metrics:
            pv = row["percent_valid"]
            pv_text = "undefined" if pv is None else f"{pv:.4f}"
            print(
                f"{row['instance_id']} {row['variant']} {row['solver']}"
                f"[{row['solver_params']}] valid={pv_text}"
            )
    return EXIT_OK


def cmd_stats(args) -> int:
    q = qubo.load_qubo(args.qubo)
    rows = [[f.name for f in fields(lrqaoa.CircuitStats)]]
    rows += [astuple(lrqaoa.circuit_stats(q, p)) for p in args.p]
    text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    if args.output:
        Path(args.output).write_text(text)
        _emit(args, f"wrote {args.output}", {"path": str(args.output)})
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressqubo",
        description="Assignment-planning QUBO toolkit: generate, compile, solve, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance file")
    p.add_argument("--toolkits", type=int, required=True)
    p.add_argument("--machines", type=int, required=True)
    p.add_argument("--capacity-bits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="compile an instance into a coefficient file")
    p.add_argument("instance")
    p.add_argument("--variant", choices=tuple(qubo.VARIANT_KINDS), required=True)
    for label, text in _build_flags().items():
        p.add_argument("--" + label.replace("_", "-"), help=text)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="sample a coefficient file with one solver")
    p.add_argument("qubo")
    p.add_argument("--solver", choices=tuple(bench.SOLVERS), required=True)
    for key, kind in SOLVE_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--postprocess", action="store_true",
                   help="apply the single-bit-flip improvement pass")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run a plan file and export reports")
    p.add_argument("plan")
    p.add_argument("-o", "--output", default=os.environ.get("PRESSQUBO_OUT", "pressqubo-out"))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarize a sweep output directory")
    p.add_argument("directory")
    p.add_argument("--select-best", action="store_true",
                   help="print the best variant per group")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stats", help="logical circuit-shape metrics of a coefficient file")
    p.add_argument("qubo")
    p.add_argument("--p", type=int, nargs="+", default=[1])
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TooLarge, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (Infeasible, GenerationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
