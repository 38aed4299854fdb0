"""A complete benchmark sweep, from plan to reports.

Builds a plan covering the full penalty grid (9 raw + 2 scaled + 1
rounded combinations) with two samplers and two seeds, runs it, writes
the CSV/JSON reports, and prints the best-variant selection and the
cross-sampler correlation rows.  Everything is seeded: running this
script twice produces byte-identical report files, so it prints their
sha256 digests.  The files go to a temporary directory that is removed
when the script ends.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pressqubo as pq
from pressqubo import bench

with tempfile.TemporaryDirectory(prefix="pressqubo-demo-") as tmp:
    workdir = Path(tmp)

    # Two bundled instances keep the sweep quick but give the correlation
    # rows a two-point series to work with.  The plan names them relative
    # to its directory, so report.json, which records the plan, does not
    # depend on where that directory is.
    instance_paths = []
    for name in ("press-small", "press-03x2"):
        pq.save_instance(pq.bundled_instance(name), workdir / f"{name}.json")
        instance_paths.append(f"{name}.json")

    plan = {
        "instances": instance_paths,
        "variants": [{"kind": "raw"}, {"kind": "scaled"}, {"kind": "rounded"}],
        "solvers": [
            {"name": "sa", "params": {"steps": 1280, "restarts": 200}},
            {"name": "random", "params": {"shots": 1000}},
        ],
        "seeds": [0, 1],
        "postprocess": True,
    }
    (workdir / "plan.json").write_text(json.dumps(plan, indent=2))

    records = bench.sweep(plan, base_dir=workdir)
    paths = bench.export_report(records, workdir / "out", plan=plan)
    print(f"{len(records)} runs -> {paths['report']}")

    failed = [r for r in records if r.error]
    print(f"failed cells: {len(failed)}")

    print("\nbest variant per (instance, sampler, parameters):")
    for group, variant in sorted(bench.select_best_penalty(records).items()):
        print(f"  {group[:-1]} [{group[-1]}] -> {pq.qubo.variant_label(variant)}")

    print("\ncross-sampler correlations (per-instance means):")
    rows = bench.series_correlations(records)
    for row in rows:
        print(f"  {row['variant_kind']:<8} {row['metric']:<17} "
              f"{row['solver_a']} vs {row['solver_b']}: r = {row['r']:+.4f}")
    if not rows:
        print("  (needs at least two instances with defined metrics on both samplers)")
    else:
        print("  (a two-instance demo gives two-point series, which correlate"
              " to exactly +/-1; sweep more instances for informative values)")

    print("\nsha256 of the report files:")
    for name in sorted(paths):
        print(f"  {paths[name].name:<12} {hashlib.sha256(paths[name].read_bytes()).hexdigest()}")
    print("rerun me and compare: the files are identical byte for byte")
