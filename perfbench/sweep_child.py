"""One ``pressqubo sweep`` in a fresh interpreter, with its timings.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``.
The import of ``pressqubo`` comes first, so the set-up time runs from
the spawn until that import returns.  The sweep is timed from the
``cli.main`` call until it returns, after the three report files are
written.  CPU time covers this process and the pool workers it has
joined by then.  Results go to the JSON file named by ``--result``.
"""

import time

import pressqubo

READY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--plan")
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--spans", help="trace the sweep and write its spans here")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    doc = {"ready": READY, "pressqubo": pressqubo.__file__}
    if args.plan:
        from pressqubo import cli

        tracer = None
        if args.spans:
            from spans import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        code = cli.main(["sweep", args.plan, "-o", args.out, "--workers", str(args.workers)])
        end = time.perf_counter()
        doc.update(exit_code=code, sweep_s=end - start, cpu_s=_cpu_s() - cpu0)
        if tracer is not None:
            tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
