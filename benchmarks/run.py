"""Benchmark of pointcl: contrastive pretraining followed by evaluation, on
three workloads, timed end to end or per module.

    python3 benchmarks/run.py --workload desk-cls-probe --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pointcl is imported from ./src.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--smoke`` runs the same code paths and checks
at tiny sizes in seconds.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; per-run files
go to bench_out/<workload>/.  Exit status 0 means every check passed.
"""

import os

# One BLAS thread.  OpenBLAS reads this when numpy loads, so it must be set
# before any import that pulls numpy in; see README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-cls-probe", "full-cls-ckpt", "desk-seg-smooth")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30,
                    help="sets the pretraining length (about this long on a 2-core host)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all checks")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (SRC / "pointcl" / "__init__.py").is_file():
        print(f"error: pointcl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pointcl
    if Path(pointcl.__file__).resolve().parent != SRC / "pointcl":
        print(f"error: imported pointcl from {pointcl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.BENCH
    tag = f"seed{args.seed}-s{args.seconds}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    run_dir = ROOT / "bench_out" / args.workload / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    line, details = workloads.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), sizes, str(run_dir), T_START)
    workloads.write_details(details, str(run_dir))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
