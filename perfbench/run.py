"""Seeded benchmark of the fairlists CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is imported from its
`src/` directory.  Set-up (imports, input generation, CSV writing) is timed
five times, each in a fresh interpreter, and reported as a median.  Then
whole passes of the workload's CLI calls run in-process until `--seconds`
have passed, enough ops have run for the tail percentile to have ten ops
beyond it, and at least two untraced passes are done.

With `--trace 0` only the op boundary is wrapped, and the run reports the
end-to-end metrics.  With `--trace 1` untraced and traced passes alternate,
and the run reports the per-layer metrics of the traced passes; the
difference of the two pass times is `trace.overhead_s`.

Every pass's result files are digested and must agree; the first pass's
files are checked model by model, and at the default seed the digest must
equal the one recorded in reference.json.  A human-readable summary goes to
standard output, followed by one JSON line with `correct`, `attempted`,
`failed` and `metrics`.  Without the program's sources the run exits with
code 2 and prints no result.
"""

import argparse
import os
import shutil
import sys
from pathlib import Path

from inputs import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fairlists" / "__init__.py").is_file():
        print("perfbench: no fairlists sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    work = WORK / ("%s-%d" % (wl.name, os.getpid()))
    try:
        measure.run(wl, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
