"""One workload's set-up in a fresh interpreter: the program's imports, input
generation and CSV writing, timed from the interpreter's first statement.

    python3 perfbench/prepare.py WORKLOAD SEED INDIR

Writes the workload's inputs into INDIR and prints {"setup_s": seconds}.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv):
    name, seed, indir = argv
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import fairlists.cli  # noqa: F401  the imports every CLI call pays
    import workloads

    wl = workloads.WORKLOADS[name]
    wl.prepare(indir, wl.n, int(seed))
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
