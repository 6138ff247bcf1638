"""One set-up, timed in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR NAME [NAME ...]

Imports `daesvr` from SRC_DIR, then loads and self-checks each named problem,
and prints one JSON object with the three stage times in seconds.  Exits 2
when `daesvr` resolves to a copy outside SRC_DIR.
"""

import json
import os
import sys
from time import perf_counter


def main(argv):
    src, names = os.path.abspath(argv[0]), argv[1:]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import daesvr

    t1 = perf_counter()
    if not os.path.abspath(daesvr.__file__).startswith(src + os.sep):
        print(f"daesvr was imported from {daesvr.__file__}, not from {src}", file=sys.stderr)
        return 2
    problems = {name: daesvr.load_problem(name) for name in names}
    t2 = perf_counter()
    for name, problem in problems.items():
        daesvr.self_check(name, problem, daesvr.CASES[name].probes)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "self_check_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
