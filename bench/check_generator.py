"""Check that the workload generator is a pure function of the seed.

Usage (from the repository root):

    python3 bench/check_generator.py [SEED]

For every workload: the same seed gives byte-identical arguments and
input files, and the next seed gives different input files (hh-grid has
no input files, so only the order of its commands can change).  That
the CLI accepts every generated input is checked by every benchmark
run, which counts a rejected input as a failed command.  Exits 1 on
the first violation.
"""

from __future__ import annotations

import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402  (needs the sources on sys.path first)


def main(argv) -> int:
    seed = int(argv[0]) if argv else 1
    ok = True
    for workload in gen.WORKLOADS:
        first = gen.fingerprint(gen.generate(workload, seed))
        again = gen.fingerprint(gen.generate(workload, seed))
        other = gen.fingerprint(gen.generate(workload, seed + 1))
        same = first == again
        differs = first != other
        print(f"{workload:14s} same seed identical: {same}   next seed differs: {differs}")
        ok = ok and same and (differs or workload == "hh-grid")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
