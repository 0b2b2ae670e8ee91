"""Set-up time of one in-process workload, in a fresh interpreter.

Usage: ``python bench/setup_probe.py WORKLOAD SEED``

Prints the seconds spent importing the workload module (and with it
tessarine, numpy and scipy) and making the workload's inputs for SEED:
what the measuring process does before its first timed op.
"""

import sys
import time


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].prepare(seed)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
