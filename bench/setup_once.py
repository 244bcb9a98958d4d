"""Time one set-up of a workload in this fresh process and print the seconds.

    python3 bench/setup_once.py WORKLOAD [--smoke]

run.py starts this script several times per run. Each sample is the set-up a
user's process pays: the first load, validation and ``build_context`` after
start, with fresh memory and FFT plans. Imports happen before the clock starts.
"""

import sys
import time

import run


def main() -> int:
    run.pin_environment()
    run.import_package()
    import numpy.polynomial  # noqa: F401  imported lazily by numpy; not set-up work
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]](run.ROOT, run.ROOT / ".bench_out" / sys.argv[1],
                                      "--smoke" in sys.argv[2:])
    t = time.perf_counter()
    workload.setup()
    print(repr(time.perf_counter() - t))
    return 0


if __name__ == "__main__":
    sys.exit(main())
