"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/probe.py WORKLOAD SEED WORKDIR

Set-up is importing keyedmod and building the workload's schemes, keys
and config objects through its API; generating the inputs is not timed.
Prints one JSON line, ``{"setup_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

import locate


def main(argv) -> int:
    workload, seed, workdir = argv
    locate.use_source_tree()
    import inputs

    inp = inputs.generate(workload, int(seed), Path(workdir))
    start = time.perf_counter()
    import workloads

    workloads.build(workload, inp, Path(workdir))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
