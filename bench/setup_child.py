"""One fresh-interpreter set-up, timed by the harness from process start.

    python3 bench/setup_child.py WORKLOAD WORKDIR SEED TINY TRACE

Imports qsatwalk, loads the workload's input files and makes one zero-step
engine call, then prints {"ready": <monotonic clock>, "spans": [...]}.
"""

import json
import sys
import time
from pathlib import Path

from spans import Tracer


def main(argv) -> int:
    name, workdir, seed, tiny, trace = argv
    tracer = Tracer(enabled=trace == "1")
    with tracer.span("setup.import"):
        import qsatwalk  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS

    WORKLOADS[name](Path(workdir), int(seed), tiny == "1").setup(tracer)
    print(json.dumps({"ready": time.monotonic(), "spans": tracer.dump()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
