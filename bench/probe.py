"""Set-up probe: in this fresh interpreter, time `import cardauthsim`
(with its command-line module) and then one workload's first operation,
and then the reference computation of reference.py.

    python3 bench/probe.py --workload session-mix --seed 1 --workdir DIR

`run.py` starts several of these and reports the median as `setup_s`.
Prints one JSON object: {"import_s": ..., "first_op_s": ...,
"reference_s": [...]}, the last the reference's times.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
_start = time.perf_counter()
import cardauthsim  # noqa: E402,F401
import cardauthsim.cli  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import time_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_REPEATS = 15


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--words", type=int, default=10_000)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    root = Path(__file__).resolve().parent.parent
    workload = WORKLOADS[args.workload](args.seed, root, args.workdir, args.words)
    start = time.perf_counter()
    ok = workload.setup()
    first_op_s = time.perf_counter() - start
    if not ok:
        print(f"{args.workload}: first operation gave a wrong result", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": IMPORT_S, "first_op_s": first_op_s,
                      "reference_s": time_reference(REFERENCE_REPEATS)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
