"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing dinet and building the workload's inputs: the
synthetic table, and on ensemble-predict the one training run and the
20k-row predict table.  Prints the seconds as one JSON number.

    python3 perfbench/setup_probe.py --workload smoke-train --seed 1
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.build(args.workload, args.seed)
    print(perf_counter() - START)


if __name__ == "__main__":
    main()
