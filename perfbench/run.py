"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ablate-cpu --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` replays the
same requests under spans, writes the spans as JSON lines under
``.bench_build/perfbench/`` and prints the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed check exits 1; a
checkout without the program's sources exits 2 without a result.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flairr" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flairr

    if Path(flairr.__file__).resolve().parent != SRC / "flairr":
        print(f"error: imported flairr from {flairr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work_root = ROOT / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=work_root) as workdir:
        workload = workloads.WORKLOADS[args.workload]()
        spans_out = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result, problems = workloads.run(
            workload, args.seed, args.seconds, bool(args.trace), Path(workdir), SRC,
            spans_out if args.trace else None,
        )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
