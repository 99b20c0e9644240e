"""One workload, one run: the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload ram_mixed --seed 7 \\
        --seconds 18 --trace 0

Prints every metric it measured by name and unit, then — as the last
line — one JSON object with ``correct``, ``attempted``, ``failed`` and
the metrics ``BENCHMARK.json`` lists (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  The full result, spreads included, goes
to ``benchmarks/e2e/out/run_<workload>.json``.  Exits non-zero when any
answer was wrong, an op raised or was refused, epsilon or the client's
state rose above what the workload declares, or a metric is missing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
# The checkout is not installed: the program under test lives in src/,
# and this package is imported as benchmarks.e2e from the root.
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import measure
from benchmarks.e2e.workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time, shared by the visits")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    result = measure.run(
        spec, args.seed, seconds=args.seconds, trace=bool(args.trace))
    values = measure.metrics(result)
    wrong = measure.problems(spec, result)

    listed = measure.contract()["per_layer" if args.trace else "end_to_end"]
    reported = {}
    for entry in listed:
        value, unit = values.get(entry["name"], (None, None))
        if value is None or unit != entry["unit"]:
            wrong.append(f"metric {entry['name']} [{entry['unit']}] missing")
            continue
        reported[entry["name"]] = {"value": value, "unit": unit}

    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
    result["problems"] = wrong
    measure.OUT.mkdir(exist_ok=True)
    with open(measure.OUT / f"run_{spec.name}.json", "w") as handle:
        json.dump(result, handle, indent=1)

    print(f"# {spec.name} seed={args.seed} visits={len(result['visits'])} "
          f"segments={sum(v['segments'] for v in result['visits'])} "
          f"model-pass samples={result['model']['samples']}")
    for name, (value, unit) in values.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": int(values["attempted"][0]),
        "failed": int(values["failed"][0]),
        "metrics": reported,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
