"""All five workloads in one command: the driver's own runs, in turn.

    PYTHONPATH=src python -m benchmarks.e2e --seed 7 [--selfcheck]

Runs the command ``BENCHMARK.json`` names, with its ``run_seconds``, as a
fresh process per workload — ir, ram, kvs, oram, serve with ``--trace 0``,
then the same five with ``--trace 1`` — one process at a time.  These are
the runs the driver makes, so the numbers compare with the driver's.
Every metric is printed by name and unit and written, with the spread
that was seen, to ``benchmarks/e2e/out/result.json``.  A run that exits
non-zero (a wrong answer, a failed op, a missing metric) stops the
command with that run's complaint on stderr.

``--selfcheck`` makes the ``--trace 0`` round twice, on the same code
and seed, and compares the two against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from . import measure


def driver_run(contract: dict, workload: str, seed: int, trace: int) -> dict:
    """One run as the driver makes it; the full result it left behind."""
    left_behind = measure.OUT / f"run_{workload}.json"
    left_behind.unlink(missing_ok=True)
    print(f"  {workload} --trace {trace}", file=sys.stderr)
    done = subprocess.run(
        [*contract["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(contract["run_seconds"]), "--trace", str(trace)],
        cwd=measure.ROOT, stdout=subprocess.DEVNULL,
    )
    if done.returncode:
        raise SystemExit(
            f"{workload} --trace {trace} exited {done.returncode}")
    with open(left_behind) as handle:
        return json.load(handle)


def spread(result: dict) -> dict:
    """What the wall-clock values looked like visit by visit."""
    visits = result["visits"]
    return {
        "op_us.segment_quartiles": [
            [ns / 1e3 for ns in v["segment_quartiles_ns"]] for v in visits],
        "ops_per_s.per_visit": [v["ops_per_s"] for v in visits],
        "setup_s.per_visit": [v["setup_s"] for v in visits],
        "peak_rss_mb.per_visit": [v["rss_kb"] / 1024 for v in visits],
    }


def selfcheck(first: dict, second: dict, bounds: dict) -> list[str]:
    """Differences between two rounds of runs that exceed their bounds."""
    over = []
    print(f"\n{'selfcheck':16s} {'metric':20s} {'first':>14s} "
          f"{'second':>14s} {'diff':>8s} {'bound':>7s}")
    for name, values in first.items():
        for metric, bound in bounds.items():
            a = values[metric]["value"]
            b = second[name][metric]["value"]
            diff = abs(b - a) / a
            flag = "" if diff <= bound else "  OVER"
            print(f"{name:16s} {metric:20s} {a:14.5f} {b:14.5f} "
                  f"{diff:8.2%} {bound:7.0%}{flag}")
            if flag:
                over.append(f"{name}.{metric} differs by {diff:.2%}")
    return over


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    contract = measure.contract()
    names = [workload["name"] for workload in contract["workloads"]]

    rounds = [{name: driver_run(contract, name, args.seed, 0)
               for name in names}
              for _ in range(2 if args.selfcheck else 1)]
    traced = {name: driver_run(contract, name, args.seed, 1)
              for name in names}

    report: dict = {"seed": args.seed, "env": traced[names[0]]["env"],
                    "workloads": {}}
    for name in names:
        # Wall-clock values come from the untraced run; the traced run
        # adds the layers' numbers (and re-measures the rest, distorted).
        report["workloads"][name] = {
            "metrics": traced[name]["metrics"] | rounds[0][name]["metrics"],
            "spread": spread(rounds[0][name]),
        }
    table = {name: entry["metrics"]
             for name, entry in report["workloads"].items()}
    print(f"{'metric':34s} {'unit':7s}" + "".join(f"{n:>16s}" for n in names))
    for metric, shown in table[names[0]].items():
        cells = "".join(f"{table[n][metric]['value']:16.4f}" for n in names)
        print(f"{metric:34s} {shown['unit']:7s}{cells}")

    over: list[str] = []
    if args.selfcheck:
        bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
        first, second = (
            {name: result["metrics"] for name, result in round_.items()}
            for round_ in rounds)
        over = selfcheck(first, second, bounds)
        report["selfcheck"] = {"over": over}

    with open(measure.OUT / "result.json", "w") as handle:
        json.dump(report, handle, indent=1)
    for line in over:
        print(f"WRONG: {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
