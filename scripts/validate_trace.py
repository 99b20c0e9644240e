#!/usr/bin/env python
"""Validate a trace JSON written by ``--trace`` against the span schema.

Hand-rolled (stdlib-only — no jsonschema in the image) structural check
of the contract ``repro.obs.tracer.Tracer.export()`` promises and the
equivalence tests rely on:

* top level: ``{"version": 1, "name": <str>, "spans": [...]}``;
* span ids are dotted decimal paths (``"0"``, ``"0.2.1"``), unique, and
  listed in sorted path order;
* every non-null ``parent`` names an existing span whose id is the
  dotted prefix of the child's id — the flat list is a forest;
* ``name`` is a non-empty string; ``labels`` maps strings to scalars
  (bool/int/float/str/None) — the trace-hygiene contract's wire shape;
* ``sim_start_ms``/``sim_end_ms``/``wall_ms`` are numbers or null, with
  ``sim_end_ms >= sim_start_ms`` when both are set;
* ``error`` is null or a string.

With ``--metrics metrics.json`` the metrics JSON export written by
``--metrics PATH`` is validated too, against the
``MetricsRegistry.to_json()`` contract:

* top level: ``{"version": 1, "metrics": [...]}``;
* every sample carries ``name`` (Prometheus-shaped), ``type``
  (counter/gauge/histogram), ``labels`` (str -> str) and ``value`` —
  a number for counters/gauges, a stats object with at least
  ``count``/``sum`` for histograms.

Exit 0 when the file(s) conform, 1 with one line per violation
otherwise::

    python -m repro run --scheme cluster_dp_ir --ops 32 --trace trace.json \
        --metrics metrics.json
    python scripts/validate_trace.py trace.json --metrics metrics.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

SPAN_ID = re.compile(r"^\d+(\.\d+)*$")

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

METRIC_TYPES = {"counter", "gauge", "histogram"}

SAMPLE_FIELDS = {"name", "type", "labels", "value"}

SCALARS = (bool, int, float, str, type(None))

SPAN_FIELDS = {
    "id", "parent", "name", "labels",
    "sim_start_ms", "sim_end_ms", "wall_ms", "error",
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _path(span_id: str) -> tuple[int, ...]:
    return tuple(int(part) for part in span_id.split("."))


def validate(payload: object) -> list[str]:
    """All schema violations in ``payload`` (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    if payload.get("version") != 1:
        problems.append(f"version must be 1, got {payload.get('version')!r}")
    if not isinstance(payload.get("name"), str):
        problems.append(f"name must be a string, got {payload.get('name')!r}")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        problems.append("spans must be a list")
        return problems

    seen: dict[str, int] = {}
    for position, span in enumerate(spans):
        where = f"spans[{position}]"
        if not isinstance(span, dict):
            problems.append(f"{where}: span must be an object")
            continue
        unknown = set(span) - SPAN_FIELDS
        missing = SPAN_FIELDS - set(span)
        if unknown:
            problems.append(f"{where}: unknown field(s) {sorted(unknown)}")
        if missing:
            problems.append(f"{where}: missing field(s) {sorted(missing)}")
            continue

        span_id = span["id"]
        if not (isinstance(span_id, str) and SPAN_ID.match(span_id)):
            problems.append(
                f"{where}: id {span_id!r} is not a dotted decimal path"
            )
            continue
        if span_id in seen:
            problems.append(
                f"{where}: duplicate id {span_id!r} "
                f"(first at spans[{seen[span_id]}])"
            )
        seen[span_id] = position

        parent = span["parent"]
        if parent is not None:
            if not (isinstance(parent, str) and SPAN_ID.match(parent)):
                problems.append(f"{where}: parent {parent!r} is not a span id")
            elif not span_id.startswith(parent + "."):
                problems.append(
                    f"{where}: id {span_id!r} is not nested under "
                    f"parent {parent!r}"
                )
            elif parent not in seen:
                # Sorted path order lists every parent before its children.
                problems.append(
                    f"{where}: parent {parent!r} does not precede its child"
                )

        if not (isinstance(span["name"], str) and span["name"]):
            problems.append(
                f"{where}: name must be a non-empty string, "
                f"got {span['name']!r}"
            )
        labels = span["labels"]
        if not isinstance(labels, dict):
            problems.append(f"{where}: labels must be an object")
        else:
            for key, value in labels.items():
                if not isinstance(key, str):
                    problems.append(f"{where}: label key {key!r} not a string")
                if not isinstance(value, SCALARS):
                    problems.append(
                        f"{where}: label {key!r} must be scalar, "
                        f"got {type(value).__name__}"
                    )
        for field in ("sim_start_ms", "sim_end_ms", "wall_ms"):
            if span[field] is not None and not _is_number(span[field]):
                problems.append(
                    f"{where}: {field} must be a number or null, "
                    f"got {span[field]!r}"
                )
        if (
            _is_number(span["sim_start_ms"])
            and _is_number(span["sim_end_ms"])
            and span["sim_end_ms"] < span["sim_start_ms"]
        ):
            problems.append(
                f"{where}: sim_end_ms {span['sim_end_ms']} precedes "
                f"sim_start_ms {span['sim_start_ms']}"
            )
        if span["error"] is not None and not isinstance(span["error"], str):
            problems.append(
                f"{where}: error must be null or a string, "
                f"got {span['error']!r}"
            )

    ids = [span_id for span_id in seen]
    if ids != sorted(ids, key=_path):
        problems.append("spans are not in sorted path order")
    return problems


def validate_metrics(payload: object) -> list[str]:
    """All metrics-export violations in ``payload`` (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    if payload.get("version") != 1:
        problems.append(f"version must be 1, got {payload.get('version')!r}")
    samples = payload.get("metrics")
    if not isinstance(samples, list):
        problems.append("metrics must be a list")
        return problems

    for position, sample in enumerate(samples):
        where = f"metrics[{position}]"
        if not isinstance(sample, dict):
            problems.append(f"{where}: sample must be an object")
            continue
        unknown = set(sample) - SAMPLE_FIELDS
        missing = SAMPLE_FIELDS - set(sample)
        if unknown:
            problems.append(f"{where}: unknown field(s) {sorted(unknown)}")
        if missing:
            problems.append(f"{where}: missing field(s) {sorted(missing)}")
            continue
        name = sample["name"]
        if not (isinstance(name, str) and METRIC_NAME.match(name)):
            problems.append(
                f"{where}: name {name!r} is not a valid metric name"
            )
        kind = sample["type"]
        if kind not in METRIC_TYPES:
            problems.append(
                f"{where}: type must be one of {sorted(METRIC_TYPES)}, "
                f"got {kind!r}"
            )
        labels = sample["labels"]
        if not isinstance(labels, dict):
            problems.append(f"{where}: labels must be an object")
        else:
            for key, value in labels.items():
                if not isinstance(key, str):
                    problems.append(f"{where}: label key {key!r} not a string")
                if not isinstance(value, str):
                    problems.append(
                        f"{where}: label {key!r} must be a string "
                        f"(stringified at record time), "
                        f"got {type(value).__name__}"
                    )
        value = sample["value"]
        if kind == "histogram":
            if not isinstance(value, dict):
                problems.append(
                    f"{where}: histogram value must be a stats object"
                )
            else:
                for stat in ("count", "sum"):
                    if not _is_number(value.get(stat)):
                        problems.append(
                            f"{where}: histogram value needs numeric "
                            f"{stat!r}, got {value.get(stat)!r}"
                        )
                for stat, figure in value.items():
                    if not _is_number(figure):
                        problems.append(
                            f"{where}: histogram stat {stat!r} must be a "
                            f"number, got {figure!r}"
                        )
        elif not _is_number(value):
            problems.append(
                f"{where}: {kind} value must be a number, got {value!r}"
            )
    return problems


def _check(
    path: pathlib.Path, validator, describe
) -> int:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"missing {path}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON ({exc})", file=sys.stderr)
        return 1

    problems = validator(payload)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        print(f"{path}: {len(problems)} schema violation(s)",
              file=sys.stderr)
        return 1
    print(describe(path, payload))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace", type=pathlib.Path,
                        help="trace JSON written by --trace")
    parser.add_argument("--metrics", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="also validate a metrics JSON export "
                             "written by --metrics PATH")
    args = parser.parse_args(argv)

    def describe_trace(path: pathlib.Path, payload: dict) -> str:
        spans = payload["spans"]
        roots = sum(1 for span in spans if span["parent"] is None)
        return f"{path}: valid trace — {len(spans)} spans, {roots} roots"

    status = _check(args.trace, validate, describe_trace)
    if args.metrics is not None:
        def describe_metrics(path: pathlib.Path, payload: dict) -> str:
            return (f"{path}: valid metrics export — "
                    f"{len(payload['metrics'])} series")

        status = max(
            status, _check(args.metrics, validate_metrics, describe_metrics)
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
