#!/usr/bin/env python3
"""Validate `commsetc stat --format=json` (and `commsetc run --format=json`)
output against ci/stat-schema.json (stdlib only — the same small schema
interpreter as check_suggest.py: type / required / properties / items /
enum, with ["X", "null"] unions), then assert the attribution invariants:
no output mismatch, every attributed plan's per-cause components sum to
its iteration wall within the conservation bound, the six causes are
all present exactly once, and its compute inflation is a finite
positive number.

Usage: check_stat.py <schema.json> <output.json> [<max-conservation-error>]
"""
import json
import math
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}

CAUSES = ["dispatch_wait", "lock_wait", "frontier_wait", "builtin", "compute", "merge"]


def validate(value, schema, path="$"):
    errors = []
    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append("%s: %r not in %r" % (path, value, schema["enum"]))
        return errors
    t = schema.get("type")
    if t is not None:
        allowed = t if isinstance(t, list) else [t]
        py = tuple(TYPES[a] for a in allowed)
        # bool is an int subclass in python; keep number/integer honest
        if isinstance(value, bool) and "boolean" not in allowed:
            errors.append("%s: expected %s, got boolean" % (path, allowed))
            return errors
        if not isinstance(value, py):
            errors.append(
                "%s: expected %s, got %s" % (path, allowed, type(value).__name__)
            )
            return errors
    if isinstance(value, dict):
        for k in schema.get("required", []):
            if k not in value:
                errors.append("%s: missing required key %r" % (path, k))
        for k, sub in schema.get("properties", {}).items():
            if k in value:
                errors.extend(validate(value[k], sub, "%s.%s" % (path, k)))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], "%s[%d]" % (path, i)))
    return errors


def main():
    schema_path, out_path = sys.argv[1], sys.argv[2]
    bound = float(sys.argv[3]) if len(sys.argv) > 3 else 0.05
    with open(schema_path) as f:
        schema = json.load(f)
    with open(out_path) as f:
        out = json.load(f)

    errors = validate(out, schema)
    if errors:
        for e in errors:
            print("schema violation: %s" % e, file=sys.stderr)
        sys.exit("%s does not match %s" % (out_path, schema_path))
    print("%s: schema ok" % out_path)

    if not out["plans"]:
        sys.exit("%s: no plans were executed" % out["workload"])

    for p in out["plans"]:
        tag = "%s / %s" % (out["workload"], p["plan"])
        if p["fidelity"] == "MISMATCH":
            sys.exit("%s: output MISMATCH" % tag)
        a = p["attribution"]
        if a is None:
            sys.exit("%s: engine %s ran without attribution" % (tag, p["engine"]))
        ci = p["compute_inflation"]
        if ci is None or not (math.isfinite(ci) and ci > 0):
            sys.exit("%s: compute inflation %r is not a finite positive number" % (tag, ci))
        names = [c["cause"] for c in a["causes"]]
        if sorted(names) != sorted(CAUSES):
            sys.exit("%s: causes %s != expected %s" % (tag, names, CAUSES))
        if a["conservation_error"] > bound:
            sys.exit(
                "%s: components sum to %.2f%% away from iteration wall (bound %.0f%%)"
                % (tag, 100 * a["conservation_error"], 100 * bound)
            )
        by = {c["cause"]: c for c in a["causes"]}
        wall = a["iter_wall_ns"]
        parts = sum(
            by[k]["total_ns"] for k in ("lock_wait", "frontier_wait", "builtin", "compute")
        )
        if wall > 0 and abs(parts - wall) / wall > bound:
            sys.exit(
                "%s: recomputed component sum %.0fns vs wall %.0fns exceeds %.0f%%"
                % (tag, parts, wall, 100 * bound)
            )
        for c in a["causes"]:
            if not (c["p50_ns"] <= c["p95_ns"] <= c["p99_ns"]):
                sys.exit("%s: %s quantiles not monotone" % (tag, c["cause"]))
        u = a["coordinator"]["utilization"]
        if not (0.0 <= u <= 1.0 + 1e-9):
            sys.exit("%s: coordinator utilization %r out of [0,1]" % (tag, u))
        print(
            "%s: attribution ok — %d iter(s), conservation %.2f%%, "
            "coordinator %.0f%% busy, compute inflation %.2f"
            % (tag, a["iterations"], 100 * a["conservation_error"], 100 * u, ci)
        )


if __name__ == "__main__":
    main()
