#!/usr/bin/env python3
"""Build and run the COMMSET benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload compile|exec|exec_codegen|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and the commsetc daemon with dune, then runs
one workload in a fresh process with synthetic burn off
(COMMSET_EXEC_NS_PER_CYCLE=0) and every cache, socket and temporary
file under .bench_build/perfbench. The last stdout line is one JSON
object: end-to-end metrics with --trace 0; with --trace 1 the per-layer
metrics of a traced run plus trace_overhead.<metric>, the traced minus
the untraced value of each end-to-end metric, both runs made here with
the same seed. The exit code is non-zero when any check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("compile", "exec", "exec_codegen", "serve")
# a run must end within 180 s; --trace 1 makes two runs
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
E2E = ("setup_s", "peak_rss_mb", "op_cpu_ms")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, env, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{' '.join(cmd)} did not finish within {timeout}s")
    return proc.returncode, out


def bench(exe, args, env, state, traced):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--commsetc", os.path.join("_build", "default", "bin", "commsetc.exe"),
           "--state", state]
    code, out = run(cmd, env, RUN_TIMEOUT_S // (2 if args.trace else 1))
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        die(f"{args.workload} run failed (exit {code})")
    return lines[:-1], json.loads(lines[-1])


def rows(lines):
    """The `metric <name> <value> <unit>` rows of a run."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            die(f"run from the root of a COMMSET checkout ({needed} not found)")

    state = os.path.abspath(os.path.join(".bench_build", "perfbench"))
    os.makedirs(os.path.join(state, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "COMMSET_EXEC_NS_PER_CYCLE": "0",
        "COMMSET_CODEGEN_CACHE": os.path.join(state, "codegen-cache"),
        "TMPDIR": os.path.join(state, "tmp"),
        "XDG_CACHE_HOME": os.path.join(state, "xdg-cache"),
        "DUNE_CACHE": "disabled",
    })
    for k in ("COMMSET_TRACE", "COMMSET_JOBS", "COMMSET_CALIB_DIR"):
        env.pop(k, None)

    code, out = run(["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/commsetc.exe"],
                    env, BUILD_TIMEOUT_S)
    if code != 0:
        sys.stdout.write(out)
        die("build failed")
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")

    if args.trace == 0:
        lines, result = bench(exe, args, env, state, traced=False)
        print("\n".join(lines))
        print(json.dumps(result))
        return
    plain_lines, plain = bench(exe, args, env, state, traced=False)
    lines, traced = bench(exe, args, env, state, traced=True)
    print("\n".join("untraced " + line for line in plain_lines))
    print("\n".join(lines))
    # overhead of every end-to-end row, the wall-clock ones included (the
    # untraced run prints no per-layer rows)
    plain_rows = rows(plain_lines)
    for name, (value, unit) in rows(lines).items():
        if name in plain_rows:
            print(f"metric trace_overhead.{name} {value - plain_rows[name][0]:.6f} {unit}")
    metrics = {k: v for k, v in traced["metrics"].items() if k not in E2E}
    for k in E2E:
        metrics["trace_overhead." + k] = {
            "value": traced["metrics"][k]["value"] - plain["metrics"][k]["value"],
            "unit": traced["metrics"][k]["unit"],
        }
    print(json.dumps({
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
