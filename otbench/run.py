#!/usr/bin/env python3
"""Build and run the otock benchmark (see BENCHMARK.json at the repository root).

Run from the root of an otock checkout:

    python3 otbench/run.py --workload fleet-boot --seed 1 --seconds 20 --trace 0
    python3 otbench/run.py --selftest

It builds otbench/main.exe from source with dune, then

  * --trace 0: launches the executable in set-up-only mode a few times and
    once for the timed run; setup_s is the median of all those set-ups
    (each measured from the launch instant to the first timed simulated
    cycle), the other end-to-end metrics come from the timed run;
  * --trace 1: launches one traced run that prints the per-layer metrics
    and writes a Chrome/Perfetto trace into .otbench/.

The last line of standard output is the result object. Any failure
(not a checkout, build error, crash, timeout, malformed result) exits
non-zero without printing one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "otbench", "main.exe")
OUT_DIR = ".otbench"
WORKLOADS = ("fleet-boot", "fleet-park", "rot-serve")
SETUP_PROBES = 4
# The build may take minutes in a fresh checkout; everything after it must
# finish within RUN_DEADLINE_S.
BUILD_TIMEOUT_S = 800.0
RUN_DEADLINE_S = 170.0


def die(msg):
    print("otbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "fleet"))):
        die("run from the root of an otock checkout (dune-project and lib/fleet not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./otbench/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed (exit %d)" % r.returncode)


def launch(args, deadline):
    """Run the executable to completion; return its stdout lines."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("out of time before launching %s" % args[0])
    try:
        r = subprocess.run([EXE] + args + ["--t0-ns", str(time.monotonic_ns())],
                           env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s timed out" % " ".join(args[:3]))
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("%s exited %d" % (" ".join(args[:3]), r.returncode))
    lines = r.stdout.splitlines()
    if not lines:
        die("%s printed nothing" % " ".join(args[:3]))
    return lines


def result_of(lines, names):
    try:
        res = json.loads(lines[-1])
    except ValueError:
        die("malformed result line: %r" % lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"] or res["attempted"] < 1:
        die("result line has the wrong shape")
    if sorted(res["metrics"]) != sorted(names):
        die("result metrics differ from BENCHMARK.json")
    return res


def contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def bench(a):
    spec = contract()
    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace:
        lines = launch(["run"] + common + ["--seconds", str(a.seconds), "--trace", "1"], deadline)
        res = result_of(lines, [m["name"] for m in spec["per_layer"]])
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = launch(["setup"] + common, deadline)
            setups.append(json.loads(probe[-1])["setup_s"])
        lines = launch(["run"] + common + ["--seconds", str(a.seconds), "--trace", "0"], deadline)
        res = result_of(lines, [m["name"] for m in spec["end_to_end"]])
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples: " + " ".join("%.6f" % s for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res))


def selftest():
    """Tiny sizes of all three workloads, end to end."""
    spec = contract()
    build()
    deadline = time.monotonic() + 600
    problems = []
    whys = {w["name"]: w.get("why", "") for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def run(w, trace, extra=()):
        args = ["run", "--workload", w, "--seed", "3", "--seconds", "0", "--tiny",
                "--trace", "1" if trace else "0"] + list(extra)
        lines = launch(args, deadline)
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        res = result_of(lines, names)
        for name, m in res["metrics"].items():
            if m["unit"] != units[name]:
                problems.append("%s %s: unit %s, BENCHMARK.json says %s" % (w, name, m["unit"], units[name]))
        fps = [l for l in lines if l.startswith("fingerprint: %s " % w)]
        return res, lines, fps

    for w in WORKLOADS:
        if not whys.get(w) or "\n" in whys[w]:
            problems.append("%s: BENCHMARK.json records no one-line reason" % w)
        a, _, fa = run(w, False)
        b, _, fb = run(w, False)
        t, tl, ft = run(w, True)
        for res, mode in ((a, "trace 0"), (b, "trace 0"), (t, "trace 1")):
            if not res["correct"] or res["failed"]:
                problems.append("%s (%s): correct=%s failed=%d" % (w, mode, res["correct"], res["failed"]))
        if not fa or fa != fb or fa != ft:
            problems.append("%s: fingerprint does not repeat: %s / %s / %s" % (w, fa, fb, ft))
        if w != "rot-serve" and not any(l.startswith("replay: reproduces fr_stats") for l in tl):
            problems.append("%s: traced replay does not reproduce fr_stats" % w)
        print("selftest: %s ok so far (%d problems)" % (w, len(problems)))
    # The checker must be able to fail: a fault-injector board is a failed board.
    f, _, _ = run("fleet-park", False, ["--fault-board", "5"])
    if f["correct"] or f["failed"] < 1:
        problems.append("fault board not caught: correct=%s failed=%d" % (f["correct"], f["failed"]))
    else:
        print("selftest: fault board caught, failed_frac = %d/%d" % (f["failed"], f["attempted"]))
    for p in problems:
        print("selftest: FAIL: " + p)
    print("selftest: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.selftest:
        sys.exit(selftest())
    if not a.workload:
        p.error("--workload is required")
    bench(a)


if __name__ == "__main__":
    main()
