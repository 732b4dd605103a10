#!/usr/bin/env python3
"""End-to-end packet-recovery benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds the library and the measuring program from source
(CMake, Release, into .bench_build/), measures set-up time in several
fresh processes, runs workload W for S seconds and prints, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer ledger and writes a Chrome trace to .bench_build/.

--self-check runs every workload for a handful of operations and checks
metric names and units against BENCHMARK.json, digest stability across
repeated runs, traced vs untraced runs, every available GF(256) backend
and a PPR_OBS_OFF build, equivalence with the library entry points, and
the trace schema (bench/validate_trace.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("wave_pparq", "chip_pparq", "chip_coded", "flow_engine")
# Fresh processes whose set-up time is measured; the reported set-up
# time is the median of these and the measuring run's own.
SETUP_PROCESSES = 10
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "delivered_frac": "ratio",
    "airtime_bits_per_op": "bits",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name):
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_ms_per_op"):
        return "ms"
    if name.endswith(".msamples_per_s"):
        return "Msamples/s"
    if name.endswith("bits_per_round"):
        return "bits"
    if name.endswith(".span_bytes"):
        return "bytes"
    if name == "engine.flows_failed":
        return "count"
    return "ratio"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(obs_off=False):
    """Configures (once) and builds; returns the program's path."""
    out = os.path.join(BUILD, "perfbench-obs-off" if obs_off else "perfbench")
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(binary):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
             "-DPPR_OBS_OFF=" + ("ON" if obs_off else "OFF")],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return binary


def drive(binary, args, env=None):
    """Runs the program; returns its JSON line (the last stdout line)."""
    proc = subprocess.run([binary] + [str(a) for a in args],
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {' '.join(map(str, args))} exited "
                           f"with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    binary = build()
    common = ["--workload", args.workload, "--seed", args.seed]
    setups = [drive(binary, common + ["--seconds", 1, "--setup-only"])["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    extra = []
    if args.trace:
        trace = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")
        extra = ["--trace-out", trace]
    run = drive(binary, common + ["--seconds", args.seconds,
                                  "--trace", args.trace] + extra)
    metrics = run["metrics"]
    header = dict(run["header"])
    if args.trace:
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        header["setup_s_samples"] = setups
        units = END_TO_END_UNITS
    print(json.dumps({"header": header}, sort_keys=True))
    print(json.dumps({
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


# Operations per self-check run, per workload.
CHECK_UNITS = {"wave_pparq": 4, "chip_pparq": 60, "chip_coded": 20,
               "flow_engine": 6}
CHECK_LIBRARY_UNITS = {"wave_pparq": 6, "chip_pparq": 60, "chip_coded": 20,
                       "flow_engine": 0}


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("self-check: BENCHMARK.json workloads differ")
    if want_e2e != END_TO_END_UNITS:
        raise SystemExit("self-check: BENCHMARK.json end_to_end differs")
    binary = build()
    obs_off_binary = build(obs_off=True)
    validator = os.path.join(ROOT, "bench", "validate_trace.py")
    failures = []

    def expect(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        seed = 7
        base = ["--workload", w, "--seed", seed, "--seconds", 1,
                "--units", CHECK_UNITS[w]]
        first = drive(binary, base)
        digest = first["header"]["digest"]
        expect(first["correct"], f"{w}: untraced run correct")
        expect(set(first["metrics"]) == set(want_e2e),
               f"{w}: end-to-end metric names match BENCHMARK.json")
        again = drive(binary, base)
        expect(again["header"]["digest"] == digest,
               f"{w}: digest repeats ({digest})")
        trace = os.path.join(BUILD, f"selfcheck-{w}.json")
        traced = drive(binary, base + ["--trace", 1, "--trace-out", trace])
        expect(traced["correct"] and traced["header"]["digest"] == digest,
               f"{w}: traced run correct, digest equals untraced")
        names = set(traced["metrics"])
        expect(names == set(want_layer) and
               all(per_layer_unit(n) == want_layer[n] for n in names),
               f"{w}: per-layer metric names and units match BENCHMARK.json")
        if os.path.exists(validator):
            rc = subprocess.run([sys.executable, validator, "--chrome", trace,
                                 "--min-events", "1"],
                                stdout=sys.stderr).returncode
            expect(rc == 0, f"{w}: trace passes bench/validate_trace.py")
        else:
            log(f"skip  {w}: bench/validate_trace.py not present")
        for impl in first["header"]["gf_impls_available"]:
            env = dict(os.environ, PPR_GF256_FORCE_IMPL=impl)
            forced = drive(binary, base, env=env)
            expect(forced["header"]["gf_impl"] == impl and
                   forced["header"]["digest"] == digest,
                   f"{w}: digest under GF backend {impl}")
        off = drive(obs_off_binary, base)
        expect(off["header"]["obs_off"] and off["header"]["digest"] == digest,
               f"{w}: digest under PPR_OBS_OFF")
        if CHECK_LIBRARY_UNITS[w]:
            lib = drive(binary, ["--workload", w, "--seed", seed,
                                 "--seconds", 1, "--check-library", "--units",
                                 CHECK_LIBRARY_UNITS[w]])
            expect(lib["library_equivalent"],
                   f"{w}: exchange loop and recomposed channel match the library")
    if failures:
        log(f"self-check: {len(failures)} failure(s)")
        return 1
    log("self-check: all passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            parser.error("--workload is required")
        return measure(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
