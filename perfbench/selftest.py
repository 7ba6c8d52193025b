#!/usr/bin/env python3
"""Self-test of the drsm benchmark.

    python3 perfbench/selftest.py

Runs every workload of drsm_perfbench at tiny size (--tiny, one second),
untraced and traced, through perfbench/run.py, and asserts that:
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and correct is true;
  * every end-to-end metric (untraced) or layer metric (traced) named in
    BENCHMARK.json is printed, as a finite number, with its unit, and
    nothing else is;
  * every correctness check of the workload ran (a '# check <name>:' line);
  * an unknown workload exits non-zero without a result line.
Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHECKS = {
    "rt": ["rt.granted_exactly_once", "rt.runtime_not_failed",
           "rt.object_versions_match_writes"],
    "grid": ["grid.acc_bit_equal_reference", "grid.wt_matches_closed_form",
             "grid.acc_identical_every_pass"],
    "sim": ["sim.acc_gap_within_8pct", "sim.acc_bit_equal_across_passes"],
    "check": ["check.verdicts_ok", "check.no_state_cap",
              "check.reference_covers_worlds"],
}
ENGINE = {"rt_read90": "rt", "rt_write90": "rt", "analytic_grid": "grid",
          "sim_validate": "sim", "check_verify": "check"}
# Checks only a traced run makes: the live oracle and the micro-benchmarks'
# own sanity checks.
TRACED_ONLY = {"rt": ["rt.oracle_clean"]}
MICRO_CHECKS = ["codec.decode_state_round_trips", "store.claims_match_size"]


def run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          args, cwd=ROOT, capture_output=True, text=True)


def expect(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # analytic_grid and check_verify are drsm_perfbench workloads but not
    # BENCHMARK.json ones (see NOTES.md); they still have to work, so every
    # workload is tested.
    workloads = list(ENGINE)
    expect(all(w["name"] in ENGINE for w in bench["workloads"]),
           "BENCHMARK.json names a workload drsm_perfbench does not have")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for workload in workloads:
            label = "%s --trace %d" % (workload, trace)
            result = run(["--workload", workload, "--seed", "7", "--seconds",
                          "1", "--trace", str(trace), "--tiny"])
            expect(result.returncode == 0,
                   "%s exited %d: %s" % (label, result.returncode,
                                         result.stderr[-2000:]))
            lines = result.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            expect(sorted(last) == ["attempted", "correct", "failed",
                                    "metrics"], label + ": result keys")
            expect(last["correct"] is True, label + ": correct is false")
            expect(isinstance(last["attempted"], int) and
                   last["attempted"] >= 1, label + ": attempted")
            expect(isinstance(last["failed"], int), label + ": failed")
            metrics = last["metrics"]
            expect(sorted(metrics) == sorted(wanted),
                   "%s: metrics %s, expected %s" %
                   (label, sorted(set(metrics) ^ set(wanted)), "all"))
            for name, unit in wanted.items():
                value = metrics[name]["value"]
                expect(metrics[name]["unit"] == unit, label + ": unit of " +
                       name)
                expect(isinstance(value, (int, float)) and
                       math.isfinite(value), label + ": value of " + name)
            engine = ENGINE[workload]
            checks = list(CHECKS[engine])
            if trace:
                checks += TRACED_ONLY.get(engine, []) + MICRO_CHECKS
                for other in set(CHECKS) - {engine}:
                    checks += ["probe." + c for c in CHECKS[other]]
            ran = {line.split()[2].rstrip(":") for line in lines
                   if line.startswith("# check ")}
            missing = [c for c in checks if c not in ran]
            expect(not missing, "%s: checks did not run: %s" %
                   (label, missing))
            print("ok   %-28s %d metrics, %d checks" %
                  (label, len(metrics), len(checks)))
    result = run(["--workload", "no_such_workload", "--seed", "1",
                  "--seconds", "1", "--trace", "0"])
    expect(result.returncode != 0, "unknown workload exited 0")
    expect(not result.stdout.strip().endswith("}"),
           "unknown workload printed a result")
    print("ok   unknown workload rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
