#!/usr/bin/env python3
"""Self-test of the benchmark's oracles and result line.

1. A short clean run of each workload must pass, and print exactly the
   end-to-end metrics (untraced) or per-layer metrics (traced) that
   BENCHMARK.json lists, with the same units.
2. Each oracle is fed one corrupted answer (topobench --corrupt <name>):
   the run must then report correct=false, name the failed check, and
   exit non-zero.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the command must fail without printing a result.

    python3 perfbench/selftest.py      # from the root of a checkout
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CORRUPTIONS = {
    "paper_grid": ["order", "answer", "topk_prefix", "sql"],
    "sharded_service": ["sharded_identity", "partial"],
    "mutate_read": ["rebuild_identity", "extra_batch", "wal_count"],
}


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    for workload, corruptions in CORRUPTIONS.items():
        for trace in ("0", "1"):
            code, lines = run(["--workload", workload, "--seed", "1",
                               "--seconds", "2", "--trace", trace])
            result = json.loads(lines[-1]) if lines else {}
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = code == 0 and result.get("correct") is True and \
                units == expected[trace]
            print("%-16s clean run, trace %s: %s" %
                  (workload, trace, "pass" if ok else "FAIL"))
            if not ok:
                failures.append("%s clean trace=%s" % (workload, trace))
        for name in corruptions:
            code, lines = run(["--workload", workload, "--seed", "1",
                               "--seconds", "2", "--trace", "0",
                               "--corrupt", name])
            result = json.loads(lines[-1]) if lines else {}
            reported = [l for l in lines if l.startswith("ORACLE FAILURE")]
            caught = code != 0 and result.get("correct") is False and reported
            print("%-16s corrupt %-17s %s" %
                  (workload, name, ("caught: " + reported[0]) if caught
                   else "NOT CAUGHT"))
            if not caught:
                failures.append("%s corrupt %s" % (workload, name))

    bare = os.path.join(ROOT, ".bench_out", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    code, lines = run(["--workload", "paper_grid", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare, env=env)
    refused = code != 0 and not any(l.startswith("{") for l in lines)
    print("bare directory refused: %s" % ("pass" if refused else "FAIL"))
    if not refused:
        failures.append("bare directory")
    shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print("selftest FAILED: " + ", ".join(failures))
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
