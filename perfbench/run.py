#!/usr/bin/env python3
"""Runs one LOVO benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload fast-city --seed 0 --seconds 20 --trace 0

Builds the program and the benchmark when their sources changed (see
build.py), then runs the benchmark JVM. Its last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Results and, with --trace 1, spans go to .bench_build/perfbench/results.
Exit code 0 only when the run finished and its outputs were correct.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["fast-city", "twostage-anet", "ingest-city"]
RUN_TIMEOUT_S = 170
HEAP = "2g"
ADD_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]
# Environment overrides of repro.jobs.JobSession; dropped so the benchmark
# measures the shipped session configuration.
SESSION_OVERRIDES = ["SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    work = os.path.join(root, ".bench_build", "perfbench")
    classes, jars = build.build(root, work)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)

    cmd = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dspark.local.dir={os.path.join(work, 'spark-local')}",
        f"-Dspark.sql.warehouse.dir={os.path.join(work, 'warehouse')}",
        "-Dspark.driver.host=127.0.0.1",
        "-Dspark.ui.enabled=false",
        f"-Dlog4j.configurationFile={os.path.join(here, 'log4j2.properties')}",
        "-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
        "repro.perfbench.PerfBench",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--out", os.path.join(work, "results"),
    ]
    env = {k: v for k, v in os.environ.items() if k not in SESSION_OVERRIDES}
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3

    lines = out.splitlines()
    result = None
    for i in range(len(lines) - 1, -1, -1):
        try:
            obj = json.loads(lines[i])
        except ValueError:
            continue
        if isinstance(obj, dict) and set(obj) == {"correct", "attempted", "failed", "metrics"}:
            result = lines.pop(i)
            break
    for line in lines:
        print(line)
    if result is None:
        print(f"perfbench: no result (exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    print(result)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
