#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program (src/main/scala, jobs) together with the benchmark
(perfbench/src) with the Scala compiler that ships in the Spark
distribution, into <out>/classes. A stamp over the sources and the command
line skips the compile when nothing changed.

    python3 perfbench/build.py [--root .] [--out .bench_build/perfbench]
"""
import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys

SOURCE_DIRS = ["src/main/scala", "jobs", "perfbench/src"]
REQUIRED = ["src/main/scala/repro/core/Lovo.scala", "jobs/JobSession.scala"]


def spark_jars():
    """The Spark distribution's jar directory: $SPARK_HOME, else the one
    holding the spark-submit found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise SystemExit("perfbench: no Spark distribution (set SPARK_HOME)")
    return jars


def one_jar(jars, prefix):
    found = sorted(glob.glob(os.path.join(jars, prefix + "-[0-9]*.jar")))
    if not found:
        raise SystemExit(f"perfbench: no {prefix} jar in {jars}")
    return found[-1]


def sources(root):
    out = []
    for d in SOURCE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            out += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def build(root, out):
    """Returns (classes dir, Spark jar dir), compiling when stale."""
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        raise SystemExit(f"perfbench: program sources missing: {', '.join(missing)}")
    jars = spark_jars()
    compiler = [one_jar(jars, n) for n in ("scala-compiler", "scala-library", "scala-reflect")]
    srcs = sources(root)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-classpath", os.path.join(jars, "*")]
    digest = hashlib.sha256(" ".join(cmd).encode())
    for s in srcs:
        digest.update(os.path.relpath(s, root).encode() + b"\0")
        with open(s, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "stamp")
    if os.path.isdir(classes) and os.path.isfile(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                return classes, jars
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    proc = subprocess.run(cmd + ["-d", tmp] + srcs, stdout=sys.stderr, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: compile failed ({proc.returncode})")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")
    return classes, jars


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=".")
    ap.add_argument("--out", default=os.path.join(".bench_build", "perfbench"))
    a = ap.parse_args()
    print(build(os.path.abspath(a.root), os.path.abspath(a.out))[0])
