#!/usr/bin/env python3
"""Run one benchmark workload.

    python3 perfbench/run.py --workload ampc-web --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the program and the
harness with sbt (the root project is a source dependency of
perfbench/build.sbt); later runs reuse the build while no source changes.
The harness runs in one JVM, prints a report, and prints one JSON object
with the metrics as the last line of standard output.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "target")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
STAMP = os.path.join(BUILD, "sources.sha256")
WORKLOADS = ("ampc-web", "mpc-web", "two-cycles")
JVM_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads: build definitions and Scala sources."""
    roots = [
        (ROOT, ("build.sbt",)),
        (os.path.join(ROOT, "project"), None),
        (os.path.join(ROOT, "src", "main"), None),
        (os.path.join(ROOT, "jobs"), None),
        (HERE, ("build.sbt",)),
        (os.path.join(HERE, "project"), None),
        (os.path.join(HERE, "src"), None),
    ]
    for base, only in roots:
        if only is not None:
            for name in only:
                path = os.path.join(base, name)
                if os.path.isfile(path):
                    yield path
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "project"))
            for name in sorted(filenames):
                if name.endswith((".scala", ".sbt", ".properties", ".java")):
                    yield os.path.join(dirpath, name)


def digest():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    want = digest()
    if os.path.isfile(CLASSPATH) and os.path.isfile(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == want:
                return
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    done = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL)
    if done.returncode != 0 or not os.path.isfile(CLASSPATH):
        fail(f"build failed (sbt exit {done.returncode})")
    with open(STAMP, "w") as f:
        f.write(want + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        fail(f"the program's sources (build.sbt, src/main/scala/repro) are not next to {HERE}")
    build()
    with open(CLASSPATH) as f:
        cp = f.read().strip()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    # Spark's block manager and shuffle files, and the JVM's temporary
    # files, stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    # C1 only: under C2, pass time kept falling for 15 and more passes
    # (Spark's driver code is large), longer than a run can wait; C1 reaches
    # a steady pass time within the warm-up. The parallel collector gave
    # less variable passes than G1.
    cmd = [
        java, "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:TieredStopAtLevel=1", "-XX:-UsePerfData",
        f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}", "-Dspark.driver.host=127.0.0.1",
        "-cp", cp, "perfbench.Bench",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              text=True, timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark JVM ran longer than {JVM_TIMEOUT_S} s and was stopped")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"the benchmark JVM exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(done.stdout)
        fail("the benchmark JVM printed no result line")
    declared = declared_metrics(args.trace == "1")
    if declared is not None and set(result["metrics"]) != declared:
        missing = sorted(declared - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - declared)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    print("\n".join(lines))


def declared_metrics(per_layer):
    """The metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if per_layer else "end_to_end"]}


if __name__ == "__main__":
    main()
