#!/usr/bin/env python3
"""Pipeline benchmark entry point.

Builds the benchmark (the repository's main sources plus pipebench/src)
with sbt when its sources changed, then runs one workload in a JVM:

    python3 pipebench/run.py --workload kgp-pv-mag --seed 0 --seconds 10 --trace 0

The last line of standard output is the result as one JSON object. The run
record is written to pipebench/out/. Everything the build and the run write
stays under pipebench/ (target/, out/).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
CLASSPATH = os.path.join(TARGET, "pipebench-classpath.txt")
STAMP = os.path.join(TARGET, "pipebench-sources.sha256")
WORKLOADS = ("kgp-pv-mag", "lp-aa-dblp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module openings Spark needs on Java 17 (what spark-submit passes).
JAVA_OPENS = [
    "--add-opens=java.base/" + pkg + "=ALL-UNNAMED"
    for pkg in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
                "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
                "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
                "sun.util.calendar")
]


def fail(code, message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src", "main")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    return files


def sources_digest():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the sources are unchanged since the last build;
    return the runtime classpath."""
    digest = sources_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                with open(CLASSPATH) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    lines = proc.stdout.strip().splitlines()
    classpath = lines[-1].strip() if lines else ""
    if proc.returncode != 0 or "classes" not in classpath:
        sys.stderr.write(proc.stdout)
        fail(3, "build failed")
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(classpath + "\n")
    with open(STAMP, "w") as f:
        f.write(digest + "\n")
    return classpath


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(2, f"no program sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
    if "SPARK_HOME" not in os.environ:
        fail(2, "SPARK_HOME must name a Spark distribution")

    classpath = build()
    scratch = os.path.join(TARGET, "run")
    tmp = os.path.join(scratch, "tmp")
    local = os.path.join(scratch, "spark-local")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(local)
    cmd = ["java", "-Xmx3g", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions", *JAVA_OPENS,
           "-Djdk.reflect.useDirectMethodHandle=false",
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={local}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", classpath, "pipebench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(BENCH, "out"), "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(4, "stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
