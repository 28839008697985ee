#!/usr/bin/env python3
"""Wall-clock benchmark of the study harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the benchmark with sbt
(the study's sources plus perfbench/src) into perfbench/target; later runs
reuse that build while the sources are unchanged. Each measurement runs in
a fresh JVM.

--trace 0 runs the workload untraced and two more set-ups, and prints the
end-to-end metrics, set-up time as the median of the three set-ups.
--trace 1 runs it untraced and then traced, prints the per-layer metrics
of the traced run, reports the difference in wall time as the tracing
overhead, and counts a cell whose output differs between the two as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record of every run,
with cell outputs, spans and environment, is kept under
perfbench/target/results.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
ARCHIVE = TARGET / "classes.jsa"
STUDY_SOURCES = ROOT / "src" / "main" / "scala"
RUN_LIMIT_S = 170  # every run but a building one ends within 180 s
# The study's generators and sampler hash with seed x constant in Spark's
# ANSI long arithmetic, which raises on overflow: the road-graph generator
# does so for --seed above about 3.6 million. --seed is therefore reduced
# modulo SEED_RANGE before the study's seeds are derived from it, so every
# integer gives a valid input and seed 0 stays the study's own.
SEED_RANGE = 100_000
BUILD_LIMIT_S = 800

# JDK 17 module opens Spark needs (normally added by spark-submit).
OPENS = [
    f"--add-opens={m}=ALL-UNNAMED"
    for m in (
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]

# A fixed heap with a fixed young generation at fixed addresses: the
# resident set then follows what the program retains, not how far the
# collector chose to grow the heap, so peak_rss_mb repeats run to run.
# Survivor spaces of 96 MB hold the sampler's short-lived sets, which the
# default 38 MB would promote early; how much got promoted before the first
# full collection then varied the resident set by up to a third.
HEAP = ["-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy", "-Xms2g", "-Xmx2g", "-Xmn384m",
        "-XX:SurvivorRatio=2"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group, killing the whole group if it
    overruns or this script is interrupted, and waits for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail(f"{pathlib.Path(cmd[0]).name} ran past its {timeout:.0f} s limit")
        raise
    return proc.returncode, out


def sources():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties", HERE / "run.py"]
    for base in (HERE / "src", STUDY_SOURCES):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    return files


def build():
    """Returns the runtime classpath, building first if any source changed.

    The build also records the classes a set-up loads in a class-data
    sharing archive, which every later JVM maps instead of loading them.
    """
    if not (STUDY_SOURCES / "repro").is_dir():
        fail(f"the study's sources are missing: {STUDY_SOURCES} (run from a full checkout)")
    stamp = hashlib.sha256()
    for f in sources():
        stamp.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    stamp = stamp.hexdigest()
    cp_file, stamp_file = TARGET / "classpath.txt", TARGET / "classpath.stamp"
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text()
    stamp_file.unlink(missing_ok=True)
    ARCHIVE.unlink(missing_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    code, out = run(cmd, BUILD_LIMIT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "repro-perfbench" not in lines[-1]:
        sys.stderr.write(out)
        fail(f"build failed (exit {code})")
    classpath = lines[-1].strip()
    jvm(classpath, time.monotonic() + BUILD_LIMIT_S,
        ["--workload", "distgnn-table4", "--seed", "0", "--seconds", "1", "--trace", "0",
         "--setup-only", "1"], archive="-XX:ArchiveClassesAtExit=")
    cp_file.write_text(classpath)
    stamp_file.write_text(stamp)
    return classpath


def jvm(classpath, deadline, args, archive="-XX:SharedArchiveFile="):
    """Runs one benchmark JVM and returns the record it wrote."""
    work = TARGET / "run"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out = work / "record.json"
    out.unlink(missing_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    # -XX:-UsePerfData: the JVM writes no hsperfdata file outside the checkout
    cmd = [java, *OPENS, *HEAP, "-XX:-UsePerfData", f"{archive}{ARCHIVE}", "-Xlog:cds=off", "-Xlog:cds+dynamic=off",
           f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1", f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={work / 'warehouse'}",
           "-cp", classpath, "repro.perfbench.Main", *args, "--out", str(out)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the next JVM")
    code, _ = run(cmd, remaining, cwd=work)
    if code != 0:
        fail(f"benchmark JVM exited with {code}")
    return json.loads(out.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    seed = a.seed % SEED_RANGE
    classpath = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", a.workload, "--seed", str(seed), "--seconds", str(a.seconds)]
    plain = jvm(classpath, deadline, base + ["--trace", "0"])
    records = [plain]
    correct = not plain["drift"]
    if a.trace:
        traced = jvm(classpath, deadline, base + ["--trace", "1"])
        records.append(traced)
        metrics = dict(traced["metrics"])
        metrics["trace_overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
        differ = sum(p["output"] != t["output"] for p, t in zip(plain["cells"], traced["cells"]))
        differ += abs(len(plain["cells"]) - len(traced["cells"]))
        attempted, failed = traced["attempted"], traced["failed"] + differ
        correct = correct and plain["failed"] == 0
    else:
        setups = [plain["setup_s"]] + [
            jvm(classpath, deadline, base + ["--trace", "0", "--setup-only", "1"])["setup_s"] for _ in range(2)]
        metrics = dict(plain["metrics"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        attempted, failed = plain["attempted"], plain["failed"]
    correct = correct and failed == 0

    results = TARGET / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    (results / name).write_text(json.dumps(records, indent=1))

    r = records[-1]
    tail = plain["cell_tail"]
    print(f"workload {a.workload} seed {a.seed} (reduced {seed}) trace {a.trace}: "
          f"{attempted} cells, {failed} failed, digest {r['digest']}")
    print(f"environment: {json.dumps(r['environment'], sort_keys=True)}")
    print(f"cell_tail_s is p{tail['percentile']:.1f} of {tail['cells']} cells, {tail['beyond']} beyond it")
    if plain["drift_checked"]:
        print(f"drift guard against Experiments: {plain['drift'] or 'equal'}")
    for f in (plain["failures"] + (r["failures"] if a.trace else []))[:10]:
        print(f"FAILED {f}")
    for k in sorted(metrics):
        print(f"{k} = {metrics[k]['value']:.6g} {metrics[k]['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
