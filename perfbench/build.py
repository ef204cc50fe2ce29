"""Build file of the benchmark: compiles the program and the benchmark from
source, and persists the T_E index the online workloads load.

Everything goes under `.bench_build/perfbench/` in the repository root and is
keyed by a digest of the sources, so a changed source rebuilds and an
unchanged one is reused. The Scala compiler and Spark come from the Spark
distribution's `jars/` directory (found through `SPARK_HOME`, or through
`spark-submit` on the `PATH`), the same jars the repository's sbt build
compiles against.

    python3 perfbench/build.py        # build, print the class path
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BENCH_SOURCES = os.path.join(BENCH_DIR, "src")

# JVM flags every benchmark JVM gets. Spark on Java 17 needs the opens.
JVM_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]
HEAP = "-Xmx3g"
# Spark's four task threads need a parallel collector. The online workloads
# time one thread; the serial collector leaves their heap laid out the same
# way in every run, which cut the run-to-run spread of validate_batches
# medians from about 25% to about 8%.
PARALLEL_GC = "-XX:+UseParallelGC"
SERIAL_GC = "-XX:+UseSerialGC"


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jar directory, which must hold scalac."""
    candidates = []
    if os.environ.get("SPARK_HOME"):
        candidates.append(os.path.join(os.environ["SPARK_HOME"], "jars"))
    submit = shutil.which("spark-submit")
    if submit:
        candidates.append(os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(submit))), "jars"))
    for d in candidates:
        if glob.glob(os.path.join(d, "scala-compiler-*.jar")) and glob.glob(os.path.join(d, "spark-sql_*.jar")):
            return d
    raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")


def sources():
    found = []
    for base in (PROGRAM_SOURCES, BENCH_SOURCES):
        if not os.path.isdir(base):
            raise BuildError(f"source directory {os.path.relpath(base, ROOT)} is missing")
        for d, _, files in os.walk(base):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    if not any(p.startswith(PROGRAM_SOURCES) for p in found):
        raise BuildError("no program sources under src/main/scala")
    return sorted(found)


def source_digest(paths, jars):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    for j in sorted(os.listdir(jars)):
        h.update(j.encode())
    return h.hexdigest()


def java_cmd(classpath, main, args, tmp, gc):
    return (["java", HEAP, "-Xss16m", gc, "-XX:-UsePerfData", *JVM_OPENS,
             f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
             f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
             f"-Dlog4j2.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}",
             "-cp", classpath, main, *args])


def run_logged(cmd, log, timeout):
    """Run a build step, its output to `log`; raise with the log's tail on failure."""
    with open(log, "w") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise BuildError(f"build step timed out after {timeout} s: {cmd[-1]}")
    if code != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        raise BuildError(f"build step failed ({code}):\n{tail}")


def ensure_built():
    """Compile if needed and persist the online index if needed.

    Returns (classpath, index_file, digest, tmp_dir).
    """
    jars = spark_jars()
    paths = sources()
    digest = source_digest(paths, jars)
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    classes = os.path.join(OUT, f"classes-{digest[:16]}")
    if not os.path.isdir(classes):
        staging = classes + ".partial"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        run_logged(["java", "-Xss16m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
                    "-nowarn", "-d", staging, "-classpath", os.path.join(jars, "*"), *paths],
                   os.path.join(OUT, "compile.log"), 900)
        os.rename(staging, classes)
    classpath = os.pathsep.join([classes, os.path.join(jars, "*")])
    index = os.path.join(OUT, f"index-{digest[:16]}.bin")
    if not os.path.isfile(index):
        staging = index + ".partial"
        run_logged(java_cmd(classpath, "repro.perfbench.Main", ["prepare-index", "--index", staging], tmp,
                            PARALLEL_GC),
                   os.path.join(OUT, "prepare-index.log"), 900)
        os.rename(staging, index)
    return classpath, index, digest, tmp


if __name__ == "__main__":
    try:
        print(ensure_built()[0])
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
