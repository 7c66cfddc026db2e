"""Seeded end-to-end benchmark of the slopecert command line.

    python3 bench/run.py --workload verify-chain --seed 1 --seconds 30 --trace 0

Runs one workload (verify-chain, cert-lifecycle or snf-matrices; see
README.md) as users run the program: one fresh ``python -S -m slopecert.cli``
process per job, in a closed loop with one client and one child at a time.
Inputs are generated from the seed and handed over only as files and argv.

With ``--trace 0`` it runs the workload's pass of jobs again and again until
``--seconds`` have passed, with a calibration job before every job and import
probes spread between the jobs, and reports the end-to-end metrics from each
job's median execution, on the reference scale of the calibration job (see
end_to_end).  With ``--trace 1`` it runs the pass once, each job both plainly
and through the traced launcher, and reports the per-layer metrics.  Metric names and units
come from BENCHMARK.json.  Outputs are checked after the timed loop.
Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fnmatch import fnmatchcase
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Jobs run with -S: slopecert needs nothing beyond the standard library, and
# the host's site-packages hooks (.pth files, which may import third-party
# packages at every start) would add start-up time and noise that are not the
# program's.
PYTHON = [sys.executable, "-S"]
CLI = PYTHON + ["-m", "slopecert.cli"]
LAUNCHER = PYTHON + [str(BENCH / "launcher.py")]
JOB_TIMEOUT_S = 150
# An import probe runs between two jobs once this much time has passed since
# the last one, so that the probes sample the whole run as the job times do.
SETUP_PROBE_INTERVAL_S = 2.0
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile
# The calibration job: a fixed piece of pure-Python work of the kind slopecert's
# hot paths do (Fraction arithmetic on small integers), spawned like a job
# before every job.  It runs no slopecert code, so a change to the program
# does not move it, while a change in the machine's speed does.  Its reference
# time is about its time on an idle two-vCPU x86-64 virtual machine with
# Python 3.11.
CALIBRATION_REF_S = 0.05
CALIBRATION = (
    "from fractions import Fraction\n"
    "s = 0\n"
    "for i in range(1, 10000):\n"
    "    f = Fraction(i, i % 97 + 1) + Fraction(1, i)\n"
    "    s += f.numerator % 7\n"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import slopecert.cli; "
    "print(time.perf_counter() - t)"
)
# Known parser defects: the readers do not type-check every field.  A
# malformed job that ends in one of these is listed and counted in fail_ratio,
# but not as a failure; every other wrong outcome is one.  Field paths are
# dotted, with list indices written as "*".
#  - an uncaught exception of these types, in place of an input error:
PARSER_ESCAPES = ("AttributeError", "TypeError")
#  - exit 0: a field verify never reads
UNREAD_FIELDS = ("*witnesses.meridian*",)
#  - exit 0 or 1: a field read without a type check (strings taken as they
#    are, a list iterated, so that {} reads as empty); replay or a later check
#    decides the outcome
UNCHECKED_FIELDS = ("primary_route", "reason", "tags.*.rule", "levels.*.slopes")


def _units(section):
    """Metric name -> unit, for one metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class Spawner:
    """Client side of spawner.py: runs one job at a time in the work directory."""

    def __init__(self, workdir):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=workdir, env=env, text=True,
        )

    def run(self, argv, stdout, stderr):
        request = {"argv": argv, "stdout": stdout, "stderr": stderr, "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job spawner exited unexpectedly")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def probe_import(spawner, work):
    """Time to import slopecert.cli, timed inside a fresh interpreter."""
    rep = spawner.run(PYTHON + ["-c", IMPORT_PROBE], "setup.out", "setup.err")
    if rep["code"] != 0:
        raise RuntimeError("importing slopecert.cli failed: "
                           + (work / "setup.err").read_text(errors="replace"))
    return float((work / "setup.out").read_text())


class Run:
    """Executions of one pass of jobs, and their verdicts."""

    def __init__(self, spawner, jobs, work):
        self.spawner, self.jobs, self.work = spawner, jobs, work
        self.first = {}      # job name -> (code, stdout digest) of its first execution
        self.executions = []  # (job, reply, same output as the first execution)

    def execute(self, job, out, prefix=CLI):
        """Run a job with stdout and stderr going to out + ".out" / ".err"."""
        rep = self.spawner.run(prefix + job.argv, out + ".out", out + ".err")
        seen = (rep["code"], _digest(self.work / (out + ".out")))
        if job.name not in self.first:
            self.first[job.name] = seen
            for derive in job.derive:
                derive(self.work)
        self.executions.append((job, rep, seen == self.first[job.name]))
        return rep

    def verdicts(self):
        """Per job: "ok", "defect" (a known parser defect) or "failed", with problems."""
        out = {}
        for job in self.jobs:
            text = (self.work / ("out/%s.out" % job.name)).read_text(errors="replace")
            err = (self.work / ("out/%s.err" % job.name)).read_text(errors="replace")
            code = self.first[job.name][0]
            problems = []
            if "Traceback (most recent call last)" in err:
                problems.append("uncaught exception: " + err.strip().splitlines()[-1])
            if code != job.expect:
                problems.append("exit code %d, expected %d" % (code, job.expect))
            if not problems:
                problems = job.check(text)
            if not problems:
                out[job.name] = ("ok", [])
            elif job.kind == "malformed" and _known_parser_defect(job, code, err):
                out[job.name] = ("defect", problems)
            else:
                out[job.name] = ("failed", problems)
        return out


def _known_parser_defect(job, code, err):
    """Whether a malformed job's wrong outcome is one of the known parser defects."""
    if "Traceback (most recent call last)" in err:
        return err.strip().splitlines()[-1].startswith(PARSER_ESCAPES)
    field = ".".join("*" if isinstance(key, int) else key for key in job.mutated)
    if code == 0 and any(fnmatchcase(field, p) for p in UNREAD_FIELDS):
        return True
    return code in (0, 1) and any(fnmatchcase(field, p) for p in UNCHECKED_FIELDS)


def _pass_summary(jobs, verdicts):
    lines = []
    failed = [j for j in jobs if verdicts[j.name][0] == "failed"]
    defects = [j for j in jobs if verdicts[j.name][0] == "defect"]
    malformed = sum(1 for j in jobs if j.kind == "malformed")
    lines.append(
        "fail_ratio (pass) %d/%d = %.4f   failed checks %d, malformed-input parser defects %d of %d"
        % (len(failed) + len(defects), len(jobs), (len(failed) + len(defects)) / len(jobs),
           len(failed), len(defects), malformed)
    )
    for job in failed + defects:
        status, problems = verdicts[job.name]
        lines.append("  %s %s (%s): %s" % (status, job.name, " ".join(job.argv), "; ".join(problems)))
    return lines


def probe_calibration(spawner, work):
    """Wall time of the calibration job, from spawn to exit."""
    rep = spawner.run(PYTHON + ["-c", CALIBRATION], "calibration.out", "calibration.err")
    if rep["code"] != 0:
        raise RuntimeError("the calibration job failed: "
                           + (work / "calibration.err").read_text(errors="replace"))
    return rep["wall_s"]


def timed_run(spawner, jobs, work, seconds):
    """Passes over the job list until `seconds` have passed (at least one whole
    pass; the last may stop part-way).  A calibration job runs before every
    job and after the last, so that calibration[i] and calibration[i + 1]
    bracket execution i, and an import probe runs before a calibration job
    whenever SETUP_PROBE_INTERVAL_S has passed since the last.  Returns the
    run, the calibration times, and (import time, time of the calibration job
    right after it) per probe."""
    run = Run(spawner, jobs, work)
    calibration, setup = [], []
    start = time.perf_counter()
    last_probe = start - SETUP_PROBE_INTERVAL_S
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for job in jobs:
            if passes and time.perf_counter() - start >= seconds:
                break
            probe = None
            if time.perf_counter() - last_probe >= SETUP_PROBE_INTERVAL_S:
                probe = probe_import(spawner, work)
                last_probe = time.perf_counter()
            calibration.append(probe_calibration(spawner, work))
            if probe is not None:
                setup.append((probe, calibration[-1]))
            run.execute(job, "out/" + job.name if passes == 0 else "out/repeat")
        passes += 1
    calibration.append(probe_calibration(spawner, work))
    return run, calibration, setup


def job_times(run, calibration):
    """Per job of the list, the median over its executions of the execution's
    wall time on the reference scale: times CALIBRATION_REF_S over the mean
    of the two calibration jobs that bracket it."""
    scaled = {}
    for i, (job, rep, _) in enumerate(run.executions):
        speed = (calibration[i] + calibration[i + 1]) / 2
        scaled.setdefault(job.name, []).append(rep["wall_s"] * CALIBRATION_REF_S / speed)
    return [statistics.median(s) for s in scaled.values()]


def end_to_end(run, calibration, setup):
    """The end-to-end metrics, and the lines that say how they were measured.

    On a shared host the machine's speed swings by up to 1.8x, over spells
    of seconds to minutes, for CPU time as much as for wall time, and it moves
    jobs, imports and the calibration job alike.  So every time is measured
    against the calibration jobs run next to it, and given on the reference
    scale on which the calibration job takes CALIBRATION_REF_S (see
    job_times; an import probe is scaled by the calibration job right after
    it).  The unscaled figures are printed beside them."""
    times = job_times(run, calibration)
    walls = [rep["wall_s"] for _, rep, _ in run.executions]
    setup_s = CALIBRATION_REF_S * statistics.median(probe / cal for probe, cal in setup)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": max(rep["maxrss_kb"] for _, rep, _ in run.executions) / 1024,
    }
    by_job = {}
    for job, rep, _ in run.executions:
        by_job.setdefault(job.name, []).append(rep["wall_s"])
    counts = [len(w) for w in by_job.values()]
    unscaled = [statistics.median(w) for w in by_job.values()]
    p90 = ("job_p90_s %.4f s unscaled" % statistics.quantiles(walls, n=10)[-1]
           if len(walls) >= P90_MIN_JOBS
           else "job_p90_s omitted (fewer than %d executions)" % P90_MIN_JOBS)
    notes = [
        "%d jobs executed, %d to %d times each; %s" % (len(walls), min(counts), max(counts), p90),
        "calibration job: median %.4f s, quartiles %.4f s and %.4f s over %d runs; reference %.3f s"
        % ((statistics.median(calibration),) + tuple(statistics.quantiles(calibration, n=4)[::2])
           + (len(calibration), CALIBRATION_REF_S)),
        "unscaled: setup_s %.6g s (median of %d import probes), jobs_per_s %.6g 1/s, "
        "job_p50_s %.6g s"
        % (statistics.median(probe for probe, _ in setup), len(setup),
           len(unscaled) / sum(unscaled), statistics.median(unscaled)),
    ]
    return metrics, notes


def traced_run(spawner, jobs, work):
    """One pass, each job run plainly and traced, alternating which goes first."""
    (work / "spans").mkdir()
    run = Run(spawner, jobs, work)
    plain, traced = [], []
    for i, job in enumerate(jobs):
        sides = [
            ("out/" + job.name, CLI, plain),
            ("out/%s.traced" % job.name, LAUNCHER + ["spans/%s.json" % job.name], traced),
        ]
        for out, prefix, walls in sides[:: 1 if i % 2 == 0 else -1]:
            walls.append(run.execute(job, out, prefix)["wall_s"])
    metrics = layers.aggregate(sorted((work / "spans").glob("*.json")), _units("per_layer"))
    metrics["trace.job_s"] = sum(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    total = metrics["trace.job_s"]
    shares = sorted(((v / total, k) for k, v in metrics.items() if k.endswith(".self_s")),
                    reverse=True)
    notes = ["self time as a share of traced job time (%.3f s): " % total
             + ", ".join("%s %.1f%%" % (k[:-7], 100 * s) for s, k in shares[:6])]
    return run, metrics, notes


def report(args, jobs, run, metrics, units, notes):
    """Print the human-readable lines, then the JSON result line."""
    verdicts = run.verdicts()
    lines = ["workload %s  seed %d  pass of %d jobs  trace %d"
             % (args.workload, args.seed, len(jobs), args.trace)]
    lines += notes
    lines += _pass_summary(jobs, verdicts)

    bad = {name for name, (status, _) in verdicts.items() if status == "failed"}
    differing = sorted({job.name for job, _, same in run.executions if not same})
    if differing:
        lines.append("output differs between executions of: " + ", ".join(differing))
    failed = sum(1 for job, _, same in run.executions if job.name in bad or not same)
    for name, unit in units.items():
        lines.append("%-42s %14.6g %s" % (name, metrics[name], unit))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.executions),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="untraced runs repeat the pass until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slopecert" / "cli.py").is_file():
        print("bench: no slopecert sources at %s" % SRC, file=sys.stderr)
        return 2

    # A terminated run still stops its spawner and deletes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    (work / "out").mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, work)
        spawner = Spawner(work)
        try:
            # An unmeasured import compiles the bytecode cache before anything is timed.
            probe_import(spawner, work)
            if args.trace:
                run, metrics, notes = traced_run(spawner, jobs, work)
                units = _units("per_layer")
            else:
                run, calibration, setup = timed_run(spawner, jobs, work, args.seconds)
                metrics, notes = end_to_end(run, calibration, setup)
                units = _units("end_to_end")
        finally:
            spawner.close()
        report(args, jobs, run, metrics, units, notes)
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
