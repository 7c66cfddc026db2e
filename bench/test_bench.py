"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They check that traced counters repeat exactly, that inputs are a function
of the seed (and change with it), and that the output checks reject wrong
answers.  The traced runs use a short slice of each workload's pass.
"""

from fractions import Fraction

import pytest

import checks
import layers
import run
import workloads


def _inputs(workload, seed, tmp_path):
    work = tmp_path / ("%s-%d" % (workload, seed))
    work.mkdir()
    jobs = workloads.build(workload, seed, work)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return [(j.name, j.argv, j.expect, j.kind) for j in jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _inputs(workload, 7, tmp_path / "a") == _inputs(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_gives_other_inputs(workload, tmp_path):
    jobs1, files1 = _inputs(workload, 1, tmp_path)
    jobs2, files2 = _inputs(workload, 2, tmp_path)
    assert len(jobs1) == len(jobs2)
    changed = [name for name in files1 if files1[name] != files2.get(name)]
    assert len(changed) == len(files1), "every input file should change with the seed"


def _traced_counters(workload, part, tmp_path, tag):
    work = tmp_path / tag
    (work / "out").mkdir(parents=True)
    jobs = workloads.build(workload, 3, work)[part]
    spawner = run.Spawner(work)
    try:
        traced, metrics, _ = run.traced_run(spawner, jobs, work)
    finally:
        spawner.close()
    verdicts = traced.verdicts()
    assert all(status != "failed" for status, _ in verdicts.values()), verdicts
    assert all(same for _, _, same in traced.executions), "tracing changed an output"
    exact = [name for name, unit in run._units("per_layer").items()
             if unit in layers.EXACT_UNITS and not name.startswith("trace.")]
    return {name: metrics[name] for name in exact}


@pytest.mark.parametrize("workload, part", [
    ("verify-chain", slice(2, 4)),
    ("cert-lifecycle", slice(0, 10)),
    ("snf-matrices", slice(3, 6)),
])
def test_traced_counters_repeat_exactly(workload, part, tmp_path):
    first = _traced_counters(workload, part, tmp_path, "first")
    second = _traced_counters(workload, part, tmp_path, "second")
    assert first == second
    assert any(first.values())


def test_checks_reject_wrong_answers():
    expect = checks.Expected(d_lower=Fraction(24), base=[Fraction(0), Fraction(6)],
                             levels=[[Fraction(2), Fraction(26)]])
    good = "  primary route: declared-set   d_lower = 24\noverall: PASS\n"
    assert checks.verify_text(good, expect) == []
    assert checks.verify_text(good.replace("= 24", "= 25"), expect)
    assert checks.propagate_text("  base    {0, 6}   diameter 6\n"
                                 "  level 1 {2, 26}   diameter 24   [x 4 = q^2, rule A]\n",
                                 expect) == []
    assert checks.propagate_text("  base    {0, 6}   diameter 6\n"
                                 "  level 1 {2, 27}   diameter 25\n", expect)

    a = [[4, 6], [2, 8]]
    u, d, v = [[0, 1], [-1, 2]], [[2, 0], [0, 10]], [[1, -4], [0, 1]]
    assert checks.snf_problems(a, u, d, v, [2, 10]) == []
    assert checks.snf_problems(a, u, [[2, 0], [0, 11]], v, [2, 11])
    assert checks.snf_problems(a, [[0, 2], [-2, 4]], [[4, 0], [0, 20]], v, [4, 20])
    assert checks.bareiss_det([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3


def test_every_listed_layer_metric_is_computed():
    names = run._units("per_layer")
    metrics = layers.aggregate([], names)
    assert {n for n in names if not n.startswith("trace.")} <= set(metrics)


def test_only_known_parser_defects_are_excused():
    def job(*path):
        return workloads.Job("bad", ["verify", "bad.json"], 2, checks.malformed, "malformed",
                             mutated=path)

    trace = "Traceback (most recent call last):\n  ...\n%s: boom\n"
    known = run._known_parser_defect
    assert known(job("levels", 0), 1, trace % "AttributeError")
    assert not known(job("levels", 0), 1, trace % "KeyError")
    assert known(job("witnesses", "meridian", "zeta"), 0, "")
    assert known(job("levels", 1, "certificate", "witnesses", "meridian"), 0, "")
    assert not known(job("witnesses", "meridian", "zeta"), 1, "")
    assert known(job("tags", 1, "rule"), 1, "")
    assert known(job("levels", 2, "slopes"), 0, "")
    assert not known(job("d_lower"), 1, "")
    assert not known(job("witnesses", "slopes", 0, "image"), 0, "")
    assert not known(job("primary_route"), -9, "")


def test_scaled_times_cancel_a_slowdown_of_the_machine():
    jobs = [workloads.Job("a", [], 0, None, "x"), workloads.Job("b", [], 0, None, "x")]

    def measured(speeds):
        """Job b takes twice as long as job a; each execution, and the
        calibration jobs around it, run at the given slowdown."""
        fake = run.Run(None, jobs, None)
        for i, speed in enumerate(speeds):
            rep = {"code": 0, "wall_s": (0.1, 0.2)[i % 2] * speed, "maxrss_kb": 2048}
            fake.executions.append((jobs[i % 2], rep, True))
        calibration = [0.05 * speeds[0]] + [0.05 * s for s in speeds]
        setup = [(0.06 * s, 0.05 * s) for s in speeds]
        return run.end_to_end(fake, calibration, setup)[0]

    steady = measured([1.0] * 6)
    assert steady == pytest.approx(measured([1.7] * 6))
    assert steady["jobs_per_s"] == pytest.approx(2 / 0.3)
    assert steady["job_p50_s"] == pytest.approx(0.15)
    assert steady["setup_s"] == pytest.approx(0.06)
