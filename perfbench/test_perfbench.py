"""Tests of the benchmark itself: job lists, output check and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spongedim import cli  # noqa: E402


def _mix(jobs: list[workloads.Job]) -> list[str]:
    """Job keys with the seed-drawn parts blanked, sorted: the job mix."""
    keys = [re.sub(r"--seed \d+", "--seed N", j.key) for j in jobs]
    return sorted(re.sub(r"random_\d+", "random_N", k) for k in keys)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_deterministic_and_seed_keeps_the_mix(name):
    build = workloads.WORKLOADS[name]
    first, again, other = build(7), build(7), build(8)
    assert first == again
    assert [j.key for j in first] != [j.key for j in other]
    assert _mix(first) == _mix(other)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_min_passes_leave_ten_runs_above_p75(name):
    n = len(workloads.WORKLOADS[name](7))
    passes = run.min_passes(n)
    assert run.tail([float(i) for i in range(passes * n)])[0] == 75.0
    with pytest.raises(ValueError):
        run.tail([float(i) for i in range((passes - 1) * n)])


def test_percentiles_are_nearest_rank():
    times = [float(i) for i in range(1, 9)]
    assert run.percentile(times, 50) == 4.0
    assert run.percentile(times, 75) == 6.0
    assert run.percentile([3.0], 50) == 3.0


def test_tail_climbs_the_ladder_with_more_runs():
    assert run.tail([float(i) for i in range(40)]) == (75.0, 29.0)
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(1000)]) == (99.0, 989.0)


def test_other_seed_draws_other_scan_seeds():
    seeds = [set(re.findall(r"--seed (\d+)", " ".join(j.key for j in workloads.scan_jobs(s))))
             for s in (7, 8)]
    assert seeds[0] and seeds[1] and not seeds[0] & seeds[1]


def _reference(workload: str, prefix: str) -> tuple[str, dict]:
    refs = run.load_references(workload)
    key = next(k for k in sorted(refs) if k.startswith(prefix))
    return key, refs[key]


def _scale_first_float(text: str, factor: float) -> str:
    doc = json.loads(text)
    doc["growth_rate"] *= factor
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("factor, accepted", [(1 + 1e-9, False), (1 + 1e-13, True)])
def test_output_check_float_tolerance(factor, accepted):
    _, ref = _reference("doubling", "doubling @carpet_24 --measure")
    got = copy.deepcopy(ref)
    got["stdout"] = _scale_first_float(ref["stdout"], factor)
    assert got["stdout"] != ref["stdout"]
    assert (check.reference_problems(ref, got) == []) is accepted


def test_output_check_is_exact_on_strings_ints_and_bools():
    assert check.value_problems({"r": "1/3", "n": 3, "ok": True},
                                {"r": "1/3", "n": 3, "ok": True}) == []
    assert check.value_problems("1/3", "2/6")
    assert check.value_problems(3, 3.0)
    assert check.value_problems(True, 1)
    assert check.value_problems([1.0], [1.0, 2.0])


def _small_jobs() -> list[workloads.Job]:
    return [
        workloads._tangent("carpet_24", 16, "max", 6),
        workloads._doubling("carpet_vssc_34", "carpet_vssc_34_uniform.json", 6,
                            workloads.DOUBLING),
        workloads._doubling("carpet_24", "carpet_24_uniform.json", 6,
                            workloads.NON_DOUBLING),
        workloads.Job(("doubling", "@carpet_24", "--grid", "1/5", "--max-depth", "9"),
                      expect=(("all_non_doubling", True),)),
    ]


@pytest.fixture
def scratch(tmp_path):
    workloads.write_weight_files("doubling", workloads.DEFAULT_SEED, run.ROOT, tmp_path)
    return tmp_path


def _references_for(jobs, tmp: Path) -> dict:
    return {job.key: run.run_job(cli, job, tmp)[0] for job in jobs}


def test_perturbed_output_counts_as_failure(scratch):
    jobs = _small_jobs()[2:3]
    refs = _references_for(jobs, scratch)
    assert run.measure(cli, jobs, scratch, 0.0, refs, seed=99).failed == 0
    ref = refs[jobs[0].key]
    ref["stdout"] = _scale_first_float(ref["stdout"], 1 + 1e-9)
    phase = run.measure(cli, jobs, scratch, 0.0, refs, seed=99)
    assert phase.attempted == phase.failed == 1


def test_broken_invariant_counts_as_failure(scratch):
    job = workloads._doubling("carpet_vssc_34", "carpet_vssc_34_uniform.json", 6,
                              workloads.NON_DOUBLING)
    assert run.measure(cli, [job], scratch, 0.0, {}, seed=99).passed == 0


def _namespaces() -> dict[str, dict[str, object]]:
    return {m.__name__: dict(vars(m)) for m in tracer.package_modules()}


def test_traced_run_restores_namespaces_and_counts(scratch):
    jobs = _small_jobs()
    before = _namespaces()
    run.assert_untraced()
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.is_wrapper(cli.run)
        assert tracer.is_wrapper(sys.modules["spongedim.verify"].count_cubes)
        assert tracer.is_wrapper(sys.modules["spongedim.measure"].scale_exponents)
        phase = run.measure(cli, jobs, scratch, 0.0, {}, seed=99, spans=t)
    finally:
        t.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert attrs.keys() == after[name].keys()
        assert all(after[name][a] is v for a, v in attrs.items()), name
    run.assert_untraced()

    assert phase.failed == 0
    metrics = tracer.layer_metrics(t, phase.passes)
    def pair_count(job):
        doc = json.loads(run.run_job(cli, job, scratch)[0]["stdout"])
        return sum(row["pair_count"] for row in doc["per_depth"])

    grid = json.loads(run.run_job(cli, jobs[3], scratch)[0]["stdout"])
    assert grid["vectors"] == 6
    # adjacency does not depend on the weights, so each grid vector adds the
    # pairs of the uniform measure at the same depth
    per_vector = pair_count(workloads._doubling("carpet_24", "carpet_24_uniform.json", 9))
    assert metrics["verify.doubling.pairs"][0] == (
        pair_count(jobs[1]) + pair_count(jobs[2]) + 6 * per_vector)
    # single-measure loads, six grid steps and the step that ends the grid
    assert metrics["measure.build.calls"][0] == 2 + 6 + 1
    assert metrics["model.load_sponge.calls"][0] == len(jobs)
    assert metrics["cubes.count_cubes.cap_headroom"][0] > 1
    assert metrics["verify.tangent_check.self_s"][0] > 0
    assert metrics["cli.self_s"][0] > 0
    roots = [n for n in t.nodes if n.parent == 0]
    assert [n.name for n in roots] == ["job"] * len(jobs)
    assert {n.caller for n in roots} == {j.key for j in jobs}
