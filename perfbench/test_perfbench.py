"""Self-test of the benchmark harness (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about a minute: it runs every pinned job of every workload on two
seeds under the layer tracer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from finalg import cli  # noqa: E402
from layertrace import LayerTracer  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _jobs(tmp_path: Path, workload: str, seed: int) -> list[dict]:
    return workloads.prepare(workload, seed, ROOT, tmp_path / f"{workload}-{seed}")


def test_corrupted_expectation_and_raising_job_are_counted(tmp_path):
    jobs = [j for j in _jobs(tmp_path, "structure", 3) if j["id"].endswith((" z4", " z2z2"))]
    passes = [run.run_pass(jobs, cli.main)]
    assert run.check_passes(jobs, passes, REFERENCE, workloads)[:2] == (4, 0)

    corrupted = json.loads(json.dumps(REFERENCE))
    corrupted["analyze z4"]["results"]["congruences"] += 1
    attempted, failed, _, reasons = run.check_passes(jobs, passes, corrupted, workloads)
    assert (attempted, failed) == (4, 1)
    assert reasons == ["analyze z4: answer differs from the pinned reference"]

    def main(argv):
        if argv[0] == "expand":
            raise RuntimeError("boom")
        return cli.main(argv)

    raising = [run.run_pass(jobs, main)]
    attempted, failed, _, reasons = run.check_passes(jobs, raising, REFERENCE, workloads)
    assert (attempted, failed) == (4, 2)
    assert reasons[0].startswith("expand z4: RuntimeError: boom (test_perfbench.py:")


@pytest.mark.parametrize("kind", ["hoc", "span", "product"])
def test_computed_checks_reject_a_wrong_listing(tmp_path, kind):
    job = next(j for j in _jobs(tmp_path, "polyclone", 3) if j["check"] == kind)
    record = run.run_pass([job], cli.main)
    code, stdout, _ = record.outcomes[0]
    assert workloads.check(job, code, stdout, REFERENCE) is None
    report = json.loads(stdout)
    report["results"]["count"] += 1
    assert workloads.check(job, code, json.dumps(report), REFERENCE) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_labels_not_answers_or_rows(tmp_path, workload):
    tracer = LayerTracer(ROOT / "src" / "finalg")
    tracer.install()
    try:
        runs = {}
        for seed in (1, 2):
            per_job = {}
            for job in _jobs(tmp_path, workload, seed):
                if job["check"] not in ("pinned", "expand"):
                    continue
                record = run.run_pass([job], cli.main, tracer)
                code, stdout, error = record.outcomes[0]
                assert error is None
                assert workloads.check(job, code, stdout, REFERENCE) is None, job["id"]
                counts = record.layers.counts
                per_job[job["id"]] = (
                    workloads.answer(code, json.loads(stdout)),
                    counts["clones.bfs_rows"],
                    counts["clones.span_rows"],
                )
            runs[seed] = per_job
    finally:
        tracer.uninstall()
    assert runs[1].keys() == runs[2].keys()
    for job_id, (answer, bfs_rows, span_rows) in runs[1].items():
        assert runs[2][job_id][0] == answer, job_id
        if answer["code"] != workloads.EXIT_CAPPED:
            assert runs[2][job_id][1:] == (bfs_rows, span_rows), job_id


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
