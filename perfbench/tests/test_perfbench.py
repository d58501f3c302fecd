"""Self-tests of the benchmark: determinism, metric names, traced call counts,
the correctness gate, and refusal to run without the oil sources.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oil import hardy  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def _residuals(experiments):
    return [[(name, value) for name, value, _ in exp.run().items] for exp in experiments]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_experiments_and_residuals(workload, tmp_path):
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    first_dir.mkdir()
    second_dir.mkdir()
    first = workloads.WORKLOADS[workload](5, str(first_dir))
    second = workloads.WORKLOADS[workload](5, str(second_dir))
    assert [(e.kind, e.params) for e in first] == [(e.kind, e.params) for e in second]
    assert _residuals(first) == _residuals(second)


@pytest.mark.parametrize("workload", ["window-identities", "lemma-trials", "dilation-batch"])
def test_seed_changes_inputs_not_sizes(workload, tmp_path):
    one = workloads.WORKLOADS[workload](1, str(tmp_path))
    two = workloads.WORKLOADS[workload](2, str(tmp_path))
    assert [e.kind for e in one] == [e.kind for e in two]
    assert [e.max_dim for e in one] == [e.max_dim for e in two]
    assert [e.params for e in one] != [e.params for e in two]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_are_declared_with_units(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "dilation-batch",
         "--seed", "3", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in DECLARED[section]}


def _trace_one_cycle(workload, tmp_path):
    experiments = workloads.WORKLOADS[workload](7, str(tmp_path))
    tally = harness.Tally()
    metrics, tr = harness.traced(workload, experiments, tally, cycles=1)
    assert tally.failed == 0
    return experiments, metrics, tr.summary()["calls"]


def test_trace_counts_lemma_trials(tmp_path):
    experiments, _, calls = _trace_one_cycle("lemma-trials", tmp_path)
    lemmas = [e for e in experiments if e.kind.startswith("lemma")]
    assert calls["deformation.lemma_lower_bound_report"] == len(lemmas)
    assert calls["deformation.haar_unitary"] == sum(e.params["trials"] for e in lemmas)


def test_trace_counts_window_identities(tmp_path):
    experiments, _, calls = _trace_one_cycle("window-identities", tmp_path)
    inverse = sum(e.params["inverse"] for e in experiments)
    assert calls["hardy.splitting_defect"] == len(experiments)
    assert calls["extensions.inverse_identity_residuals"] == inverse
    # four Toeplitz compressions, the Hankel operator, the commutator, and the
    # inverse identity's call through the name extensions imported from hardy
    assert calls["hardy.multiplication_operator"] == 6 * len(experiments) + inverse


def test_trace_counts_dilation_batch(tmp_path):
    experiments, _, calls = _trace_one_cycle("dilation-batch", tmp_path)
    maps = [e for e in experiments if e.kind.startswith("dilation")]
    pairs = sum(e.params["pairs"] for e in maps)
    assert calls["stinespring.dilation_build"] == len(maps)
    assert calls["stinespring.defect_identity_residuals"] == pairs
    # two pi(a) blocks in the residuals, one for the compression check; each is one rep
    assert calls["stinespring.DilationData.blocks"] == len(maps) + 3 * pairs
    sums = [e for e in experiments if e.kind == "sum-demo"]
    assert calls["extensions.extension_sum"] == 2 * sum(e.params["pairs"] for e in sums)


def test_trace_counts_cli_readme(tmp_path):
    experiments, metrics, calls = _trace_one_cycle("cli-readme", tmp_path)
    json_reports = sum(1 for e in experiments if not e.params["argv"][-3].endswith(".csv"))
    assert calls["cli.main"] == len(experiments)
    assert calls["reporting.write_report"] == json_reports
    assert metrics["reporting.report_bytes"] > 0


def test_self_times_account_for_traced_wall(tmp_path):
    experiments = workloads.WORKLOADS["window-identities"](1, str(tmp_path))[:3]
    metrics, tr = harness.traced("window-identities", experiments, harness.Tally(), cycles=1)
    roots = sum(end - start for name, start, end, _, _ in tr.spans if name == "bench.experiment")
    assert sum(tr.self_times()) == pytest.approx(roots, rel=1e-9)
    shares = sum(metrics[f"{layer}.share"] for layer in harness.LAYER_NAMES)
    shares += metrics["trace.self_s"] / metrics["trace.wall_s"]
    assert 0.95 <= shares <= 1.0


def test_uninstall_restores_every_binding():
    import oil
    from oil import extensions

    original = hardy.multiplication_operator
    tr = tracer.Tracer()
    tr.install()
    try:
        assert extensions.multiplication_operator is not original
        assert oil.multiplication_operator is extensions.multiplication_operator
    finally:
        tr.uninstall()
    assert hardy.multiplication_operator is original
    assert extensions.multiplication_operator is original
    assert oil.multiplication_operator is original


def test_gate_counts_a_wrong_rank(monkeypatch, tmp_path):
    experiment = workloads.WORKLOADS["window-identities"](1, str(tmp_path))[0]
    monkeypatch.setattr(hardy, "numerical_rank", lambda x, cutoff=1e-10: 0)
    tally = harness.Tally()
    tally.run(0, experiment)
    assert tally.failed == 1 and "kronecker_rank" in tally.failures[0]


def test_gate_counts_changed_report_bytes(tmp_path):
    session = workloads.CliSession(str(tmp_path))
    argv = session.argv("inverse-check", ["--out", "{dir}/inverse.json"], 42)
    assert session.invoke(argv).failed == 0
    session.first_bytes[tuple(argv)] = b"{}"  # as if the first invocation wrote other bytes
    checks = session.invoke(argv)
    assert [name for name, _, ok in checks.items if not ok] == ["byte_identical"]


def test_gate_counts_nonzero_exit(tmp_path):
    session = workloads.CliSession(str(tmp_path))
    # a window too small for the guard band is a usage error: exit 2, no report
    argv = session.argv("inverse-check", ["--lo", "-1", "--hi", "1", "--out", "{dir}/inverse.json"], 42)
    checks = session.invoke(argv)
    assert [name for name, _, ok in checks.items if not ok] == ["exit_code"]


def test_refuses_to_run_without_oil_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
