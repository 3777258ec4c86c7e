"""Tests of the benchmark itself: its output checks go red on bad output,
failed ops are counted, and its result line keeps its contract.

    python3 -m pytest perfbench

Workloads run here on coarse geometry so the whole file takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from sidecast import harness  # noqa: E402

COARSE_DATA = harness.default_data_grid(nx=129, nt=500)


class CoarseP1(W.P1Reconstruct):
    geometry = ("--data-grid", W.grid_arg(COARSE_DATA))


class CoarseSinc(W.SincN50):
    n = 20
    geometry = ("--data-grid", W.grid_arg(COARSE_DATA),
                "--grid", "17,17,0.25,0.065625,0.1,0.24375")
    eval_nodes = 17 * 17


class CoarseGrd(W.GrdFiles):
    data_grid = COARSE_DATA


class BrokenSymbol(W.VerifyQuick):
    argv = ("verify", "--quick", "--break-shat")


class SignFlipped(CoarseGrd):
    """Writes v_eps with its sign flipped, as a sign bug would."""

    def run(self, i, out):
        rc, stdout = super().run(i, out)
        path = os.path.join(out, "v_eps.grd")
        xs, ts, v = W.read_grd(path)
        with open(path) as fh:
            head = fh.readline()
        with open(path, "w") as fh:
            fh.write(head)
            for row in -v.T:
                fh.write(" ".join("%.17g" % x for x in row) + "\n")
        return rc, stdout


class Unsteady(CoarseP1):
    """Changes its output on every call, so reruns differ."""
    calls = 0

    def run(self, i, out):
        rc, stdout = super().run(i, out)
        Unsteady.calls += 1
        with open(os.path.join(out, "manifest.txt"), "a") as fh:
            fh.write("call=%d\n" % Unsteady.calls)
        return rc, stdout


def short_run(wl, tmp_path):
    """Warm-up, the shortest timed phase and the determinism rerun."""
    log = run.OpLog()
    _, outcome, stdout = run.run_op(wl, 0, str(tmp_path / "op0"))
    log.add(0, outcome)
    _, samples, _ = run.timed_phase(wl, 1, 0.0, str(tmp_path), log)
    differ = run.determinism_check(wl, str(tmp_path), stdout, log)
    return log, samples, differ


@pytest.mark.parametrize("cls", [CoarseP1, CoarseSinc, CoarseGrd])
def test_coarse_workloads_pass_every_check(cls, tmp_path):
    log, samples, differ = short_run(cls(3), tmp_path)
    assert log.failed == 0, log.failures
    assert differ == []
    assert all(ok for _, ok in samples)


def test_break_shat_counts_as_failed(tmp_path):
    log = run.OpLog()
    _, samples, _ = run.timed_phase(BrokenSymbol(0), 1, 0.0, str(tmp_path),
                                      log)
    assert log.failed == log.attempted == 2
    assert samples[0][1] is False
    assert "exit code 1, overall: FAIL" in log.failures[0]


def test_sign_flipped_v_eps_counts_as_failed(tmp_path):
    log = run.OpLog()
    run.timed_phase(SignFlipped(3), 1, 0.0, str(tmp_path), log)
    assert log.failed == log.attempted == 2
    assert "relative distance to -g0" in log.failures[0]


def test_failed_ops_are_left_out_of_timings():
    assert run.completed_times([(1.0, True), (9.0, False), (2.0, True)]) \
        == [1.0, 2.0]


def test_p1_check_rejects_an_error_above_its_bound(tmp_path):
    wl = CoarseP1(0)
    _, outcome, _ = run.run_op(wl, 0, str(tmp_path))
    assert outcome.ok
    man = tmp_path / "manifest.txt"
    text = man.read_text()
    for bad in ("1e9", "nan"):
        lines = [("measured_error=" + bad) if ln.startswith("measured_error=")
                 else ln for ln in text.splitlines()]
        man.write_text("\n".join(lines) + "\n")
        assert not wl.check(0, str(tmp_path), 0, "").ok


class Truncating(CoarseSinc):
    """Loses the last coefficient row of sinc.txt."""

    def run(self, i, out):
        rc, stdout = super().run(i, out)
        path = os.path.join(out, "sinc.txt")
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])
        return rc, stdout


def test_truncated_sinc_file_counts_as_failed(tmp_path):
    log = run.OpLog()
    run.timed_phase(Truncating(0), 1, 0.0, str(tmp_path), log)
    assert log.failed == log.attempted == 4
    assert "expected 1681 coefficient rows" in log.failures[0]


def test_rerun_that_differs_counts_as_failed(tmp_path):
    log, _, differ = short_run(Unsteady(0), tmp_path)
    assert differ == ["manifest.txt"]
    assert log.failed == 1
    assert "rerun of op 0 differs" in log.failures[0]


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == spans.layer_metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert list(run.NAMES) == list(W.WORKLOADS)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-quick",
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    want = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} \
        == {m["name"]: m["unit"] for m in want}
    assert "environment: " in proc.stdout
    if trace:
        # the symbol quadrature is verify's own work, and Sinc is idle
        assert res["metrics"]["harness._symbol_rows.calls"]["value"] == 1
        assert res["metrics"]["sinc.eval_expansion.calls"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p1-reconstruct",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no sidecast sources" in proc.stderr



def test_verify_points_come_from_the_op_seed():
    wl = W.VerifyQuick(4)
    assert wl.points(1) == W.VerifyQuick(4).points(1)
    assert len({wl.points(i) for i in range(5)}) == 5
    assert wl.points(1) != W.VerifyQuick(5).points(1)
