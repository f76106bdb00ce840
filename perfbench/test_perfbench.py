"""Tests of the benchmark itself, on tiny sizes (``--quick``).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import functools
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.cache
def result(workload: str, trace: int, repeat: int = 0) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_named_metric_is_emitted(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize(
    "workload,counts",
    [
        ("reduce", ["reduce.steps", "quadfield.floor.calls", "reduce.reduce_point.calls"]),
        ("orbit-ball", ["schreier.vertices", "quadfield.floor.calls", "spectral.support_vertices"]),
        ("residue-table", ["modn.vertices", "modn.components.calls"]),
        ("lemma-suites", ["quadfield.floor.calls", "sampling.sample_point.calls", "modn.act.calls"]),
    ],
)
def test_exact_counts_repeat(workload, counts):
    first = result(workload, 1)["metrics"]
    second = result(workload, 1, repeat=1)["metrics"]
    for name in counts:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == second[name]["value"], name


def test_layer_metrics_follow_the_workload():
    reduce_, ball, table = (result(w, 1)["metrics"] for w in ("reduce", "orbit-ball", "residue-table"))
    assert ball["reduce.reduce_point.calls"]["value"] == 0
    assert table["quadfield.sign.calls"]["value"] == 0
    assert table["surface.apply_A.calls"]["value"] == 0
    # reduce steps use small exponents, the pruned balls threshold-sized ones
    assert reduce_["surface.apply.mean_abs_exp"]["value"] < ball["surface.apply.mean_abs_exp"]["value"]


def _measure(name: str):
    wl, pool = worker.set_up(name, workloads.PIN_SEED, quick=True)
    return worker.measure(wl, pool, workloads.PIN_SEED, 0.0, quick=True)


def test_corrupted_pin_fails(monkeypatch):
    _, pins_ok, out = _measure("reduce")
    assert pins_ok and out.failed == 0
    monkeypatch.setitem(workloads.PINS, ("reduce", True), "0" * 64)
    _, pins_ok, _ = _measure("reduce")
    assert not pins_ok


def test_corrupted_table_fails(monkeypatch):
    table = list(workloads.EXPECTED_CN)
    table[11] += 1  # C(12): measured in quick mode, beyond the warm-up's N
    monkeypatch.setattr(workloads, "EXPECTED_CN", tuple(table))
    _, _, out = _measure("residue-table")
    assert out.failed >= 1


def test_corrupted_mu0_fails(monkeypatch):
    monkeypatch.setitem(workloads.TREE_MU0, 3, workloads.TREE_MU0[3] + 1e-6)
    monkeypatch.setitem(workloads.LOOPED_MU0, 3, workloads.LOOPED_MU0[3] + 1e-6)
    _, _, out = _measure("orbit-ball")
    assert out.failed >= 1


def test_expected_table_extends_acceptance_table():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    table = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TABLE_CN"
    )
    assert list(workloads.EXPECTED_CN[: len(table)]) == table


@pytest.mark.parametrize("radius", sorted(workloads.TREE_MU0))
def test_pinned_mu0_is_the_abstract_tree_value(radius):
    from lsurf.schreier import build_regular_tree_ball, build_root_looped_tree
    from lsurf.spectral import FiniteGraph, dirichlet_mu0, graph_ball

    adj, root = build_regular_tree_ball(4, radius)
    looped_adj, looped_root, _ = build_root_looped_tree(radius)
    for (adj_, root_), expected in (
        ((adj, root), workloads.TREE_MU0[radius]),
        ((looped_adj, looped_root), workloads.LOOPED_MU0[radius]),
    ):
        G, ids = FiniteGraph.from_adjacency(adj_)
        mu0 = dirichlet_mu0(G, graph_ball(G, ids[root_], radius - 1))
        assert abs(mu0 - expected) <= workloads.MU0_TOL


def test_tracer_uninstall_restores_every_name():
    import lsurf.quadfield
    import lsurf.reduce

    before = (lsurf.reduce.apply_A, lsurf.quadfield.QuadNum.__dict__["sign"])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert lsurf.reduce.apply_A is not before[0]
    finally:
        tr.uninstall()
    assert (lsurf.reduce.apply_A, lsurf.quadfield.QuadNum.__dict__["sign"]) == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("reduce", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_samples_restore_the_collector():
    host = hostspeed.HostSpeed()
    host.sample()
    assert gc.isenabled()
    gc.disable()
    try:
        host.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("kernel", sorted(hostspeed.KERNELS))
def test_mean_speed_runs_from_the_marked_sample(kernel):
    host = hostspeed.HostSpeed(kernel)
    host.sample()
    mark, speeds = host.mark(), [host.last]
    for _ in range(3):
        host.sample()
        speeds.append(host.last)
    assert host.mean_since(mark) == pytest.approx(sum(speeds) / 4)
    assert host.spent > 0 and host.count == 4
