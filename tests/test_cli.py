import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsurf
from lsurf.cli import main
from lsurf.reduce import ReduceProgressError
from lsurf.surface import InternalError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_cn_output(capsys):
    code, out = run_cli(capsys, "table-cn", "--max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# lsurf-csv v1")
    assert lines[1] == "N,C_N"
    assert lines[2:] == ["1,1", "2,5", "3,1", "4,8", "5,1", "6,5"]


def test_components_single(capsys):
    code, out = run_cli(capsys, "components", "--N", "2")
    assert code == 0
    assert out.startswith("C(2) = 5")
    assert out.count("component") == 5


def test_reduce_member_is_identity(capsys):
    code, out = run_cli(capsys, "reduce", "--surface", "L8", "--point", "0,0,1/2,0")
    assert code == 0
    assert "word: <empty>" in out
    assert "steps: 0" in out


def test_reduce_with_negative_point_literal(capsys):
    code, out = run_cli(capsys, "reduce", "--surface", "L8", "--point", "-141,100,1/2,0", "--trace")
    assert code == 0
    assert "case 1" in out


def test_explore_and_spectral_pipeline(tmp_path, capsys):
    graph_file = tmp_path / "ball.json"
    code, _ = run_cli(
        capsys,
        "explore",
        "--surface",
        "L8",
        "--point",
        "1/3,1/3,1/2,0",
        "--radius",
        "2",
        "--g2",
        "--json",
        str(graph_file),
        "--dot",
        str(tmp_path / "ball.dot"),
    )
    assert code == 0
    data = json.loads(graph_file.read_text())
    assert data["schema"] == "lsurf-graph-v1"
    assert (tmp_path / "ball.dot").read_text().startswith("graph orbitball")

    code, out = run_cli(capsys, "spectral", "--graph", str(graph_file), "--support-radius", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "lsurf-spectral-v1"
    assert float(payload["dirichlet_mu0"]) > 0


def test_spectral_on_a_closed_support_prints_zero(tmp_path, capsys):
    # the whole radius-4 G2 tree ball: no support vertex has a neighbour
    # outside, so mu0 is exactly 0, found without an ARPACK solve
    graph_file = tmp_path / "ball.json"
    argv = ["explore", "--g2", "--radius", "4", "--point", "1/5,1/5,2/5,1/5", "--json", str(graph_file)]
    assert run_cli(capsys, *argv)[0] == 0
    code, out = run_cli(capsys, "spectral", "--graph", str(graph_file), "--support-radius", "4")
    assert code == 0
    payload = json.loads(out)
    assert (payload["vertices"], payload["support_size"]) == (161, 161)
    assert payload["dirichlet_mu0"] == "0"


def test_classify_cli(capsys):
    code, out = run_cli(capsys, "classify", "--surface", "L8", "--point", "1/3,1/3,1/2,0", "--radius", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "RootLooped4"


def test_verify_lemmas_exit_zero(capsys):
    code, out = run_cli(capsys, "verify-lemmas", "--seed", "7", "--samples", "25")
    assert code == 0
    assert "VIOLATIONS" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--D", "8", "--point", "0,0,1/2,0"],
        ["classify", "--eps", "1", "--point", "1/3,1/3,1/2,0"],
        ["components", "--table", "3"],
    ],
    ids=["reduce --D", "classify --eps", "components --table"],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    # --surface selects the prototype, table-cn --max prints the table
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_surface_defaults_to_l8(capsys):
    code, out = run_cli(capsys, "verify-lemmas", "--seed", "7", "--samples", "5")
    assert code == 0
    assert out.splitlines()[0] == "# verify-lemmas on L8, seed 7, 5 samples per suite"
    assert out.count("5 samples, ok") == 7


def test_tree_cheeger_csv(capsys):
    code, out = run_cli(capsys, "tree-cheeger", "--k", "2", "--n-max", "3")
    assert code == 0
    assert "1,4/5" in out


def test_multiplicativity_json(capsys):
    code, out = run_cli(capsys, "multiplicativity", "--max", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "lsurf-multiplicativity-v1"
    assert any(row["N"] == 2 and row["M"] == 3 for row in payload["pairs"])


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, "reduce", "--surface", "Q9", "--point", "0,0,1/2,0")
    assert code == 2


@pytest.mark.parametrize("command", ["reduce", "explore", "classify"])
def test_zero_denominator_point_is_usage_error(capsys, command):
    code = main([command, "--point", "1/0,0,1/2,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "zero denominator" in captured.err


def test_byte_identical_reruns(capsys):
    _, first = run_cli(capsys, "verify-lemmas", "--seed", "3", "--samples", "10")
    _, second = run_cli(capsys, "verify-lemmas", "--seed", "3", "--samples", "10")
    assert first == second
    _, third = run_cli(capsys, "table-cn", "--max", "8")
    _, fourth = run_cli(capsys, "table-cn", "--max", "8")
    assert third == fourth


PATH_GRAPH = {
    "root": 0,
    "vertices": [{"id": i} for i in range(30)],
    "edges": [{"src": i, "dst": i + 1} for i in range(29)],
}


def _with_edge(src, dst):
    """PATH_GRAPH with one more edge, as JSON would give it."""
    return dict(PATH_GRAPH, edges=[*PATH_GRAPH["edges"], {"src": src, "dst": dst}])


@pytest.mark.parametrize(
    "graph,extra,message",
    [
        (PATH_GRAPH, ("--root", "999"), "root 999"),
        ({"edges": []}, (), "'vertices'"),
        ([], (), "'vertices'"),
        (PATH_GRAPH, ("--support-radius", "25", "--sandwich"), "brute-force cap 20"),
        (PATH_GRAPH, ("--support-radius", "-1"), "radius must be >= 0"),
        (_with_edge(0, 1.5), (), "vertex ids [1.5] are not ints in 0..29"),
        (_with_edge("a", 1), (), "vertex ids ['a'] are not ints in 0..29"),
        (_with_edge(0, True), (), "vertex ids [True] are not ints in 0..29"),
        (dict(PATH_GRAPH, root=True), (), "root True is not a vertex id"),
        (dict(PATH_GRAPH, vertices="abc"), (), "must be lists"),
        (dict(PATH_GRAPH, edges={"src": 0, "dst": 1}), (), "must be lists"),
    ],
    ids=[
        "unknown-root",
        "no-vertices-key",
        "not-an-object",
        "sandwich-over-cap",
        "negative-support-radius",
        "float-id",
        "string-id",
        "bool-id",
        "bool-root",
        "vertices-not-a-list",
        "edges-not-a-list",
    ],
)
def test_spectral_input_errors_are_usage_errors(
    tmp_path, capsys, monkeypatch, graph, extra, message
):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the input was rejected")

    monkeypatch.setattr("lsurf.cli.dirichlet_mu0", no_eigensolve)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    code = main(["spectral", "--graph", str(graph_file), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["explore", "classify"])
def test_negative_radius_is_usage_error(capsys, command):
    code = main([command, "--point", "1/3,1/3,1/2,0", "--radius", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "radius must be >= 0" in captured.err


def test_classify_at_radius_zero_is_usage_error(capsys):
    # the G2 ball of radius 0 has no expanded vertex, so no edge to check
    code = main(["classify", "--point", "1/3,0,1/2,0", "--radius", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no expanded vertex" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["table-cn", "--max", "-3"], ["multiplicativity", "--max", "0"], ["tree-cheeger", "--n-max", "-2"]],
    ids=["table-cn", "multiplicativity", "tree-cheeger"],
)
def test_bounds_below_one_are_usage_errors(capsys, monkeypatch, argv):
    def no_components(*args, **kwargs):
        raise AssertionError("C(N) computed before the bound was refused")

    monkeypatch.setattr("lsurf.modn.components", no_components)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "n_max must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify-lemmas", "--samples", "-1"], "samples must be >= 1"),
        (["verify-lemmas", "--samples", "0"], "samples must be >= 1"),
        (["explore", "--point", "1/3,1/3,1/2,0", "--k", "0"], "exponents must be nonzero"),
        (["explore", "--point", "1/3,1/3,1/2,0", "--l", "0"], "exponents must be nonzero"),
    ],
    ids=["samples -1", "samples 0", "explore --k 0", "explore --l 0"],
)
def test_empty_checks_and_identity_generators_are_usage_errors(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_closed_stdout_exits_quietly():
    # the radius-6 ball's JSON (about 190 kB) overfills the pipe, so the
    # writer is still writing when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(Path(lsurf.__file__).parents[1]))
    argv = ["explore", "--point", "1/3,1/3,1/2,0", "--g2", "--radius", "6"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "lsurf.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "schem'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_scipy_is_imported_by_the_first_arpack_solve():
    # importing lsurf, reducing a point and building and classifying a
    # pruned ball, whose simple view is a spectral graph, must not pay for
    # scipy; nor do Dirichlet bottoms from the layer quotient (a vertex with
    # a neighbour outside), from the closed-component rule (a whole graph)
    # or from the dense solve of a support up to the cutoff that is not
    # layer-equitable (the 5-vertex support of the L17+1 ball whose loop is
    # away from the root, and a 45-vertex single-step support with a cycle);
    # only the first ARPACK solve, of a 380-vertex single-step support, does
    script = (
        "import sys, lsurf\n"
        "import numpy as np\n"
        "from lsurf.cli import main\n"
        "from lsurf import spectral\n"
        "from lsurf.spectral import FiniteGraph, dirichlet_mu0, graph_ball\n"
        "assert main(['reduce', '--point', '-141,100,1/2,0']) == 0\n"
        "P = lsurf.parse_point(lsurf.prototype(8, 0), '1/3,1/3,1/2,0')\n"
        "assert lsurf.classify_component(lsurf.build_G2(P, radius=2)).kind == 'RootLooped4'\n"
        "assert 'scipy' not in sys.modules, 'scipy imported before any eigensolve'\n"
        "assert dirichlet_mu0(FiniteGraph.from_edges(2, [(0, 1)]), {0}) == 1.0\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by the layer quotient'\n"
        "assert dirichlet_mu0(FiniteGraph.from_edges(3, [(0, 1), (1, 2)]), {0, 1, 2}) == 0.0\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by a closed component'\n"
        "def general(G, radius, size):\n"
        "    S = graph_ball(G, 0, radius)\n"
        "    rows = spectral._support_rows(G, np.array(sorted(S)))\n"
        "    assert len(S) == size and spectral._layer_quotient_mu0(*rows) is None\n"
        "    return dirichlet_mu0(G, S), rows[1].size // 2\n"
        "Q = lsurf.parse_point(lsurf.prototype(17, 1), '2,0,11,-4')\n"
        "ball = lsurf.build_G2(Q, radius=2)\n"
        "assert lsurf.classify_component(ball).loop_vertex != ball.root\n"
        "assert general(ball.simple_graph(), 1, 5)[0] > 0\n"
        "single = [('A', 1), ('A', -1), ('B', 1), ('B', -1)]\n"
        "R = lsurf.parse_point(lsurf.prototype(8, 0), '1/5,1/5,2/5,1/5')\n"
        "G = lsurf.expand_ball(R, single, 6).simple_graph()\n"
        "mu0, inside_edges = general(G, 3, 45)\n"
        "assert mu0 > 0 and inside_edges == 45, inside_edges\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by a dense solve'\n"
        "assert general(G, 5, 380)[0] > 0\n"
        "assert 'scipy.sparse.linalg' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lsurf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_internal_error_exit_code(capsys, monkeypatch):
    # a certificate that does not replay is a bug, reported as exit 1
    assert issubclass(ReduceProgressError, InternalError)
    monkeypatch.setattr("lsurf.reduce.apply_word", lambda P, word: P)
    code = main(["reduce", "--point", "-141,100,1/2,0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "internal error: word replay does not reproduce the output\n"
