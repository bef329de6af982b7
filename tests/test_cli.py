import contextlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qktree import cli
from qktree.cli import generate_graph, main
from qktree.core import is_connected, parse_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def gnp_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--model", "gnp", "--n", "18",
                       "--seed", "3", "--prob", "0.2")
    assert code == 0
    return write_graph(tmp_path, "g.txt", out)


def test_generators_are_deterministic_and_well_formed(capsys):
    for model in ("gnp", "grid", "barbell", "path", "tree"):
        code1, out1, _ = run(capsys, "gen", "--model", model, "--n", "16", "--seed", "5")
        code2, out2, _ = run(capsys, "gen", "--model", model, "--n", "16", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        g = parse_edge_list(out1)
        assert g.n == 16
        if model != "gnp":
            assert is_connected(g)


def test_generate_graph_models():
    assert generate_graph("path", 5, 0).m == 4
    assert generate_graph("tree", 9, 4).m == 8
    barbell = generate_graph("barbell", 10, 0)
    assert barbell.m == 2 * 10 + 1  # two K5s plus the bridge
    with pytest.raises(ValueError):
        generate_graph("torus", 5, 0)


def test_decompose_determinism_and_verify(gnp_file, capsys):
    args = ("decompose", gnp_file, "--k", "1", "--seed", "7", "--verify")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 7 and payload["variant"] == "STANDARD"
    assert payload["nodes"][0]["parent"] is None


def test_decompose_depth_reduced_variant(gnp_file, capsys):
    code, out, _ = run(capsys, "decompose", gnp_file, "--k", "1",
                       "--variant", "depth-reduced", "--seed", "2", "--verify")
    assert code == 0
    assert json.loads(out)["variant"] == "DEPTH_REDUCED"


def test_decompose_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "decompose", "/nonexistent/g.txt", "--k", "1")
    assert code == 1 and "error" in err


def test_decompose_malformed_input_exits_one(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.txt", "not a graph\n")
    code, _, err = run(capsys, "decompose", path, "--k", "1")
    assert code == 1 and "error" in err


def test_verify_verb_accepts_and_rejects(gnp_file, tmp_path, capsys):
    code, deco_json, _ = run(capsys, "decompose", gnp_file, "--k", "1", "--seed", "1")
    assert code == 0
    good = write_graph(tmp_path, "deco.json", deco_json)
    code, out, _ = run(capsys, "verify", gnp_file, good, "--k", "1")
    assert code == 0 and out.strip() == "OK"

    payload = json.loads(deco_json)
    victim = payload["nodes"][0]["bag"]
    if victim:
        payload["nodes"][0]["bag"] = victim[:-1]
    bad = write_graph(tmp_path, "bad.json", json.dumps(payload))
    code, out, _ = run(capsys, "verify", gnp_file, bad, "--k", "1")
    assert code == 2 and "FAIL" in out


def test_verify_reports_skipped_bags(tmp_path, capsys):
    # at k = 4 the root bag of this G(60, 0.08) graph needs 523,686 sweep
    # candidates, over the separator sweep's limit; the other bags are
    # checked, so the verdict stays OK and exit 0, with one stderr line
    code, out, _ = run(capsys, "gen", "--model", "gnp", "--n", "60",
                       "--prob", "0.08", "--seed", "0")
    graph = write_graph(tmp_path, "g60.txt", out)
    code, deco_json, err = run(capsys, "decompose", graph, "--k", "4",
                               "--seed", "1", "--verify")
    assert code == 0 and err.startswith("warning: 1 of ")
    deco = write_graph(tmp_path, "deco.json", deco_json)
    code, out, err = run(capsys, "verify", graph, deco, "--k", "4")
    assert code == 0 and out == "OK\n"
    assert err.startswith("warning: 1 of ") and err.count("\n") == 1
    assert err.endswith(
        " bags not checked (over the separator sweep's limit): 0\n"
    )


def test_pwaycut_with_oracle(gnp_file, capsys):
    args = ("pwaycut", gnp_file, "--p", "2", "--k", "3", "--seed", "4", "--oracle")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"p", "k", "feasible", "cost", "seed"}


def test_ssmc_determinism_and_preconditions(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--model", "grid", "--n", "16", "--seed", "0")
    assert code == 0
    path = write_graph(tmp_path, "grid.txt", out)
    args = ("ssmc", path, "--source", "0", "--sinks", "5,10,15", "--k", "2",
            "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["width"] == len(payload["collections"])

    code, _, err = run(capsys, "ssmc", path, "--source", "0", "--sinks", "1",
                       "--k", "2")
    assert code == 1 and "PRECONDITION" in err


def test_bench_schema_and_structural_determinism(capsys):
    args = ("bench", "--model", "path", "--sizes", "12,18,24", "--k", "1",
            "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "size,stage,millis"
    assert len(lines) == 1 + 3 * 4  # four stages per size
    stages = [ln.split(",")[1] for ln in lines[1:5]]
    assert stages == ["origin", "adhesion", "decomp", "dp"]
    # wall times vary between runs; everything else must not
    strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
    assert strip(out1) == strip(out2)


def test_ssmc_source_out_of_range_exits_one(tmp_path, capsys):
    path = write_graph(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    code, out, err = run(capsys, "ssmc", path, "--source", "7", "--sinks", "1",
                         "--k", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_decompose_beyond_enumeration_limit_exits_one(tmp_path, capsys):
    # at k = 5 a path's checks fit no strategy: no vertex has degree above
    # k, the nets exceed the small-set limit, and the sweep's DFS passes
    # (about 5.9 million at n = 60) exceed its limit
    code, out, _ = run(capsys, "gen", "--model", "path", "--n", "60",
                       "--seed", "0")
    path = write_graph(tmp_path, "p60.txt", out)
    code, out, err = run(capsys, "decompose", path, "--k", "5")
    assert code == 1 and out == ""
    assert "SIZE_GUARD" in err and err.count("\n") == 1


def decomposition_file(tmp_path, capsys, edit):
    path = write_graph(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "decompose", path, "--k", "1")
    assert code == 0
    payload = json.loads(out)
    edit(payload)
    return path, write_graph(tmp_path, "deco.json", json.dumps(payload))


def test_verify_missing_key_exits_one(tmp_path, capsys):
    graph, deco = decomposition_file(tmp_path, capsys,
                                     lambda d: d.pop("nodes"))
    code, out, err = run(capsys, "verify", graph, deco, "--k", "1")
    assert code == 1 and out == ""
    assert "'nodes'" in err and err.count("\n") == 1


def test_verify_vertex_out_of_range_exits_one(tmp_path, capsys):
    graph, deco = decomposition_file(
        tmp_path, capsys, lambda d: d["nodes"][0]["bag"].append(9)
    )
    code, out, err = run(capsys, "verify", graph, deco, "--k", "1")
    assert code == 1 and out == ""
    assert "vertex 9" in err and err.count("\n") == 1


def test_verify_unknown_variant_exits_one(tmp_path, capsys):
    graph, deco = decomposition_file(
        tmp_path, capsys, lambda d: d.update(variant="BOGUS")
    )
    code, out, err = run(capsys, "verify", graph, deco, "--k", "1")
    assert code == 1 and out == ""
    assert "unknown variant 'BOGUS'" in err and err.count("\n") == 1


def test_bench_default_model_exits_zero(capsys):
    # the default gnp graph at n = 30 is disconnected
    code, out, _ = run(capsys, "bench", "--sizes", "30")
    assert code == 0
    assert [ln.split(",")[1] for ln in out.splitlines()[1:]] == [
        "origin", "adhesion", "decomp", "dp"
    ]


def test_bench_on_a_node_with_many_children_exits_zero(capsys):
    # 1,500 isolated vertices: the root has 1,499 children, one p-way chain
    # step each, over the interpreter's default recursion limit, which an
    # earlier min_pway_cut call in this process may have raised
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(capsys, "bench", "--model", "gnp", "--sizes",
                             "1500", "--prob", "0", "--k", "1")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and err == ""
    assert [ln.split(",")[1] for ln in out.splitlines()[1:]] == [
        "origin", "adhesion", "decomp", "dp"
    ]


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bench_size_zero_exits_one(capsys):
    assert_one_error_line(*run(capsys, "bench", "--sizes", "0"))


@pytest.mark.parametrize("k", ["-1", "0"])
def test_bench_k_below_one_exits_one(k, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "balanced_origin", never)
    code, out, err = run(capsys, "bench", "--sizes", "10", "--k", k)
    assert_one_error_line(code, out, err)
    assert "k must be at least 1" in err


@pytest.mark.parametrize("prob", ["2", "-1", "nan"])
def test_gen_prob_outside_the_unit_interval_exits_one(prob, capsys):
    code, out, err = run(capsys, "gen", "--model", "gnp", "--n", "4",
                         "--prob", prob)
    assert_one_error_line(code, out, err)
    assert "prob must be in [0, 1]" in err


@pytest.mark.parametrize("verb", ["decompose", "verify", "pwaycut", "bench"])
@pytest.mark.parametrize("eps", ["0", "2", "1/0", "x"])
def test_epsilon_outside_zero_one_exits_two(verb, eps, tmp_path, capsys):
    path = write_graph(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    argv = {"decompose": ["decompose", path], "verify": ["verify", path, path],
            "pwaycut": ["pwaycut", path, "--p", "2"], "bench": ["bench"]}[verb]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--k", "1", "--epsilon", eps])
    assert exc.value.code == 2
    # "x" fails Fraction() itself, so argparse words that error
    assert "epsilon" in capsys.readouterr().err


def test_pwaycut_p_over_its_limit_exits_one(tmp_path, capsys):
    path = write_graph(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    code, out, err = run(capsys, "pwaycut", path, "--p", "11", "--k", "1")
    assert_one_error_line(code, out, err)
    assert "p must be at most 10" in err


def test_decompose_unwritable_out_exits_one(gnp_file, capsys):
    assert_one_error_line(*run(capsys, "decompose", gnp_file, "--k", "1",
                               "--out", "/nonexistent/x.json"))


def test_gen_unwritable_out_exits_one(capsys):
    assert_one_error_line(*run(capsys, "gen", "--model", "path", "--n", "3",
                               "--out", "/nonexistent/x"))


def test_pwaycut_oracle_beyond_its_limit_exits_one(tmp_path, capsys):
    # a 6x6 grid has m = 60, so k = 4 would mean 523,686 edge subsets
    code, out, _ = run(capsys, "gen", "--model", "grid", "--n", "36")
    path = write_graph(tmp_path, "grid36.txt", out)
    code, out, err = run(capsys, "pwaycut", path, "--p", "2", "--k", "4",
                         "--oracle")
    assert_one_error_line(code, out, err)
    assert "SIZE_GUARD" in err


# --- fuzzing every verb with small graphs, malformed input and odd flags

def _edge_list(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    if draw(st.booleans()):  # malformed: one line replaced or dropped
        bad = draw(st.sampled_from(
            ["", "x y", "1", "0 0 0", "-3 0", "2 -1", "3 3", "1.5 2", "# c"]
        ))
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [bad] if bad else []
    return "\n".join(lines) + "\n"


_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "9", "x"])
_K = st.sampled_from(["-1", "0", "1", "2"])
_EPS = st.sampled_from(["1", "1", "1/2", "1/3", "0", "2", "1/0", "x"])
_P3 = "3 2\n0 1\n1 2\n"
_BOGUS = ('{"n": 3, "variant": "BOGUS", "seed": 0, "nodes": '
          '[{"id": 0, "parent": null, "bag": [0, 1, 2]}]}')


@st.composite
def cli_runs(draw):
    """(argv, file contents) of one CLI run; "{g}", "{d}" and "{dir}" in
    argv stand for the graph file, the decomposition file and a directory."""
    files = {"g": _edge_list(draw)}
    keep_graph = False
    verb = draw(st.sampled_from(
        ["decompose", "verify", "pwaycut", "ssmc", "gen", "bench"]
    ))
    out = ["--out", draw(st.sampled_from(["{dir}/out", "/nonexistent/out", "-"]))]
    if verb == "decompose":
        argv = ["decompose", "{g}", "--k", draw(_K), "--epsilon", draw(_EPS),
                "--variant", draw(st.sampled_from(["standard", "depth-reduced"])),
                "--seed", draw(_INTS)] + out
        if draw(st.booleans()):
            argv.append("--verify")
    elif verb == "verify":
        # each decomposition comes with its own graph, and the n = 3 ones
        # with a valid epsilon and a readable graph path, so a fault that
        # needs a decomposition and its graph together is not left to chance
        files["d"], files["g"] = draw(st.sampled_from([
            ("", files["g"]), ("[]", files["g"]), ("{}", files["g"]),
            ("nope", files["g"]), ('{"n": 2, "nodes": []}', files["g"]),
            ('{"n": 3, "variant": "STANDARD", "seed": 0, "nodes": '
             '[{"id": 0, "parent": null, "bag": [0, 1, 2]}]}', _P3),
            ('{"n": 3, "variant": "STANDARD", "seed": 0, "nodes": '
             '[{"id": 0, "parent": 5, "bag": [0, "a"]}]}', _P3),
            (_BOGUS, _P3),
        ]))
        eps = _EPS
        if files["d"].startswith('{"n": 3'):
            eps = st.sampled_from(["1", "1/2", "1/3"])
            keep_graph = True
        argv = ["verify", "{g}", "{d}", "--k", draw(_K), "--epsilon", draw(eps)]
    elif verb == "pwaycut":
        # p = 11 is over min_pway_cut's range
        argv = ["pwaycut", "{g}", "--p", draw(st.one_of(_INTS, st.just("11"))),
                "--k", draw(_K), "--epsilon", draw(_EPS), "--seed", draw(_INTS)]
        if draw(st.booleans()):
            argv.append("--oracle")
    elif verb == "ssmc":
        sinks = draw(st.lists(_INTS, max_size=3))
        argv = ["ssmc", "{g}", "--source", draw(_INTS), "--sinks",
                ",".join(sinks), "--k", draw(_K), "--seed", draw(_INTS)]
    elif verb == "gen":
        argv = ["gen", "--model",
                draw(st.sampled_from(["gnp", "grid", "barbell", "path", "tree"])),
                "--n", draw(_INTS), "--prob", draw(st.sampled_from(
                    ["0", "0.3", "1", "-1", "nan"])), "--seed", draw(_INTS)] + out
    else:
        sizes = draw(st.lists(_INTS, min_size=0, max_size=2))
        argv = ["bench", "--model",
                draw(st.sampled_from(["gnp", "grid", "barbell", "path", "tree"])),
                "--sizes", ",".join(sizes), "--k", draw(_K),
                "--epsilon", draw(_EPS)] + out
    if "{g}" in argv and not keep_graph and draw(st.booleans()):
        argv[argv.index("{g}")] = "/nonexistent/g.txt"
    return argv, files


@settings(max_examples=300, deadline=None)
@given(cli_runs())
# the strategy draws this pairing in about one run in 50, and some seeds
# never draw it
@example((["verify", "{g}", "{d}", "--k", "1", "--epsilon", "1"],
          {"g": _P3, "d": _BOGUS}))
def test_cli_fuzz_never_raises(run_spec):
    """Every run exits 0-3; exit 1 prints one "error:" line; nothing
    escapes main() as an exception (the CLI would print a traceback).
    A second run with the same seeds, and a run that reads the graph from
    stdin ("-"), give the same exit code and byte-identical output (bench
    without its time column)."""
    argv, files = run_spec
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dir": tmp}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                fh.write(text)
        out_file = os.path.join(tmp, "out")

        def once(args, stdin=""):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch("sys.stdin", io.StringIO(stdin)):
                try:
                    code = main([a.format(**paths) for a in args])
                except SystemExit as exc:  # argparse rejects a flag: exit 2
                    code = exc.code
            written = ""
            if os.path.exists(out_file):
                with open(out_file) as fh:
                    written = fh.read()
                os.remove(out_file)
            outputs = [out.getvalue(), written]
            if args[0] == "bench":
                outputs = [[ln.rsplit(",", 1)[0] for ln in text.splitlines()]
                           for text in outputs]
            return code, outputs, err.getvalue()

        code, outputs, err = once(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert once(argv)[:2] == (code, outputs), argv
        if "{g}" in argv:
            piped = ["-" if a == "{g}" else a for a in argv]
            assert once(piped, files["g"])[:2] == (code, outputs), argv
