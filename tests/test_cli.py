import json

import pytest

from romandom import cli, graphs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_gamma_r(capsys, monkeypatch, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Bw\nBg\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "compute", "gamma-r", str(path))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["gamma_r"] for r in records] == [2, 2]


@pytest.mark.parametrize("argv", [["compute", "gamma"], ["classify"]])
def test_unreadable_input_is_a_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "no-such-file.g6"
    code, out, err = run_cli(capsys, *argv, str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no-such-file.g6" in err and err.count("\n") == 1
    code, _, err = run_cli(capsys, *argv, str(tmp_path))  # a directory
    assert code == 2 and err.startswith("error:")


def test_compute_bondage_rejects_low_degree(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("A_\n", encoding="ascii")  # single edge
    code, _, err = run_cli(capsys, "compute", "bondage", str(path))
    assert code == 2
    assert "degree" in err


# P3, C6, K4, three isolated vertices, C5
SMALL_GRAPHS = [graphs.path_graph(3), graphs.cycle_graph(6), graphs.complete_graph(4),
                graphs.edgeless_graph(3), graphs.cycle_graph(5)]


@pytest.mark.parametrize("what, key, expected", [
    ("differential", "differential", [1, 2, 2, 0, 1]),
    ("eds", "efficient_dominating_sets",
     [[[1]], [[0, 3], [1, 4], [2, 5]], [[0], [1], [2], [3]], [[0, 1, 2]], []]),
])
def test_compute_differential_and_efficient_sets(capsys, tmp_path, what, key, expected):
    path = tmp_path / "in.g6"
    path.write_text("".join(graphs.write_graph6(g) + "\n" for g in SMALL_GRAPHS),
                    encoding="ascii")
    code, out, _ = run_cli(capsys, "compute", what, str(path))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["order"] for r in records] == [g.order for g in SMALL_GRAPHS]
    assert [r[key] for r in records] == expected


def test_compute_bondage_names_the_low_degree_line(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Bg\nBw\nA_\n", encoding="ascii")  # P3, K3, single edge
    code, out, err = run_cli(capsys, "compute", "bondage", str(path))
    assert code == 2
    assert [json.loads(line)["bondage"] for line in out.splitlines()] == [1, 2]
    assert err == "error: line 3: bondage needs maximum degree at least 2\n"


def test_classify_known_graphs(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text(
        graphs.write_graph6(graphs.path_graph(6))
        + "\n"
        + graphs.write_graph6(graphs.path_graph(4))
        + "\n"
        + graphs.write_graph6(graphs.complete_bipartite(4, 4))
        + "\n",
        encoding="ascii",
    )
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    p6, p4, k44 = (json.loads(line) for line in out.splitlines())
    assert p6["in_r_uvr"] and p6["bondage"] == 1
    assert not p4["in_r_uvr"]
    assert k44["in_r_uvr"]


def test_classify_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Bw\nnot graph6!!\n", encoding="ascii")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "line 2" in err


def test_generate_t_trees(capsys):
    code, out, _ = run_cli(capsys, "generate", "t-trees", "--max-n", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        g6, word = line.split()
        assert set(word) <= set("ABC")
    # no order-8 member exists, so the listing is unchanged one order later
    code, out8, _ = run_cli(capsys, "generate", "t-trees", "--max-n", "8")
    assert out8.splitlines() == lines


def test_generate_free_trees(capsys):
    code, out, _ = run_cli(capsys, "generate", "free-trees", "--n", "5")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_generate_requires_order_flags(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["generate", "free-trees"])
    assert err.value.code == 2


def test_verify_json_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "EQ1", "--graphs-max-n", "4"
    )
    assert code == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"] and summary["failed"] == 0
    assert summary["total"] == 10  # 1+1+2+6 connected graphs
    for line in lines[:-1]:
        record = json.loads(line)
        assert record["check"] == "EQ1" and record["ok"]


def test_verify_fault_injection_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "THM-DIFF-I",
        "--graphs-max-n",
        "4",
        "--trees-max-n",
        "5",
        "--inject-fault",
        "gamma-r-plus-one",
    )
    assert code == 1
    summary = json.loads(out.splitlines()[-1])
    assert summary["failed"] > 0


def test_verify_table_mode(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "EQ1", "--graphs-max-n", "3", "--table"
    )
    assert code == 0
    assert "EQ1" in out and "all passed" in out


def test_verify_timings_only_add_seconds(capsys):
    argv = ["verify", "--suite", "EQ1", "--graphs-max-n", "4"]
    code, plain, _ = run_cli(capsys, *argv)
    timed_code, timed, _ = run_cli(capsys, *argv, "--timings")
    assert code == timed_code == 0
    plain, timed = plain.splitlines(), timed.splitlines()
    assert len(plain) == len(timed) == 11 and plain[-1] == timed[-1]
    for line, timed_line in zip(plain[:-1], timed[:-1]):
        record = json.loads(timed_line)
        assert record.pop("seconds") >= 0
        assert record == json.loads(line)


def test_verify_table_lists_injected_failures(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "THM-DIFF-I", "--graphs-max-n", "4",
        "--trees-max-n", "5", "--table", "--inject-fault", "gamma-r-plus-one",
    )
    assert code == 1
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL THM-DIFF-I ")]
    assert fails and len(fails) == len(lines) - 2
    assert lines[1].endswith(f"{len(fails)} FAILED")


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--suite", "BOGUS"])
    assert err.value.code == 2


# Each documented limit plus one, fed through the CLI: (argv, order of a
# path graph appended as the input file or None, text the error must name).
LIMIT_PLUS_ONE = {
    "verify-graphs-max-n-9": (["verify", "--suite", "EQ1", "--graphs-max-n", "9"], None, "graphs_max_n"),
    "verify-trees-max-n-17": (["verify", "--trees-max-n", "17"], None, "trees_max_n"),
    "verify-graphs-max-n-8": (["verify", "--graphs-max-n", "8"], None, "graphs_max_n"),
    "verify-unicyclic-n-11": (["verify", "--unicyclic-n", "11"], None, "unicyclic_n"),
    "generate-free-trees-17": (["generate", "free-trees", "--n", "17"], None, "n <= 16"),
    "generate-unicyclic-11": (["generate", "unicyclic", "--n", "11"], None, "n <= 10"),
    "generate-t-trees-25": (["generate", "t-trees", "--max-n", "25"], None, "order 24, got 25"),
    "explore-unicyclic-11": (["explore", "unicyclic", "--n", "11"], None, "n <= 10"),
    "explore-sizes-8": (["explore", "sizes", "--n", "8"], None, "order 7"),
    "compute-path-21": (["compute", "gamma-r"], 21, "order 20, got 21"),
    "compute-path-25-limit-30": (["compute", "gamma-r", "--limit", "30"], 25, "24 vertices, got 25"),
}


@pytest.mark.parametrize("case", LIMIT_PLUS_ONE)
def test_verify_limit_bounds(capsys, tmp_path, case):
    argv, path_order, named = LIMIT_PLUS_ONE[case]
    if path_order is not None:
        path = tmp_path / "in.g6"
        path.write_text(graphs.write_graph6(graphs.path_graph(path_order)) + "\n",
                        encoding="ascii")
        argv = argv[:2] + [str(path)] + argv[2:]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and named in err


def test_verify_output_is_byte_identical(capsys):
    argv = ["verify", "--suite", "OBS-SABC", "--trees-max-n", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_explore_unicyclic(capsys):
    code, out, _ = run_cli(capsys, "explore", "unicyclic", "--n", "3")
    record = json.loads(out)
    assert code == 0
    assert record["members"] == [graphs.write_graph6(graphs.cycle_graph(3))]
    code, out, _ = run_cli(capsys, "explore", "unicyclic", "--n", "4")
    assert json.loads(out)["members"] == []


def test_explore_sizes(capsys):
    code, out, _ = run_cli(capsys, "explore", "sizes", "--n", "4", "--k", "2")
    record = json.loads(out)
    assert code == 0
    assert record["exhaustive"] and record["max_size"] == 6  # K_4
    code, _, err = run_cli(capsys, "explore", "sizes", "--n", "8")
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, out, _ = run_cli(capsys, "compute", "gamma")
    assert code == 0
    assert json.loads(out)["gamma"] == 1


def test_output_bytes_are_pinned(capsys, monkeypatch):
    """Output bytes are fixed: sha256 of the verify record lines (summary
    excluded) and of classify on small graphs, two of them disconnected."""
    import hashlib
    import io

    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--trees-max-n", "6",
        "--graphs-max-n", "4", "--unicyclic-n", "5",
    )
    records = [line for line in out.splitlines(keepends=True) if '"summary": true' not in line]
    assert code == 0 and len(records) == 180
    assert hashlib.sha256("".join(records).encode()).hexdigest() == (
        "803e41bd54a7824cc527ee7a685bfa0cab321a90b824bdf171f3b1dc174b52fc"
    )
    inputs = [
        graphs.path_graph(6),
        graphs.star(5),
        graphs.cycle_graph(5),
        graphs.edgeless_graph(3),
        graphs.disjoint_union(graphs.path_graph(3), graphs.cycle_graph(4)),
        graphs.disjoint_union(graphs.complete_graph(3), graphs.star(4)),
        graphs.figure3_graph(),
    ]
    text = "".join(graphs.write_graph6(g) + "\n" for g in inputs)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "classify")
    assert code == 0 and len(out.splitlines()) == len(inputs)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "18e9c75f08f25ab57d7341d22d78915a570015fe1325b85f64eb3230e0545fee"
    )
