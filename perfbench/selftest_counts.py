"""Self-tests of the benchmark itself (not collected by a bare ``pytest``).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest_counts.py -q

The main test runs the small-size variant of every workload twice with the
same seed and requires the per-layer work counts of the count pass to repeat
exactly: uncached derivations, nodes created, fixpoint evaluations,
hash-cons hits, dense hits, prune passes and the largest live grammar.  Those
counts are what a later change may cite next to wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import WORKLOADS, plan, valid_tree  # noqa: E402

#: The counts that must repeat exactly between two same-seed runs.
COUNTS = (
    "derive_uncached",
    "nodes_created",
    "fixpoint_node_evaluations",
    "hash_cons_hits",
    "dense_hits",
    "prune_passes",
    "live_nodes_max",
    "derive_spans",
    "solve_spans",
    "parse_null_calls",
    "tokens",
)


def _run(workload, seed, cwd=ROOT, trace=1):
    return subprocess.run(
        [
            sys.executable,
            os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "small",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _counts(stdout):
    for line in stdout.splitlines():
        if line.startswith("# counts "):
            return json.loads(line[len("# counts "):])
    raise AssertionError("no counts line in:\n" + stdout)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_one_seed(workload):
    first, second = _run(workload, 11), _run(workload, 11)
    for run in (first, second):
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1])["correct"], run.stderr
    one, two = _counts(first.stdout), _counts(second.stdout)
    assert {key: one[key] for key in COUNTS} == {key: two[key] for key in COUNTS}
    assert one["tokens"] > 0


def test_declared_metrics_match_the_layer_table():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)
    workloads = {workload["name"] for workload in spec["workloads"]}
    assert workloads == set(WORKLOADS)
    assert {metric["name"] for metric in spec["per_layer"]} == set(layers) - {"_about"}
    for name, row in layers.items():
        if name != "_about":
            assert set(row["on"]) <= workloads, name


def test_same_seed_gives_same_inputs():
    one, two = plan("parse-trees", 5, "small"), plan("parse-trees", 5, "small")
    assert [r.streams for r in one.cycle] == [r.streams for r in two.cycle]
    other = plan("parse-trees", 6, "small")
    assert [r.streams for r in one.cycle] != [r.streams for r in other.cycle]


def test_tree_check_rejects_a_wrong_tree():
    built = plan("forest-queries", 3, "small")
    request = next(r for r in built.cycle if r.op == "enumerate")
    grammar = built.grammars[request.grammar]
    tree = request.expected[1][0]
    assert valid_tree(grammar, tree, request.streams[0])
    assert not valid_tree(grammar, tree, request.streams[0][:-1])
    assert not valid_tree(grammar, (tree[0], tree[1][:-1]), request.streams[0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    run = _run("parse-trees", 1, cwd=str(tmp_path), trace=0)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
