"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload parse-trees --seed 1 --seconds 22 --trace 0

The run builds the workload's inputs and reference answers from ``--seed``,
sets the service up three times (``setup_s`` is the median), then sends the
workload's cycle of distinct requests over and over in a closed loop for
``--seconds`` seconds (and at least once each), and checks every reply.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  The
latency of a distinct request is its fastest send; the percentiles are over
the distinct requests, and throughput is their tokens over the sum of their
latencies.  Other processes on a shared box only ever add time, so the
fastest send is the steadiest estimate of what the program itself costs.
The speed of a shared box also drifts, by a quarter or more over minutes,
so every time is rescaled to a nominal machine speed: a fixed pure-Python
job (:func:`_calibrate`) runs every quarter second between requests and
after each set-up, and a time is multiplied by ``CALIBRATION_NS`` over the
median time of that job in the same stretch.  A comment line gives the
wall-clock figures as measured.

``--trace 1`` reports the per-layer metrics instead: set-up runs once with
the layer wrappers of :mod:`perfbench.tracing` installed; the timed phase
first sends the head of the cycle traced (the *count pass*, whose work
counts repeat exactly for a given seed), keeps tracing for the first half of
the time, then uninstalls the wrappers for the second half, so that traced
and untraced throughput can be compared in one process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the seed, the sample counts and (traced runs) the raw work counts.
Spans are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where runs leave their spans and the pool's table stores.
WORKDIR = os.path.join(ROOT, ".perfbench")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reported times are at the machine speed at which one :func:`_calibrate`
#: takes this long.
CALIBRATION_NS = 20_000_000
#: Least wall time between two calibrations in the timed loop.
CALIBRATE_EVERY_NS = 250_000_000


class _Cell:
    """A node of the calibration graph."""

    __slots__ = ("left", "right", "value")

    def __init__(self, left: Any, right: Any, value: int) -> None:
        self.left = left
        self.right = right
        self.value = value


def _calibrate() -> int:
    """Wall ns of a fixed pure-Python job shaped like the engine's work.

    It allocates a graph of small objects and walks it through an id-keyed
    memo, as derivation does.  No code of the program runs in it, so a
    change to the program cannot move it; only the machine's speed can.
    """
    began = perf_counter_ns()
    cells = [_Cell(None, None, 0)]
    for i in range(1, 12000):
        cells.append(_Cell(cells[(i * 7919) % len(cells)], cells[-1], i))
    memo: Dict[int, int] = {}
    total = 0
    for cell in cells:
        node = cell
        for _ in range(6):
            key = id(node)
            if key in memo:
                total += memo[key]
                break
            memo[key] = node.value & 7
            node = node.left if node.value & 1 else node.right
            if node is None:
                break
    return perf_counter_ns() - began


def _speed(runs: int = 3) -> float:
    """Median of ``runs`` fresh calibrations, in ns."""
    return statistics.median(_calibrate() for _ in range(runs))


class _Phase:
    """Requests sent in one stretch of the timed loop, with their replies."""

    def __init__(self) -> None:
        self.latencies: List[int] = []
        self.calibrations: List[int] = []
        self.indices: List[int] = []
        self.replies: List[Any] = []
        self.tokens = 0
        self.elapsed_ns = 0

    def extend(self, other: "_Phase") -> None:
        self.latencies += other.latencies
        self.calibrations += other.calibrations
        self.indices += other.indices
        self.replies += other.replies
        self.tokens += other.tokens
        self.elapsed_ns += other.elapsed_ns


def _loop(
    plan, running, start: int, seconds: float, tracer=None, count: int = 0, at_least: int = 0
) -> _Phase:
    """Send cycle requests from index ``start`` in a closed loop.

    Stops after ``count`` requests when ``count`` is given, otherwise once
    ``seconds`` have passed and at least ``at_least`` requests were sent.
    """
    from perfbench.workloads import call

    phase = _Phase()
    cycle = plan.cycle
    service = running.service
    began = perf_counter_ns()
    deadline = began + int(seconds * 1e9)
    index = start
    calibrated = 0
    while True:
        if not phase.calibrations or perf_counter_ns() - calibrated >= CALIBRATE_EVERY_NS:
            phase.calibrations.append(_calibrate())
            calibrated = perf_counter_ns()
        request = cycle[index % len(cycle)]
        record = tracer.begin_request() if tracer is not None else None
        sent = perf_counter_ns()
        try:
            reply = call(service, plan.grammars, request)
        except Exception as error:  # noqa: BLE001 - a failed request is a result
            traceback.print_exc(file=sys.stderr)
            reply = error
        done = perf_counter_ns()
        if record is not None:
            tracer.end_request(record, index % len(cycle))
        phase.latencies.append(done - sent)
        phase.indices.append(index % len(cycle))
        phase.replies.append(reply)
        phase.tokens += request.tokens
        index += 1
        sent_so_far = index - start
        if count and sent_so_far >= count:
            break
        if not count and done >= deadline and sent_so_far >= at_least:
            break
    phase.elapsed_ns = done - began
    return phase


def _failures(plan, phase: _Phase) -> int:
    from perfbench.workloads import check

    return sum(
        not check(plan.cycle[index], reply)
        for index, reply in zip(phase.indices, phase.replies)
    )


def _delta(before: Dict[str, Any], after: Dict[str, Any], section: str, key: str) -> int:
    return after[section].get(key, 0) - before[section].get(key, 0)


def _hist_delta(before, after, series: str) -> Tuple[float, int]:
    """(sum, count) of histogram ``series`` between two stats snapshots."""
    old = before["latency"].get(series, {})
    new = after["latency"].get(series, {})
    return new.get("sum", 0) - old.get("sum", 0), new.get("count", 0) - old.get("count", 0)


def _guard(plan, before, after) -> List[str]:
    """Steady-state problems of a recognition timed phase (empty when steady)."""
    if plan.cycle[0].op != "recognize":
        return []
    problems = []
    for key in ("dense_fallbacks", "table_misses"):
        moved = _delta(before, after, "service", key)
        if moved:
            problems.append("{} {} during the timed phase".format(moved, key))
    return problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _settle() -> None:
    """Collect garbage, then exempt every object alive now from collection.

    The reference answers and the set-up service live for the whole run.
    Left in the collector's oldest generation, they would make every full
    collection in the timed phase walk them: a cost of the benchmark, not of
    the program, landing on whichever request happens to be running.
    """
    gc.collect()
    gc.freeze()


# ------------------------------------------------------------- untraced run
def _request_metrics(plan, times: List[float], indices: List[int]) -> Dict[str, float]:
    """Throughput and percentiles over the fastest time of each distinct request."""
    best: Dict[int, float] = {}
    for ns, index in zip(times, indices):
        best[index] = min(ns, best.get(index, ns))
    latencies_ms = [ns / 1e6 for ns in best.values()]
    tokens = sum(plan.cycle[index].tokens for index in best)
    return {
        "throughput_tokens_per_s": tokens / (sum(best.values()) / 1e9),
        "request_p50_ms": statistics.median(latencies_ms),
        "request_us_per_token_p50": statistics.median(
            ns / 1e3 / plan.cycle[index].tokens for index, ns in best.items()
        ),
    }


def end_to_end(plan, seconds: float) -> Tuple[Dict[str, float], _Phase, int, List[str]]:
    """Set up three times, run the timed loop, return end-to-end metrics."""
    from perfbench.workloads import close

    setups = []
    running = None
    for _ in range(SETUP_REPEATS):
        if running is not None:
            close(running)
        began = perf_counter_ns()
        running = plan.workload.setup(plan, None, WORKDIR)
        setups.append((perf_counter_ns() - began) * CALIBRATION_NS / _speed() / 1e9)
    try:
        _settle()
        before = running.service.stats()
        phase = _loop(plan, running, 0, seconds, at_least=len(plan.cycle))
        after = running.service.stats()
    finally:
        close(running)
    failed = _failures(plan, phase)
    attempted = len(phase.latencies)
    scale = CALIBRATION_NS / statistics.median(phase.calibrations)
    metrics = _request_metrics(plan, [ns * scale for ns in phase.latencies], phase.indices)
    metrics.update(
        setup_s=statistics.median(setups),
        correct_fraction=(attempted - failed) / attempted,
        peak_rss_mb=_peak_rss_mb(),
    )
    counts = Counter(phase.indices)
    print("# distinct requests {}, sent {} times in all, fewest sends of one {}".format(
        len(counts), attempted, min(counts.values())))
    print("# calibrations {}, median {:.3f} ms (nominal {:.0f} ms)".format(
        len(phase.calibrations), statistics.median(phase.calibrations) / 1e6,
        CALIBRATION_NS / 1e6))
    print("# wall clock {}".format(
        json.dumps(_request_metrics(plan, phase.latencies, phase.indices), sort_keys=True)))
    print("# setups_s {}".format(" ".join("{:.3f}".format(s) for s in setups)))
    return metrics, phase, failed, _guard(plan, before, after)


# --------------------------------------------------------------- traced run
def per_layer(plan, seconds: float, spans_path: str):
    """Traced set-up, count pass and timed blocks; return per-layer metrics."""
    from perfbench.tracing import Tracer, covered_ns, self_cpu_ns
    from perfbench.workloads import COUNT_PASS, close, table_states

    tracer = Tracer()
    pooled = plan.workload.pooled
    setup_record = tracer.begin_request("setup")
    running = plan.workload.setup(plan, tracer, WORKDIR)
    tracer.end_request(setup_record)
    states = table_states(running)
    try:
        _settle()
        stats0 = running.service.stats()
        count_pass = _loop(
            plan, running, 0, 0.0, tracer, count=min(COUNT_PASS, len(plan.cycle))
        )
        stats1 = running.service.stats()
        traced = _Phase()
        traced.extend(count_pass)
        if traced.elapsed_ns < seconds / 2 * 1e9:
            rest = _loop(
                plan, running, len(count_pass.latencies), seconds / 2 - traced.elapsed_ns / 1e9,
                tracer,
            )
            traced.extend(rest)
        stats2 = running.service.stats()
        tracer.uninstall()
        untraced = _loop(plan, running, 0, seconds / 2)
        stats3 = running.service.stats()
    finally:
        tracer.uninstall()
        close(running)
    tracer.write(spans_path)

    spans = tracer.spans
    own = self_cpu_ns(spans)
    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
    setup_id = setup_record[0]
    requests = {span[0]: span for span in spans if span[3] == "request"}
    count_ids = sorted(requests)[: len(count_pass.latencies)]
    count_set = set(count_ids)
    children: Dict[int, list] = {}
    for span in spans:
        if span[1] in requests:
            children.setdefault(span[1], []).append(span)

    def total(name: str, ids=None, inclusive: bool = False) -> float:
        """Summed CPU ns of spans called ``name`` in the given requests."""
        ids = requests if ids is None else ids
        return sum(
            span[6] if inclusive else own[span[0]]
            for span in by_name.get(name, ())
            if span[2] in ids
        )

    def calls(name: str, ids) -> int:
        return sum(1 for span in by_name.get(name, ()) if span[2] in ids)

    n_requests = len(requests)
    ops = [plan.cycle[span[7]].op for span in requests.values()]
    engine = {
        key: _delta(stats0, stats1, "engine", key)
        for key in (
            "derive_calls",
            "derive_cache_hits",
            "derive_uncached",
            "nodes_created",
            "hash_cons_hits",
            "hash_cons_misses",
            "compaction_rewrites",
            "fixpoint_node_evaluations",
            "parse_null_calls",
        )
    }
    count_tokens = count_pass.tokens
    dense_hits = _delta(stats0, stats1, "service", "dense_hits")
    dense_fallbacks = _delta(stats0, stats1, "service", "dense_fallbacks")
    prune_values = [
        span[7] for span in by_name.get("core.prune.prune_empty", ()) if span[2] in count_set
    ]

    wall = {rid: span[5] - span[4] for rid, span in requests.items()}
    overhead_ns = handoff_ns = 0
    for rid, span in requests.items():
        kids = children.get(rid, [])
        overhead_ns += wall[rid] - covered_ns(span[4], span[5], [(k[4], k[5]) for k in kids])
        engine_starts = [k[4] for k in kids if k[3] != "serve.cache.table_for"]
        handoff_ns += (min(engine_starts) - span[4]) if engine_starts else 0
    busy_ns, _ = _hist_delta(stats0, stats2, "worker_request_latency_ns")
    encode_ns = total("serve.pool.encode")
    child_cpu = sum(k[6] for rid in requests for k in children.get(rid, []))
    covered = child_cpu + (busy_ns if pooled else 0)

    if pooled:
        dense_sum, dense_count = _hist_delta(stats0, stats2, "worker_ns_per_token_dense")
        ns_per_token = _ratio(dense_sum, dense_count)
    else:
        recognized = sum(
            span[7] for span in by_name.get("compile.executor.recognize", ()) if span[2] in requests
        )
        ns_per_token = _ratio(total("compile.executor.recognize"), recognized)

    enumerates = ops.count("enumerate")
    samples = ops.count("sample")
    setup_ids = {setup_id}
    metrics = {
        "serve.cache.table_for_us": _ratio(
            total("serve.cache.table_for"), calls("serve.cache.table_for", requests)
        ) / 1e3,
        "serve.cache.table_misses": _delta(stats0, stats3, "service", "table_misses"),
        "serve.service.overhead_ms": 0.0 if pooled else overhead_ns / n_requests / 1e6,
        "serve.service.handoff_us": 0.0 if pooled else handoff_ns / n_requests / 1e3,
        "serve.pool.encode_us": encode_ns / n_requests / 1e3 if pooled else 0.0,
        "serve.pool.overhead_ms": (
            (sum(wall.values()) - busy_ns) / n_requests / 1e6 if pooled else 0.0
        ),
        "serve.pool.dispatches": _delta(stats0, stats1, "service", "pool_dispatches"),
        "compile.executor.ns_per_token": ns_per_token,
        "compile.executor.dense_hits": dense_hits,
        "compile.executor.dense_fallbacks": dense_fallbacks,
        "compile.executor.dense_hit_ratio": _ratio(dense_hits, dense_hits + dense_fallbacks),
        "compile.automaton.step_slow_calls": calls("compile.automaton.step_slow", setup_ids),
        "compile.automaton.step_slow_s": (
            total("compile.automaton.step_slow", setup_ids, inclusive=True) / 1e9
        ),
        "compile.automaton.states": states,
        "core.derivative.self_s": total("core.derivative.derive") / n_requests / 1e9,
        "core.derivative.calls": calls("core.derivative.derive", count_set),
        "core.derivative.derive_uncached": engine["derive_uncached"],
        "core.derivative.cache_hit_ratio": _ratio(
            engine["derive_cache_hits"], engine["derive_calls"]
        ),
        "core.derivative.nodes_created_per_token": _ratio(engine["nodes_created"], count_tokens),
        "core.compaction.hash_cons_hit_ratio": _ratio(
            engine["hash_cons_hits"], engine["hash_cons_hits"] + engine["hash_cons_misses"]
        ),
        "core.compaction.rewrites": engine["compaction_rewrites"],
        "core.fixpoint.self_s": total("core.fixpoint.solve") / n_requests / 1e9,
        "core.fixpoint.solves": calls("core.fixpoint.solve", count_set),
        "core.fixpoint.node_evaluations_per_token": _ratio(
            engine["fixpoint_node_evaluations"], count_tokens
        ),
        "core.prune.self_s": total("core.prune.prune_empty") / n_requests / 1e9,
        "core.prune.passes": len(prune_values),
        "core.prune.live_nodes_max": max(prune_values, default=0),
        "core.parse.parse_null_s": total("core.parse.parse_null") / n_requests / 1e9,
        "core.parse.parse_null_calls": engine["parse_null_calls"],
        "core.forest.first_tree_s": total("core.forest.first_tree") / n_requests / 1e9,
        "core.forest_query.count_s": total("core.forest_query.count") / n_requests / 1e9,
        "core.forest_query.rank_s": _ratio(total("core.forest_query.rank"), enumerates) / 1e9,
        "core.forest_query.sample_s": _ratio(total("core.forest_query.sample"), samples) / 1e9,
        "trace.coverage": _ratio(covered, sum(wall.values())),
        "trace.overhead": _ratio(
            traced.tokens / traced.elapsed_ns, untraced.tokens / untraced.elapsed_ns
        ),
    }
    counts = dict(engine)
    counts.update(
        dense_hits=dense_hits,
        dense_fallbacks=dense_fallbacks,
        prune_passes=len(prune_values),
        live_nodes_max=max(prune_values, default=0),
        derive_spans=calls("core.derivative.derive", count_set),
        solve_spans=calls("core.fixpoint.solve", count_set),
        tokens=count_tokens,
    )
    print("# counts {}".format(json.dumps(counts, sort_keys=True)))
    phase = _Phase()
    phase.extend(traced)
    phase.extend(untraced)
    return metrics, phase, _failures(plan, phase), _guard(plan, stats0, stats3)


# --------------------------------------------------------------------- main
def _declared(kind: str) -> Dict[str, str]:
    """Metric name → unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="input sizes; 'small' is for the count self-test",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro package under src/ in {}".format(ROOT), file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS, plan

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload {!r}; known: {}".format(
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    built = plan(args.workload, args.seed, args.size)
    print("# workload {} seed {} size {} trace {}".format(
        args.workload, args.seed, args.size, args.trace))
    if args.trace:
        spans_path = os.path.join(
            WORKDIR, "spans-{}-seed{}.jsonl".format(args.workload, args.seed)
        )
        values, phase, failed, problems = per_layer(built, args.seconds, spans_path)
        declared = _declared("per_layer")
    else:
        values, phase, failed, problems = end_to_end(built, args.seconds)
        declared = _declared("end_to_end")
    if set(values) != set(declared):
        raise RuntimeError("metrics {} differ from BENCHMARK.json {}".format(
            sorted(set(values) ^ set(declared)), args.trace))
    for problem in problems:
        print("perfbench: invalid run: {}".format(problem), file=sys.stderr)
    print("# requests {} tokens {} seconds {:.3f} failed {}".format(
        len(phase.latencies), phase.tokens, phase.elapsed_ns / 1e9, failed))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(phase.latencies),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
