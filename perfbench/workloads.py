"""The four benchmark workloads: inputs, reference answers, set-up, calls.

Every workload is a closed loop: one client sends one request (one batch
call on a service), waits for the reply, and sends the next.  A workload is
built from a seed by :func:`plan`: it generates the token streams with the
registry's seeded generators, computes the reference answer of every request
(outside any timer), and lays the requests out in a fixed *cycle* that the
timed phase repeats.  The program under test only ever sees the generated
tokens.

Reference answers come from engines other than the one under test wherever
one exists: Earley for verdicts, failure positions and trees; the closed-form
counts of :mod:`repro.bench.registry` for ambiguous forests.  Ranked trees and
samples have no outside oracle, so their references are the first answers of
a separate derivative parser, checked for non-decreasing scores, and every
such tree is checked against the grammar's productions and the input.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.registry import CELLS_BY_ID
from repro.cfg.grammar import Nonterminal
from repro.core import DerivativeParser
from repro.core.errors import ParseError
from repro.core.forest_query import ForestQuery
from repro.core.languages import token_kind, token_value
from repro.earley import EarleyParser
from repro.lexer.tokens import Tok
from repro.serve import ParseService, PooledParseService
from repro.workloads import (
    ambiguous_sum_tokens,
    catalan_tokens,
    dangling_else_tokens,
    json_document_tokens,
    pl0_tokens,
)

__all__ = ["WORKLOADS", "Plan", "Request", "Running", "Workload", "plan"]

#: Worker threads (in-process) or processes (pool); the target box has 2 cores.
WORKERS = 2
#: Trees per enumerate request and samples per sample request.
TREES_PER_REQUEST = 16
#: Streams per recognition batch; one of them is a corrupted stream.
BATCH_STREAMS = 8

# Stream sizes (the generators' "at least this many tokens").  The full
# sizes are chosen so that three set-ups plus the timed phase fit a run of
# about half a minute; the small sizes feed the count self-test.
_RECOGNIZE_SIZES = {"full": (250, 320), "small": (60, 90)}
#: Parse sizes: an even ladder per grammar, listed in bit-reversed order so
#: that every prefix of the cycle holds small and large streams alike.
#: PL/0 gets three streams for every JSON one, so that the per-token median
#: falls inside one grammar's costs rather than in the gap between the two.
_PARSE_SIZES = {
    "full": {
        "pl0": tuple(100 + 27 * i for i in (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11)),
        "json": tuple(100 + 100 * i for i in (0, 2, 1, 3)),
    },
    "small": {"pl0": (40, 70, 55), "json": (50,)},
}
#: Every eighth parse stream of the cycle is corrupted by one token.
_PARSE_CORRUPTED_EVERY = 8
#: Candidate streams drawn per wanted stream; the one closest to the wanted
#: length is kept, so stream lengths (and cost) vary little from seed to seed.
_CANDIDATES = 8
_FOREST_SIZES = {
    "full": {
        "catalan": (24, 64, 36, 48),
        "binary-sum": (12, 36, 20, 28),
        "dangling-else": (30, 120, 60, 90),
    },
    "small": {"catalan": (8, 11), "binary-sum": (5, 7), "dangling-else": (5, 9)},
}
_RECOGNIZE_CYCLE = {"full": 128, "small": 8}
#: Requests at the head of the cycle whose work counts a traced run reports.
COUNT_PASS = 16


@dataclass
class Request:
    """One client call: an operation on one grammar over a batch of streams."""

    op: str
    grammar: str
    streams: List[List[Tok]]
    expected: Any
    seed: int = 0
    tokens: int = field(init=False)

    def __post_init__(self) -> None:
        self.tokens = sum(len(stream) for stream in self.streams)


@dataclass
class Plan:
    """Everything a run needs, built from the seed before any timing."""

    workload: "Workload"
    grammars: Dict[str, Any]
    #: Streams each set-up warms its service over, per grammar.
    warm: Dict[str, List[List[Tok]]]
    cycle: List[Request]


@dataclass
class Running:
    """A set-up service (or pool) plus the table store it owns, if any."""

    service: Any
    store: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build its plan, set it up and call it."""

    name: str
    build: Callable[[int, str], Tuple[Dict[str, Any], Dict[str, list], List[Request]]]
    setup: Callable[[Plan, Any, str], Running]
    pooled: bool = False


# ---------------------------------------------------------------- inputs
def _grammar(cell_id: str) -> Any:
    return CELLS_BY_ID[cell_id].grammar.factory()


def _corrupt(stream: List[Tok], rng: random.Random) -> List[Tok]:
    """Replace the middle token by a token of another kind from the stream."""
    position = len(stream) // 2
    others = [tok for tok in stream if tok.kind != stream[position].kind]
    return stream[:position] + [rng.choice(others)] + stream[position + 1 :]


def _earley_answer(parser: EarleyParser, stream: List[Tok]) -> Tuple[str, Any]:
    """``("tree", tree)`` for an accepted stream, ``("fail", position)`` else."""
    try:
        return "tree", parser.parse(stream)
    except ParseError as error:
        return "fail", error.position


def _sized(generator: Callable[[int, int], List[Tok]], n: int, rng: random.Random) -> List[Tok]:
    """The generated stream closest to ``n`` tokens among a few seeds."""
    candidates = [generator(n, rng.randrange(1 << 30)) for _ in range(_CANDIDATES)]
    return min(candidates, key=lambda stream: len(stream) - n)


def _build_recognize(seed: int, size: str):
    rng = random.Random(seed)
    grammars = {"pl0": _grammar("pl0"), "json": _grammar("json-documents")}
    generators = {"pl0": pl0_tokens, "json": json_document_tokens}
    valid: Dict[str, List[List[Tok]]] = {}
    corrupted: Dict[str, List[List[Tok]]] = {}
    verdicts: Dict[int, bool] = {}
    for gid, grammar in grammars.items():
        earley = EarleyParser(grammar)
        valid[gid] = [_sized(generators[gid], n, rng) for n in _RECOGNIZE_SIZES[size]]
        corrupted[gid] = [_corrupt(stream, rng) for stream in valid[gid]]
        for stream in valid[gid] + corrupted[gid]:
            verdicts[id(stream)] = earley.recognize(stream)
    cycle = []
    for index in range(_RECOGNIZE_CYCLE[size]):
        gid = ("pl0", "json")[index % 2]
        batch = [rng.choice(valid[gid]) for _ in range(BATCH_STREAMS - 1)]
        batch.insert(rng.randrange(BATCH_STREAMS), rng.choice(corrupted[gid]))
        cycle.append(Request("recognize", gid, batch, [verdicts[id(s)] for s in batch]))
    warm = {gid: valid[gid] + corrupted[gid] for gid in grammars}
    return grammars, warm, cycle


def _revalue(stream: List[Tok], kinds: Sequence[str], rng: random.Random) -> List[Tok]:
    """Permute the values of ``kinds`` tokens among themselves.

    Token kinds, and which tokens are equal to which, stay as they were, so
    the stream stays valid and costs the engine the same work; only the
    values the trees carry change with ``rng``.
    """
    mapping: Dict[Tuple[str, Any], Any] = {}
    for kind in kinds:
        values = sorted({tok.value for tok in stream if tok.kind == kind})
        shuffled = values[:]
        rng.shuffle(shuffled)
        mapping.update(((kind, old), new) for old, new in zip(values, shuffled))
    return [
        Tok(tok.kind, mapping[tok.kind, tok.value]) if tok.kind in kinds else tok
        for tok in stream
    ]


def _build_parse(seed: int, size: str):
    rng = random.Random(seed)
    cells = {"pl0": "pl0", "json": "json-documents"}
    grammars = {gid: _grammar(cell) for gid, cell in cells.items()}
    generators = {"pl0": pl0_tokens, "json": json_document_tokens}
    earley = {gid: EarleyParser(grammar) for gid, grammar in grammars.items()}
    sizes = {gid: list(_PARSE_SIZES[size][gid]) for gid in grammars}
    cycle = []
    # Three PL/0 streams, then one JSON stream, and so on.
    while sizes["pl0"] or sizes["json"]:
        gid = "json" if len(cycle) % 4 == 3 and sizes["json"] else "pl0"
        gid = gid if sizes[gid] else "json"
        n = sizes[gid].pop(0)
        # Parse cost depends on a program's shape and on where a corrupted
        # one stops far more than on its values, and 16 programs are too few
        # to average those out; so shapes and corruptions are fixed per size
        # and the seed draws the values.
        stream = _sized(generators[gid], n, random.Random(n))
        if len(cycle) % _PARSE_CORRUPTED_EVERY == _PARSE_CORRUPTED_EVERY - 2:
            stream = _corrupt(stream, random.Random(n))
        stream = _revalue(stream, CELLS_BY_ID[cells[gid]].workload.editable_kinds, rng)
        cycle.append(Request("parse", gid, [stream], [_earley_answer(earley[gid], stream)]))
    # Set-up warms on fixed streams, so that its cost does not vary by seed.
    warm = {gid: [generators[gid](min(_PARSE_SIZES[size][gid]), 0)] for gid in grammars}
    return grammars, warm, cycle


def _build_forest(seed: int, size: str):
    rng = random.Random(seed)
    generators = {
        "catalan": catalan_tokens,
        "binary-sum": ambiguous_sum_tokens,
        "dangling-else": dangling_else_tokens,
    }
    grammars = {gid: _grammar(gid) for gid in generators}
    streams = []
    for gid in generators:
        for n in _FOREST_SIZES[size][gid]:
            streams.append((gid, generators[gid](n)))
    # Interleave grammars: catalan, binary-sum, dangling-else, catalan, ...
    per = len(streams) // len(generators)
    streams = [streams[g * per + i] for i in range(per) for g in range(len(generators))]
    cycle = []
    for gid, stream in streams:
        grammar = grammars[gid]
        count = CELLS_BY_ID[gid].grammar.forest_count(stream)
        query = ForestQuery(DerivativeParser(grammar).parse_forest(stream), "size")
        ranked = list(query.iter_ranked(TREES_PER_REQUEST))
        sample_seed = rng.randrange(1 << 30)
        samples = query.sample_n(sample_seed, TREES_PER_REQUEST)
        if query.count != count:
            raise RuntimeError("reference count of {} disagrees with closed form".format(gid))
        scores = [score for score, _tree in ranked]
        if scores != sorted(scores):
            raise RuntimeError("reference ranking of {} is not best-first".format(gid))
        for tree in [tree for _s, tree in ranked] + samples:
            if not valid_tree(grammar, tree, stream):
                raise RuntimeError("reference tree of {} is not a derivation".format(gid))
        trees = [tree for _score, tree in ranked]
        if len({repr(tree) for tree in trees}) != len(trees):
            raise RuntimeError("reference ranking of {} repeats a tree".format(gid))
        cycle.append(Request("enumerate", gid, [stream], (count, trees)))
        cycle.append(Request("sample", gid, [stream], (count, samples), seed=sample_seed))
    warm = {gid: [generators[gid](min(_FOREST_SIZES[size][gid]))] for gid in grammars}
    return grammars, warm, cycle


def valid_tree(grammar: Any, tree: Any, tokens: Sequence[Any]) -> bool:
    """True when ``tree`` is a derivation of ``tokens`` in ``grammar``.

    Trees have the ``(lhs, children)`` shape every engine in the repository
    emits; terminals appear as token values.  The walk is iterative and
    consumes the input left to right.
    """
    kinds = [token_kind(tok) for tok in tokens]
    values = [token_value(tok) for tok in tokens]
    position = 0
    stack: List[Tuple[Any, Any]] = [("node", (tree, grammar.start))]
    while stack:
        what, item = stack.pop()
        if what == "terminal":
            symbol, value = item
            if position >= len(kinds) or kinds[position] != symbol or values[position] != value:
                return False
            position += 1
            continue
        node, lhs = item
        if type(node) is not tuple or len(node) != 2 or node[0] != lhs:
            return False
        children = node[1]
        for production in grammar.productions_for(lhs):
            rhs = production.rhs
            if len(rhs) == len(children) and all(
                (type(child) is tuple) == isinstance(symbol, Nonterminal)
                and (not isinstance(symbol, Nonterminal) or child[0] == symbol.name)
                for symbol, child in zip(rhs, children)
            ):
                break
        else:
            return False
        for symbol, child in reversed(list(zip(rhs, children))):
            if isinstance(symbol, Nonterminal):
                stack.append(("node", (child, symbol.name)))
            else:
                stack.append(("terminal", (symbol, child)))
    return position == len(kinds)


# ---------------------------------------------------------------- set-up
def _setup_recognize(plan: Plan, tracer: Any, workdir: str) -> Running:
    """Start a service, compile both tables cold and warm them."""
    if tracer is not None:
        tracer.install()
    running = Running(ParseService(workers=WORKERS))
    with _closed_on_error(running):
        service = running.service
        for gid, grammar in plan.grammars.items():
            # One stream per call keeps the cold compile on one thread, so
            # the compile does the same work on every run.
            for stream in plan.warm[gid]:
                service.recognize_many(grammar, [stream])
            # The first warm pass repacks the dense core; the second is steady.
            service.recognize_many(grammar, plan.warm[gid])
            service.recognize_many(grammar, plan.warm[gid])
    return running


def _setup_pooled(plan: Plan, tracer: Any, workdir: str) -> Running:
    """Spawn the pool, seed its table store, preload and warm the workers."""
    store = tempfile.mkdtemp(prefix="store-", dir=workdir)
    running = Running(PooledParseService(workers=WORKERS, replication=1, store=store), store)
    with _closed_on_error(running):
        pool = running.service
        # Wrappers go in after the fork, so worker processes stay untraced.
        if tracer is not None:
            tracer.install()
        for gid, grammar in plan.grammars.items():
            pool.seed_store(grammar, plan.warm[gid])
        loaded = pool.preload(plan.grammars.values())
        if loaded != len(plan.grammars):
            raise RuntimeError(
                "preload warm-loaded {} tables, expected {}".format(loaded, len(plan.grammars))
            )
        for gid, grammar in plan.grammars.items():
            pool.recognize_many(grammar, plan.warm[gid])
            pool.recognize_many(grammar, plan.warm[gid])
    return running


def _setup_trees(plan: Plan, tracer: Any, workdir: str) -> Running:
    """Start a service and run small requests per grammar on every thread."""
    if tracer is not None:
        tracer.install()
    running = Running(ParseService(workers=WORKERS))
    with _closed_on_error(running):
        service = running.service
        ops = {request.op for request in plan.cycle}
        for gid, grammar in plan.grammars.items():
            streams = plan.warm[gid] * (2 * WORKERS)
            if "parse" in ops:
                service.parse_many(grammar, streams)
            if "enumerate" in ops:
                service.enumerate_many(grammar, streams, k=TREES_PER_REQUEST)
            if "sample" in ops:
                service.sample_many(grammar, streams, n=TREES_PER_REQUEST)
    return running


@contextmanager
def _closed_on_error(running: Running) -> Iterator[None]:
    """Close ``running`` if set-up fails, so no worker outlives the run."""
    try:
        yield
    except BaseException:
        close(running)
        raise


def close(running: Running) -> None:
    """Close a service or pool (waiting for its workers) and free its memory."""
    running.service.close()
    if running.store is not None:
        shutil.rmtree(running.store, ignore_errors=True)
    gc.collect()


def table_states(running: Running) -> int:
    """Automaton states across the compiled tables the service answers from."""
    store = running.store
    if store is None:
        return sum(entry.table.state_count() for entry in running.service.tables.entries())
    total = 0
    for name in sorted(os.listdir(store)):
        if name.endswith(".table.json"):
            with open(os.path.join(store, name), encoding="utf-8") as handle:
                total += len(json.load(handle)["states"])
    return total


# ----------------------------------------------------------------- calls
def call(service: Any, grammars: Dict[str, Any], request: Request) -> Any:
    """Send one request to the service and return its reply."""
    grammar = grammars[request.grammar]
    if request.op == "recognize":
        return service.recognize_many(grammar, request.streams)
    if request.op == "parse":
        return service.parse_many(grammar, request.streams)
    if request.op == "enumerate":
        return service.enumerate_many(
            grammar, request.streams, k=TREES_PER_REQUEST, ranking="size"
        )
    return service.sample_many(
        grammar, request.streams, n=TREES_PER_REQUEST, seed=request.seed
    )


def check(request: Request, reply: Any) -> bool:
    """True when ``reply`` is the reference answer to ``request``."""
    if isinstance(reply, BaseException):
        return False
    if request.op == "recognize":
        return list(reply) == request.expected
    if request.op == "parse":
        for outcome, (kind, expected) in zip(reply, request.expected):
            if kind == "tree" and not (outcome.ok and outcome.tree == expected):
                return False
            if kind == "fail" and (outcome.ok or outcome.failure_position != expected):
                return False
        return len(reply) == len(request.expected)
    count, trees = request.expected
    return (
        len(reply) == 1
        and reply[0].ok
        and reply[0].count == count
        and reply[0].trees == trees
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "recognize-warm",
            _build_recognize,
            _setup_recognize,
        ),
        Workload(
            "recognize-pooled",
            _build_recognize,
            _setup_pooled,
            pooled=True,
        ),
        Workload(
            "parse-trees",
            _build_parse,
            _setup_trees,
        ),
        Workload(
            "forest-queries",
            _build_forest,
            _setup_trees,
        ),
    )
}


def plan(name: str, seed: int, size: str = "full") -> Plan:
    """Build workload ``name``'s inputs and reference answers from ``seed``."""
    workload = WORKLOADS[name]
    grammars, warm, cycle = workload.build(seed, size)
    return Plan(workload, grammars, warm, cycle)
