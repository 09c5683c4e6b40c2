"""One query session in a fresh process: load kg.nt, warm up, run operations.

Usage: ``python3 perfbench/query_session.py JOB.json RESULT.json``.

The job names the graph, the seeded operation sequence (blocks of one
``path``, ``lineage``, ``select`` and ``lookup`` each, in shuffled
order), a warm-up block, a block count, and the slices to run: each is
a first block and the operation kinds to run from its blocks. The
session times the load (read, ``ntriples.parse``, ``freeze``) plus the
warm-up block as its set-up, then runs each slice once. Set-up and
operation times are scaled to the reference machine speed by speed
samples taken around them (see speed.py). A job that reads past the
sequence is refused. Answers go back as plain strings; the caller
checks them. With ``trace`` set, the load and warm-up are traced, each
block runs once untraced and then once more traced, and the trace is
written to ``trace_out``.
"""

import contextlib
import json
import sys
import time

import ecokg
from ecokg import ntriples, query
from ecokg.graph import iri
from ecokg.ns import default_prefix_map

from speed import SAMPLE_EVERY_S, Speed
from tracer import Tracer

PATH_EXPR = "rdfs:subClassOf{1,}"
LC50_QUERY = "select ?r\n?t et:compound <{chemical}>\n?t et:hasResult ?r\n?r et:endpoint et:LC50\n"
LOOKUP_K = 5
ALL_KINDS = ("path", "lineage", "select", "lookup")


def run_op(store, prefixes, kind: str, arg: str):
    """Run one operation; return (seconds, answer as plain strings)."""
    if kind == "path":
        start = time.perf_counter()
        pairs = query.eval_path(store, query.parse_path(PATH_EXPR, prefixes), start=iri(arg))
        seconds = time.perf_counter() - start
        answer = sorted([a.value, b.value] for a, b in pairs)
    elif kind == "lineage":
        start = time.perf_counter()
        ancestors = query.lineage(store, iri(arg))
        seconds = time.perf_counter() - start
        answer = [term.value for term in ancestors]
    elif kind == "select":
        text = LC50_QUERY.format(chemical=arg)
        start = time.perf_counter()
        parsed = query.parse_query(text, prefixes)
        rows = query.select(store, parsed.patterns, list(parsed.projection))
        seconds = time.perf_counter() - start
        answer = [row[0].value for row in rows]
    elif kind == "lookup":
        start = time.perf_counter()
        hits = query.fuzzy_lookup(store, arg, LOOKUP_K)
        seconds = time.perf_counter() - start
        answer = [name for name, _ in hits]
    else:
        raise ValueError(f"unknown operation: {kind!r}")
    return seconds, answer


def run_blocks(store, prefixes, ops, first: int, last: int, kinds, tracer=None, spans=None) -> list:
    """Run the operations of ``kinds`` in ops[first:last].

    Each result is [index, kind, seconds, answer or error]. With
    ``spans`` given, the interval around each operation is appended to it.
    """
    out = []
    for index in range(first, last):
        kind, arg = ops[index]
        if kind not in kinds:
            continue
        if tracer is not None:
            tracer.request = f"{kind}-{index}"
        start = time.perf_counter()
        try:
            seconds, answer = run_op(store, prefixes, kind, arg)
            out.append([index, kind, seconds, answer])
        except Exception as exc:  # a failed operation is counted, not fatal
            out.append([index, kind, None, f"{type(exc).__name__}: {exc}"])
        if spans is not None:
            spans.append((start, time.perf_counter()))
    return out


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    ops = job["ops"]
    block = 4
    warmup_first = job["warmup_block"] * block
    slices = [(first * block, (first + job["blocks"]) * block, kinds) for first, kinds in job["slices"]]
    if max([warmup_first + block] + [last for _, last, _ in slices]) > len(ops):
        raise SystemExit(f"job reads past the {len(ops)} operations of the sequence")
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.request = f"load-{job['warmup_block']}"
        tracer.install()

    prefixes = default_prefix_map()
    speed = Speed()
    speed.sample()
    spent = speed.spent
    start = time.perf_counter()
    # no samples inside traced spans, which would count them as the program's time
    with speed.sampling() if tracer is None else contextlib.nullcontext():
        with open(job["graph"], encoding="utf-8") as fh:
            store = ntriples.parse(fh.read(), prefixes)
        store.freeze()
        warmup = run_blocks(store, prefixes, ops, warmup_first, warmup_first + block, ALL_KINDS, tracer)
    end = time.perf_counter()
    setup_raw_s = end - start - (speed.spent - spent)
    speed.sample()

    if tracer is not None:
        tracer.uninstall()
    results, traced, spans = [], [], []
    untraced_s = traced_s = 0.0
    for first, last, kinds in slices:
        for index in range(first, last, block):
            if time.perf_counter() - speed.times[-1] >= SAMPLE_EVERY_S:
                speed.sample()
            tick = time.perf_counter()
            results += run_blocks(store, prefixes, ops, index, index + block, kinds, spans=spans)
            untraced_s += time.perf_counter() - tick
            if tracer is not None:
                # the same block again, traced, so both passes see the same state
                tracer.install()
                tick = time.perf_counter()
                traced += run_blocks(store, prefixes, ops, index, index + block, kinds, tracer)
                traced_s += time.perf_counter() - tick
                tracer.uninstall()
    if tracer is not None:
        tracer.dump(job["trace_out"])
    speed.sample()
    for op, (op_start, op_end) in zip(results, spans):
        if op[2] is not None:
            op[2] *= speed.factor(op_start, op_end)

    result = {
        "ecokg": ecokg.__file__,
        "triples": len(store),
        "setup_s": setup_raw_s * speed.factor(start, end),
        "setup_raw_s": setup_raw_s,
        "warmup": warmup,
        "ops": results,
        "traced": traced,
        "traced_ops": len(traced) + len(warmup),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
