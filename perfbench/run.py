"""ecokg benchmark: seeded `build` and `query` workloads over generated inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 7 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Both workloads are closed loops with one client. `build` runs
`ecokg --config <inputs>/config.json update --out <empty dir>` in a
fresh process per request, for --seconds of updates. `query` builds
kg.nt from the same generator, then runs query sessions: each is a
fresh process that loads kg.nt and runs slices of an interleaved,
seeded sequence of path, lineage, select and lookup operations; each
operation is timed several times over the run and the median counts.
Every time is scaled to a reference machine speed by timing a fixed
loop of the benchmark's own around it (speed.py), so that the shared
machine's drifting speed does not move the figures. Every run also
measures the other workload's
end-to-end metrics in a smaller phase, so each run reports every metric
(see perfbench/README.md).

With --trace 1 the same work runs with spans and counters installed
around ecokg's public functions, and the per-layer metrics are reported.
The last line of standard output is one JSON object; the exit code is 1
when any answer check fails and 2 when no program is found.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import synth
from speed import Speed

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("build", "query")
OP_KINDS = ("path", "lineage", "select", "lookup")
CHEAP_KINDS = ("path", "lineage", "select")
SLICES = 5  # disjoint slices of the operation sequence, one query session each
SLICE_BLOCKS = 20  # so every operation kind has 100 samples and p90 ten beyond it
REPLAYS = 2  # untraced passes over all slices; an operation's time is their median
TRACED_SLICE_BLOCKS = 8  # blocks per slice of the traced secondary query phase
QUERY_BUILDS = 5  # updates on `query`; outputs must match
CHILD_TIMEOUT_S = 150
# Name lengths of the measured lookup probes: 100 evenly spaced quantiles
# of the probe lengths pooled over generator seeds 1000-1099. A lookup's
# cost grows with the probe's length, so every seed measures these lengths.
LOOKUP_LENGTHS = {13: 1, 14: 1, 15: 3, 16: 4, 17: 7, 18: 10, 19: 11, 20: 13, 21: 12, 22: 11,
                  23: 9, 24: 6, 25: 4, 26: 2, 27: 1, 28: 1, 30: 1, 33: 1, 35: 1, 37: 1}
OUTPUTS = ("kg.nt", "mappings.tsv", "stats.tsv")
SCALE = "bench"
STAGES = ("ingest-ncbi", "units", "ingest-ecotox", "ingest-traits", "align", "bridge-ncbi",
          "bridge-cas", "export", "stats")


class Run:
    """State of one benchmark run: paths, environment, tallies."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        self.work = root / ".perfbench_work" / f"{stem}-{os.getpid()}"
        self.results = root / ".perfbench_work" / "results" / stem
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        path = str(root / "src")
        if self.env.get("PYTHONPATH"):
            path += os.pathsep + self.env["PYTHONPATH"]
        self.env["PYTHONPATH"] = path

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# --- child processes ----------------------------------------------------------


def run_child(run: Run, argv: list[str], log: Path) -> tuple[int, float, int]:
    """Run one child to completion; return (exit code, wall seconds, peak RSS bytes)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=run.env, cwd=run.root)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Builds:
    """`ecokg update` requests on one input set, with their answer checks."""

    def __init__(self, run: Run, config: Path, truth: dict):
        self.run = run
        self.config = config
        self.truth = truth
        self.reference: Path | None = None
        self.hashes: dict[str, str] = {}
        self.walls: list[float] = []  # scaled to the reference speed
        self.raw_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.traced_scaled: list[float] = []  # by speed samples taken just before and after
        self.rss: list[int] = []
        self.traces: list[dict] = []
        self.recall: float | None = None
        self.count = 0

    def request(self, traced: bool) -> bool:
        run = self.run
        out = run.work / f"update-{self.count}"
        self.count += 1
        argv = [sys.executable]
        trace_path = out.with_suffix(".trace.json")
        speed_path = out.with_suffix(".speed.json")
        if traced:
            argv += [str(BENCH_DIR / "traced_update.py"), str(trace_path), out.name]
        else:
            argv += [str(BENCH_DIR / "timed_update.py"), str(speed_path)]
        argv += ["--config", str(self.config), "update", "--out", str(out)]
        speed = Speed()
        speed.sample()
        code, wall, rss = run_child(run, argv, out.with_suffix(".log"))
        speed.sample()
        if not run.check(code == 0, f"update exited {code}; see {out.with_suffix('.log')}"):
            return False
        hashes = {name: sha256(out / name) for name in OUTPUTS}
        if self.reference is None:
            self.reference, self.hashes = out, hashes
            self.check_outputs(out)
        else:
            run.check(hashes == self.hashes, f"update outputs differ between repeats: {out}")
            shutil.rmtree(out)
        if traced:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            run.check(Path(trace["ecokg"]).is_relative_to(run.root / "src"),
                      f"traced update imported ecokg from {trace['ecokg']}")
            self.traces.append(trace)
            self.traced_walls.append(wall)
            self.traced_scaled.append(wall * statistics.mean(speed.factors))
        else:
            with open(speed_path, encoding="utf-8") as fh:
                timed = json.load(fh)
            run.check(Path(timed["ecokg"]).is_relative_to(run.root / "src"),
                      f"update imported ecokg from {timed['ecokg']}")
            wall -= timed["sampling_s"]
            self.walls.append(wall * timed["factor"])
            self.raw_walls.append(wall)
            self.rss.append(rss)
        return True

    def check_outputs(self, out: Path) -> None:
        run = self.run
        with open(out / "kg.nt", encoding="utf-8") as fh:
            lines = set(fh.read().splitlines())
        missing = [fact for fact in self.truth["facts"] if fact not in lines]
        run.check(not missing, f"{len(missing)} generated facts missing from kg.nt, e.g. {missing[:1]}")
        with open(out / "mappings.tsv", encoding="utf-8") as fh:
            mapped = {tuple(line.split("\t")[:2]) for line in fh.read().splitlines() if line}
        pairs = self.truth["species_pairs"]
        self.recall = sum(tuple(pair) in mapped for pair in pairs) / len(pairs)


# --- query sessions -------------------------------------------------------------


def stratified(rng: random.Random, items: list, key, strata: int = 10) -> list:
    """A random order of ``items`` in which every prefix is representative.

    Items are ranked by ``key`` (ties in random order) and cut into
    ``strata`` chunks of equal size; each round takes one item from every
    chunk. So whatever number of operations a run reaches, cheap and
    expensive inputs appear in the same proportions, and percentiles do
    not swing with which inputs happened to be drawn.
    """
    ranked = sorted(rng.sample(items, len(items)), key=key)
    size = math.ceil(len(ranked) / strata)
    chunks = [ranked[i:i + size] for i in range(0, len(ranked), size)]
    for chunk in chunks:
        rng.shuffle(chunk)
    out = []
    for i in range(size):
        for chunk in rng.sample(chunks, len(chunks)):
            if i < len(chunk):
                out.append(chunk[i])
    return out


def by_rank(rng: random.Random, items: list, key, keep: int) -> tuple[list, list]:
    """(kept, rest): ``keep`` items at evenly spaced ranks of ``key``, ties at random.

    When every seed's pool has the same key values, as the generator's
    fixed Zipf sizes make the test counts per chemical, the kept items
    have the same key values for every seed too.
    """
    ranked = sorted(rng.sample(items, len(items)), key=key)
    picks = {int((j + 0.5) * len(ranked) / keep) for j in range(keep)}
    return ([x for i, x in enumerate(ranked) if i in picks],
            [x for i, x in enumerate(ranked) if i not in picks])


def by_length(rng: random.Random, probes: list, lengths: dict, keep: int) -> tuple[list, list]:
    """(kept, rest): for each wanted name length, an unused probe of the nearest length."""
    buckets: defaultdict[int, list] = defaultdict(list)
    for probe in rng.sample(probes, len(probes)):
        buckets[len(probe["name"])].append(probe)
    wanted = [length for length, count in sorted(lengths.items()) for _ in range(count)]
    kept = []
    for length in wanted[:keep]:
        for distance in range(max(buckets) + length):
            bucket = buckets[length - distance] or buckets[length + distance]
            if bucket:
                kept.append(bucket.pop())
                break
    return kept, [probe for bucket in buckets.values() for probe in bucket]


def op_sequence(seed: int, truth: dict) -> tuple[list, list]:
    """Seeded blocks of the four operation kinds, each input used once.

    The first ``SLICES`` blocks are the warm-ups, the rest are measured.
    The measured inputs are chosen by the property that sets their cost,
    so that their costs hardly differ between seeds: leaves at evenly
    spaced ranks of chain depth, chemicals at evenly spaced ranks of
    their test count, and lookup probes with the lengths in
    ``LOOKUP_LENGTHS``. Returns (ops, expected answers) in matching order.
    """
    rng = random.Random(f"ops-{seed}")
    leaves = sorted(truth["ancestors"])
    chemicals = sorted(truth["lc50"])
    probes = truth["lookup_probes"]
    depth = lambda leaf: len(truth["ancestors"][leaf])
    tests = lambda chemical: truth["tests"][chemical]
    length = lambda probe: len(probe["name"])
    measured = SLICES * SLICE_BLOCKS
    split = {
        "path": (by_rank(rng, leaves, depth, min(measured, len(leaves) - SLICES)), depth),
        "lineage": (by_rank(rng, leaves, depth, min(measured, len(leaves) - SLICES)), depth),
        "select": (by_rank(rng, chemicals, tests, min(measured, len(chemicals) - SLICES)), tests),
        "lookup": (by_length(rng, probes, LOOKUP_LENGTHS, min(measured, len(probes) - SLICES)), length),
    }
    pools = {kind: rng.sample(rest, SLICES) + stratified(rng, kept, key)
             for kind, ((kept, rest), key) in split.items()}
    answers = {
        "path": lambda leaf: sorted([leaf, a] for a in truth["ancestors"][leaf]),
        "lineage": lambda leaf: truth["ancestors"][leaf],
        "select": lambda chemical: truth["lc50"][chemical],
        "lookup": lambda probe: probe["expected"],
    }
    ops, expected = [], []
    for i in range(min(len(pool) for pool in pools.values())):
        for kind in rng.sample(OP_KINDS, len(OP_KINDS)):
            item = pools[kind][i]
            ops.append([kind, item["name"] if kind == "lookup" else item])
            expected.append(answers[kind](item))
    return ops, expected


def answer_ok(kind: str, answer, expected) -> bool:
    if not isinstance(answer, list):
        return False  # the operation raised
    if kind == "lookup":
        return bool(set(answer) & set(expected))
    if kind == "select":
        return sorted(answer) == expected and len(set(answer)) == len(answer)
    return answer == expected


def slice_plan(blocks: int, slice_blocks: int) -> list[tuple[int, int]]:
    """(warm-up block, first block) of each slice of a sequence of ``blocks``.

    The warm-up blocks come first and the slices follow, all disjoint;
    raises ValueError when the sequence is too short to hold them.
    """
    if SLICES * (1 + slice_blocks) > blocks:
        raise ValueError(f"{SLICES} slices of 1 + {slice_blocks} blocks need more than {blocks} blocks")
    return [(j, SLICES + j * slice_blocks) for j in range(SLICES)]


class Sessions:
    """Query sessions on one kg.nt, run one after another.

    Session ``i`` runs slice ``i % SLICES``, so ``passes`` passes over the
    slices. An untraced session also runs the cheap operations (all but
    lookup) of every other slice, so over a run every lookup is timed
    ``passes`` times and every cheap operation ``passes * SLICES`` times,
    spread over the whole run.
    """

    def __init__(self, run: Run, graph: Path, truth: dict, slice_blocks: int, passes: int):
        self.run = run
        self.graph = graph
        self.ops, self.expected = op_sequence(run.seed, truth)
        self.plan = slice_plan(len(self.ops) // len(OP_KINDS), slice_blocks)
        self.slice_blocks = slice_blocks
        self.total = passes * SLICES
        self.times: defaultdict[int, list[float]] = defaultdict(list)  # op index -> seconds of each run
        self.setup_s: list[float] = []  # scaled to the reference speed
        self.setup_raw_s: list[float] = []
        self.rss: list[int] = []
        self.traces: list[dict] = []
        self.traced_ops = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.triples = 0
        self.count = 0

    def run_until(self, count: int) -> None:
        while self.count < min(count, self.total):
            self.session()

    def session(self) -> None:
        run = self.run
        stem = run.work / f"session-{self.count}"
        own = self.count % SLICES
        self.count += 1
        if run.trace:
            slices = [[self.plan[own][1], OP_KINDS]]
        else:
            slices = [[self.plan[(own + k) % SLICES][1], CHEAP_KINDS if k else OP_KINDS]
                      for k in range(SLICES)]
        job = {
            "graph": str(self.graph), "ops": self.ops, "warmup_block": self.plan[own][0],
            "blocks": self.slice_blocks, "slices": slices, "trace": run.trace,
            "trace_out": str(stem) + ".trace.json",
        }
        job_path = Path(str(stem) + ".job.json")
        job_path.write_text(json.dumps(job), encoding="utf-8")
        result_path = Path(str(stem) + ".result.json")
        argv = [sys.executable, str(BENCH_DIR / "query_session.py"), str(job_path), str(result_path)]
        code, _, rss = run_child(run, argv, Path(str(stem) + ".log"))
        if not run.check(code == 0, f"query session exited {code}; see {stem}.log"):
            return
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        run.check(Path(result["ecokg"]).is_relative_to(run.root / "src"),
                  f"session imported ecokg from {result['ecokg']}")
        for op, kind, _, answer in result["warmup"] + result["ops"] + result["traced"]:
            run.check(answer_ok(kind, answer, self.expected[op]),
                      f"{kind} {self.ops[op][1]!r}: got {str(answer)[:200]}")
        for op, _, op_seconds, _ in result["ops"]:
            if op_seconds is not None:
                self.times[op].append(op_seconds)
        self.setup_s.append(result["setup_s"])
        self.setup_raw_s.append(result["setup_raw_s"])
        self.rss.append(rss)
        self.triples = result["triples"]
        self.untraced_s += result["untraced_s"]
        if run.trace:
            with open(job["trace_out"], encoding="utf-8") as fh:
                self.traces.append(json.load(fh))
            self.traced_ops += result["traced_ops"]
            self.traced_s += result["traced_s"]

    def samples(self) -> dict[str, list[float]]:
        """Per operation kind, each operation's median time over its passes."""
        out: dict[str, list[float]] = {kind: [] for kind in OP_KINDS}
        for op, times in sorted(self.times.items()):
            out[self.ops[op][0]].append(statistics.median(times))
        return out


# --- metrics ----------------------------------------------------------------------


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(builds: Builds, sessions: Sessions) -> dict:
    """Each metric as (value, unit, sample count)."""
    rss = builds.rss if builds.run.workload == "build" else sessions.rss
    metrics = {
        "build_s": (statistics.median(builds.walls), "s", len(builds.walls)),
        "peak_rss_mb": (statistics.median(rss) / 2**20, "MB", len(rss)),
        "align_recall": (builds.recall, "ratio", len(builds.truth["species_pairs"])),
        "setup_s": (statistics.median(sessions.setup_s), "s", len(sessions.setup_s)),
    }
    for kind, seconds in sessions.samples().items():
        samples = [s * 1000 for s in seconds]
        metrics[f"{kind}_p50_ms"] = (statistics.median(samples), "ms", len(samples))
        if kind != "lineage":
            metrics[f"{kind}_p90_ms"] = (p90(samples), "ms", len(samples))
    return metrics


def summarize_spans(dumps: list[dict]) -> tuple[dict, dict, dict]:
    """Per span name over all processes: total seconds, self seconds, calls.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since calls nest.
    Span ids are unique within one process only.
    """
    total: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for dump in dumps:
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in dump["spans"]:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, _, _, name, start, end in dump["spans"]:
            total[name] += end - start
            self_time[name] += end - start - child_time[span_id]
            calls[name] += 1
    return total, self_time, calls


def update_self_time(dumps: list[dict]) -> float:
    """cmd_update's duration minus its stage spans: the re-read and checks."""
    seconds = 0.0
    for dump in dumps:
        for span_id, _, _, name, start, end in dump["spans"]:
            if name == "cli.update":
                seconds += end - start - sum(
                    e - s for _, parent, _, child, s, e in dump["spans"]
                    if parent == span_id and child.startswith("cli.stage.")
                )
    return seconds


def _sum(dumps: list[dict], key: str) -> float:
    return sum(d["counts"].get(key, 0.0) for d in dumps)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def update_layer_metrics(dumps: list[dict]) -> dict:
    """Per-layer metrics from traced update processes, per update request."""
    n = len(dumps)
    total, self_s, calls = summarize_spans(dumps)

    def prefixed(table: dict, prefix: str) -> float:
        return sum(v for name, v in table.items() if name.startswith(prefix))

    m = {
        "ntriples.parse.s": total["ntriples.parse"] / n,
        "ntriples.parse.calls": calls["ntriples.parse"] / n,
        "ntriples.parse.lines": _sum(dumps, "ntriples.parse.lines") / n,
        "ntriples.parse.lines_per_s": _ratio(_sum(dumps, "ntriples.parse.lines"), total["ntriples.parse"]),
        "ntriples.serialize.s": total["ntriples.serialize"] / n,
        "ntriples.serialize.triples_per_s": _ratio(
            _sum(dumps, "ntriples.serialize.triples"), total["ntriples.serialize"]),
        "dmp.parse.s": prefixed(total, "dmp.parse.") / n,
        "dmp.ingest.s": prefixed(total, "dmp.ingest.") / n,
        "dmp.rows": _sum(dumps, "dmp.rows") / n,
        "ecotox.parse.s": prefixed(total, "ecotox.parse.") / n,
        "ecotox.ingest.s": prefixed(total, "ecotox.ingest.") / n,
        "ecotox.rows": _sum(dumps, "ecotox.rows") / n,
        "traits.ingest.s": total["traits.ingest"] / n,
        "units.load_registry.s": total["units.load_registry"] / n,
        "idmap.construct_sameas.s": total["idmap.construct_sameas"] / n,
        "idmap.errors": _sum(dumps, "idmap.errors") / n,
        "align.labels_by_prefix.s": total["align.labels_by_prefix"] / n,
        "align.align_lexical.s": total["align.align_lexical"] / n,
        "align.blocked_pairs": _sum(dumps, "align.blocked_pairs") / n,
        "align.kept_ratio": _ratio(_sum(dumps, "align.kept"), _sum(dumps, "align.blocked_pairs")),
        "checks.subclass_cycles.s": total["checks.subclass_cycles"] / n,
        "checks.disjointness_violations.s": total["checks.disjointness_violations"] / n,
        "stats.count_graph.s": total["stats.count_graph"] / n,
        "cli.update.self_s": update_self_time(dumps) / n,
    }
    for stage in STAGES:
        m[f"cli.stage.{stage}.s"] = total[f"cli.stage.{stage}"] / n
        m[f"cli.stage.{stage}.self_s"] = self_s[f"cli.stage.{stage}"] / n
    m.update(_graph_metrics(dumps, n, n))
    m.update(_kernel_metrics(dumps, n))
    return m


def _graph_metrics(dumps: list[dict], load_n: int, op_n: int) -> dict:
    """graph.* metrics: inserts per ``load_n``, reads per ``op_n``."""
    adds = _sum(dumps, "graph.add.calls")
    return {
        "graph.add.calls": adds / load_n,
        "graph.add.s": _sum(dumps, "graph.add.s") / load_n,
        "graph.add.new_ratio": _ratio(_sum(dumps, "graph.add.rows"), adds),
        "graph.match.calls": _sum(dumps, "graph.match.calls") / op_n,
        "graph.match.s": _sum(dumps, "graph.match.s") / op_n,
        "graph.match.rows": _sum(dumps, "graph.match.rows") / op_n,
        "graph.predicate_pairs.calls": _sum(dumps, "graph.predicate_pairs.calls") / op_n,
        "graph.predicate_pairs.pairs": _sum(dumps, "graph.predicate_pairs.rows") / op_n,
        "graph.bytes_per_triple": statistics.median(
            _ratio(d["peak_rss_bytes"], d["counts"].get("store.max_triples", 0)) for d in dumps),
    }


def _kernel_metrics(dumps: list[dict], n: int) -> dict:
    return {
        "align.levenshtein.calls": _sum(dumps, "align.levenshtein.calls") / n,
        "align.levenshtein.s": _sum(dumps, "align.levenshtein.s") / n,
    }


def query_layer_metrics(dumps: list[dict], ops: int) -> dict:
    """Per-layer metrics from traced query sessions.

    Load-time work (parse, inserts) is per session; reads and the
    Levenshtein kernel are per operation; query.* times are per call.
    """
    sessions = len(dumps)
    total, _, calls = summarize_spans(dumps)

    def inside(span: str, key: str) -> float:
        return sum(d["inside"][span].get(key, 0.0) for d in dumps)

    def per_call(name: str) -> float:
        return _ratio(total[name], calls[name])

    store_rows = ("graph.match.rows", "graph.objects.rows", "graph.subjects.rows",
                  "graph.predicate_pairs.rows", "graph.terms.rows")
    m = {
        "ntriples.parse.s": total["ntriples.parse"] / sessions,
        "ntriples.parse.calls": calls["ntriples.parse"] / sessions,
        "ntriples.parse.lines": _sum(dumps, "ntriples.parse.lines") / sessions,
        "ntriples.parse.lines_per_s": _ratio(_sum(dumps, "ntriples.parse.lines"), total["ntriples.parse"]),
        "query.eval_path.s": per_call("query.eval_path"),
        "query.eval_path.pairs_examined_per_result": _ratio(
            sum(inside("query.eval_path", k) for k in store_rows), _sum(dumps, "query.eval_path.results")),
        "query.solve.s": per_call("query.solve"),
        "query.solve.rows_examined_per_result": _ratio(
            sum(inside("query.solve", k) for k in store_rows), _sum(dumps, "query.solve.results")),
        "query.solve.match_calls_per_query": _ratio(
            inside("query.solve", "graph.match.calls"), calls["query.solve"]),
        "query.fuzzy_lookup.s": per_call("query.fuzzy_lookup"),
        "query.fuzzy_lookup.levenshtein_calls_per_query": _ratio(
            inside("query.fuzzy_lookup", "align.levenshtein.calls"), calls["query.fuzzy_lookup"]),
        "query.lineage.s": per_call("query.lineage"),
        "query.parse.s": _ratio(total["query.parse.path"] + total["query.parse.query"],
                                calls["query.parse.path"] + calls["query.parse.query"]),
    }
    m.update(_graph_metrics(dumps, sessions, ops))
    m.update(_kernel_metrics(dumps, ops))
    return m


# Layers that the query phase measures on the query workload; everything
# else there comes from the traced update. On the build workload only
# query.* comes from its secondary query phase.
QUERY_PHASE_LAYERS = ("ntriples.parse.", "graph.", "align.levenshtein.", "query.")


def per_layer(builds: Builds, sessions: Sessions) -> dict:
    from_updates = update_layer_metrics(builds.traces)
    from_queries = query_layer_metrics(sessions.traces, sessions.traced_ops)
    prefixes = ("query.",) if builds.run.workload == "build" else QUERY_PHASE_LAYERS
    metrics = dict(from_updates)
    metrics.update({k: v for k, v in from_queries.items() if k.startswith(prefixes)})
    if builds.run.workload == "build":
        ratio = statistics.median(builds.traced_scaled) / statistics.median(builds.walls)
    else:
        ratio = sessions.traced_s / sessions.untraced_s
    metrics["trace.overhead_ratio"] = ratio
    return metrics


# --- workloads ---------------------------------------------------------------------


def wants_update(run: Run, builds: Builds) -> bool:
    if run.workload == "query":
        return builds.count < QUERY_BUILDS
    return sum(builds.raw_walls + builds.traced_walls) < run.seconds or len(builds.walls) < 2


def update_share(run: Run, builds: Builds) -> float:
    """How much of the run's updates is done, from 0 to 1."""
    if run.workload == "query":
        return builds.count / QUERY_BUILDS
    return min(1.0, sum(builds.raw_walls + builds.traced_walls) / run.seconds)


def run_workload(run: Run) -> tuple[dict, dict]:
    """Run one workload; return (metrics, provenance)."""
    inputs = run.work / "inputs"
    truth = synth.generate(run.seed, inputs, SCALE)
    builds = Builds(run, inputs / "config.json", truth)
    sessions = None
    # Updates and query sessions interleave, so that both are spread over
    # the whole run and see the same machine. With tracing, untraced and
    # traced updates alternate on `build`, and the last update is traced
    # on `query`.
    slice_blocks = TRACED_SLICE_BLOCKS if run.trace and run.workload == "build" else SLICE_BLOCKS
    passes = 1 if run.trace else REPLAYS
    while wants_update(run, builds):
        traced = run.trace and (builds.count % 2 == 1 if run.workload == "build"
                                else builds.count == QUERY_BUILDS - 1)
        if not builds.request(traced):
            break
        if sessions is None:
            sessions = Sessions(run, builds.reference / "kg.nt", truth, slice_blocks, passes)
        sessions.run_until(math.ceil(sessions.total * update_share(run, builds)))
    if sessions is not None:
        sessions.run_until(sessions.total)
    provenance = {
        "workload": run.workload, "seed": run.seed, "scale": SCALE, "sizes": truth["sizes"],
        "run_seconds": run.seconds, "trace": run.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "sha256": builds.hashes, "updates": builds.count,
        "op_samples": {k: len(v) for k, v in sessions.samples().items()} if sessions else {},
        "samples_s": {"build": builds.walls, **(sessions.samples() if sessions else {})},
        "build_raw_s": builds.raw_walls,
        "setup_raw_s": sessions.setup_raw_s if sessions else [],
        "kg_triples": sessions.triples if sessions else None,
    }
    if run.failures or sessions is None:
        return {}, provenance
    if not run.trace:
        provenance["build_s_p90"] = p90(builds.walls)
        return end_to_end(builds, sessions), provenance
    with open(run.results / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({"updates": builds.traces, "sessions": sessions.traces}, fh)
    metrics = {name: (value, layer_unit(name), None)
               for name, value in per_layer(builds, sessions).items()}
    return metrics, provenance


def report(run: Run, metrics: dict, provenance: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    failed = len(run.failures)
    for failure in run.failures[:20]:
        print(f"FAILED {run.workload}: {failure}")
    print(f"{run.workload}: attempted {run.attempted}, failed {failed}, "
          f"failed_ratio {_ratio(failed, run.attempted):.6f}")
    for name, (value, unit, count) in sorted(metrics.items()):
        samples = f"  n={count}" if count is not None else ""
        extra = f"  p90={provenance['build_s_p90']:.4f}" if name == "build_s" else ""
        print(f"{run.workload}  {name:<48} {value:>14.6f} {unit}{samples}{extra}")
    print("provenance " + json.dumps({k: v for k, v in provenance.items()
                                      if k not in ("samples_s", "build_raw_s", "setup_raw_s")},
                                     sort_keys=True))
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    (run.results / "result.json").write_text(
        json.dumps({"result": result, "provenance": provenance}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return result


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("ratio"):
        return "ratio"
    if name == "graph.bytes_per_triple":
        return "B"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ecokg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=synth.DEV_SEED)
    parser.add_argument("--seconds", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ecokg" / "cli.py").is_file():
        print(f"no ecokg sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        run = Run(root, workload, args.seed, args.seconds, bool(args.trace))
        run.work.mkdir(parents=True, exist_ok=True)
        run.results.mkdir(parents=True, exist_ok=True)
        try:
            metrics, provenance = run_workload(run)
            result = report(run, metrics, provenance)
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
