"""Spans and counters around ecokg's public functions, installed from outside.

``Tracer.install()`` replaces module attributes and ``TripleStore``
methods with wrappers; ``uninstall()`` puts the originals back. The
program's own files are never touched. Two kinds of wrapper exist:

- span wrappers, for functions called a handful of times per request:
  each call records (id, parent id, request id, name, start, end);
- counter wrappers, for hot functions (store inserts and reads, the
  Levenshtein kernel): each call only adds to in-memory totals, so the
  trace stays small. Reads and kernel calls made inside an eval_path,
  solve or fuzzy_lookup span are also added to that span's totals.

Everything stays in memory until ``dump()`` writes one JSON file;
``run.py`` reads those files and computes the metrics.
"""

import json
import resource
import time
from collections import defaultdict

import ecokg
from ecokg import align, checks, cli, dmp, ecotox, graph, idmap, ntriples, query, stats, traits, units

# (module, attribute) -> span name. Several functions of one layer share
# a name prefix so that layer totals can be summed by prefix.
_SPAN_TARGETS = (
    (ntriples, "parse", "ntriples.parse"),
    (ntriples, "serialize", "ntriples.serialize"),
    (dmp, "parse_nodes", "dmp.parse.nodes"),
    (dmp, "parse_names", "dmp.parse.names"),
    (dmp, "parse_divisions", "dmp.parse.divisions"),
    (dmp, "ingest_nodes", "dmp.ingest.nodes"),
    (dmp, "ingest_names", "dmp.ingest.names"),
    (dmp, "ingest_divisions", "dmp.ingest.divisions"),
    (ecotox, "parse_species", "ecotox.parse.species"),
    (ecotox, "parse_chemicals", "ecotox.parse.chemicals"),
    (ecotox, "parse_tests", "ecotox.parse.tests"),
    (ecotox, "parse_results", "ecotox.parse.results"),
    (ecotox, "ingest_species", "ecotox.ingest.species"),
    (ecotox, "ingest_chemicals", "ecotox.ingest.chemicals"),
    (ecotox, "ingest_tests", "ecotox.ingest.tests"),
    (traits, "ingest_traits", "traits.ingest"),
    (units, "load_registry", "units.load_registry"),
    (idmap, "construct_sameas", "idmap.construct_sameas"),
    (align, "labels_by_prefix", "align.labels_by_prefix"),
    (align, "align_lexical", "align.align_lexical"),
    (align, "block_candidates", "align.block_candidates"),
    (query, "parse_path", "query.parse.path"),
    (query, "parse_query", "query.parse.query"),
    (query, "eval_path", "query.eval_path"),
    (query, "solve", "query.solve"),
    (query, "select", "query.select"),
    (query, "fuzzy_lookup", "query.fuzzy_lookup"),
    (query, "lineage", "query.lineage"),
    (checks, "subclass_cycles", "checks.subclass_cycles"),
    (checks, "disjointness_violations", "checks.disjointness_violations"),
    (stats, "count_graph", "stats.count_graph"),
)

_CLI_STAGES = {
    "cmd_ingest_ncbi": "cli.stage.ingest-ncbi",
    "cmd_units": "cli.stage.units",
    "cmd_ingest_ecotox": "cli.stage.ingest-ecotox",
    "cmd_ingest_traits": "cli.stage.ingest-traits",
    "cmd_align": "cli.stage.align",
    "cmd_bridge": lambda args: f"cli.stage.bridge-{args[0].rewrite}",
    "cmd_export": "cli.stage.export",
    "cmd_stats": "cli.stage.stats",
}

# Spans whose store reads, match calls and kernel calls are tallied.
ATTRIBUTED = ("query.eval_path", "query.solve", "query.fuzzy_lookup")

_STORE_READS = ("match", "objects", "subjects", "predicate_pairs", "terms")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.request = "setup"
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.inside: dict[str, defaultdict[str, float]] = {
            name: defaultdict(float) for name in ATTRIBUTED
        }
        self._stack: list[int] = []
        self._attributed: list[str] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        """``name`` is the span name, or a function of the call's arguments."""
        tracer = self
        attributed = name in ATTRIBUTED

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            if attributed:
                tracer._attributed.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if attributed:
                    tracer._attributed.pop()
                tracer.spans.append([span_id, parent, tracer.request, span_name, start, end])
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn, size=None):
        counts = self.counts
        attributed = self._attributed
        inside = self.inside
        calls_key, seconds_key, size_key = name + ".calls", name + ".s", name + ".rows"
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            result = fn(*args, **kwargs)
            counts[seconds_key] += perf() - start
            counts[calls_key] += 1
            n = size(result) if size is not None else 0
            counts[size_key] += n
            for outer in attributed:
                tally = inside[outer]
                tally[calls_key] += 1
                tally[size_key] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        """Replace a module or class attribute, or a dict item."""
        if isinstance(owner, dict):
            self._originals.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    # --- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; uninstall() before installing again."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, attr, name in _SPAN_TARGETS:
            self._patch(module, attr, self._span(name, getattr(module, attr), _RESULT_COUNTS.get(name)))
        for attr, name in _CLI_STAGES.items():
            self._patch(cli, attr, self._span(name, getattr(cli, attr)))
        # main() dispatches through _COMMANDS, which holds its own reference.
        update = self._span("cli.update", cli.cmd_update)
        self._patch(cli, "cmd_update", update)
        self._patch(cli._COMMANDS, "update", update)
        store = graph.TripleStore
        self._patch(store, "add", self._counter("graph.add", store.add, size=bool))
        for attr in _STORE_READS:
            self._patch(store, attr, self._counter(f"graph.{attr}", getattr(store, attr), size=len))
        self._patch(align, "levenshtein", self._counter("align.levenshtein", align.levenshtein))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # --- output -------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans, counters and this process's peak RSS as JSON."""
        data = {
            "ecokg": ecokg.__file__,
            "spans": self.spans,
            "counts": dict(self.counts),
            "inside": {name: dict(tally) for name, tally in self.inside.items()},
            "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _largest_store(counts, n: int) -> None:
    counts["store.max_triples"] = max(counts["store.max_triples"], n)


def _on_parse(counts, args, result) -> None:
    counts["ntriples.parse.lines"] += args[0].count("\n")
    _largest_store(counts, len(result))


def _on_serialize(counts, args, result) -> None:
    counts["ntriples.serialize.triples"] += len(args[0])
    _largest_store(counts, len(args[0]))


def _rows(key):
    def on_result(counts, args, result):
        counts[key] += len(result)
    return on_result


def _on_sameas(counts, args, result) -> None:
    counts["idmap.errors"] += len(result[1])


_RESULT_COUNTS = {
    "ntriples.parse": _on_parse,
    "ntriples.serialize": _on_serialize,
    "dmp.parse.nodes": _rows("dmp.rows"),
    "dmp.parse.names": _rows("dmp.rows"),
    "dmp.parse.divisions": _rows("dmp.rows"),
    "ecotox.parse.species": _rows("ecotox.rows"),
    "ecotox.parse.chemicals": _rows("ecotox.rows"),
    "ecotox.parse.tests": _rows("ecotox.rows"),
    "ecotox.parse.results": _rows("ecotox.rows"),
    "idmap.construct_sameas": _on_sameas,
    "align.block_candidates": _rows("align.blocked_pairs"),
    "align.align_lexical": _rows("align.kept"),
    "query.eval_path": _rows("query.eval_path.results"),
    "query.solve": _rows("query.solve.results"),
}
