"""Command-line pipeline driver.

Every subcommand reads defaults from an optional ``--config`` JSON file
(paths resolved relative to the config file) and writes its artifacts
plus a ``<command>.summary.json`` run summary into the output
directory. Failures exit 3 for a ``graph.ValidationError`` (or a
``FrozenStoreError``), 2 for any other ``ValueError`` or ``OSError``
(unreadable or malformed input), 4 for anything unexpected, and print
one machine-parsable ``error<TAB>class<TAB>message`` line on stdout
with detail on stderr.
"""

import argparse
import gc
import json
import logging
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from . import align as align_mod
from . import checks, dmp, ecotox, idmap, ntriples, stats, traits, units
from .graph import (
    FrozenStoreError, PrefixMap, TripleStore, ValidationError, ascii_float, digits_int, iri, is_content_line
)
from .ns import ET, NCBI, RDF_TYPE, default_prefix_map

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


# The config key that fills each flag, by the flag's dest. A flag left
# unset takes its key's value, a path relative to the config file;
# `threshold` is the one key that holds a number instead.
_CONFIG_KEYS = {
    "prefixes": "prefixes", "out": "out_dir", "mappings": "mappings", "graph": "graph",
    "nodes": "ncbi_nodes", "names": "ncbi_names", "divisions": "ncbi_divisions",
    "species": "species", "chemicals": "chemicals", "tests": "tests", "results": "results",
    "units": "units", "traits": "traits", "glossary": "glossary",
    "stopwords": "stopwords", "threshold": "threshold",
    "source": "align_source", "target": "align_target",
    "pairs": "pairs", "pairs_ncbi": "pairs_ncbi", "pairs_cas": "pairs_cas",
}


def _resolve_flags(args) -> None:
    """Fill the flags left unset from ``--config``, checking its values; load the prefix map."""
    config = {} if args.config is None else json.loads(_read_text(args.config))
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for key in sorted(config.keys() - set(_CONFIG_KEYS.values())):
        log.warning("config: unknown key %r ignored", key)
    for dest, key in _CONFIG_KEYS.items():
        value = config.get(key)
        if dest == "threshold" and value is not None:
            try:
                # a JSON number or numeric string; str() spells true as "True", which is no number
                value = ascii_float(str(value))
            except ValueError:
                raise ValueError(f"config key {key} must be a number, got {value!r}") from None
        elif isinstance(value, str):
            value = Path(args.config).parent / value
        elif value is not None:
            raise ValueError(f"config key {key} must be a path string, got {value!r}")
        if value is not None and hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    if args.command != "eval-mappings":  # the one command that reads no prefix table
        path = args.prefixes
        args.prefixes = default_prefix_map() if path is None else PrefixMap.from_tsv(_read_text(path))


def _read_text(path: str | Path) -> str:
    # no newline translation: a lone \r is content; each reader drops that of a \r\n.
    # utf-8-sig drops one leading byte-order mark, which would join the first field.
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def _require(args, dest: str):
    value = getattr(args, dest)
    if value is None:
        raise ValueError(f"missing required input: {_CONFIG_KEYS[dest]} (flag or config key)")
    return value


def _input(args, dest: str) -> str:
    """The text of the required input file named by ``args.<dest>``."""
    return _read_text(_require(args, dest))


def _load_stop_words(path: str | Path | None) -> frozenset[str]:
    if path is None:
        return align_mod.DEFAULT_STOP_WORDS
    lines = _read_text(path).split("\n")
    return frozenset(line.strip().lower() for line in lines if is_content_line(line))


def _out_dir(args) -> Path:
    path = Path(_require(args, "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_graph(path: str | Path, prefixes: PrefixMap) -> TripleStore:
    store = ntriples.parse(_read_text(path), prefixes)
    store.freeze()
    # the store lives until exit, so the cyclic collector need never walk it
    gc.freeze()
    return store


def _peak_rss_mb(status: str = "/proc/self/status") -> float:
    """This process's peak RSS in MiB: Linux's ``VmHWM``, else ``ru_maxrss``.

    A child started by a larger process inherits its ``ru_maxrss`` but
    not its ``VmHWM``.
    """
    # both are in KiB on Linux; MB here means MiB
    try:
        with open(status, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


class _WarningCounter(logging.Handler):
    """Counts the records logged at WARNING or above while attached."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def _write_summary(path: Path, command: str, result: dict, seconds: float, warnings: int) -> None:
    summary = {
        "command": command,
        "counts": result["counts"],
        "outputs": sorted(result["outputs"]),
        "peak_rss_mb": _peak_rss_mb(),
        "seconds": round(seconds, 3),
        "warnings": warnings,
    }
    ntriples.write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _emit(args, text: str, counts: dict) -> dict:
    """Print a command's report; with ``--out`` also write it to that file."""
    sys.stdout.write(text)
    if not args.out_file:
        return {"counts": counts, "outputs": []}
    ntriples.write_text(Path(args.out_file), text)
    return {"counts": counts, "outputs": [args.out_file]}


# ---------------------------------------------------------------------------
# Commands
#
# Each stage that builds a graph ends in _write_graph, which also returns
# the store under "store", so `update` can hand it on instead of reading it back.

def _write_graph(args, name: str, store: TripleStore, counts: dict) -> dict:
    """Make the output directory and write ``store`` to ``name`` there; the stage's result."""
    out_dir = _out_dir(args)
    ntriples.write_file(store, out_dir / name)
    return {"out_dir": out_dir, "counts": counts, "outputs": [name], "store": store}


def _growth(store: TripleStore, ingest, *rows, **options) -> int:
    """How many triples ``ingest(*rows, store, **options)`` adds to ``store``."""
    before = len(store)
    ingest(*rows, store, **options)
    return len(store) - before


def cmd_ingest_ncbi(args) -> dict:
    nodes = dmp.parse_nodes(_input(args, "nodes"))
    names = dmp.parse_names(_input(args, "names"))
    divisions = dmp.parse_divisions(_input(args, "divisions"))
    store = TripleStore(args.prefixes)
    counts = {
        "node_rows": len(nodes),
        "name_rows": len(names),
        "division_rows": len(divisions),
        "hierarchy_triples": _growth(store, dmp.ingest_nodes, nodes),
        "name_triples": _growth(store, dmp.ingest_names, names),
        "division_triples": _growth(store, dmp.ingest_divisions, divisions),
        "total_triples": len(store),
    }
    return _write_graph(args, "ncbi.nt", store, counts)


def cmd_units(args) -> dict:
    store = TripleStore(args.prefixes)
    registry = units.load_registry(_input(args, "units"), args.prefixes, store)
    counts = {"units": len(registry), "triples": len(store)}
    return {**_write_graph(args, "units.nt", store, counts), "registry": registry}


def cmd_ingest_ecotox(args, registry: units.UnitRegistry | None = None) -> dict:
    """Effect tables to ecotox.nt; ``registry``, if given, replaces reading units.tsv."""
    species = [
        ecotox.synthesize_lineage(rec)
        for rec in ecotox.parse_species(_input(args, "species"))
    ]
    chemicals = ecotox.parse_chemicals(_input(args, "chemicals"))
    tests = ecotox.parse_tests(_input(args, "tests"))
    results = ecotox.parse_results(_input(args, "results"))
    ecotox.validate_test_references(tests, species, chemicals)
    if registry is None and args.units is not None:
        registry = units.load_registry(_read_text(args.units), args.prefixes)
    store = TripleStore(args.prefixes)
    counts = {
        "species_rows": len(species),
        "chemical_rows": len(chemicals),
        "test_rows": len(tests),
        "result_rows": len(results),
        "species_triples": _growth(store, ecotox.ingest_species, species),
        "chemical_triples": _growth(store, ecotox.ingest_chemicals, chemicals),
        "effect_triples": _growth(store, ecotox.ingest_tests, tests, results, units=registry),
        "total_triples": len(store),
        "lineage_merges": ecotox.lineage_merges(store),
        "invalid_cas_kept": sum(not rec.cas_valid for rec in chemicals),
    }
    return _write_graph(args, "ecotox.nt", store, counts)


def cmd_ingest_traits(args) -> dict:
    glossary = traits.load_glossary(_input(args, "glossary"), args.prefixes)
    rows = traits.parse_traits(_input(args, "traits"), args.prefixes)
    store = TripleStore(args.prefixes)
    traits.ingest_traits(rows, glossary, store)
    counts = {"rows": len(rows), "triples": len(store), "glossary_terms": len(glossary)}
    return _write_graph(args, "traits.nt", store, counts)


# The subject namespaces `align` pairs unless --source-ns/--target-ns say otherwise.
_SOURCE_NS, _TARGET_NS = ET + "taxon/", NCBI + "taxon/"


def _align_graph(path: str | Path | None, given: TripleStore | None, default: Path,
                 prefixes: PrefixMap) -> TripleStore:
    """The configured graph file, else the store handed over, else ``default``."""
    if path is None and given is not None:
        return given
    return _read_graph(path or default, prefixes)


def cmd_align(args, source: TripleStore | None = None, target: TripleStore | None = None) -> dict:
    """Align source labels to target labels; returns the set under "mappings".

    ``args.source``/``args.target``, from a flag or the config, names a
    graph file to read; otherwise the store passed in is used, and
    failing that ecotox.nt/ncbi.nt in the output directory.
    """
    out_dir = _out_dir(args)
    stop_words = _load_stop_words(args.stopwords)
    threshold = align_mod.DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    source = _align_graph(args.source, source, out_dir / "ecotox.nt", args.prefixes)
    target = _align_graph(args.target, target, out_dir / "ncbi.nt", args.prefixes)
    source_labels = align_mod.labels_by_prefix(source, args.source_ns)
    target_labels = align_mod.labels_by_prefix(target, args.target_ns)
    funnel: dict[str, int] = {}
    mappings = align_mod.align_lexical(
        source_labels, target_labels, threshold=threshold, stop_words=stop_words, funnel=funnel
    )
    ntriples.write_text(out_dir / "mappings.tsv", align_mod.write_mappings(mappings))
    counts = {
        "source_entities": len(source_labels),
        "target_entities": len(target_labels),
        "mappings": len(mappings),
        **funnel,
    }
    return {"out_dir": out_dir, "counts": counts, "outputs": ["mappings.tsv"], "mappings": mappings}


def cmd_eval_mappings(args) -> dict:
    computed = align_mod.read_mappings(_read_text(Path(args.mappings)))
    reference = align_mod.read_mappings(_read_text(Path(args.reference)))
    recall = align_mod.evaluate(computed, reference)
    disagree = align_mod.disagreement(computed, reference)
    text = f"recall\t{recall:.6f}\ndisagreement\t{disagree}\n"
    counts = {"computed": len(computed), "reference": len(reference), "recall": round(recall, 6)}
    return _emit(args, text, counts)


def cmd_bridge(args) -> dict:
    pairs = idmap.parse_pairs(_input(args, "pairs"))
    store = TripleStore(args.prefixes)
    added, errors = idmap.construct_sameas(pairs, args.rewrite, store)
    for message in errors:
        log.warning("bridge: %s", message)
    counts = {"pairs": len(pairs), "triples": added, "errors": len(errors)}
    return _write_graph(args, f"sameas_{args.rewrite}.nt", store, counts)


_EXPORT_PARTS = (
    "ncbi.nt",
    "units.nt",
    "ecotox.nt",
    "traits.nt",
    "sameas_ncbi.nt",
    "sameas_cas.nt",
    "sameas_verbatim.nt",
)


def _part_files(args):
    """(file name, store) for ``--graphs``, else for the part files present in ``--out``."""
    out_dir = Path(_require(args, "out"))
    paths = [Path(p) for p in args.graphs] if args.graphs else [
        out_dir / name for name in _EXPORT_PARTS if (out_dir / name).exists()
    ]
    names = [path.name for path in paths]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"two graph files share the name {name!r}, which keys their counts")
    for path in paths:
        yield path.name, ntriples.parse(_read_text(path), args.prefixes)


def cmd_export(args, parts=None, mappings: align_mod.MappingSet | None = None) -> dict:
    """Merge part graphs, plus mappings as owl:sameAs, into kg.nt.

    ``parts`` yields (file name, store) in merge order; without it the
    parts and the mappings come from files. The largest part (the first
    of equals) is the merge base: it counts its own size, and every other
    part counts the triples it adds. The base is returned, frozen, under
    "store".
    """
    if parts is None:
        parts = _part_files(args)
        if args.mappings is not None:
            mappings = align_mod.read_mappings(_read_text(args.mappings))
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to export: no graph files found or given")
    merged = max((part for _, part in parts), key=len)
    base_size = len(merged)
    counts = {name: base_size if part is merged else merged.add_all(part) for name, part in parts}
    if mappings is not None:
        counts["mappings_sameas"] = align_mod.add_sameas(mappings, merged)
    counts["total_triples"] = len(merged)
    merged.freeze()
    return _write_graph(args, "kg.nt", merged, counts)


def cmd_read(args) -> dict:
    """``query``, ``path``, ``lookup`` or ``lineage``: check the request, then answer it.

    The request is built from the flags first (the query file read and
    parsed, the path expression parsed, ``--start`` or ``--taxon``
    resolved, ``-k`` checked), so a bad one fails before ``--graph`` is
    read. ``answer`` gives the report's text and counts from the graph.
    """
    from . import query as query_mod  # only the read commands load the query engine

    if args.command == "query":
        parsed = query_mod.parse_query(_read_text(Path(args.query)), args.prefixes)

        def answer(store):
            funnel: list = []
            result = query_mod.run_query(store, parsed, funnel)
            if args.explain:
                sys.stderr.write(query_mod.explain(store, funnel))
            step_rows = [rows for _, rows in funnel]
            if parsed.kind == "construct":
                return ntriples.serialize(result), {"triples": len(result), "step_rows": step_rows}
            lines = ["\t".join(f"?{name}" for name in parsed.projection)]
            lines += ["\t".join(term.ntriples() for term in row) for row in result]
            return "".join(line + "\n" for line in lines), {"rows": len(result), "step_rows": step_rows}
    elif args.command == "path":
        expr = query_mod.parse_path(args.expr, args.prefixes)
        start = iri(args.prefixes.resolve(args.start)) if args.start else None

        def answer(store):
            # the lines sort as their (start, end) texts do, by the argument above ntriples._sorted_chunks
            pairs = query_mod.eval_path(store, expr, start)
            lines = sorted(f"{a.ntriples()}\t{b.ntriples()}\n" for a, b in pairs)
            return "".join(lines), {"pairs": len(lines)}
    elif args.command == "lookup":
        query_mod.check_lookup_k(args.k)

        def answer(store):
            funnel: dict[str, int] = {}
            hits = query_mod.fuzzy_lookup(store, args.name, args.k, funnel)
            text = "".join(f"{iri_text}\t{score:.6f}\n" for iri_text, score in hits)
            return text, {"hits": len(hits), **funnel}
    else:
        taxon = iri(args.prefixes.resolve(args.taxon))

        def answer(store):
            ancestors = query_mod.lineage(store, taxon)
            text = "".join(
                (args.prefixes.compact(term.value) if term.is_iri() else term.ntriples()) + "\n"
                for term in ancestors
            )
            return text, {"ancestors": len(ancestors)}
    return _emit(args, *answer(_read_graph(Path(args.graph), args.prefixes)))


def cmd_stats(args, kg: TripleStore | None = None) -> dict:
    """Size and density report for ``kg``, else for the graph file.

    Coverage counts are read off ``kg`` if given, else taken from --tests/--compounds/--species.
    Coverage is left out when any count is missing, or when ``kg`` has no chemical or no species.
    """
    out_dir = _out_dir(args)
    if kg is None:
        kg = _read_graph(args.graph or out_dir / "kg.nt", args.prefixes)
        coverage_counts = (args.test_count, args.compound_count, args.species_count)
    else:
        types = (ecotox.TEST_TYPE, ecotox.CHEMICAL_TYPE, ecotox.TAXON_TYPE)
        tests, compounds, species = (kg.count(p=RDF_TYPE, o=type_term) for type_term in types)
        coverage_counts = (tests, compounds or None, species or None)  # undefined over no pairs
    counts = stats.count_graph(kg)
    coverage_percent = None if None in coverage_counts else stats.coverage(*coverage_counts)
    ntriples.write_text(out_dir / "stats.tsv", stats.report_tsv(counts, coverage_percent))
    text = stats.report_text(counts, coverage_percent)
    ntriples.write_text(out_dir / "stats.txt", text)
    sys.stdout.write(text)
    return {"out_dir": out_dir, "counts": counts._asdict(), "outputs": ["stats.tsv", "stats.txt"]}


def cmd_update(args) -> dict:
    """Full rebuild: ingest everything, align, bridge, export, check, stats.

    Every stage takes update's own flags and hands its store to the next
    in memory, so no part file is read back; kg.nt merges exactly the parts
    this run built. The files are staged inside the output directory and
    replace the previous run's only once the checks and stats have passed.
    """
    out_dir = _out_dir(args)
    staging = out_dir / ".update-staging"
    shutil.rmtree(staging, ignore_errors=True)  # left by a killed run
    staging.mkdir()
    args.out = str(staging)  # every stage writes there
    results: dict[str, dict] = {}  # each step's result, in run order
    try:
        results["ingest-ncbi"] = cmd_ingest_ncbi(args)
        results["units"] = cmd_units(args)
        results["ingest-ecotox"] = cmd_ingest_ecotox(args, results["units"]["registry"])
        results["ingest-traits"] = cmd_ingest_traits(args)
        results["align"] = cmd_align(args, results["ingest-ecotox"]["store"], results["ingest-ncbi"]["store"])
        for pairs, rewrite in ((args.pairs_ncbi, "ncbi"), (args.pairs_cas, "cas")):
            if pairs is not None:
                # perfbench/tracer.py names the bridge's span from args.rewrite
                args.pairs, args.rewrite = pairs, rewrite
                results[f"bridge-{rewrite}"] = cmd_bridge(args)
        parts = [(result["outputs"][0], result["store"]) for result in results.values() if "store" in result]
        results["export"] = cmd_export(args, parts, results["align"]["mappings"])
        kg = results["export"]["store"]
        cycles = checks.subclass_cycles(kg)
        violations = checks.disjointness_violations(kg, ecotox.GROUP_PROP)
        if cycles or violations:
            raise checks.IntegrityError(
                f"exported graph failed consistency scans: "
                f"{len(cycles)} cycles, {len(violations)} disjointness violations"
            )
        results["checks"] = {"counts": {"cycles": 0, "disjointness_violations": 0}, "outputs": []}
        results["stats"] = cmd_stats(args, kg)
        outputs = [name for result in results.values() for name in result["outputs"]]
        for name in outputs:
            (staging / name).replace(out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    counts = {step: result["counts"] for step, result in results.items()}
    return {"out_dir": out_dir, "counts": counts, "outputs": outputs}


# ---------------------------------------------------------------------------
# Parser and dispatch

# The input-file flags of each ingest stage, declared once: the stage's
# own subcommand takes them, and `update` takes the union.
_INGEST_STAGES = (
    ("ingest-ncbi", "taxonomy dump files to ncbi.nt", {
        "--nodes": "nodes.dmp path",
        "--names": "names.dmp path",
        "--divisions": "division.dmp path",
    }),
    ("ingest-ecotox", "effect tables to ecotox.nt", {
        "--species": "species table path",
        "--chemicals": "chemicals table path",
        "--tests": "tests table path",
        "--results": "results table path",
        "--units": "unit registry TSV for unit IRIs",
    }),
    ("ingest-traits", "trait TSV to traits.nt", {
        "--traits": "trait table path",
        "--glossary": "glossary table path",
    }),
    ("units", "unit registry TSV to units.nt", {
        "--units": "unit registry TSV path",
    }),
)


def ascii_int(text: str) -> int:
    """A count flag: ASCII digits with an optional ``-``, so a negative count reaches its own check."""
    return -digits_int(text[1:]) if text.startswith("-") else digits_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecokg", description="Build and query an ecotoxicology knowledge graph."
    )
    parser.add_argument("--config", help="JSON config file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--prefixes", help="prefix table TSV (prefix<TAB>namespace)")
        if out_required:
            p.add_argument("--out", help="output directory")
        else:  # a report file, which the config's out_dir must not fill
            p.add_argument("--out", dest="out_file", metavar="OUT", help="output file")

    def ingest_parser(name: str, stage_help: str, flags: dict[str, str]):
        p = sub.add_parser(name, help=stage_help)
        common(p, out_required=True)
        for flag, flag_help in flags.items():
            p.add_argument(flag, help=flag_help)
        return p

    update_flags: dict[str, str] = {}
    for name, stage_help, flags in _INGEST_STAGES:
        ingest_parser(name, stage_help, flags)
        update_flags.update(flags)

    p = sub.add_parser("align", help="lexical alignment between two graphs")
    common(p, out_required=True)
    p.add_argument("--source", help="source graph (.nt)")
    p.add_argument("--target", help="target graph (.nt)")
    p.add_argument("--source-ns", default=_SOURCE_NS, help="source subject namespace")
    p.add_argument("--target-ns", default=_TARGET_NS, help="target subject namespace")
    p.add_argument("--threshold", type=ascii_float, help="minimum score (default 0.8)")
    p.add_argument("--stopwords", help="stop-word list, one per line")

    p = sub.add_parser("eval-mappings", help="recall of computed vs reference mappings")
    common(p)
    p.add_argument("--mappings", required=True, help="computed mappings TSV")
    p.add_argument("--reference", required=True, help="reference mappings TSV")

    p = sub.add_parser("bridge", help="pair table to owl:sameAs links")
    common(p, out_required=True)
    p.add_argument("--pairs", help="pair table TSV (id<TAB>iri)")
    p.add_argument("--rewrite", required=True, choices=list(idmap.REWRITE_RULES))

    p = sub.add_parser("export", help="merge part graphs into kg.nt")
    common(p, out_required=True)
    p.add_argument("--graphs", nargs="+", help="explicit graph files to merge")
    p.add_argument("--mappings", help="mapping TSV emitted as owl:sameAs")

    def read_parser(name: str, command_help: str):
        p = sub.add_parser(name, help=command_help)
        common(p)
        p.add_argument("--graph", required=True, help="graph file (.nt)")
        return p

    p = read_parser("query", "run a textual query against a graph")
    p.add_argument("--query", required=True, help="query file")
    p.add_argument("--explain", action="store_true", help="print the join plan on stderr")
    p = read_parser("path", "evaluate a property path")
    p.add_argument("--expr", required=True, help="path expression")
    p.add_argument("--start", help="start entity (curie or IRI)")
    p = read_parser("lookup", "fuzzy label search")
    p.add_argument("--name", required=True, help="name to look up")
    p.add_argument("-k", type=ascii_int, default=5, help="result count")
    p = read_parser("lineage", "ancestor chain of a taxon")
    p.add_argument("--taxon", required=True, help="taxon (curie or IRI)")

    p = sub.add_parser("stats", help="graph size and density report")
    common(p, out_required=True)
    p.add_argument("--graph", help="graph file (.nt), default <out>/kg.nt")
    # counts, not the ECOTOX tables the config's tests/species keys name
    p.add_argument("--tests", type=ascii_int, dest="test_count", metavar="TESTS",
                   help="experiment count for coverage")
    p.add_argument("--compounds", type=ascii_int, dest="compound_count", metavar="COMPOUNDS",
                   help="compound count for coverage")
    p.add_argument("--species", type=ascii_int, dest="species_count", metavar="SPECIES",
                   help="species count for coverage")

    p = ingest_parser("update", "full deterministic rebuild from config", update_flags)
    # align's flags and the bridges' pair tables: update hands them on, only the config sets them
    p.set_defaults(stopwords=None, threshold=None, source=None, target=None,
                   source_ns=_SOURCE_NS, target_ns=_TARGET_NS, pairs_ncbi=None, pairs_cas=None)
    return parser


_COMMANDS = {
    "ingest-ncbi": cmd_ingest_ncbi,
    "ingest-ecotox": cmd_ingest_ecotox,
    "ingest-traits": cmd_ingest_traits,
    "units": cmd_units,
    "align": cmd_align,
    "eval-mappings": cmd_eval_mappings,
    "bridge": cmd_bridge,
    "export": cmd_export,
    "query": cmd_read,
    "path": cmd_read,
    "lookup": cmd_read,
    "lineage": cmd_read,
    "stats": cmd_stats,
    "update": cmd_update,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    counter = _WarningCounter()
    logging.getLogger().addHandler(counter)
    try:
        _resolve_flags(args)
        result = _COMMANDS[args.command](args)
        elapsed = time.perf_counter() - started
        out_dir = result.get("out_dir")
        if out_dir is not None:
            summary = out_dir / f"{args.command}.summary.json"
        elif getattr(args, "out_file", None):
            out = Path(args.out_file)
            summary = out.with_name(out.name + ".summary.json")
        else:
            return EXIT_OK
        _write_summary(summary, args.command, result, elapsed, counter.count)
        return EXIT_OK
    except (ValidationError, FrozenStoreError) as exc:
        return _fail(exc, EXIT_VALIDATION)
    except (OSError, ValueError) as exc:
        return _fail(exc, EXIT_INPUT)
    except Exception as exc:  # pragma: no cover - safety net
        sys.stderr.write(traceback.format_exc())
        return _fail(exc, EXIT_INTERNAL)
    finally:
        logging.getLogger().removeHandler(counter)


def _fail(exc: Exception, code: int) -> int:
    message = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
    sys.stdout.write(f"error\t{exc.__class__.__name__}\t{message}\n")
    sys.stderr.write(f"{exc.__class__.__name__}: {exc}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
