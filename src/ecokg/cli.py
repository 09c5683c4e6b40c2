"""Command-line pipeline driver.

Every subcommand reads defaults from an optional ``--config`` JSON file
(paths resolved relative to the config file) and writes its artifacts
plus a ``<command>.summary.json`` run summary into the output
directory. Failures exit 2 for unreadable or malformed input, 3 for
semantic validation errors, 4 for anything unexpected, and print one
machine-parsable ``error<TAB>class<TAB>message`` line on stdout with
detail on stderr.
"""

import argparse
import json
import logging
import sys
import time
import traceback
from pathlib import Path

from . import align as align_mod
from . import checks, dmp, ecotox, idmap, ntriples, stats, traits, units
from . import query as query_mod
from .graph import FrozenStoreError, PrefixMap, TripleStore, UnknownPrefixError, iri
from .ns import ET, NCBI, RDF_TYPE, default_prefix_map

log = logging.getLogger(__name__)

_VALIDATION_ERRORS = (
    dmp.DanglingParentError,
    dmp.DuplicateDivisionError,
    ecotox.EmptyLineageError,
    ecotox.UnresolvedParentError,
    ecotox.OrphanResultError,
    ecotox.UnknownReferenceError,
    traits.UnresolvedGlossaryError,
    units.DuplicateUnitError,
    units.DimensionMismatchError,
    align_mod.EmptyReferenceError,
    checks.IntegrityError,
    idmap.InvalidCasError,
    idmap.InvalidNcbiIdError,
    query_mod.UnboundProjectionError,
    query_mod.UnboundTemplateError,
    query_mod.UnknownEntityError,
    stats.EmptyGraphError,
    FrozenStoreError,
)

_INPUT_ERRORS = (
    OSError,
    json.JSONDecodeError,
    ntriples.NTriplesParseError,
    dmp.DmpFormatError,
    query_mod.PathSyntaxError,
    query_mod.QuerySyntaxError,
    UnknownPrefixError,
    ValueError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


class _Config:
    """Flag defaults from JSON; paths resolve against the file's directory."""

    def __init__(self, values: dict, base: Path):
        self.values = values
        self.base = base
        self._prefix_maps: dict[Path | None, PrefixMap] = {}

    @classmethod
    def load(cls, path: str | None) -> "_Config":
        if path is None:
            return cls({}, Path.cwd())
        p = Path(path)
        with open(p, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("config must be a JSON object")
        return cls(values, p.parent)

    def path(self, key: str, override: str | None) -> Path | None:
        if override is not None:
            return Path(override)
        value = self.values.get(key)
        if value is None:
            return None
        return self.base / value

    def get(self, key: str, override=None, default=None):
        if override is not None:
            return override
        return self.values.get(key, default)

    def prefixes(self, override: str | None) -> PrefixMap:
        """The prefix map, read once per run however many stages ask."""
        path = self.path("prefixes", override)
        if path not in self._prefix_maps:
            self._prefix_maps[path] = (
                default_prefix_map() if path is None else PrefixMap.from_tsv(_read_text(path))
            )
        return self._prefix_maps[path]


def _read_text(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _require(value, name: str):
    if value is None:
        raise ValueError(f"missing required input: {name} (flag or config key)")
    return value


def _load_stop_words(cfg: _Config, override: str | None) -> frozenset[str]:
    path = cfg.path("stopwords", override)
    if path is None:
        return align_mod.DEFAULT_STOP_WORDS
    words = {
        line.strip().lower()
        for line in _read_text(path).splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    }
    return frozenset(words)


def _out_dir(cfg: _Config, override: str | None) -> Path:
    path = cfg.path("out_dir", override)
    _require(path, "out_dir")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_graph(path: Path, prefixes: PrefixMap) -> TripleStore:
    store = ntriples.parse(_read_text(path), prefixes)
    store.freeze()
    return store


def _write_summary(path: Path, command: str, result: dict, seconds: float) -> None:
    summary = {
        "command": command,
        "counts": result["counts"],
        "outputs": sorted(result["outputs"]),
        "seconds": round(seconds, 3),
    }
    ntriples.write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _emit(args, text: str, counts: dict) -> dict:
    """Print a command's report; with ``--out`` also write it to that file."""
    sys.stdout.write(text)
    if not args.out:
        return {"counts": counts, "outputs": []}
    ntriples.write_text(Path(args.out), text)
    return {"counts": counts, "outputs": [args.out]}


# ---------------------------------------------------------------------------
# Commands
#
# The stages that build part graphs also return the store they wrote
# under "store", so `update` can hand it on instead of reading it back.

def cmd_ingest_ncbi(args, cfg: _Config) -> dict:
    prefixes = cfg.prefixes(args.prefixes)
    out_dir = _out_dir(cfg, args.out)
    nodes = dmp.parse_nodes(_read_text(_require(cfg.path("ncbi_nodes", args.nodes), "ncbi_nodes")))
    names = dmp.parse_names(_read_text(_require(cfg.path("ncbi_names", args.names), "ncbi_names")))
    divisions = dmp.parse_divisions(
        _read_text(_require(cfg.path("ncbi_divisions", args.divisions), "ncbi_divisions"))
    )
    store = TripleStore(prefixes)
    counts = {
        "node_rows": len(nodes),
        "name_rows": len(names),
        "division_rows": len(divisions),
        "hierarchy_triples": dmp.ingest_nodes(nodes, store),
        "name_triples": dmp.ingest_names(names, store),
        "division_triples": dmp.ingest_divisions(divisions, store),
        "total_triples": len(store),
    }
    ntriples.write_file(store, out_dir / "ncbi.nt")
    return {"out_dir": out_dir, "counts": counts, "outputs": ["ncbi.nt"], "store": store}


def cmd_units(args, cfg: _Config) -> dict:
    prefixes = cfg.prefixes(args.prefixes)
    out_dir = _out_dir(cfg, args.out)
    store = TripleStore(prefixes)
    registry, added = units.load_registry(
        _read_text(_require(cfg.path("units", args.units), "units")), prefixes, store
    )
    ntriples.write_file(store, out_dir / "units.nt")
    counts = {"units": len(registry), "triples": added}
    return {"out_dir": out_dir, "counts": counts, "outputs": ["units.nt"], "store": store,
            "registry": registry}


def _load_registry(cfg: _Config, override: str | None, prefixes: PrefixMap) -> units.UnitRegistry | None:
    path = cfg.path("units", override)
    if path is None:
        return None
    registry, _ = units.load_registry(_read_text(path), prefixes)
    return registry


def cmd_ingest_ecotox(args, cfg: _Config, registry: units.UnitRegistry | None = None) -> dict:
    """Effect tables to ecotox.nt; ``registry``, if given, replaces reading units.tsv."""
    prefixes = cfg.prefixes(args.prefixes)
    out_dir = _out_dir(cfg, args.out)
    species = [
        ecotox.synthesize_lineage(rec)
        for rec in ecotox.parse_species(
            _read_text(_require(cfg.path("species", args.species), "species"))
        )
    ]
    chemicals = ecotox.parse_chemicals(
        _read_text(_require(cfg.path("chemicals", args.chemicals), "chemicals"))
    )
    tests = ecotox.parse_tests(_read_text(_require(cfg.path("tests", args.tests), "tests")))
    results = ecotox.parse_results(
        _read_text(_require(cfg.path("results", args.results), "results"))
    )
    ecotox.validate_test_references(tests, species, chemicals)
    if registry is None:
        registry = _load_registry(cfg, args.units, prefixes)
    store = TripleStore(prefixes)
    counts = {
        "species_rows": len(species),
        "chemical_rows": len(chemicals),
        "test_rows": len(tests),
        "result_rows": len(results),
        "species_triples": ecotox.ingest_species(species, store),
        "chemical_triples": ecotox.ingest_chemicals(chemicals, store),
        "effect_triples": ecotox.ingest_tests(tests, results, store, registry),
        "total_triples": len(store),
        "lineage_merges": ecotox.lineage_merges(store),
    }
    ntriples.write_file(store, out_dir / "ecotox.nt")
    return {"out_dir": out_dir, "counts": counts, "outputs": ["ecotox.nt"], "store": store}


def cmd_ingest_traits(args, cfg: _Config) -> dict:
    prefixes = cfg.prefixes(args.prefixes)
    out_dir = _out_dir(cfg, args.out)
    glossary = traits.load_glossary(
        _read_text(_require(cfg.path("glossary", args.glossary), "glossary")), prefixes
    )
    rows = traits.parse_traits(
        _read_text(_require(cfg.path("traits", args.traits), "traits")), prefixes
    )
    store = TripleStore(prefixes)
    added = traits.ingest_traits(rows, glossary, store, prefixes)
    ntriples.write_file(store, out_dir / "traits.nt")
    counts = {"rows": len(rows), "triples": added, "glossary_terms": len(glossary)}
    return {"out_dir": out_dir, "counts": counts, "outputs": ["traits.nt"], "store": store}


def _align_graph(path: Path | None, given: TripleStore | None, default: Path,
                 prefixes: PrefixMap) -> TripleStore:
    """The configured graph file, else the store handed over, else ``default``."""
    if path is None and given is not None:
        return given
    return _read_graph(path or default, prefixes)


def cmd_align(args, cfg: _Config, source: TripleStore | None = None,
              target: TripleStore | None = None) -> dict:
    """Align source labels to target labels; returns the set under "mappings".

    A ``--source``/``--target`` flag or ``align_source``/``align_target``
    config key names a graph file to read; otherwise the store passed in
    is used, and failing that ecotox.nt/ncbi.nt in the output directory.
    """
    prefixes = cfg.prefixes(args.prefixes)
    out_dir = _out_dir(cfg, args.out)
    stop_words = _load_stop_words(cfg, args.stopwords)
    threshold = float(cfg.get("threshold", args.threshold, align_mod.DEFAULT_THRESHOLD))
    source = _align_graph(cfg.path("align_source", args.source), source, out_dir / "ecotox.nt", prefixes)
    target = _align_graph(cfg.path("align_target", args.target), target, out_dir / "ncbi.nt", prefixes)
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


def cmd_eval_mappings(args, cfg: _Config) -> dict:
    computed = align_mod.read_mappings(_read_text(Path(args.mappings)))
    reference = align_mod.read_mappings(_read_text(Path(args.reference)))
    recall = align_mod.evaluate(computed, reference)
    disagree = align_mod.disagreement(computed, reference)
    text = f"recall\t{recall:.6f}\ndisagreement\t{disagree}\n"
    counts = {"computed": len(computed), "reference": len(reference), "recall": round(recall, 6)}
    return _emit(args, text, counts)


def cmd_bridge(args, cfg: _Config) -> dict:
    prefixes = cfg.prefixes(args.prefixes)
    out_dir = _out_dir(cfg, args.out)
    pairs = idmap.parse_pairs(_read_text(_require(cfg.path("pairs", args.pairs), "pairs")))
    store = TripleStore(prefixes)
    added, errors = idmap.construct_sameas(pairs, args.rewrite, store)
    for message in errors:
        log.warning("bridge: %s", message)
    name = f"sameas_{args.rewrite}.nt"
    ntriples.write_file(store, out_dir / name)
    counts = {"pairs": len(pairs), "triples": added, "errors": len(errors)}
    return {"out_dir": out_dir, "counts": counts, "outputs": [name], "store": store}


_EXPORT_PARTS = (
    "ncbi.nt",
    "units.nt",
    "ecotox.nt",
    "traits.nt",
    "sameas_ncbi.nt",
    "sameas_cas.nt",
    "sameas_verbatim.nt",
)


def _part_files(args, out_dir: Path, prefixes: PrefixMap):
    """(file name, store) for ``--graphs``, else for the part files present."""
    paths = [Path(p) for p in args.graphs] if args.graphs else [
        out_dir / name for name in _EXPORT_PARTS if (out_dir / name).exists()
    ]
    for path in paths:
        yield path.name, ntriples.parse(_read_text(path), prefixes)


def cmd_export(args, cfg: _Config, parts=None, mappings: align_mod.MappingSet | None = None) -> dict:
    """Merge part graphs, plus mappings as owl:sameAs, into kg.nt.

    ``parts`` yields (file name, store) in merge order; without it the
    parts and the mappings come from files. The largest part (the first
    of equals) is the merge base: it counts its own size, and every other
    part counts the triples it adds. The base is returned, frozen, under
    "store".
    """
    out_dir = _out_dir(cfg, args.out)
    if parts is None:
        parts = _part_files(args, out_dir, cfg.prefixes(args.prefixes))
        mappings_path = cfg.path("mappings", args.mappings)
        if mappings_path is not None:
            mappings = align_mod.read_mappings(_read_text(mappings_path))
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to export: no graph files found or given")
    merged = max((part for _, part in parts), key=len)
    base_size = len(merged)
    counts = {name: base_size if part is merged else merged.add_all(part) for name, part in parts}
    if mappings is not None:
        counts["mappings_sameas"] = align_mod.add_sameas(mappings, merged)
    ntriples.write_file(merged, out_dir / "kg.nt")
    counts["total_triples"] = len(merged)
    merged.freeze()
    return {"out_dir": out_dir, "counts": counts, "outputs": ["kg.nt"], "store": merged}


def cmd_query(args, cfg: _Config) -> dict:
    prefixes = cfg.prefixes(args.prefixes)
    store = _read_graph(Path(args.graph), prefixes)
    parsed = query_mod.parse_query(_read_text(Path(args.query)), prefixes)
    if parsed.kind == "select":
        rows = query_mod.select(store, parsed.patterns, list(parsed.projection))
        header = "\t".join(f"?{name}" for name in parsed.projection)
        lines = [header] + ["\t".join(term.ntriples() for term in row) for row in rows]
        text = "".join(line + "\n" for line in lines)
        counts = {"rows": len(rows)}
    else:
        built = query_mod.run_query(store, parsed)
        text = ntriples.serialize(built)
        counts = {"triples": len(built)}
    return _emit(args, text, counts)


def cmd_path(args, cfg: _Config) -> dict:
    prefixes = cfg.prefixes(args.prefixes)
    store = _read_graph(Path(args.graph), prefixes)
    expr = query_mod.parse_path(args.expr, prefixes)
    start = iri(prefixes.resolve(args.start)) if args.start else None
    pairs = sorted(
        query_mod.eval_path(store, expr, start),
        key=lambda pair: (pair[0].ntriples(), pair[1].ntriples()),
    )
    text = "".join(f"{a.ntriples()}\t{b.ntriples()}\n" for a, b in pairs)
    return _emit(args, text, {"pairs": len(pairs)})


def cmd_lookup(args, cfg: _Config) -> dict:
    query_mod.check_lookup_k(args.k)
    prefixes = cfg.prefixes(args.prefixes)
    store = _read_graph(Path(args.graph), prefixes)
    hits = query_mod.fuzzy_lookup(store, args.name, args.k)
    text = "".join(f"{iri_text}\t{score:.6f}\n" for iri_text, score in hits)
    return _emit(args, text, {"hits": len(hits)})


def cmd_lineage(args, cfg: _Config) -> dict:
    prefixes = cfg.prefixes(args.prefixes)
    store = _read_graph(Path(args.graph), prefixes)
    ancestors = query_mod.lineage(store, iri(prefixes.resolve(args.taxon)))
    text = "".join(
        (prefixes.compact(term.value) if term.is_iri() else term.ntriples()) + "\n"
        for term in ancestors
    )
    return _emit(args, text, {"ancestors": len(ancestors)})


def cmd_stats(args, cfg: _Config, kg: TripleStore | None = None) -> dict:
    """Size and density report for ``kg``, else for the graph file."""
    out_dir = _out_dir(cfg, args.out)
    if kg is None:
        graph_path = cfg.path("graph", args.graph) or (out_dir / "kg.nt")
        kg = _read_graph(graph_path, cfg.prefixes(args.prefixes))
    counts = stats.count_graph(kg)
    coverage_percent = None
    if args.tests is not None and args.compounds is not None and args.species is not None:
        coverage_percent = stats.coverage(args.tests, args.compounds, args.species)
    ntriples.write_text(out_dir / "stats.tsv", stats.report_tsv(counts, coverage_percent))
    text = stats.report_text(counts, coverage_percent)
    ntriples.write_text(out_dir / "stats.txt", text)
    sys.stdout.write(text)
    summary_counts = {
        "triples": counts.triples,
        "relations": counts.relations,
        "entities": counts.entities,
    }
    return {"out_dir": out_dir, "counts": summary_counts, "outputs": ["stats.tsv", "stats.txt"]}


def _count_type_instances(store: TripleStore, type_term) -> int:
    return len(store.subjects(RDF_TYPE, type_term))


def _stage_args(args, **flags) -> argparse.Namespace:
    """Flags for a stage whose own flags `update` does not take."""
    return argparse.Namespace(prefixes=args.prefixes, out=args.out, **flags)


def cmd_update(args, cfg: _Config) -> dict:
    """Full rebuild: ingest everything, align, bridge, export, check, stats.

    Each stage hands its store to the next in memory, so every part file
    is written once and none is read back; kg.nt merges exactly the
    parts this run built.
    """
    out_dir = _out_dir(cfg, args.out)
    step_counts: dict[str, dict] = {}
    outputs: list[str] = []
    parts: list[tuple[str, TripleStore]] = []

    def record(step: str, result: dict) -> dict:
        step_counts[step] = result["counts"]
        outputs.extend(result["outputs"])
        return result

    def keep_part(step: str, result: dict) -> TripleStore:
        store = record(step, result).pop("store")
        parts.append((result["outputs"][0], store))
        return store

    ncbi_store = keep_part("ingest-ncbi", cmd_ingest_ncbi(args, cfg))
    units_result = cmd_units(args, cfg)
    keep_part("units", units_result)
    ecotox_store = keep_part("ingest-ecotox", cmd_ingest_ecotox(args, cfg, units_result["registry"]))
    keep_part("ingest-traits", cmd_ingest_traits(args, cfg))

    align_args = _stage_args(
        args, stopwords=None, threshold=None, source=None, target=None,
        source_ns=ET + "taxon/", target_ns=NCBI + "taxon/",
    )
    mappings = record("align", cmd_align(align_args, cfg, ecotox_store, ncbi_store))["mappings"]

    for key, rewrite in (("pairs_ncbi", "ncbi"), ("pairs_cas", "cas")):
        pairs_path = cfg.path(key, None)
        if pairs_path is not None:
            bridge_args = _stage_args(args, pairs=str(pairs_path), rewrite=rewrite)
            keep_part(f"bridge-{rewrite}", cmd_bridge(bridge_args, cfg))

    kg = record("export", cmd_export(args, cfg, parts, mappings))["store"]
    cycles = checks.subclass_cycles(kg)
    violations = checks.disjointness_violations(kg, ecotox.GROUP_PROP)
    if cycles or violations:
        raise checks.IntegrityError(
            f"exported graph failed consistency scans: "
            f"{len(cycles)} cycles, {len(violations)} disjointness violations"
        )
    step_counts["checks"] = {"cycles": 0, "disjointness_violations": 0}
    stats_args = _stage_args(
        args,
        tests=_count_type_instances(kg, ecotox.TEST_TYPE),
        compounds=_count_type_instances(kg, ecotox.CHEMICAL_TYPE),
        species=_count_type_instances(kg, ecotox.TAXON_TYPE),
    )
    record("stats", cmd_stats(stats_args, cfg, kg))
    return {"out_dir": out_dir, "counts": step_counts, "outputs": outputs}


# ---------------------------------------------------------------------------
# Parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecokg", description="Build and query an ecotoxicology knowledge graph."
    )
    parser.add_argument("--config", help="JSON config file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--prefixes", help="prefix table TSV (prefix<TAB>namespace)")
        p.add_argument("--out", help="output directory" if out_required else "output file")

    p = sub.add_parser("ingest-ncbi", help="taxonomy dump files to ncbi.nt")
    common(p, out_required=True)
    p.add_argument("--nodes", help="nodes.dmp path")
    p.add_argument("--names", help="names.dmp path")
    p.add_argument("--divisions", help="division.dmp path")

    p = sub.add_parser("ingest-ecotox", help="effect tables to ecotox.nt")
    common(p, out_required=True)
    p.add_argument("--species", help="species table path")
    p.add_argument("--chemicals", help="chemicals table path")
    p.add_argument("--tests", help="tests table path")
    p.add_argument("--results", help="results table path")
    p.add_argument("--units", help="unit registry TSV for unit IRIs")

    p = sub.add_parser("ingest-traits", help="trait TSV to traits.nt")
    common(p, out_required=True)
    p.add_argument("--traits", help="trait table path")
    p.add_argument("--glossary", help="glossary table path")

    p = sub.add_parser("units", help="unit registry TSV to units.nt")
    common(p, out_required=True)
    p.add_argument("--units", help="unit registry TSV path")

    p = sub.add_parser("align", help="lexical alignment between two graphs")
    common(p, out_required=True)
    p.add_argument("--source", help="source graph (.nt)")
    p.add_argument("--target", help="target graph (.nt)")
    p.add_argument("--source-ns", default=ET + "taxon/", help="source subject namespace")
    p.add_argument("--target-ns", default=NCBI + "taxon/", help="target subject namespace")
    p.add_argument("--threshold", type=float, help="minimum score (default 0.8)")
    p.add_argument("--stopwords", help="stop-word list, one per line")

    p = sub.add_parser("eval-mappings", help="recall of computed vs reference mappings")
    common(p)
    p.add_argument("--mappings", required=True, help="computed mappings TSV")
    p.add_argument("--reference", required=True, help="reference mappings TSV")

    p = sub.add_parser("bridge", help="pair table to owl:sameAs links")
    common(p, out_required=True)
    p.add_argument("--pairs", help="pair table TSV (id<TAB>iri)")
    p.add_argument("--rewrite", required=True, choices=["cas", "ncbi", "verbatim"])

    p = sub.add_parser("export", help="merge part graphs into kg.nt")
    common(p, out_required=True)
    p.add_argument("--graphs", nargs="+", help="explicit graph files to merge")
    p.add_argument("--mappings", help="mapping TSV emitted as owl:sameAs")

    p = sub.add_parser("query", help="run a textual query against a graph")
    common(p)
    p.add_argument("--graph", required=True, help="graph file (.nt)")
    p.add_argument("--query", required=True, help="query file")

    p = sub.add_parser("path", help="evaluate a property path")
    common(p)
    p.add_argument("--graph", required=True, help="graph file (.nt)")
    p.add_argument("--expr", required=True, help="path expression")
    p.add_argument("--start", help="start entity (curie or IRI)")

    p = sub.add_parser("lookup", help="fuzzy label search")
    common(p)
    p.add_argument("--graph", required=True, help="graph file (.nt)")
    p.add_argument("--name", required=True, help="name to look up")
    p.add_argument("-k", type=int, default=5, help="result count")

    p = sub.add_parser("lineage", help="ancestor chain of a taxon")
    common(p)
    p.add_argument("--graph", required=True, help="graph file (.nt)")
    p.add_argument("--taxon", required=True, help="taxon (curie or IRI)")

    p = sub.add_parser("stats", help="graph size and density report")
    common(p, out_required=True)
    p.add_argument("--graph", help="graph file (.nt), default <out>/kg.nt")
    p.add_argument("--tests", type=int, help="experiment count for coverage")
    p.add_argument("--compounds", type=int, help="compound count for coverage")
    p.add_argument("--species", type=int, help="species count for coverage")

    p = sub.add_parser("update", help="full deterministic rebuild from config")
    common(p, out_required=True)
    p.add_argument("--nodes", help="nodes.dmp path")
    p.add_argument("--names", help="names.dmp path")
    p.add_argument("--divisions", help="division.dmp path")
    p.add_argument("--species", help="species table path")
    p.add_argument("--chemicals", help="chemicals table path")
    p.add_argument("--tests", help="tests table path")
    p.add_argument("--results", help="results table path")
    p.add_argument("--traits", help="trait table path")
    p.add_argument("--glossary", help="glossary table path")
    p.add_argument("--units", help="unit registry TSV path")

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
    "query": cmd_query,
    "path": cmd_path,
    "lookup": cmd_lookup,
    "lineage": cmd_lineage,
    "stats": cmd_stats,
    "update": cmd_update,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _Config.load(args.config)
        result = _COMMANDS[args.command](args, cfg)
        elapsed = time.perf_counter() - started
        out_dir = result.get("out_dir")
        if out_dir is not None:
            _write_summary(out_dir / f"{args.command}.summary.json", args.command, result, elapsed)
        elif getattr(args, "out", None):
            out = Path(args.out)
            _write_summary(out.with_name(out.name + ".summary.json"), args.command, result, elapsed)
        return EXIT_OK
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, EXIT_VALIDATION)
    except _INPUT_ERRORS as exc:
        return _fail(exc, EXIT_INPUT)
    except Exception as exc:  # pragma: no cover - safety net
        sys.stderr.write(traceback.format_exc())
        return _fail(exc, EXIT_INTERNAL)


def _fail(exc: Exception, code: int) -> int:
    message = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
    sys.stdout.write(f"error\t{exc.__class__.__name__}\t{message}\n")
    sys.stderr.write(f"{exc.__class__.__name__}: {exc}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
