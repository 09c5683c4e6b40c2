"""Lexical ontology alignment: exact forms first, then token blocking
plus edit distances scored in lanes.

Labels are normalized (lowercased, punctuation stripped, stop words and
taxonomic rank words removed) before anything else. A pair scores
``1 - distance/max(len)`` over the cross product of the two entities'
normalized labels, and each source keeps its best target at or above
the threshold. Only identical forms score 1.0, the most any pair can,
so a source that shares a form with some target is matched through an
index of target forms by text, to the smallest such target, whenever
1.0 reaches the threshold. Every other source is paired only with the
targets sharing at least one normalized token with it; sharing only
stop words does not count because stop words never survive
normalization.

The distance is the exact bit-parallel Levenshtein algorithm (Myers
1999, in Hyyrö's 2001 form): one pass over a text, with a pattern's
columns packed into an int. ``lane_counts`` runs it over any number of
patterns side by side (Hyyrö, Fredriksson and Navarro 2005), packed by
``_pack``; alignment, ``levenshtein`` (one lane) and
``query.fuzzy_lookup`` each make that one call. A lane takes whole
bytes, so forms of every length share one int. Each source form gets
one pass over its candidates' forms, packed in length order, less
those whose length bound ``1 - |len difference|/max(len)``, which no
score can exceed, is below the threshold.
"""

import math
import re
from collections import namedtuple
from itertools import groupby
from typing import Iterable, Mapping as MappingType, Sequence

from .graph import ALNUM, CheckedRecord, Triple, TripleStore, ValidationError, ascii_float, iri, read_tsv_rows
from .ns import OWL_SAMEAS, RDFS_LABEL

DEFAULT_STOP_WORDS = frozenset(
    {
        "the", "a", "an", "and", "or", "of", "in", "on", "for", "to", "with",
        "species", "genus", "var", "sp", "spp", "ssp",
    }
)

DEFAULT_THRESHOLD = 0.8

_WORD = re.compile(ALNUM + "+")


class EmptyReferenceError(ValidationError):
    pass


def normalize_label(label: str, stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> list[str]:
    """Lowercase, split into runs of ``str.isalnum`` characters, drop stop words."""
    return [tok for tok in _WORD.findall(label.lower()) if tok not in stop_words]


# bit count of every byte value
_POPCOUNT = bytes(bin(byte).count("1") for byte in range(256))
# per bit j, the binary digit ("0" or "1") of that bit of every byte value
_BINARY_DIGIT = [bytes(48 + (byte >> j & 1) for byte in range(256)) for j in range(8)]


def _pack(forms: list[str]) -> tuple[int, int, dict[str, int], list[tuple[int, int]]]:
    """``lane_counts``'s mask, bottoms and per-character bits for the
    forms, one per lane, and the runs of adjacent lanes of one width as
    (width, lanes). Forms in length order make one run per width."""
    lengths = list(map(len, forms))
    # a lane is whole bytes with at least one carry bit above its form, a power of two from 64 on
    widths = {n: 8 * (n // 8 + 1) if n < 64 else 1 << n.bit_length() for n in set(lengths)}
    lane = {n: ((1 << n) - 1).to_bytes(width // 8, "little") for n, width in widths.items()}
    mask = int.from_bytes(b"".join(map(lane.__getitem__, lengths)), "little")
    # bit 0 of a non-empty lane is the one set bit whose bit below is clear
    bottoms = mask ^ (mask & (mask << 1))
    # Bit p of plane j is bit j of the code point at position p of the
    # padded text, read as binary digits from the last position down. A
    # character's positions are those where every plane agrees with it;
    # a lone surrogate is a code point like any other.
    padded = "".join([form.ljust(widths[len(form)], "\0") for form in forms])
    points = padded[::-1].encode("utf-32-le", "surrogatepass")
    alphabet = set("".join(forms))
    planes = [
        int(points[j // 8::4].translate(_BINARY_DIGIT[j % 8]), 2)
        for j in range(max(map(ord, alphabet), default=0).bit_length())
    ]
    # per plane, the positions where its bit is clear, then set; padding
    # is U+0000, so both lie inside mask
    choices = [(mask ^ plane, plane) for plane in planes]
    peq = {}
    for ch in alphabet:
        bits, code = mask, ord(ch)
        for j, (off, on) in enumerate(choices):
            bits &= on if code >> j & 1 else off
        peq[ch] = bits
    runs = [(width, len(list(run))) for width, run in groupby(map(widths.__getitem__, lengths))]
    return mask, bottoms, peq, runs


def lane_counts(pack: tuple, text: str) -> bytes | list[int]:
    """Myers' step over every lane of ``_pack``'s 4-tuple at once, then
    per lane a count: the edit distance from ``text`` to the lane's form
    is ``count + len(text) - len(form)``.

    ``mask`` sets each lane's form bits, ``bottoms`` bit 0 of every
    non-empty lane, and ``peq`` maps a character to the positions where
    it occurs. Bit i of the last ``pv``/``mv`` says the column for all
    of ``text`` steps +1/-1 at row i + 1, so the distance is
    ``len(text)`` plus a lane's ``pv`` bits minus its ``mv`` bits, and
    the count is the popcount of ``pv`` plus that of ``mv ^ mask``. The
    masked shifts keep every bit in its lane, and a zero bit above each
    form absorbs the add's carry.

    Every int stays non-negative, because ``^ mask`` stands in for ``~``
    (on a negative int CPython's ``&``, ``|`` and ``^`` convert the whole
    int to two's complement). That is exact only if every ``peq`` value
    lies inside ``mask``, as ``_pack``'s do; then ``pv`` and ``mv`` do
    too, and ``(xh | pv) ^ mask`` differs from ``~(xh | pv)`` only in
    bits outside ``mask``. The masked shift moves those onto a lane's
    bit 0, which ``bottoms`` sets anyway, or out of the mask.

    A table turns every byte into its popcount. In a run of lanes of up
    to 8 bytes, one multiply then sums each lane's bytes into its top
    byte; any lane-wide window of the run holds at most 63 mask bits, so
    no sum passes 126 and no byte carries. A wider lane, whose total can
    pass 255, adds its bytes in a loop.
    """
    mask, bottoms, peq, runs = pack
    inner = mask ^ bottoms
    get = peq.get
    pv, mv = mask, 0
    for ch in text:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        ph = ((ph << 1) & mask) | bottoms
        mh = (mh << 1) & inner
        pv = mh | ((xv | ph) ^ mask)
        mv = ph & xv
    size = sum(width * lanes for width, lanes in runs) // 8
    n = (int.from_bytes(pv.to_bytes(size, "little").translate(_POPCOUNT), "little")
         + int.from_bytes((mv ^ mask).to_bytes(size, "little").translate(_POPCOUNT), "little"))
    popcounts = n.to_bytes(size, "little")
    counts, start = b"", 0
    for width, lanes in runs:
        step, end = width // 8, start + width * lanes // 8
        if width > 64:
            counts = [*counts, *(sum(popcounts[i:i + step]) for i in range(start, end, step))]
        else:
            summed = int.from_bytes(popcounts[start:end], "little") * int.from_bytes(b"\1" * step, "little")
            counts += summed.to_bytes(end - start + step, "little")[step - 1:end - start:step]
        start = end
    return counts


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit costs: ``lane_counts`` with one lane, ``b``."""
    return lane_counts(_pack([b]), a)[0] + len(a) - len(b)


def similarity(a: str, b: str) -> float:
    """1 - distance/max(len); identical strings score 1.0."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def block_candidates(
    source_tokens: MappingType[str, set[str]],
    target_tokens: MappingType[str, set[str]],
) -> set[tuple[str, str]]:
    """Pairs sharing at least one token, via an inverted target index."""
    index: dict[str, list[str]] = {}
    for target, tokens in target_tokens.items():
        for token in tokens:
            index.setdefault(token, []).append(target)
    pairs: set[tuple[str, str]] = set()
    for source, tokens in source_tokens.items():
        for token in tokens:
            for target in index.get(token, ()):
                pairs.add((source, target))
    return pairs


class Mapping(CheckedRecord, namedtuple("Mapping", "source target score method")):
    """One scored correspondence; the score lies in [0, 1]."""

    __slots__ = ()

    def __new__(cls, source: str, target: str, score: float, method: str) -> "Mapping":
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score out of range: {score!r}")
        return tuple.__new__(cls, (source, target, score, method))


class MappingSet:
    """At most one mapping per (source, target); iterates sorted."""

    def __init__(self, method: str = "", mappings: Iterable[Mapping] = ()):
        self.method = method
        self._by_pair: dict[tuple[str, str], Mapping] = {}
        for m in mappings:
            self.add(m)

    def add(self, mapping: Mapping) -> None:
        self._by_pair[(mapping.source, mapping.target)] = mapping

    def pairs(self) -> set[tuple[str, str]]:
        return set(self._by_pair)

    def get(self, source: str, target: str) -> Mapping | None:
        return self._by_pair.get((source, target))

    def __len__(self) -> int:
        return len(self._by_pair)

    def __iter__(self):
        return iter(sorted(self._by_pair.values(), key=lambda m: (m.source, m.target)))

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._by_pair


def _normalized_forms(
    labels: MappingType[str, Sequence[str]],
    stop_words: frozenset[str],
) -> tuple[dict[str, list[str]], dict[str, set[str]]]:
    forms: dict[str, list[str]] = {}
    tokens: dict[str, set[str]] = {}
    for entity, entity_labels in labels.items():
        seen: list[str] = []
        toks: set[str] = set()
        for label in entity_labels:
            parts = normalize_label(label, stop_words)
            if not parts:
                continue
            form = " ".join(parts)
            if form not in seen:
                seen.append(form)
            toks.update(parts)
        forms[entity] = seen
        tokens[entity] = toks
    return forms, tokens


def align_lexical(
    source_labels: MappingType[str, Sequence[str]],
    target_labels: MappingType[str, Sequence[str]],
    threshold: float = DEFAULT_THRESHOLD,
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS,
    funnel: dict[str, int] | None = None,
) -> MappingSet:
    """Best-scoring target per source entity, at or above threshold.

    Ties prefer the higher score, then the lexicographically smaller
    target IRI, so results never depend on dict order. Only different
    forms score below 1.0, so a source sharing a form with some target
    keeps the smallest such target at 1.0 whenever 1.0 reaches the
    threshold; only the other sources are blocked and scored. ``funnel``,
    when given, receives the counts of sources matched by an exact form,
    distinct tokens of the other sources, and, for those sources alone,
    blocked pairs, form pairs, form pairs whose length bound is below
    the threshold and form pairs scored in lanes; then the sources whose
    best score several targets tied. A NaN threshold, which no score
    compares with, raises ``ValueError``.
    """
    if math.isnan(threshold):
        raise ValueError("alignment threshold must be a number, got nan")
    source_forms, source_tokens = _normalized_forms(source_labels, stop_words)
    target_forms, target_tokens = _normalized_forms(target_labels, stop_words)
    # per source, its best score and every target that reached it
    best: dict[str, tuple[float, set[str]]] = {}
    if threshold <= 1.0:
        targets_by_form: dict[str, list[str]] = {}
        for target, forms in target_forms.items():
            for form in forms:
                targets_by_form.setdefault(form, []).append(target)
        for source, forms in source_forms.items():
            exact = {target for form in forms for target in targets_by_form.get(form, ())}
            if exact:
                best[source] = (1.0, exact)
    exact_sources = len(best)
    rest = {source: tokens for source, tokens in source_tokens.items() if source not in best}
    blocked = block_candidates(rest, target_tokens)
    candidates: dict[str, list[str]] = {}
    for source, target in blocked:
        candidates.setdefault(source, []).append(target)
    form_pairs = scored = 0
    for source, targets in candidates.items():
        top, winners = threshold, set()
        for sf in source_forms[source]:
            n = len(sf)
            # (form, target) per form whose length bound reaches threshold
            lanes = []
            for target in targets:
                for tf in target_forms[target]:
                    form_pairs += 1
                    if 1.0 - abs(n - len(tf)) / max(n, len(tf)) >= threshold:
                        lanes.append((tf, target))
            if not lanes:
                continue
            lanes.sort(key=lambda lane: len(lane[0]))
            scored += len(lanes)
            for (tf, target), count in zip(lanes, lane_counts(_pack([tf for tf, _ in lanes]), sf)):
                score = 1.0 - (count + n - len(tf)) / max(n, len(tf))
                if score > top:
                    top, winners = score, {target}
                elif score == top:
                    winners.add(target)
        if winners:
            best[source] = (top, winners)
    if funnel is not None:
        funnel.update(
            exact_sources=exact_sources,
            distinct_tokens=len(set().union(*rest.values())),
            blocked_pairs=len(blocked),
            form_pairs=form_pairs,
            length_pruned=form_pairs - scored,
            scored=scored,
            ties_broken=sum(len(winners) > 1 for _, winners in best.values()),
        )
    out = MappingSet(method="levenshtein")
    for source, (score, winners) in best.items():
        out.add(Mapping(source, min(winners), score, out.method))
    return out


def evaluate(computed: MappingSet, reference: MappingSet) -> float:
    """Recall of the reference pairs: |computed ∩ reference| / |reference|."""
    if len(reference) == 0:
        raise EmptyReferenceError("reference mapping set is empty")
    return len(computed.pairs() & reference.pairs()) / len(reference)


def disagreement(first: MappingSet, second: MappingSet) -> int:
    """Pairs in the first set missing from the second (not symmetric)."""
    return len(first.pairs() - second.pairs())


def intersect(*sets: MappingSet) -> MappingSet:
    """Consensus pairs present in every set, scores averaged."""
    if len(sets) < 2:
        raise ValueError("intersect needs at least two mapping sets")
    shared = set.intersection(*(s.pairs() for s in sets))
    out = MappingSet(method="consensus")
    for source, target in shared:
        mean = sum(s.get(source, target).score for s in sets) / len(sets)
        out.add(Mapping(source, target, mean, "consensus"))
    return out


def write_mappings(mappings: MappingSet) -> str:
    """Interchange TSV: source-iri, target-iri, score, method."""
    lines = [
        f"{m.source}\t{m.target}\t{m.score:.6f}\t{m.method}"
        for m in mappings
    ]
    return "".join(line + "\n" for line in lines)


def read_mappings(text: str) -> MappingSet:
    rows = read_tsv_rows(text, "mappings", 4, lambda source, target, score, method: Mapping(
        source, target, ascii_float(score), method))
    methods = {m.method for m in rows}
    return MappingSet(methods.pop() if len(methods) == 1 else "mixed", rows)


def add_sameas(mappings: MappingSet, store: TripleStore) -> int:
    return store.add_all([Triple(iri(m.source), OWL_SAMEAS, iri(m.target)) for m in mappings])


def labels_by_prefix(store: TripleStore, iri_prefix: str) -> dict[str, list[str]]:
    """rdfs:label literals grouped by subject IRI under one namespace.

    Subjects come in IRI order, each with its labels sorted.
    """
    out: dict[str, list[str]] = {}
    for s, o in store.predicate_pairs(RDFS_LABEL):
        if s.is_iri() and o.is_literal() and s.value.startswith(iri_prefix):
            out.setdefault(s.value, []).append(o.value)
    return {key: sorted(labels) for key, labels in sorted(out.items())}
