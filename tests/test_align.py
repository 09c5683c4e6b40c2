import random
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ecokg import align
from ecokg.graph import Triple, TripleStore, iri, literal
from ecokg.ns import OWL_SAMEAS, RDFS_LABEL
from ecokg.align import (
    EmptyReferenceError,
    Mapping,
    MappingSet,
    align_lexical,
    block_candidates,
    disagreement,
    evaluate,
    intersect,
    levenshtein,
    normalize_label,
    similarity,
)


class TestNormalization:
    def test_lowercase_and_punctuation(self):
        assert normalize_label("Daphnia-Magna (Straus)") == ["daphnia", "magna", "straus"]

    def test_stop_and_rank_words_removed(self):
        assert normalize_label("the Daphniidae genus") == ["daphniidae"]
        assert normalize_label("Daphnia sp.") == ["daphnia"]

    def test_all_stop_words_empty(self):
        assert normalize_label("of the sp.") == []

    def test_matches_character_loop_on_random_unicode(self):
        rng = random.Random(61)
        # ASCII, Latin-1, Greek, combining marks, Arabic-Indic digits,
        # CJK, line separators, surrogates, and any code point at all
        ranges = [(0x20, 0x7F), (0xA0, 0x100), (0x370, 0x400), (0x300, 0x370),
                  (0x660, 0x66A), (0x4E00, 0x4E40), (0x2028, 0x202A),
                  (0xD800, 0xD810), (0, sys.maxunicode + 1)]
        for _ in range(500):
            label = "".join(
                chr(rng.randrange(*rng.choice(ranges))) for _ in range(rng.randrange(25))
            )
            for stop_words in (align.DEFAULT_STOP_WORDS, frozenset()):
                assert normalize_label(label, stop_words) == helpers.reference_normalize_label(
                    label, stop_words
                ), ascii(label)

    def test_matches_character_loop_on_every_code_point(self):
        label = " ".join(map(chr, range(sys.maxunicode + 1)))
        assert normalize_label(label) == helpers.reference_normalize_label(label)


class TestLevenshtein:
    def test_known_pairs(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("flaw", "lawn") == 2

    def test_lone_surrogates_are_characters(self):
        assert levenshtein("\ud800ab", "ab") == 1
        assert levenshtein("\ud800", "\udc00") == 1

    def test_against_full_matrix_oracle(self):
        rng = random.Random(29)
        alphabet = "abcde"
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(9)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(9)))
            assert levenshtein(a, b) == helpers.dp_levenshtein(a, b)

    def test_long_unicode_and_unequal_lengths_against_oracle(self):
        # Up to 150 characters (several machine words of bit vector),
        # non-ASCII letters, and one side often far shorter than the other.
        rng = random.Random(43)
        alphabet = "abcdeéøßжλ☃ "
        for _ in range(400):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(151)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.choice((rng.randrange(4), rng.randrange(151)))))
            if rng.random() < 0.5:
                a, b = b, a
            assert levenshtein(a, b) == helpers.dp_levenshtein(a, b), (a, b)

    def test_shared_prefix_and_suffix_against_oracle(self):
        rng = random.Random(47)
        for _ in range(60):
            core = "".join(rng.choice("ab") for _ in range(rng.randrange(70, 140)))
            a = core[: rng.randrange(len(core))] + "ж" + core[rng.randrange(len(core)):]
            assert levenshtein(core, a) == helpers.dp_levenshtein(core, a)

    def test_lane_edges_and_non_ascii_against_oracle(self):
        # Both strings at or around the 64- and 128-bit word edges, over a
        # two-letter and a non-ASCII alphabet (code points past U+FFFF too).
        rng = random.Random(53)
        lengths = (63, 64, 65, 127, 128, 129, 200)
        for alphabet in ("ab", "aéжλ☃\U0001d538"):
            for _ in range(12):
                a = "".join(rng.choice(alphabet) for _ in range(rng.choice(lengths)))
                b = list(a if rng.random() < 0.5 else
                         "".join(rng.choice(alphabet) for _ in range(rng.choice(lengths))))
                for _ in range(rng.randrange(6)):
                    b[rng.randrange(len(b))] = rng.choice(alphabet)
                b = "".join(b)
                assert levenshtein(a, b) == helpers.dp_levenshtein(a, b), (a, b)
                assert levenshtein(b, a) == helpers.dp_levenshtein(a, b), (a, b)

    def test_metric_properties(self):
        rng = random.Random(31)
        pool = string.ascii_lowercase[:6]
        for _ in range(500):
            a, b, c = (
                "".join(rng.choice(pool) for _ in range(rng.randrange(7))) for _ in range(3)
            )
            assert levenshtein(a, b) == 0 if a == b else levenshtein(a, b) > 0
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# Lane lengths at and around every lane-width edge up to 128, and 200: lanes
# take whole bytes up to 64 bits, then a power of two.
LANE_EDGE_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 39, 40, 41, 47, 48, 49,
                     55, 56, 57, 63, 64, 65, 127, 128, 129, 200)
# é, ж, a code point past U+FFFF, a lone surrogate and U+0000, the padding
KERNEL_ALPHABET = ("a", "b", "é", "ж", "\U00010428", "\ud800", "\0")


def kernel_text(length):
    return st.lists(st.sampled_from(KERNEL_ALPHABET), min_size=length, max_size=length).map("".join)


kernel_forms = st.one_of(st.sampled_from(LANE_EDGE_LENGTHS), st.integers(0, 200)).flatmap(kernel_text)


class TestLaneKernel:
    @given(st.lists(kernel_forms, min_size=1, max_size=4), st.lists(kernel_forms, max_size=3), kernel_forms)
    @settings(max_examples=60, deadline=None)
    def test_bits_stay_inside_mask_and_lanes_match_oracle(self, before, after, text):
        # an empty lane between non-empty ones and U+0000 inside a form, all
        # widths in one pack, as given and in length order; and a pack of no lanes
        forms = before + [""] + after + ["é\0ж\U00010428\ud800"]
        for order in ([], forms, sorted(forms, key=len)):
            mask, bottoms, peq, runs = align._pack(order)
            # whole bytes with a carry bit above the form, a power of two from 64 characters on
            widths = [8 * (len(form) // 8 + 1) if len(form) < 64 else 1 << len(form).bit_length()
                      for form in order]
            assert [width for width, lanes in runs for _ in range(lanes)] == widths
            assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
            assert mask < 1 << sum(widths)
            for bits in (bottoms, *peq.values()):
                assert bits >= 0 and bits | mask == mask
            # a stray bit in a lane changes its count; one past the last lane makes to_bytes raise
            counts = align.lane_counts((mask, bottoms, peq, runs), text)
            assert len(counts) == len(order)
            for form, count in zip(order, counts):
                assert count + len(text) - len(form) == helpers.dp_levenshtein(text, form), ascii(form)
        # in length order, one run per width
        assert [width for width, _ in runs] == sorted(set(widths))


class TestSimilarity:
    def test_bounds_and_edges(self):
        assert similarity("", "") == 1.0
        assert similarity("abc", "abc") == 1.0
        assert similarity("abc", "xyz") == 0.0
        assert similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7)

    def test_range_on_random_strings(self):
        rng = random.Random(37)
        for _ in range(200):
            a = "".join(rng.choice("abcd") for _ in range(rng.randrange(8)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randrange(8)))
            assert 0.0 <= similarity(a, b) <= 1.0


class TestBlocking:
    def test_requires_shared_token(self):
        pairs = block_candidates(
            {"s1": {"daphnia", "magna"}, "s2": {"danio"}},
            {"t1": {"daphnia"}, "t2": {"rasbora"}},
        )
        assert pairs == {("s1", "t1")}

    def test_no_tokens_no_pairs(self):
        assert block_candidates({"s": set()}, {"t": {"x"}}) == set()


class TestMappingSet:
    def test_keyed_by_pair(self):
        ms = MappingSet()
        ms.add(Mapping("a", "b", 0.9, "m"))
        ms.add(Mapping("a", "b", 0.7, "m2"))
        assert len(ms) == 1
        assert ms.get("a", "b").score == 0.7
        assert ("a", "b") in ms

    def test_iteration_sorted(self):
        ms = MappingSet(mappings=[Mapping("b", "x", 0.9, "m"), Mapping("a", "y", 0.9, "m")])
        assert [(m.source, m.target) for m in ms] == [("a", "y"), ("b", "x")]

    def test_score_bounds(self):
        with pytest.raises(ValueError):
            Mapping("a", "b", 1.5, "m")


class TestAlignLexical:
    def test_exact_match_scores_one(self):
        out = align_lexical({"s": ["Danio rerio"]}, {"t": ["Danio rerio"]})
        assert out.get("s", "t").score == 1.0

    def test_threshold_excludes_weak(self):
        out = align_lexical({"s": ["Daphnia hirta"]}, {"t": ["Daphnia magna"]})
        assert len(out) == 0

    def test_best_target_kept(self):
        out = align_lexical(
            {"s": ["Eisenia fetida"]},
            {"t1": ["Eisenia fetida"], "t2": ["Eisenia feta"]},
        )
        assert out.pairs() == {("s", "t1")}

    def test_tie_breaks_to_smaller_target(self):
        out = align_lexical({"s": ["same name"]}, {"t/b": ["same name"], "t/a": ["same name"]})
        assert out.pairs() == {("s", "t/a")}

    def test_multi_label_entities_use_best_label(self):
        out = align_lexical(
            {"s": ["totally different", "Rasbora heteromorpha"]},
            {"t": ["Rasbora heteromorpha"]},
        )
        assert out.get("s", "t").score == 1.0

    def test_rank_words_ignored_in_comparison(self):
        out = align_lexical({"s": ["Daphnia sp."]}, {"t": ["Daphnia"]})
        assert out.get("s", "t").score == 1.0

    def test_label_of_only_stop_words_is_skipped(self):
        # "sp." normalizes to no tokens: it neither matches nor blocks
        out = align_lexical({"s": ["sp.", "Daphnia"], "u": ["sp."]}, {"t": ["Daphnia"], "v": ["sp."]})
        assert list(out) == [Mapping("s", "t", 1.0, "levenshtein")]

    def test_exact_form_wins_over_a_smaller_near_match_without_scoring(self):
        funnel = {}
        out = align_lexical(
            {"s": ["Danio rerio"], "u": ["Danio reri"]},
            {"t/0": ["Danio rerios"], "t/1": ["Danio rerio"]},
            funnel=funnel,
        )
        assert {(m.source, m.target, m.score) for m in out} == {
            ("s", "t/1", 1.0), ("u", "t/1", 1 - 1 / 11)
        }
        # only "u" is blocked and scored
        assert funnel["exact_sources"] == 1
        assert funnel["blocked_pairs"] == 2 and funnel["distinct_tokens"] == 2
        assert funnel["ties_broken"] == 0

    def test_two_exact_targets_tie_to_the_smaller(self):
        funnel = {}
        out = align_lexical({"s": ["same name"]}, {"t/b": ["Same name"], "t/a": ["same-name"]},
                            funnel=funnel)
        assert list(out) == [Mapping("s", "t/a", 1.0, "levenshtein")]
        assert funnel["exact_sources"] == 1 and funnel["ties_broken"] == 1
        assert funnel["blocked_pairs"] == 0 and funnel["scored"] == 0

    def test_exact_match_through_second_labels(self):
        funnel = {}
        out = align_lexical(
            {"s": ["totally different", "Rasbora heteromorpha"]},
            {"t/1": ["Rasbora heteromorphus", "rasbora (heteromorpha)"], "t/0": ["Rasbora sp."]},
            funnel=funnel,
        )
        assert list(out) == [Mapping("s", "t/1", 1.0, "levenshtein")]
        assert funnel["exact_sources"] == 1 and funnel["blocked_pairs"] == 0

    def test_threshold_one_keeps_only_exact_forms(self):
        source = {"s": ["Danio rerio"], "u": ["Danio reri"]}
        target = {"t": ["Danio rerio"]}
        assert align_lexical(source, target, threshold=1.0).pairs() == {("s", "t")}

    @pytest.mark.parametrize("threshold", [1.0 + 1e-9, 1.5])
    def test_threshold_above_one_keeps_nothing(self, threshold):
        funnel = {}
        out = align_lexical({"s": ["Danio rerio"]}, {"t": ["Danio rerio"]}, threshold=threshold,
                            funnel=funnel)
        assert len(out) == 0
        assert funnel["exact_sources"] == 0 and funnel["scored"] == 0

    @pytest.mark.parametrize("threshold", [-3.0, 0.0])
    def test_threshold_at_or_below_zero_keeps_every_best_blocked_target(self, threshold):
        out = align_lexical({"s": ["abc def"]}, {"t": ["abc xyz"]}, threshold=threshold)
        assert out.pairs() == {("s", "t")}

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be a number"):
            align_lexical({"s": ["abc def"]}, {"t": ["abc xyz"]}, threshold=float("nan"))

    def test_planted_noise_recovered(self):
        # Binomial-style names: one edit hits one word, the other still
        # shares a token so blocking keeps the pair.
        rng = random.Random(41)

        def word():
            return "".join(rng.choice(string.ascii_lowercase) for _ in range(9))

        names = [f"{word()} {word()}" for _ in range(60)]
        source = {}
        target = {f"t/{i}": [name] for i, name in enumerate(names)}
        expected = set()
        for i, name in enumerate(names[:30]):
            noisy = list(name)
            pos = rng.randrange(len(noisy))
            if noisy[pos] != " ":
                noisy[pos] = rng.choice(string.ascii_lowercase.replace(noisy[pos], ""))
            source[f"s/{i}"] = ["".join(noisy)]
            expected.add((f"s/{i}", f"t/{i}"))
        out = align_lexical(source, target, threshold=0.8)
        hits = out.pairs() & expected
        assert len(hits) / len(expected) >= 0.95


def brute_force_alignment(source_labels, target_labels, threshold):
    """Score every form pair of every pair sharing a token; no pruning."""

    def forms(labels):
        out = []
        for label in labels:
            form = " ".join(normalize_label(label))
            if form and form not in out:
                out.append(form)
        return out

    def score(a, b):
        return 1.0 - helpers.dp_levenshtein(a, b) / max(len(a), len(b))

    best = {}
    for source, s_labels in source_labels.items():
        s_forms = forms(s_labels)
        s_tokens = {tok for f in s_forms for tok in f.split()}
        for target, t_labels in target_labels.items():
            t_forms = forms(t_labels)
            if not s_tokens & {tok for f in t_forms for tok in f.split()}:
                continue
            pair = max(score(sf, tf) for sf in s_forms for tf in t_forms)
            if pair >= threshold:
                best.setdefault(source, []).append((-pair, target))
    return {source: min(found) for source, found in best.items()}


def random_label_sets(rng):
    """Small vocabularies of near-identical words, so ties and exact
    threshold scores (one edit in five letters at 0.8) come up often."""
    roots = ["".join(rng.choice("abcd") for _ in range(5)) for _ in range(4)]

    def word():
        w = list(rng.choice(roots))
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            pos = rng.randrange(len(w))
            roll = rng.random()
            if roll < 0.5:
                w[pos] = rng.choice("abcdé")
            elif roll < 0.75:
                del w[pos]
            else:
                w.insert(pos, rng.choice("abcd"))
        return "".join(w) or "a"

    def labels():
        return [" ".join(word() for _ in range(rng.randrange(1, 3)))
                for _ in range(rng.randrange(1, 4))]

    source = {f"s/{i}": labels() for i in range(rng.randrange(1, 12))}
    target = {f"t/{i:02d}": labels() for i in range(rng.randrange(1, 12))}
    return source, target


# ASCII, Latin-1, Cyrillic and an astral lowercase letter (U+10428).
LANE_LETTERS = "ab\xe9\u0436\U00010428"
# Form lengths at both sides of lane width edges (lanes take whole bytes
# up to 64 bits); 64 and up take 128-bit lanes, whose counts add their bytes.
LANE_EDGE_LENGTHS = (7, 8, 15, 16, 23, 24, 31, 32, 47, 48, 63, 64, 65)


def lane_label_sets(rng):
    """Forms of one shared token and a word near one of the roots, one
    root per edge length, so forms land on both sides of every lane
    width; one form of one target is also a form of another. Edits
    favour the word's ends, where they move a lane's last row."""
    roots = ["".join(rng.choice(LANE_LETTERS) for _ in range(n - 3)) for n in LANE_EDGE_LENGTHS]

    def label():
        word = list(rng.choice(roots))
        for _ in range(rng.choice((0, 1, 1, 2))):
            pos = rng.choice((0, len(word) - 1, rng.randrange(len(word))))
            roll = rng.random()
            if roll < 0.4:
                word[pos] = rng.choice(LANE_LETTERS)
            elif roll < 0.7:
                del word[pos]
            else:
                word.insert(pos, rng.choice(LANE_LETTERS))
        return rng.choice(("ab", "cd")) + " " + "".join(word)

    def labels():
        return [label() for _ in range(rng.randrange(1, 3))]

    source = {f"s/{i}": labels() for i in range(rng.randrange(1, 6))}
    target = {f"t/{i}": labels() for i in range(rng.randrange(1, 8))}
    shared = rng.choice(rng.choice(list(target.values())))
    # sorts before or after every other target
    target[rng.choice(("t/", "t/~"))] = [shared, *labels()[1:]]
    return source, target


class TestLengthPruning:
    @given(st.randoms(use_true_random=False), st.sampled_from((0.0, 0.8, 1.0, 1.2)))
    @settings(max_examples=100, deadline=None)
    def test_equals_brute_force_across_lane_widths(self, rng, threshold):
        source, target = lane_label_sets(rng)
        got = align_lexical(source, target, threshold=threshold)
        expect = brute_force_alignment(source, target, threshold)
        assert {m.source: (-m.score, m.target) for m in got} == expect

    def test_equals_brute_force_on_random_label_sets(self):
        rng = random.Random(53)
        exact_threshold = ties = 0
        for _ in range(300):
            source, target = random_label_sets(rng)
            threshold = rng.choice((0.5, 0.6, 0.75, 0.8, 1.0))
            funnel = {}
            got = align_lexical(source, target, threshold=threshold, funnel=funnel)
            expect = brute_force_alignment(source, target, threshold)
            assert {m.source: (-m.score, m.target) for m in got} == expect
            exact_threshold += sum(-neg == threshold for neg, _ in expect.values())
            ties += funnel["ties_broken"]
        # the sets really exercise the boundary cases
        assert exact_threshold > 20 and ties > 20

    def test_exact_threshold_score_kept(self):
        # one edit over five characters scores exactly 0.8
        assert 1.0 - 1 / 5 == 0.8
        out = align_lexical({"s": ["ab cx"]}, {"t": ["ab cy"]}, threshold=0.8)
        assert out.get("s", "t").score == 0.8
        # shares the token, but its length bound is 1 - 5/10
        funnel = {}
        out = align_lexical({"s": ["ab cx"]}, {"u": ["ab cxyzwvu"]}, threshold=0.8, funnel=funnel)
        assert len(out) == 0
        assert funnel["length_pruned"] == 1 and funnel["scored"] == 0

    def test_equal_score_tie_counted_and_broken_to_smaller_target(self):
        funnel = {}
        out = align_lexical(
            {"s": ["ab cx"]},
            {"t/c": ["ab cy"], "t/a": ["ab cz"], "t/b": ["ab cxzz zz"]},
            threshold=0.8,
            funnel=funnel,
        )
        assert out.pairs() == {("s", "t/a")}
        assert out.get("s", "t/a").score == 0.8
        assert funnel == {"exact_sources": 0, "distinct_tokens": 2, "blocked_pairs": 3,
                          "form_pairs": 3, "length_pruned": 1, "scored": 2, "ties_broken": 1}

    def test_funnel_counts(self, monkeypatch):
        rng = random.Random(59)
        source, target = random_label_sets(rng)
        plain = align_lexical(source, target, threshold=0.6)
        packs = []
        real = align._pack
        monkeypatch.setattr(align, "_pack", lambda forms: packs.append(forms) or real(forms))
        funnel = {}
        counted = align_lexical(source, target, threshold=0.6, funnel=funnel)
        assert list(counted) == list(plain)
        assert sorted(funnel) == ["blocked_pairs", "distinct_tokens", "exact_sources",
                                  "form_pairs", "length_pruned", "scored", "ties_broken"]
        assert funnel["form_pairs"] == funnel["length_pruned"] + funnel["scored"]
        assert funnel["scored"] == sum(map(len, packs))
        assert all(forms == sorted(forms, key=len) for forms in packs)
        assert funnel["length_pruned"] > 0

    def test_funnel_is_deterministic(self):
        source, target = random_label_sets(random.Random(61))
        funnels = []
        for order in (1, -1):
            funnel = {}
            align_lexical(dict(list(source.items())[::order]),
                          dict(list(target.items())[::order]), threshold=0.6, funnel=funnel)
            funnels.append(funnel)
        assert funnels[0] == funnels[1]


class TestSetOperations:
    def a(self):
        return MappingSet(
            "m",
            [Mapping("s1", "t1", 1.0, "m"), Mapping("s2", "t2", 0.9, "m"),
             Mapping("s3", "t3", 0.8, "m")],
        )

    def b(self):
        return MappingSet(
            "m",
            [Mapping("s1", "t1", 0.6, "m"), Mapping("s2", "tX", 0.9, "m")],
        )

    def test_evaluate_recall(self):
        assert evaluate(self.a(), self.b()) == 0.5
        assert evaluate(self.a(), self.a()) == 1.0

    def test_evaluate_superset_is_one(self):
        small = MappingSet("m", [Mapping("s1", "t1", 1.0, "m")])
        assert evaluate(self.a(), small) == 1.0

    def test_evaluate_disjoint_is_zero(self):
        other = MappingSet("m", [Mapping("x", "y", 1.0, "m")])
        assert evaluate(self.a(), other) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            evaluate(self.a(), MappingSet())

    def test_disagreement_not_symmetric(self):
        assert disagreement(self.a(), self.b()) == 2
        assert disagreement(self.b(), self.a()) == 1

    def test_intersect_averages_scores(self):
        out = intersect(self.a(), self.b())
        assert out.pairs() == {("s1", "t1")}
        assert out.get("s1", "t1").score == pytest.approx(0.8)
        assert out.method == "consensus"

    def test_intersect_needs_two_sets(self):
        with pytest.raises(ValueError):
            intersect(self.a())

    def test_set_arithmetic_against_oracle(self):
        rng = random.Random(43)
        for _ in range(50):
            def rand_set():
                ms = MappingSet("m")
                for _ in range(rng.randrange(12)):
                    ms.add(Mapping(f"s{rng.randrange(8)}", f"t{rng.randrange(8)}", 1.0, "m"))
                return ms

            x, y = rand_set(), rand_set()
            if len(y):
                assert evaluate(x, y) == len(x.pairs() & y.pairs()) / len(y.pairs())
            assert disagreement(x, y) == len(x.pairs() - y.pairs())
            assert intersect(x, y).pairs() == (x.pairs() & y.pairs())


class TestInterchange:
    def test_write_read_round_trip(self):
        ms = MappingSet("m", [Mapping("s", "t", 0.875, "m")])
        again = align.read_mappings(align.write_mappings(ms))
        assert again.pairs() == ms.pairs()
        assert again.get("s", "t").score == 0.875
        assert again.method == "m"

    def test_mixed_methods_detected(self):
        text = "s\tt\t1.000000\tlex\ns2\tt2\t1.000000\tref\n"
        assert align.read_mappings(text).method == "mixed"

    def test_column_count_enforced(self):
        with pytest.raises(ValueError, match="line 1"):
            align.read_mappings("a\tb\tc\n")

    @pytest.mark.parametrize(("score", "message"), [
        ("x", "could not convert string to float: 'x'"),
        ("1.5", "score out of range: 1.5"),
    ])
    def test_bad_score_names_its_line(self, score, message):
        text = f"s\tt\t1.000000\tlex\n\ns2\tt2\t{score}\tlex\n"
        with pytest.raises(ValueError, match=f"^mappings line 3: {message}$"):
            align.read_mappings(text)

    def test_sameas_emission(self):
        ms = MappingSet("m", [Mapping("http://x.org/a", "http://y.org/b", 1.0, "m")])
        store = TripleStore()
        assert align.add_sameas(ms, store) == 1
        assert store.match(iri("http://x.org/a"), OWL_SAMEAS, iri("http://y.org/b"))

    def test_labels_by_prefix(self):
        store = TripleStore()
        store.add(Triple(iri("http://x.org/t/1"), RDFS_LABEL, literal("one")))
        store.add(Triple(iri("http://x.org/t/1"), RDFS_LABEL, literal("uno")))
        store.add(Triple(iri("http://y.org/t/2"), RDFS_LABEL, literal("two")))
        out = align.labels_by_prefix(store, "http://x.org/t/")
        assert out == {"http://x.org/t/1": ["one", "uno"]}
