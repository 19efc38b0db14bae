"""Metric verification against independent scratch implementations.

The oracles here recompute every metric from first principles (exhaustive
LCS recursion, explicit TF-IDF vectors, exhaustive alignment search) and
never share code with the implementations they check.
"""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from ormllm.errors import ContractError
from ormllm.metrics import (
    INVALID_TRIPLE,
    EvalCorpus,
    MetricReport,
    cider,
    em_at_1,
    meteor_simplified,
    normalize,
    parse_triples,
    rouge_l,
    sgg_corpus_prf,
)
from ormllm.scenegen import Triple

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_lcs(a, b):
    """Exhaustive recursion (exponential); only for short sequences."""
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + oracle_lcs(a[:-1], b[:-1])
    return max(oracle_lcs(a[:-1], b), oracle_lcs(a, b[:-1]))


def oracle_rouge(items, beta=1.2):
    scores = []
    for cand_text, refs in items:
        cand = normalize(cand_text)
        best = 0.0
        for rt in refs:
            ref = normalize(rt)
            lcs = oracle_lcs(cand, ref)
            if lcs == 0:
                continue
            r, p = lcs / len(ref), lcs / len(cand)
            best = max(best, (1 + beta**2) * r * p / (r + beta**2 * p))
        scores.append(best)
    return 100.0 * sum(scores) / len(scores)


def oracle_meteor_item(cand, ref):
    """Exhaustive alignment enumeration: all ways to injectively map the
    matched occurrences, scoring chunks directly."""
    shared = set(cand) & set(ref)
    counts = {w: min(cand.count(w), ref.count(w)) for w in shared}
    matches = sum(counts.values())
    if matches == 0:
        return 0.0
    cand_pos = {w: [i for i, x in enumerate(cand) if x == w] for w in shared}
    ref_pos = {w: [j for j, x in enumerate(ref) if x == w] for w in shared}
    words = sorted(shared)

    best_chunks = [matches]

    def enumerate_word(widx, pairs):
        if widx == len(words):
            pairs = sorted(pairs)
            chunks = 0
            prev = None
            for i, j in pairs:
                if prev is None or not (i == prev[0] + 1 and j == prev[1] + 1):
                    chunks += 1
                prev = (i, j)
            best_chunks[0] = min(best_chunks[0], chunks)
            return
        w = words[widx]
        m = counts[w]
        for csub in itertools.combinations(cand_pos[w], m):
            for rsub in itertools.permutations(ref_pos[w], m):
                enumerate_word(widx + 1, pairs + list(zip(csub, rsub)))

    enumerate_word(0, [])
    p = matches / len(cand)
    r = matches / len(ref)
    f_mean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (best_chunks[0] / matches) ** 3
    return f_mean * (1 - penalty)


def oracle_meteor(items):
    scores = []
    for cand_text, refs in items:
        cand = normalize(cand_text)
        best = 0.0
        for rt in refs:
            ref = normalize(rt)
            if cand and ref:
                best = max(best, oracle_meteor_item(cand, ref))
        scores.append(best)
    return 100.0 * sum(scores) / len(scores)


def oracle_cider(items):
    n_items = len(items)

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    total = 0.0
    for cand_text, refs in items:
        per_n = []
        for n in range(1, 5):
            df = Counter()
            for _, rs in items:
                grams = set()
                for rt in rs:
                    grams |= set(ngrams(normalize(rt), n))
                for g in grams:
                    df[g] += 1
            cand_tf = ngrams(normalize(cand_text), n)
            cv = {g: c * max(0.0, math.log(n_items / (1.0 + df[g])))
                  for g, c in cand_tf.items()}
            sims = []
            for rt in refs:
                rv = {g: c * max(0.0, math.log(n_items / (1.0 + df[g])))
                      for g, c in ngrams(normalize(rt), n).items()}
                na = math.sqrt(sum(x * x for x in cv.values()))
                nb = math.sqrt(sum(x * x for x in rv.values()))
                dot = sum(x * rv.get(g, 0.0) for g, x in cv.items())
                sims.append(dot / (na * nb) if na > 0 and nb > 0 else 0.0)
            per_n.append(sum(sims) / len(sims))
        total += 10.0 * sum(per_n) / 4
    return total / n_items


def oracle_sgg_prf(predicted, gold):
    """One sample's precision, recall and F1 percentages, counted triple by
    triple: a predicted triple is correct if it is gold and no earlier copy
    of it was counted."""
    counted, correct = [], 0
    for t in predicted:
        if t in gold and t not in counted:
            counted.append(t)
            correct += 1
    if not predicted and not gold:
        return 100.0, 100.0, 100.0
    p = 100.0 * correct / len(predicted) if predicted else 0.0
    r = 100.0 * correct / len(gold) if gold else 100.0
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def random_corpus(rng, n_items, vocab=("the", "a", "table", "patient", "on",
                                       "left", "of", "near", "lies", "room")):
    items = []
    for _ in range(n_items):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        refs = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 3))]
        items.append((cand, refs))
    return items


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_examples():
    assert normalize("The Patient, lies.") == ["the", "patient", "lies"]
    assert normalize("") == []


def test_normalize_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        text = " ".join(rng.choice(["The", "patient,", "LIES.", "on!", "table?"])
                        for _ in range(rng.randint(0, 6)))
        once = normalize(text)
        assert normalize(" ".join(once)) == once


# ---------------------------------------------------------------------------
# rouge
# ---------------------------------------------------------------------------


def test_rouge_identical_is_100():
    assert rouge_l([("the patient lies", ["the patient lies"])]) == 100.0


def test_rouge_hand_case():
    items = [("the patient lies on table", ["the patient is on the table"])]
    got = rouge_l(items)
    # Hand DP: LCS=4, R=4/6, P=4/5, F = 2.44*R*P/(R+1.44*P).
    r, p = 4 / 6, 4 / 5
    want = 100 * (2.44 * r * p) / (r + 1.44 * p)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert abs(got / 100 - 0.7156) < 1e-3


def test_rouge_disjoint_zero():
    assert rouge_l([("aa bb", ["cc dd"])]) == 0.0


def test_rouge_matches_oracle_random():
    rng = random.Random(1)
    for _ in range(25):
        items = random_corpus(rng, rng.randint(1, 6))
        np.testing.assert_allclose(rouge_l(items), oracle_rouge(items), atol=1e-9)


# ---------------------------------------------------------------------------
# meteor
# ---------------------------------------------------------------------------


def test_meteor_identical_four_tokens():
    got = meteor_simplified([("a b c d", ["a b c d"])])
    np.testing.assert_allclose(got, 100 * (1 - 0.5 / 64), atol=1e-9)


def test_meteor_single_word_identical_is_50():
    assert meteor_simplified([("yes", ["yes"])]) == 50.0


def test_meteor_zero_overlap():
    assert meteor_simplified([("aa bb", ["cc dd"])]) == 0.0


def test_meteor_matches_oracle_random():
    rng = random.Random(2)
    for _ in range(25):
        items = random_corpus(rng, rng.randint(1, 5))
        np.testing.assert_allclose(
            meteor_simplified(items), oracle_meteor(items), atol=1e-9
        )


def test_meteor_repeated_words_minimal_chunks():
    # 'the' repeats; exact search must find the single-chunk alignment.
    items = [("the cat the mat", ["the cat the mat"])]
    np.testing.assert_allclose(
        meteor_simplified(items), 100 * (1 - 0.5 * (1 / 4) ** 3), atol=1e-9
    )


# ---------------------------------------------------------------------------
# cider
# ---------------------------------------------------------------------------


def test_cider_requires_two_items():
    with pytest.raises(ContractError):
        cider([("a", ["a"])])


def test_cider_range_and_disjoint():
    items = [("xx yy", ["aa bb"]), ("zz", ["ww"])]
    score = cider(items)
    assert score == 0.0


def test_cider_identical_candidate_matches_oracle():
    items = [
        ("the patient lies on the table", ["the patient lies on the table"]),
        ("the nurse is near the tray", ["the nurse stands by the tray"]),
    ]
    np.testing.assert_allclose(cider(items), oracle_cider(items), atol=1e-9)


def test_cider_matches_oracle_random():
    rng = random.Random(3)
    for _ in range(20):
        items = random_corpus(rng, rng.randint(2, 7))
        np.testing.assert_allclose(cider(items), oracle_cider(items), atol=1e-9)
        assert 0.0 <= cider(items) <= 10.0


def test_metrics_permutation_invariant():
    rng = random.Random(4)
    items = random_corpus(rng, 6)
    shuffled = items[::-1]
    np.testing.assert_allclose(rouge_l(items), rouge_l(shuffled), atol=1e-12)
    np.testing.assert_allclose(meteor_simplified(items), meteor_simplified(shuffled),
                               atol=1e-12)
    np.testing.assert_allclose(cider(items), cider(shuffled), atol=1e-12)
    np.testing.assert_allclose(em_at_1(items), em_at_1(shuffled), atol=1e-12)


# ---------------------------------------------------------------------------
# em@1
# ---------------------------------------------------------------------------


def test_em_normalization_match():
    assert em_at_1([("ON TOP OF the table.", ["on top of the table"])]) == 100.0


def test_em_extra_token_no_match():
    assert em_at_1([("on top of the table now", ["on top of the table"])]) == 0.0


def test_em_empty_candidate_no_match():
    assert em_at_1([("", ["yes"])]) == 0.0


def test_em_multiple_references():
    assert em_at_1([("behind", ["next to", "behind"])]) == 100.0


# ---------------------------------------------------------------------------
# scene-graph scoring
# ---------------------------------------------------------------------------


T1 = Triple("patient", "on_top_of", "operating_table")
T2 = Triple("nurse", "next_to", "instrument_tray")
T3 = Triple("surgeon", "left_of", "monitor")
T4 = Triple("monitor", "behind", "nurse")
WRONG = Triple("surgeon", "holding", "instrument_tray")


def sgg_pair_prf(predicted, gold):
    return sgg_corpus_prf([(predicted, gold)])


def test_sgg_exact_match_100():
    assert sgg_pair_prf([T1, T2], {T1, T2}) == (100.0, 100.0, 100.0)


def test_sgg_one_wrong_of_five():
    gold = {T1, T2, T3, T4}
    p, r, f1 = sgg_pair_prf([T1, T2, T3, T4, WRONG], gold)
    assert p == 80.0 and r == 100.0
    np.testing.assert_allclose(f1, 2 * 80 * 100 / 180, atol=1e-9)


def test_sgg_empty_predictions():
    assert sgg_pair_prf([], {T1}) == (0.0, 0.0, 0.0)
    assert sgg_pair_prf([], set()) == (100.0, 100.0, 100.0)
    assert sgg_pair_prf([T1], set()) == (0.0, 100.0, 0.0)


def test_sgg_duplicates_count_against_precision():
    p, r, f1 = sgg_pair_prf([T1, T1], {T1})
    assert p == 50.0 and r == 100.0


def test_sgg_corpus_micro():
    items = [([T1], {T1}), ([T2, WRONG], {T2, T3})]
    p, r, f1 = sgg_corpus_prf(items)
    # correct 2, predicted 3, gold 3
    np.testing.assert_allclose(p, 200 / 3, atol=1e-9)
    np.testing.assert_allclose(r, 200 / 3, atol=1e-9)


def test_sgg_matches_oracle_random():
    rng = random.Random(5)
    pool = [T1, T2, T3, T4, WRONG]
    items = []
    for _ in range(200):
        predicted = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        gold = set(rng.sample(pool, rng.randint(0, 4)))
        assert sgg_pair_prf(predicted, gold) == oracle_sgg_prf(predicted, gold)
        items.append((predicted, gold))
    # Micro averaging pools the counts: the corpus score of many pairs is
    # the one-pair score of their concatenation once each pair's triples
    # are told apart.
    tagged = [([(i, t) for t in pred], {(i, t) for t in gold})
              for i, (pred, gold) in enumerate(items)]
    pooled = ([t for pred, _ in tagged for t in pred],
              set().union(*(gold for _, gold in tagged)))
    assert sgg_corpus_prf(items) == pytest.approx(oracle_sgg_prf(*pooled), abs=1e-9)


T2_INVERSE = Triple("instrument_tray", "next_to", "nurse")


def test_parse_triples_grammar():
    parsed = parse_triples(
        "patient operating_table on_top_of; nurse instrument_tray next_to"
    )
    assert parsed == [T1, T2, T2_INVERSE]
    spaced = parse_triples(
        "  patient   operating_table on_top_of ;nurse instrument_tray  next_to "
    )
    assert spaced == [T1, T2, T2_INVERSE]


def test_parse_triples_garbage_counts_as_incorrect():
    parsed = parse_triples("garbage segment")
    assert len(parsed) == 1
    assert sgg_pair_prf(parsed, {T1}) == (0.0, 0.0, 0.0)
    assert parse_triples("") == []
    mixed = parse_triples("patient operating_table on_top_of; zebra moon flies")
    assert len(mixed) == 2
    p, r, _ = sgg_pair_prf(mixed, {T1})
    assert p == 50.0 and r == 100.0


def test_parse_triples_trailing_separator():
    assert parse_triples("patient operating_table on_top_of;") == [T1]


def test_parse_triples_compact_form_adds_inverses():
    parsed = parse_triples("patient operating_table on_top_of ; "
                           "nurse instrument_tray next_to left_of behind ;")
    assert parsed == [
        T1,
        T2, Triple("instrument_tray", "next_to", "nurse"),
        Triple("nurse", "left_of", "instrument_tray"),
        Triple("instrument_tray", "right_of", "nurse"),
        Triple("nurse", "behind", "instrument_tray"),
        Triple("instrument_tray", "in_front_of", "nurse"),
    ]
    # The last segment needs no ';'; each malformed segment is one invalid
    # prediction, and a blank one is dropped.
    assert parse_triples("patient operating_table on_top_of") == [T1]
    bad = parse_triples("patient on_top_of ; patient nurse zebra ; ; nurse ;")
    assert len(bad) == 3 and T1 not in bad
    p, r, _ = sgg_pair_prf(parse_triples("patient operating_table on_top_of ; zebra"), {T1})
    assert p == 50.0 and r == 100.0


def test_parse_triples_a_stray_pipe_is_one_invalid_segment():
    # '|' is a vocabulary word but no grammar: it spoils its own segment only.
    assert parse_triples("operating_table patient left_of ; |") == [
        Triple("operating_table", "left_of", "patient"),
        Triple("patient", "right_of", "operating_table"),
        INVALID_TRIPLE,
    ]
    assert parse_triples("patient operating_table on_top_of ; nurse | next_to | "
                         "instrument_tray") == [T1, INVALID_TRIPLE]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_bounds_enforced():
    with pytest.raises(ContractError):
        MetricReport(rouge_l=120.0)
    with pytest.raises(ContractError):
        MetricReport(cider=11.0)


def test_report_text_contains_requested_fields_only():
    text = MetricReport(rouge_l=50.0, em_at_1=25.0,
                        counts={"qa_items": 4}).to_text()
    assert "rouge_l\t50.000000" in text
    assert "em_at_1\t25.000000" in text
    assert "sgg_p" not in text
    assert "rouge_beta = 1.2" in text


def test_corpus_requires_references():
    with pytest.raises(ContractError):
        EvalCorpus(items=[("a", [])])
