"""Text and scene-graph evaluation metrics.

All text metrics operate on normalized token lists (lowercase, punctuation
stripped, whitespace split). METEOR is the simplified exact-match form:
no stemming or synonym modules, so scores are not comparable with
implementations that use them, and reports label the metric accordingly.
CIDEr is the plain TF-IDF n-gram consensus without length penalties.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass, field

from .errors import ContractError
from .scenegen import CLASS_NAMES, INVERSE, PREDICATES, Triple

ROUGE_BETA = 1.2
CIDER_MAX_N = 4
INVALID_TRIPLE = Triple("<invalid>", "<invalid>", "<invalid>")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


@dataclass
class EvalCorpus:
    """Candidate/reference pairs; every item needs at least one reference."""

    items: list[tuple[str, list[str]]]

    def __post_init__(self):
        for i, (_, refs) in enumerate(self.items):
            if len(refs) < 1:
                raise ContractError(f"corpus item {i} has no references")

    def __len__(self) -> int:
        return len(self.items)


def normalize(text: str) -> list[str]:
    """Lowercase, strip punctuation characters, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def _as_corpus(corpus) -> EvalCorpus:
    if isinstance(corpus, EvalCorpus):
        return corpus
    return EvalCorpus(items=list(corpus))


def lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(corpus, beta: float = ROUGE_BETA) -> float:
    """Mean best-reference LCS F-score, scaled to a percentage."""
    corpus = _as_corpus(corpus)
    if len(corpus) == 0:
        raise ContractError("rouge_l needs a non-empty corpus")
    total = 0.0
    for cand_text, refs in corpus.items:
        cand = normalize(cand_text)
        best = 0.0
        for ref_text in refs:
            ref = normalize(ref_text)
            if not cand and not ref:
                continue  # scores 0 by convention
            lcs = lcs_length(cand, ref)
            if lcs == 0:
                continue
            r = lcs / len(ref)
            p = lcs / len(cand)
            f = (1 + beta**2) * r * p / (r + beta**2 * p)
            best = max(best, f)
        total += best
    return 100.0 * total / len(corpus)


def _meteor_chunks(cand: list[str], ref: list[str]) -> tuple[int, int]:
    """Exact alignment: maximal match count, then the minimal chunk count
    over all maximal alignments, found by branch-and-bound over occurrence
    assignments."""
    counts = {w: min(c, Counter(ref)[w]) for w, c in Counter(cand).items()
              if w in set(ref)}
    matches = sum(counts.values())
    if matches == 0:
        return 0, 0
    ref_pos: dict[str, list[int]] = {}
    for j, w in enumerate(ref):
        ref_pos.setdefault(w, []).append(j)
    cand_slots = [(i, w) for i, w in enumerate(cand) if counts.get(w, 0) > 0]

    best = [matches]  # upper bound: every match its own chunk

    def search(slot_idx: int, remaining: dict[str, int], used_ref: set[int],
               prev: tuple[int, int] | None, chunks: int, left: int):
        if chunks >= best[0]:
            return
        if left == 0:
            best[0] = chunks
            return
        if slot_idx >= len(cand_slots):
            return
        i, w = cand_slots[slot_idx]
        need = remaining.get(w, 0)
        # Option 1: match this occurrence against each free ref position.
        if need > 0:
            for j in ref_pos[w]:
                if j in used_ref:
                    continue
                adjacent = prev is not None and prev[0] == i - 1 and prev[1] == j - 1
                remaining[w] = need - 1
                used_ref.add(j)
                search(slot_idx + 1, remaining, used_ref, (i, j),
                       chunks if adjacent else chunks + 1, left - 1)
                used_ref.discard(j)
                remaining[w] = need
        # Option 2: skip, if enough later occurrences of w remain.
        later = sum(1 for i2, w2 in cand_slots[slot_idx + 1 :] if w2 == w)
        if later >= need:
            search(slot_idx + 1, remaining, used_ref, prev, chunks, left)

    search(0, dict(counts), set(), None, 0, matches)
    return matches, best[0]


def meteor_simplified(corpus) -> float:
    """Exact-unigram METEOR: F_mean = 10PR/(R+9P), fragmentation penalty
    0.5*(chunks/matches)^3, best reference per item, as a percentage."""
    corpus = _as_corpus(corpus)
    if len(corpus) == 0:
        raise ContractError("meteor needs a non-empty corpus")
    total = 0.0
    for cand_text, refs in corpus.items:
        cand = normalize(cand_text)
        best = 0.0
        for ref_text in refs:
            ref = normalize(ref_text)
            if not cand or not ref:
                continue
            matches, chunks = _meteor_chunks(cand, ref)
            if matches == 0:
                continue
            p = matches / len(cand)
            r = matches / len(ref)
            f_mean = 10.0 * p * r / (r + 9.0 * p)
            penalty = 0.5 * (chunks / matches) ** 3
            best = max(best, f_mean * (1.0 - penalty))
        total += best
    return 100.0 * total / len(corpus)


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def cider(corpus) -> float:
    """TF-IDF weighted n-gram cosine consensus, n = 1..4, in [0, 10].

    IDF = max(0, log(|corpus| / (1 + number of items whose references
    contain the n-gram))). Per n, the candidate vector is compared with
    each reference vector by cosine and averaged over references; the item
    score is 10 times the mean over n; the corpus score is the item mean.
    """
    corpus = _as_corpus(corpus)
    if len(corpus) < 2:
        raise ContractError("cider needs at least 2 items to estimate IDF")
    n_items = len(corpus)
    doc_freq: list[Counter] = [Counter() for _ in range(CIDER_MAX_N)]
    for _, refs in corpus.items:
        for n in range(1, CIDER_MAX_N + 1):
            grams = set()
            for ref_text in refs:
                grams |= set(_ngram_counts(normalize(ref_text), n))
            for g in grams:
                doc_freq[n - 1][g] += 1

    def idf(n: int, gram) -> float:
        return max(0.0, math.log(n_items / (1.0 + doc_freq[n - 1][gram])))

    def vec(tokens: list[str], n: int) -> dict:
        return {g: c * idf(n, g) for g, c in _ngram_counts(tokens, n).items()}

    def cosine(a: dict, b: dict) -> float:
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        if na == 0.0 or nb == 0.0:
            return 0.0
        dot = sum(v * b[g] for g, v in a.items() if g in b)
        return dot / (na * nb)

    total = 0.0
    for cand_text, refs in corpus.items:
        cand = normalize(cand_text)
        per_n = []
        for n in range(1, CIDER_MAX_N + 1):
            cv = vec(cand, n)
            sims = [cosine(cv, vec(normalize(r), n)) for r in refs]
            per_n.append(sum(sims) / len(sims))
        total += 10.0 * sum(per_n) / CIDER_MAX_N
    return total / n_items


def em_at_1(corpus) -> float:
    """Share of candidates exactly matching any reference after
    normalization, as a percentage."""
    corpus = _as_corpus(corpus)
    if len(corpus) == 0:
        raise ContractError("em_at_1 needs a non-empty corpus")
    hits = sum(
        1
        for cand, refs in corpus.items
        if any(normalize(cand) == normalize(r) for r in refs)
    )
    return 100.0 * hits / len(corpus)


def parse_triples(answer_text: str) -> list[Triple]:
    """Parses a decoded scene graph whose segments end at ';'.

    The compact form of scenegen.triples_to_text has segments 'subject
    object predicate ...': each predicate gives its triple and, if it has
    one, the INVERSE triple, so a gold graph's text gives back exactly the
    gold set. A malformed or out-of-vocabulary segment is one invalid
    prediction, so it still counts against precision; blank segments are
    dropped."""
    out: list[Triple] = []
    for segment in answer_text.split(";"):
        if not segment.strip():
            continue
        words = segment.split()
        if not (len(words) >= 3 and words[0] in CLASS_NAMES and words[1] in CLASS_NAMES
                and all(p in PREDICATES for p in words[2:])):
            out.append(INVALID_TRIPLE)
            continue
        subject, obj = words[:2]
        for predicate in words[2:]:
            out.append(Triple(subject, predicate, obj))
            if predicate in INVERSE:
                out.append(Triple(obj, INVERSE[predicate], subject))
    return out


def sgg_corpus_prf(items: list[tuple[list[Triple], set[Triple]]]) -> tuple[float, float, float]:
    """Micro-averaged precision, recall and F1 percentages over (predicted
    multiset, gold set) pairs. Copies beyond the first of a correct triple
    count as incorrect. With nothing predicted and nothing gold all three
    are 100; with no gold, recall is 100."""
    c = p = g = 0
    for predicted, gold in items:
        c += len(set(predicted) & set(gold))
        p += len(predicted)
        g += len(gold)
    if p == 0 and g == 0:
        return 100.0, 100.0, 100.0
    precision = 100.0 * c / p if p else 0.0
    recall = 100.0 * c / g if g else 100.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return precision, recall, f1


@dataclass
class MetricReport:
    """Per-task scores plus the config echo that fixes their meaning."""

    rouge_l: float | None = None
    meteor: float | None = None
    cider: float | None = None
    em_at_1: float | None = None
    sgg_p: float | None = None
    sgg_r: float | None = None
    sgg_f1: float | None = None
    counts: dict = field(default_factory=dict)
    config_echo: list[str] = field(default_factory=list)

    METRIC_FIELDS = ("rouge_l", "meteor", "cider", "em_at_1",
                     "sgg_p", "sgg_r", "sgg_f1")

    def __post_init__(self):
        for name in ("rouge_l", "meteor", "em_at_1", "sgg_p", "sgg_r", "sgg_f1"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 100.0:
                raise ContractError(f"{name}={v} outside [0, 100]")
        if self.cider is not None and not 0.0 <= self.cider <= 10.0:
            raise ContractError(f"cider={self.cider} outside [0, 10]")

    def to_text(self) -> str:
        lines = ["metric\tvalue"]
        for name in self.METRIC_FIELDS:
            v = getattr(self, name)
            if v is not None:
                lines.append(f"{name}\t{format(v, '.6f')}")
        for k in sorted(self.counts):
            lines.append(f"count.{k}\t{self.counts[k]}")
        lines.append("")
        lines.append("# metric config")
        lines.append(f"# rouge_beta = {ROUGE_BETA}")
        lines.append(f"# cider_ngrams = 1..{CIDER_MAX_N}")
        lines.append("# meteor = simplified (exact unigram match, no stem/synonym)")
        lines.append("# normalization = lowercase, strip punctuation, split whitespace")
        lines.append("# sgg_duplicates = first copy scored, extras incorrect")
        lines.append("# sgg_aggregation = micro over samples")
        for line in self.config_echo:
            lines.append(f"# {line}")
        return "\n".join(lines) + "\n"
