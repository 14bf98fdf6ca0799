"""Context-free description grammar: parsing, sampling, scoring, membership.

Grammar files are line oriented::

    <sentence> ::= <agent> <verb> | <agent> waves
    <agent>    ::= the robot | he | [old] baltazar

``<name>`` references another rule, ``|`` separates alternatives and
``[...]`` wraps an optional group (included with probability 1/2 while
sampling).  Rule references must form an acyclic graph, which makes the
language of every rule a finite set of word sequences; this is what the
membership checker, the exact k-best search and the exhaustive tests rely
on.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
import re
from dataclasses import dataclass
from importlib import resources

PROB_FLOOR = 1e-12
# A log-probability sum that beats another by more than this beats it after
# any rounding of the final score too; ``kbest`` keeps closer candidates.
TIE_MARGIN = 1e-9

__all__ = [
    "GrammarError",
    "Grammar",
    "Sentence",
    "NBestList",
    "load_grammar",
    "default_grammar",
    "generate_sentences",
    "score_sentence",
    "nbest",
    "kbest",
    "derivable",
]


class GrammarError(ValueError):
    """Malformed grammar text, unknown nonterminal or out-of-vocabulary word."""


@dataclass(frozen=True)
class Ref:
    """Reference to another rule, written ``<name>``."""

    name: str


@dataclass(frozen=True)
class Opt:
    """Optional group of items, written ``[...]``."""

    items: tuple


@dataclass(frozen=True)
class Sentence:
    """A nonempty sequence of terminal words."""

    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise GrammarError("a sentence must contain at least one word")

    @classmethod
    def from_text(cls, text: str) -> "Sentence":
        return cls(tuple(text.split()))

    @property
    def text(self) -> str:
        return " ".join(self.words)


@dataclass(frozen=True)
class Grammar:
    """Parsed rules plus the terminal vocabulary in first-appearance order."""

    rules: dict[str, tuple[tuple, ...]]
    start: str
    vocabulary: tuple[str, ...]


@dataclass(frozen=True)
class NBestList:
    """Deduplicated sentences sorted by descending score.

    ``n_generated`` counts the sentences sampled (``nbest``) or the distinct
    candidates rescored (``kbest``) before the cut.
    """

    entries: tuple[tuple[Sentence, float], ...]
    n_generated: int

    @property
    def kept(self) -> int:
        return len(self.entries)


_NAME_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_'-]*)>")
# A token after any whitespace: a rule reference, a word, a bracket or bar, or
# a bad token (a '<' that no '>' follows, or any other character).
_TOKEN_RE = re.compile(r"\s*(?:(<[^>]*>)|([A-Za-z][A-Za-z'-]*)|([][|])|(\S))")


def _parse_rhs(rhs: str, lineno: int) -> tuple[tuple, ...]:
    alternatives: list[list] = [[]]
    groups = [alternatives[0]]  # the alternative, then each open optional group
    faults = []  # bracket and bar faults; after one, only a bad token matters
    for ref, word, symbol, bad in _TOKEN_RE.findall(rhs):
        if bad == "<":
            raise GrammarError(f"line {lineno}: unterminated '<'")
        if bad:
            raise GrammarError(f"line {lineno}: unexpected character {bad!r}")
        if ref:
            if not (name := ref[1:-1].strip()):
                raise GrammarError(f"line {lineno}: empty nonterminal name")
            groups[-1].append(Ref(name))
        elif word:
            groups[-1].append(word)
        elif symbol == "[":
            groups.append([])
        elif symbol == "]":
            if len(groups) == 1:
                faults.append("unmatched ']'")
            elif not groups[-1]:
                faults.append("empty optional group")
            else:
                group = tuple(groups.pop())
                groups[-1].append(Opt(group))
        elif symbol == "|":
            if len(groups) > 1:
                faults.append("'|' inside an optional group")
            alternatives.append([])
            groups = [alternatives[-1]]
    if len(groups) > 1:
        faults.append("unmatched '['")
    if not all(alternatives):
        faults.append("empty alternative")
    if faults:
        raise GrammarError(f"line {lineno}: {faults[0]}")
    return tuple(map(tuple, alternatives))


def _leaves(items):
    """The words and rule references of ``items`` in order, with every
    optional group opened."""
    for item in items:
        if isinstance(item, Opt):
            yield from _leaves(item.items)
        else:
            yield item


def _check_rules(rules: dict[str, tuple]) -> None:
    referenced = {
        name: [leaf.name for alt in alts for leaf in _leaves(alt) if isinstance(leaf, Ref)]
        for name, alts in rules.items()
    }
    for name, refs in referenced.items():
        for ref in refs:
            if ref not in rules:
                raise GrammarError(f"undefined nonterminal <{ref}> referenced from <{name}>")
    # Acyclic reference graph guarantees a finite language.
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(name: str) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            raise GrammarError(f"recursive rule <{name}> is not supported")
        state[name] = 1
        for ref in referenced[name]:
            visit(ref)
        state[name] = 2

    for name in rules:
        visit(name)


def load_grammar(text: str) -> Grammar:
    """Parse grammar text; the first rule's left-hand side is the start symbol."""
    rules: dict[str, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "::=" not in line:
            raise GrammarError(f"line {lineno}: expected '::=' in rule")
        lhs, rhs = line.split("::=", 1)
        m = _NAME_RE.fullmatch(lhs.strip())
        if m is None:
            raise GrammarError(f"line {lineno}: rule name must look like <name>")
        name = m.group(1)
        if name in rules:
            raise GrammarError(f"line {lineno}: duplicate rule <{name}>")
        rules[name] = _parse_rhs(rhs, lineno)
    if not rules:
        raise GrammarError("grammar has no rules")
    _check_rules(rules)
    leaves = (leaf for alts in rules.values() for alt in alts for leaf in _leaves(alt))
    # the words in first-appearance order: the schema's word order
    vocab = dict.fromkeys(leaf for leaf in leaves if isinstance(leaf, str))
    start = next(iter(rules))
    return Grammar(rules=rules, start=start, vocabulary=tuple(vocab))


@functools.cache
def default_grammar() -> Grammar:
    """The description grammar bundled with the package (49 terminal words)."""
    text = resources.files(__package__).joinpath("data/grammar.txt").read_text("utf-8")
    return load_grammar(text)


def _expand(grammar: Grammar, items, rng: random.Random, out: list[str]) -> None:
    for item in items:
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Ref):
            alternatives = grammar.rules[item.name]
            choice = alternatives[rng.randrange(len(alternatives))]
            _expand(grammar, choice, rng, out)
        else:  # Opt
            if rng.random() < 0.5:
                _expand(grammar, item.items, rng, out)


def generate_sentences(grammar: Grammar, n: int, seed: int) -> list[Sentence]:
    """Sample ``n`` sentences top-down.

    Alternatives are chosen uniformly and optional groups included with
    probability 1/2, so repeated calls with the same seed return the same
    list.  Duplicates are possible; ``nbest`` deduplicates.
    """
    if n < 1:
        raise GrammarError("n must be >= 1")
    rng = random.Random(seed)
    sentences = []
    for _ in range(n):
        words: list[str] = []
        _expand(grammar, (Ref(grammar.start),), rng, words)
        if not words:
            raise GrammarError("grammar produced an empty sentence")
        sentences.append(Sentence(tuple(words)))
    return sentences


def score_sentence(sentence: Sentence, word_probs: dict[str, float]) -> float:
    """Mean log word probability, with probabilities floored at 1e-12.

    The floor keeps the ranking total when a model assigns an exact zero.
    The logs are summed with ``math.fsum``, which rounds the exact sum once,
    so sentences that permute the same words score the same.
    """
    return math.fsum(_word_log(w, word_probs) for w in sentence.words) / len(sentence.words)


def _word_log(word: str, word_probs: dict[str, float]) -> float:
    """The log of ``word``'s probability, floored at ``PROB_FLOOR``."""
    if word not in word_probs:
        raise GrammarError(f"word {word!r} is outside the scoring vocabulary")
    return math.log(max(word_probs[word], PROB_FLOOR))


def nbest(
    grammar: Grammar,
    word_probs: dict[str, float],
    n: int,
    k: int,
    seed: int,
) -> NBestList:
    """Generate ``n`` candidates, deduplicate, score, and keep the top ``k``.

    Ties are broken lexicographically on the word sequence.
    """
    if not n >= k >= 1:
        raise GrammarError("need n >= k >= 1")
    unique: dict[tuple[str, ...], Sentence] = {}
    for sentence in generate_sentences(grammar, n, seed):
        unique.setdefault(sentence.words, sentence)
    scored = [(s, score_sentence(s, word_probs)) for s in unique.values()]
    scored.sort(key=lambda entry: _ranked(*entry))
    return NBestList(entries=tuple(scored[:k]), n_generated=n)


def _ranked(sentence: Sentence, score: float):
    """``nbest``'s order: descending score, then the word sequence."""
    return (-score, sentence.words)


# Every finite double is a whole multiple of 2**-1074.
_EXACT_UNIT = 1 << 1074


def _exact(x: float) -> int:
    """``x`` as an exact integer count of 2**-1074."""
    num, den = x.as_integer_ratio()
    return num * (_EXACT_UNIT // den)


_EXACT_MARGIN = _exact(TIE_MARGIN)


# Candidate word sequences by length, each with its exact log-probability sum.
_ByLength = dict[int, dict[tuple[str, ...], int]]


def _cut(candidates: dict[tuple[str, ...], int], k: int) -> dict[tuple[str, ...], int]:
    """Every candidate that fewer than ``k`` others surely outrank.

    ``candidates`` maps a word sequence to its exact log-probability sum; all
    share one length.  Another sequence surely outranks a candidate, in any
    context the grammar puts both in, when its sum is larger by more than
    ``TIE_MARGIN`` (no rounding of the final score can undo that) or equal
    with the sequence first in lexicographic order.  Everything else stays.
    """
    if len(candidates) <= k:
        return candidates
    # below this floor the k best outrank a candidate by more than the margin
    floor = heapq.nlargest(k, candidates.values())[-1] - _EXACT_MARGIN
    near = [c for c in candidates.items() if c[1] >= floor]
    ranked = sorted(near, key=lambda c: (-c[1], c[0]))
    kept = {}
    above = 0  # candidates whose sum beats the current one by over the margin
    tie_start = 0  # first candidate whose sum equals the current one
    for i, (words, total) in enumerate(ranked):
        while ranked[above][1] > total + _EXACT_MARGIN:
            above += 1
        if total != ranked[tie_start][1]:
            tie_start = i
        if above >= k:
            break
        if above + i - tie_start < k:
            kept[words] = total
    return kept


def kbest(grammar: Grammar, word_probs: dict[str, float], k: int) -> NBestList:
    """The ``k`` best sentences of the grammar's whole language, exactly.

    Equal to scoring every derivable sentence with ``score_sentence`` and
    ranking with ``nbest``'s rule.  The score is a mean, so at a fixed
    length it is a sum: a dynamic program over (rule, length) keeps the
    ``k`` best distinct word sequences per length, which suffices because
    swapping a part for a distinct better one of the same length yields a
    distinct better sentence (k-best derivations; Huang & Chiang 2005).  The
    rules are acyclic, so the program is finite.  Sums are kept exact as
    integers, so summation order cannot reorder candidates; the survivors
    of every length are rescored with ``score_sentence`` and merged.
    """
    if k < 1:
        raise GrammarError("need k >= 1")
    rules: dict[str, _ByLength] = {}

    def item(it) -> _ByLength:
        if isinstance(it, str):
            return {1: {(it,): _exact(_word_log(it, word_probs))}}
        if isinstance(it, Opt):
            return {**sequence(it.items), 0: {(): 0}}
        if it.name not in rules:
            merged: _ByLength = {}
            for alt in grammar.rules[it.name]:
                for length, cands in sequence(alt).items():
                    merged.setdefault(length, {}).update(cands)
            rules[it.name] = {n: _cut(c, k) for n, c in merged.items()}
        return rules[it.name]

    def sequence(items) -> _ByLength:
        current: _ByLength = {0: {(): 0}}
        for it in items:
            right = item(it)
            joined: _ByLength = {}
            for n1, left_cands in current.items():
                for n2, right_cands in right.items():
                    into = joined.setdefault(n1 + n2, {})
                    for w1, s1 in left_cands.items():
                        for w2, s2 in right_cands.items():
                            into[w1 + w2] = s1 + s2
            current = {n: _cut(c, k) for n, c in joined.items()}
        return current

    sentences = [
        Sentence(words)
        for length, cands in item(Ref(grammar.start)).items()
        if length
        for words in cands
    ]
    if not sentences:
        raise GrammarError("grammar produced an empty sentence")
    scored = [(s, score_sentence(s, word_probs)) for s in sentences]
    scored.sort(key=lambda entry: _ranked(*entry))
    return NBestList(entries=tuple(scored[:k]), n_generated=len(scored))


def derivable(grammar: Grammar, sentence) -> bool:
    """True iff the word sequence is in the grammar's (finite) language."""
    if isinstance(sentence, Sentence):
        words = sentence.words
    elif isinstance(sentence, str):
        words = tuple(sentence.split())
    else:
        words = tuple(sentence)
    if not words:
        return False

    @functools.cache
    def ends(name: str, pos: int) -> frozenset[int]:
        """Where a match of rule ``name`` starting at ``pos`` can end."""
        return frozenset().union(*(sequence(alt, {pos}) for alt in grammar.rules[name]))

    def sequence(items, starts: set[int]) -> set[int]:
        """Where a match of ``items`` starting at any of ``starts`` can end."""
        for item in items:
            if isinstance(item, str):
                starts = {p + 1 for p in starts if p < len(words) and words[p] == item}
            elif isinstance(item, Ref):
                starts = {end for p in starts for end in ends(item.name, p)}
            else:
                starts = starts | sequence(item.items, starts)
        return starts

    return len(words) in ends(grammar.start, 0)
