import itertools
import math
import random

import pytest

from afftalk import grammar
from afftalk.bn import Evidence
from afftalk.fusion import word_probabilities
from afftalk.grammar import (
    GrammarError,
    Ref,
    Sentence,
    default_grammar,
    derivable,
    generate_sentences,
    kbest,
    load_grammar,
    nbest,
    score_sentence,
)


def test_default_vocabulary_has_49_words():
    g = default_grammar()
    assert len(g.vocabulary) == 49
    assert len(set(g.vocabulary)) == 49


def test_undefined_nonterminal_is_named():
    with pytest.raises(GrammarError, match="<missing>"):
        load_grammar("<x> ::= a <missing>")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(GrammarError, match="line 2"):
        load_grammar("<x> ::= a\n<y> ::= [b\n")
    with pytest.raises(GrammarError, match="line 1"):
        load_grammar("<x> := a")


# (grammar text, the whole message of the error it raises)
PARSER_ERRORS = {
    "unterminated '<'": ("<x> ::= a\n<y> ::= b <c", "line 2: unterminated '<'"),
    "empty nonterminal name": ("<x> ::= a < > b", "line 1: empty nonterminal name"),
    "unexpected character": ("\n<x> ::= a 1", "line 2: unexpected character '1'"),
    "unmatched ']'": ("<x> ::= a ]", "line 1: unmatched ']'"),
    "empty optional group": ("<x> ::= a [ ] b", "line 1: empty optional group"),
    "'|' inside an optional group": ("<x> ::= [a | b]", "line 1: '|' inside an optional group"),
    "empty alternative": ("# comment\n\n<x> ::= a | | b", "line 3: empty alternative"),
    "rule without alternatives": ("<x> ::=", "line 1: empty alternative"),
    "unmatched '['": ("<x> ::= a\n<y> ::= [b", "line 2: unmatched '['"),
    "expected '::='": ("<x> := a", "line 1: expected '::=' in rule"),
    "rule name must look like <name>": ("x ::= a", "line 1: rule name must look like <name>"),
    "duplicate rule": ("<x> ::= a\n<y> ::= b\n<x> ::= c", "line 3: duplicate rule <x>"),
    "grammar has no rules": ("# only a comment\n\n", "grammar has no rules"),
    # a bad token anywhere on a line outranks any bracket or bar fault on it
    "bad token after a bracket fault": ("<x> ::= a ] $", "line 1: unexpected character '$'"),
    "unterminated '<' after a bracket fault": ("<x> ::= [a | b <c", "line 1: unterminated '<'"),
    "empty name after an empty alternative": ("<x> ::= | a <  >", "line 1: empty nonterminal name"),
    # bracket and bar faults in the order they occur, then the ends of the line
    "unmatched ']' before an open group": ("<x> ::= ] [a | b", "line 1: unmatched ']'"),
    "'|' in a group that stays open": ("<x> ::= [a | b", "line 1: '|' inside an optional group"),
    "empty group before an empty alternative": ("<x> ::= [ ] |", "line 1: empty optional group"),
    "open group before an empty alternative": ("<x> ::= | [a", "line 1: unmatched '['"),
}


@pytest.mark.parametrize("text,message", PARSER_ERRORS.values(), ids=PARSER_ERRORS)
def test_parser_errors_name_their_line(text, message):
    with pytest.raises(GrammarError) as info:
        load_grammar(text)
    assert str(info.value) == message


def test_recursive_rules_rejected():
    with pytest.raises(GrammarError, match="recursive"):
        load_grammar("<x> ::= a <y>\n<y> ::= <x> | b")


def test_optional_group_language():
    g = load_grammar("<x> ::= [a] b")
    assert derivable(g, "b")
    assert derivable(g, "a b")
    assert not derivable(g, "a")
    assert not derivable(g, "b a")
    assert not derivable(g, "")


def test_generation_is_deterministic_and_sound():
    g = default_grammar()
    first = generate_sentences(g, 200, seed=11)
    second = generate_sentences(g, 200, seed=11)
    assert [s.words for s in first] == [s.words for s in second]
    assert all(derivable(g, s) for s in first)
    assert generate_sentences(g, 5, seed=1) != generate_sentences(g, 5, seed=2)
    with pytest.raises(GrammarError, match="n must be >= 1"):
        generate_sentences(g, 0, seed=1)


def test_known_sentence_is_derivable():
    g = default_grammar()
    assert derivable(g, "the robot pushed the ball and the ball moves")
    assert derivable(g, "the robot is grasping the box and the green box is moving")
    assert not derivable(g, "ball the robot the")


def test_score_examples():
    vocab = {"a": 1.0, "b": 1.0, "c": 0.5, "d": 0.5, "z": 0.0}
    assert score_sentence(Sentence.from_text("a b"), vocab) == 0.0
    assert score_sentence(Sentence.from_text("c d"), vocab) == pytest.approx(
        math.log(0.5)
    )
    # zero probabilities hit the floor instead of -inf
    assert score_sentence(Sentence.from_text("z"), vocab) == pytest.approx(
        math.log(1e-12)
    )
    with pytest.raises(GrammarError, match="outside"):
        score_sentence(Sentence.from_text("nope"), vocab)


def test_score_decreases_when_any_word_probability_drops():
    g = default_grammar()
    probs = {w: 0.5 for w in g.vocabulary}
    s = Sentence.from_text("the robot taps the ball and the ball moves")
    base = score_sentence(s, probs)
    probs["taps"] = 0.2
    assert score_sentence(s, probs) < base


def test_nbest_sorted_deduplicated_and_tie_broken():
    g = load_grammar("<x> ::= a | b | c")
    probs = {"a": 0.5, "b": 0.5, "c": 0.9}
    result = nbest(g, probs, n=500, k=10, seed=0)
    # 3 distinct sentences even though 500 were sampled
    assert result.kept == 3
    assert result.n_generated == 500
    scores = [score for _, score in result.entries]
    assert scores == sorted(scores, reverse=True)
    # a and b tie; lexicographic order breaks it
    assert [s.text for s, _ in result.entries] == ["c", "a", "b"]
    with pytest.raises(ValueError):
        nbest(g, probs, n=2, k=5, seed=0)


def test_empty_sentence_rejected():
    with pytest.raises(GrammarError):
        Sentence(())
    g = default_grammar()
    assert not derivable(g, [])


def test_only_the_sampler_can_meet_the_empty_sentence():
    """Every alternative and optional group is nonempty, so every rule derives
    a nonempty sentence, but a sample may skip every optional group."""
    g = load_grammar("<s> ::= [a] [b]")
    with pytest.raises(GrammarError, match="grammar produced an empty sentence"):
        generate_sentences(g, 5, 1)
    result = kbest(g, {"a": 0.5, "b": 0.25}, 10)
    assert [s.text for s, _ in result.entries] == ["a", "a b", "b"]


def _language(grammar):
    """Every word sequence the grammar derives, by plain expansion."""

    def seq(items):
        out = {()}
        for item in items:
            if isinstance(item, str):
                options = {(item,)}
            elif isinstance(item, Ref):
                options = rule(item.name)
            else:  # Opt
                options = seq(item.items) | {()}
            out = {a + b for a in out for b in options}
        return out

    def rule(name):
        return set().union(*(seq(alt) for alt in grammar.rules[name]))

    return {words for words in rule(grammar.start) if words}


def _brute_force_top(grammar, probs, k):
    scored = [(s, score_sentence(s, probs)) for s in map(Sentence, _language(grammar))]
    scored.sort(key=lambda entry: (-entry[1], entry[0].words))
    return scored[:k]


SMALL_GRAMMARS = {
    "optional groups": "<s> ::= [a] b [c d] | [a [b]] c",
    "shared subrules": "<s> ::= <x> <y> <x> | <y> <y>\n<x> ::= a | b [c]\n<y> ::= <x> d | c",
    "ties": "<s> ::= <w> <w> <w>\n<w> ::= a | b | c | d",
    "ambiguous": "<s> ::= <x> b | a <y> | a b\n<x> ::= a | [c] a\n<y> ::= b | b b",
    "lengths": "<s> ::= a | b b | c c c | d d d d | [a] [b] [c] [d] e",
}


def _random_grammar(rng: random.Random) -> str:
    """An acyclic grammar over four words: rule i references only later rules."""
    lines = []
    for i in range(4):
        alts = []
        for _ in range(rng.randint(1, 3)):
            items = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.random()
                if kind < 0.25 and i < 3:
                    items.append(f"<r{rng.randint(i + 1, 3)}>")
                elif kind < 0.4:
                    items.append(f"[{rng.choice('abcd')}]")
                else:
                    items.append(rng.choice("abcd"))
            alts.append(" ".join(items))
        lines.append(f"<r{i}> ::= " + " | ".join(alts))
    return "\n".join(lines)


def test_derivable_equals_the_enumerated_language():
    rng = random.Random(2005)
    for text in [*SMALL_GRAMMARS.values(), *(_random_grammar(rng) for _ in range(60))]:
        g = load_grammar(text)
        language = _language(g)
        # every member, however long, and every sequence of up to four words
        assert all(derivable(g, words) for words in language), text
        for n in range(5):
            for words in itertools.product(g.vocabulary, repeat=n):
                assert derivable(g, words) == (words in language), (text, words)


@pytest.mark.parametrize("text", SMALL_GRAMMARS.values(), ids=SMALL_GRAMMARS)
def test_kbest_equals_brute_force_on_small_grammars(text):
    g = load_grammar(text)
    size = len(_language(g))
    rng = random.Random(text)
    # equal, floored and distinct probabilities, so that ties of every kind occur
    for probs in (
        {w: 0.5 for w in g.vocabulary},
        {w: rng.choice([0.0, 0.1, 0.5, 1.0]) for w in g.vocabulary},
        {w: rng.random() for w in g.vocabulary},
    ):
        for k in range(1, size + 2):
            result = kbest(g, probs, k)
            assert list(result.entries) == _brute_force_top(g, probs, k)


def test_kbest_equals_brute_force_on_random_grammars():
    rng = random.Random(2005)
    for _ in range(60):
        g = load_grammar(_random_grammar(rng))
        assert _language(g), "every loaded grammar derives a nonempty sentence"
        probs = {w: rng.choice([0.0, 0.2, 0.2, 0.7, rng.random()]) for w in g.vocabulary}
        k = rng.randint(1, 12)
        assert list(kbest(g, probs, k).entries) == _brute_force_top(g, probs, k)


def test_kbest_keeps_permuted_ties_in_word_order():
    # three distinct values summed in different orders tie exactly
    g = load_grammar("<s> ::= <w> <w> <w>\n<w> ::= a | b | c")
    probs = {"a": 0.1, "b": 0.7, "c": 0.3}
    result = kbest(g, probs, 27)
    scores = {}
    for sentence, score in result.entries:
        scores.setdefault(tuple(sorted(sentence.words)), set()).add(score)
    assert all(len(group) == 1 for group in scores.values())
    assert [s.text for s, _ in result.entries[:3]] == ["b b b", "b b c", "b c b"]


def test_kbest_keeps_candidates_that_tie_only_after_rounding():
    # log p(a) = -2**-53 is lost when the sum with log p(c) near -8 is
    # rounded, so "a c" ties "b c" and comes first, although b beats a
    g = load_grammar("<s> ::= <x> c\n<x> ::= a | b")
    probs = {"a": 1.0 - 2.0**-53, "b": 1.0, "c": math.exp(-8.0)}
    assert math.log(probs["a"]) < 0.0
    assert list(kbest(g, probs, 1).entries) == _brute_force_top(g, probs, 1)
    assert kbest(g, probs, 1).entries[0][0].text == "a c"


def test_kbest_keeps_exactly_k_per_length_under_equal_probabilities():
    # nine sentence lengths (8 to 16 words), each with more than ten sentences
    g = default_grammar()
    for p in (0.5, 0.3, 0.77):
        assert kbest(g, {w: p for w in g.vocabulary}, 10).n_generated == 90


def test_kbest_rejects_bad_requests():
    g = load_grammar("<s> ::= a b")
    with pytest.raises(GrammarError, match="k >= 1"):
        kbest(g, {"a": 0.5, "b": 0.5}, 0)
    with pytest.raises(GrammarError, match="outside"):
        kbest(g, {"a": 0.5}, 1)


def _random_tables(rng: random.Random, values: dict[str, int]):
    """Candidate tables by length, each sequence summing its words' values."""
    tables = {}
    for n in rng.sample(range(4), rng.randint(1, 3)):
        sequences = list(itertools.product(values, repeat=n))
        chosen = rng.sample(sequences, min(len(sequences), rng.randint(1, 9)))
        tables[n] = {words: sum(values[w] for w in words) for words in chosen}
    return tables


def test_frontier_join_equals_the_full_join_then_the_cut():
    margin = grammar._EXACT_MARGIN
    rng = random.Random(19)
    for _ in range(400):
        # equal values tie exactly; values up to three steps of a third of
        # the margin apart tie within it, and four steps apart do not
        base = -rng.randint(1, 3) * 5 * margin
        values = {w: base - rng.randint(-4, 4) * (margin // 3) for w in "abcd"}
        if rng.random() < 0.3:
            values = {w: values["a"] for w in values}
        left, right = _random_tables(rng, values), _random_tables(rng, values)
        full = {}
        for (n1, lhs), (n2, rhs) in itertools.product(left.items(), right.items()):
            into = full.setdefault(n1 + n2, {})
            for (w1, s1), (w2, s2) in itertools.product(lhs.items(), rhs.items()):
                into[w1 + w2] = s1 + s2
            pair_sums = sorted((s1 + s2 for s1 in lhs.values() for s2 in rhs.values()), reverse=True)
            for k in range(1, len(pair_sums) + 2):
                floor = grammar._pair_floor(grammar._by_sum(lhs), grammar._by_sum(rhs), k)
                kth = pair_sums[k - 1] - margin if k < len(pair_sums) else pair_sums[-1]
                assert floor == kth
        for k in range(1, max(map(len, full.values())) + 2):
            expected = {n: grammar._cut(c, k) for n, c in full.items()}
            assert grammar._join(left, right, k) == expected, (left, right, k)


def test_kbest_names_the_first_unscorable_word_it_meets():
    # the vocabulary lists b, a, c; the program meets c first, in <x>
    g = load_grammar("<s> ::= <x> b | a\n<x> ::= c")
    assert g.vocabulary == ("b", "a", "c")
    with pytest.raises(GrammarError, match="word 'c' is outside"):
        kbest(g, {"b": 0.5}, 3)
    with pytest.raises(GrammarError, match="word 'a' is outside"):
        kbest(g, {"b": 0.5, "c": 0.5}, 3)


def test_sampled_sentences_never_beat_the_exact_list(trained_net):
    g = default_grammar()
    words = trained_net.schema.word_variables()
    for labeled in ({"Action": "grasp", "ObjVel": "medium"}, {"Action": "tap", "Shape": "box"}):
        obs = Evidence.from_labels(trained_net.schema, labeled)
        probs = dict(zip(words, word_probabilities(trained_net, obs, words).tolist()))
        exact = kbest(g, probs, 10)
        kth = exact.entries[-1][1]
        listed = {s.words for s, _ in exact.entries}
        for seed in (1, 5, 9):
            for sentence, score in nbest(g, probs, n=2000, k=2000, seed=seed).entries:
                assert sentence.words in listed or score <= kth
