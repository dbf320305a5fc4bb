"""Exact output of the notation front end: reports, parse errors, plan reuse.

The corpus reports and the parse-error messages are pinned byte for byte,
so a rewrite of the tokenizer, the parser or the validator cannot change
what a user reads.
"""

import json
import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorcalc import (
    DenseTensor,
    ParseError,
    ShapeError,
    ValidationError,
    evaluate,
    explicit_form,
    notation,
    parse,
    validate,
)
from tensorcalc.cli import main

from test_indexlang import CORPUS


def _violation(start, end, index, message, rule):
    return {"end": end, "index": index, "message": message, "rule": rule,
            "start": start}


def _two(letter, level):
    return (f"summation index '{letter}' has two {level} entries; "
            f"it needs one upper and one lower")


def _three(letter):
    return (f"index '{letter}' has 3 entries in one term; "
            f"a summation index must have exactly two")


def _absent(letter):
    return f"free index '{letter}' does not appear in the left side"


def _missing(letter):
    return f"free index '{letter}' is missing from this term"


def _level(letter, left, here):
    return f"free index '{letter}' is {left} in the left side but {here} here"


# violations of each CORPUS entry, in report order; valid entries have none
CORPUS_VIOLATIONS = {
    "c = x^i y^i": [_violation(10, 11, "i", _two("i", "upper"), "5.2")],
    "c = x_i y_i": [_violation(10, 11, "i", _two("i", "lower"), "5.2")],
    "y^i = B^i_k C^j_k": [
        _violation(16, 17, "k", _two("k", "lower"), "5.2"),
        _violation(14, 15, "j", _absent("j"), "5.1")],
    "s = F^i_i G^i_j x^j": [_violation(12, 13, "i", _three("i"), "5.2")],
    "c = A^{ii}": [_violation(8, 9, "i", _two("i", "upper"), "5.2")],
    "t = x^i x^i x_i": [_violation(14, 15, "i", _three("i"), "5.2")],
    "q = M^{ij} N_{ij} P^j": [_violation(20, 21, "j", _three("j"), "5.2")],
    "z^k = F^k_m x^m y^m": [_violation(18, 19, "m", _three("m"), "5.2")],
    "x^i = a^i + b_i": [_violation(14, 15, "i", _level("i", "upper", "lower"), "5.1")],
    "y^i = x^j": [
        _violation(8, 9, "j", _absent("j"), "5.1"),
        _violation(6, 9, "i", _missing("i"), "5.1")],
    "c = x^i": [_violation(6, 7, "i", _absent("i"), "5.1")],
    "y_i = F^i_j x^j": [_violation(8, 9, "i", _level("i", "lower", "upper"), "5.1")],
    "T^{ij} = A^i B^j + C^i D^k": [
        _violation(25, 26, "k", _absent("k"), "5.1"),
        _violation(19, 26, "j", _missing("j"), "5.1")],
    "w^i = v^i + 2": [_violation(12, 13, "i", _missing("i"), "5.1")],
    "A^i_j = B^i_j + C^j_i": [
        _violation(18, 19, "j", _level("j", "lower", "upper"), "5.1"),
        _violation(20, 21, "i", _level("i", "upper", "lower"), "5.1")],
}


@pytest.mark.parametrize("text, verdict", [(c[0], c[1]) for c in CORPUS],
                         ids=[c[0] for c in CORPUS])
def test_corpus_report_json_is_pinned(text, verdict):
    violations = CORPUS_VIOLATIONS.get(text, [])
    want = {"verdict": verdict, "violations": violations}
    report = validate(parse(text))
    assert report.as_dict() == want
    assert report.to_json() == json.dumps(want, sort_keys=True)


def test_every_invalid_corpus_entry_is_pinned():
    assert set(CORPUS_VIOLATIONS) == {c[0] for c in CORPUS if c[1] == "invalid"}


# one input per ParseError branch of the tokenizer and the parser
PARSE_ERRORS = [
    ("y%i = 2", "unexpected character '%'", 1),
    ("y^i", "expected '=', found 'end of input'", 3),
    ("A^{i = x", "expected '}', found '='", 5),
    ("A = 1e999 B", "number '1e999' is out of range", 4),
    ("y^i = = x", "expected a symbol or number, found '='", 6),
    ("A^i_j = F_j^i", "upper indices must precede lower indices", 11),
    ("A^{i1} = x", "index letters must be alphabetic, found '1'", 4),
    ("A^{} = x", "empty index group", 3),
    ("A^ij = x", "multi-letter index groups need braces", 2),
    ("A^ = x", "expected an index letter, found '='", 3),
    ("y^i z = x^i", "left side must be a single symbol", 0),
    ("3 = x", "left side must be a symbol, not a number", 0),
    ("-y^i = x^i", "left side cannot carry a sign", 1),
    ("y^i = x^i = z^i", "only one '=' is allowed", 10),
    ("y = x }", "unexpected trailing input '}'", 6),
    ("   ", "empty expression", 0),
    # more inputs for branches above, at other offsets
    ("a + b = c", "left side must be a single symbol", 0),
    ("y^i =", "expected a symbol or number, found 'end of input'", 5),
    ("w^i = a^i − b^i ?", "unexpected character '?'", 16),
    ("y = x^i_j^k", "upper indices must precede lower indices", 9),
    ("y = x^{ab2}", "index letters must be alphabetic, found '2'", 9),
    ("", "empty expression", 0),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS,
                         ids=[repr(c[0]) for c in PARSE_ERRORS])
def test_parse_error_message_and_position_are_pinned(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at offset {position})"


# the finditer tokenizer the findall pass replaced, kept as the reference
_REFERENCE_TOKEN_RE = re.compile(r"""
    \s+
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[\^_{}*+=\-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _reference_tokenize(text):
    tokens = []
    for match in _REFERENCE_TOKEN_RE.finditer(text.replace("\u2212", "-")):
        kind = match.lastgroup
        if kind is None:
            continue
        piece = match.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {piece!r}", match.start())
        tokens.append((piece if kind == "op" else kind, piece,
                       match.start(), match.end()))
    tokens.append(("end", "", len(text), len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


_TOKEN_ALPHABET = (string.ascii_letters + string.digits + "^_{}*+=-.eE"
                   + "\u2212 \t\n\u00a0%?$")


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet=_TOKEN_ALPHABET, max_size=40))
@example(text="w^i = a^i \u2212 b^i ?")
@example(text="1.e5x .5E-3 7e+ \u00a0\t\n")
@example(text="")
def test_tokenizer_matches_the_finditer_reference(text):
    assert (_tokens_or_error(notation._tokenize, text)
            == _tokens_or_error(_reference_tokenize, text))


def test_non_string_input_is_an_empty_expression():
    with pytest.raises(ParseError) as err:
        parse(None)
    assert str(err.value) == "empty expression (at offset 0)"


def test_indices_are_classified_once_per_chain(monkeypatch):
    calls = []
    classify = notation._compile_term

    def counting(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(notation, "_compile_term", counting)
    expr = parse("A^i_j = 2 B^i_k C^k_j - D^i_j")
    assert validate(expr).is_valid
    evaluate(expr, {"B": np.eye(3), "C": np.eye(3), "D": np.eye(3)})
    explicit_form(expr)
    # the left side and each of the two terms, each once
    assert len(calls) == 3


class TestRepeatedLeftLetter:
    TEXT = "T^i_i = A^i_i"

    def test_is_a_rule_5_1_violation_at_the_second_occurrence(self):
        report = validate(parse(self.TEXT))
        assert report.verdict == "invalid"
        assert [v.as_dict() for v in report.violations] == [_violation(
            4, 5, "i", "index 'i' repeats on the left side; "
            "every left-side index must be free", "5.1")]

    def test_evaluate_reports_the_violation(self):
        with pytest.raises(ValidationError, match=r"rule 5\.1, offsets 4\.\.5"):
            evaluate(parse(self.TEXT), {"A": np.eye(3)})

    def test_check_exits_one(self, capsys):
        code = main(["check", self.TEXT, "--explicit"])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["verdict"] == "invalid"
        assert "sum_" not in out

    def test_same_level_repeat_keeps_its_rule_5_2_violation(self):
        report = validate(parse("T^{ii} = A^{ii}"))
        assert [v.rule for v in report.violations] == ["5.2", "5.2"]


def test_plan_does_not_change_expression_equality():
    a, b = parse("y^i = F^i_j x^j"), parse("y^i = F^i_j x^j")
    assert a == b and hash(a) == hash(b)
    assert a != parse("y^i = F^i_j  x^j")
    assert "plan" not in repr(a)


def test_dense_tensor_binding_needs_the_written_valency():
    x = DenseTensor.from_array(np.ones(3), 1, 0)
    with pytest.raises(ShapeError, match=r"written with valency \(1,1\) but bound to a \(0,2\)"):
        evaluate(parse("y^i = F^i_j x^j"),
                 {"F": DenseTensor.from_array(np.eye(3), 0, 2), "x": x})
