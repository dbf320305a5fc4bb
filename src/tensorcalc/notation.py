"""Einstein index-notation expressions: parser, validator, and evaluator.

The accepted language is one equation per string:

    side        = term (('+' | '-') term)*
    term        = factor (factor | '*' factor)*
    factor      = NUMBER | NAME indices
    indices     = ('^' group)? ('_' group)?
    group       = letter | '{' letter+ '}'

The left side must be a single symbol factor (indexed or scalar). Names are
alphanumeric and start with a letter; index letters are single Latin
letters. Whitespace is free, '*' between factors is optional, and a unary
minus in front of a term folds into its coefficient. Both the ASCII '-' and
the typographic minus are accepted.

Validation applies the two classical well-formedness rules. Within each
term an index letter occurring once is free and occurring twice is a
summation index, which must pair one upper with one lower entry (rule 5.2);
three or more entries are rejected. Free letters must agree in identity and
level across every term and across both sides (rule 5.1). Violations carry
spans into the original text.

Evaluation binds names to DenseTensors and sums products over summation
letters; the result's slots follow the left side's index order.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BindingError, ParseError, ShapeError, ValidationError
from .tensors import DEFAULT_DIM, DenseTensor, Valency

__all__ = [
    "IndexOccurrence", "Factor", "Term", "IndexExpression",
    "Violation", "ValidationReport", "parse", "validate", "evaluate",
    "explicit_form",
]

UPPER = "upper"
LOWER = "lower"

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[\^_{}*+=\-])
""", re.VERBOSE)


@dataclass(frozen=True)
class IndexOccurrence:
    letter: str
    level: str              # "upper" or "lower"
    span: tuple[int, int]   # [start, end) offsets into the source text


@dataclass(frozen=True)
class Factor:
    name: str | None                     # None for numeric literals
    value: float | None                  # None for symbol factors
    indices: tuple[IndexOccurrence, ...]
    span: tuple[int, int]

    @property
    def is_number(self) -> bool:
        return self.value is not None

    def upper_letters(self) -> list[str]:
        return [o.letter for o in self.indices if o.level == UPPER]

    def lower_letters(self) -> list[str]:
        return [o.letter for o in self.indices if o.level == LOWER]


@dataclass(frozen=True)
class Term:
    sign: float
    factors: tuple[Factor, ...]
    span: tuple[int, int]


@dataclass(frozen=True)
class IndexExpression:
    text: str
    lhs: Factor
    rhs: tuple[Term, ...]


@dataclass(frozen=True)
class Violation:
    rule: str               # "5.1" or "5.2"
    index: str              # offending letter
    span: tuple[int, int]
    message: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "index": self.index,
                "start": self.span[0], "end": self.span[1],
                "message": self.message}


@dataclass(frozen=True)
class TermIndices:
    """Classified letters of one term: free letter -> level, summation set."""
    free: tuple[tuple[str, str], ...]
    summation: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    verdict: str                          # "valid" or "invalid"
    violations: tuple[Violation, ...]
    lhs_indices: TermIndices
    term_indices: tuple[TermIndices, ...]

    @property
    def is_valid(self) -> bool:
        return self.verdict == "valid"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [v.as_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


# -- lexer / parser ------------------------------------------------------------


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind, text, start, end):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.start})"


def _tokenize(text: str) -> list[_Token]:
    # the typographic minus sign maps 1:1 onto '-', keeping offsets intact
    normalized = text.replace("−", "-")
    tokens = []
    pos = 0
    while pos < len(normalized):
        match = _TOKEN_RE.match(normalized, pos)
        if match is None:
            raise ParseError(f"unexpected character {normalized[pos]!r}", pos)
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        text_piece = match.group()
        if kind == "op":
            kind = text_piece
        tokens.append(_Token(kind, text_piece, match.start(), match.end()))
    tokens.append(_Token("end", "", len(normalized), len(normalized)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.start)
        return self.advance()

    # factor = NUMBER | NAME indices
    def factor(self) -> Factor:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} is out of range", tok.start)
            return Factor(None, value, (), (tok.start, tok.end))
        if tok.kind != "name":
            raise ParseError(f"expected a symbol or number, found {tok.text or 'end of input'!r}",
                             tok.start)
        self.advance()
        occurrences: list[IndexOccurrence] = []
        end = tok.end
        if self.peek().kind == "^":
            self.advance()
            occurrences += self.index_group(UPPER)
            end = occurrences[-1].span[1]
        if self.peek().kind == "_":
            self.advance()
            occurrences += self.index_group(LOWER)
            end = occurrences[-1].span[1]
        if self.peek().kind == "^" and occurrences:
            raise ParseError("upper indices must precede lower indices",
                             self.peek().start)
        return Factor(tok.text, None, tuple(occurrences), (tok.start, end))

    def index_group(self, level: str) -> list[IndexOccurrence]:
        tok = self.peek()
        if tok.kind == "{":
            self.advance()
            letters: list[IndexOccurrence] = []
            while self.peek().kind == "name":
                name_tok = self.advance()
                for off, ch in enumerate(name_tok.text):
                    if not ch.isalpha():
                        raise ParseError(f"index letters must be alphabetic, found {ch!r}",
                                         name_tok.start + off)
                    letters.append(IndexOccurrence(
                        ch, level, (name_tok.start + off, name_tok.start + off + 1)))
            closing = self.expect("}")
            if not letters:
                raise ParseError("empty index group", closing.start)
            return letters
        if tok.kind == "name" and len(tok.text) == 1:
            self.advance()
            return [IndexOccurrence(tok.text, level, (tok.start, tok.end))]
        if tok.kind == "name":
            raise ParseError("multi-letter index groups need braces", tok.start)
        raise ParseError(f"expected an index letter, found {tok.text or 'end of input'!r}",
                         tok.start)

    # term = factor (factor | '*' factor)*
    def term(self, sign: float) -> Term:
        first = self.factor()
        factors = [first]
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                factors.append(self.factor())
            elif tok.kind in ("name", "number"):
                factors.append(self.factor())
            else:
                break
        return Term(sign, tuple(factors), (first.span[0], factors[-1].span[1]))

    def side(self) -> list[Term]:
        terms = []
        sign = 1.0
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.advance()
            sign = -1.0 if tok.kind == "-" else 1.0
        terms.append(self.term(sign))
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            terms.append(self.term(-1.0 if op.kind == "-" else 1.0))
        return terms

    def expression(self) -> IndexExpression:
        lhs_terms = self.side()
        eq = self.expect("=")
        if len(lhs_terms) != 1 or len(lhs_terms[0].factors) != 1:
            raise ParseError("left side must be a single symbol", lhs_terms[0].span[0])
        lhs_term = lhs_terms[0]
        lhs = lhs_term.factors[0]
        if lhs.is_number:
            raise ParseError("left side must be a symbol, not a number", lhs.span[0])
        if lhs_term.sign < 0:
            raise ParseError("left side cannot carry a sign", lhs_term.span[0])
        rhs = self.side()
        trailing = self.peek()
        if trailing.kind == "=":
            raise ParseError("only one '=' is allowed", trailing.start)
        if trailing.kind != "end":
            raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.start)
        return IndexExpression(self.text, lhs, tuple(rhs))


def parse(text: str) -> IndexExpression:
    """Parse one equation in index notation into an AST with source spans."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).expression()


# -- validation ----------------------------------------------------------------


def _classify_term(factors, violations) -> TermIndices:
    occurrences: dict[str, list[IndexOccurrence]] = {}
    order: list[str] = []
    for factor in factors:
        for occ in factor.indices:
            if occ.letter not in occurrences:
                occurrences[occ.letter] = []
                order.append(occ.letter)
            occurrences[occ.letter].append(occ)
    free: list[tuple[str, str]] = []
    summation: list[str] = []
    for letter in order:
        occs = occurrences[letter]
        if len(occs) == 1:
            free.append((letter, occs[0].level))
        elif len(occs) == 2:
            levels = {occs[0].level, occs[1].level}
            if levels == {UPPER, LOWER}:
                summation.append(letter)
            else:
                level = occs[0].level
                violations.append(Violation(
                    "5.2", letter, occs[1].span,
                    f"summation index '{letter}' has two {level} entries; "
                    f"it needs one upper and one lower"))
        else:
            violations.append(Violation(
                "5.2", letter, occs[2].span,
                f"index '{letter}' has {len(occs)} entries in one term; "
                f"a summation index must have exactly two"))
    return TermIndices(tuple(free), tuple(summation))


def validate(expression: IndexExpression) -> ValidationReport:
    """Check the free/summation index rules; violations are data, not errors."""
    violations: list[Violation] = []
    lhs_indices = _classify_term([expression.lhs], violations)
    term_indices = [_classify_term(term.factors, violations)
                    for term in expression.rhs]

    # rule 5.1: every term, and the left side, must expose the same free
    # letters on the same levels
    reference = dict(lhs_indices.free)
    ref_label = "the left side"
    for term, classified in zip(expression.rhs, term_indices):
        current = dict(classified.free)
        for letter, level in current.items():
            if letter not in reference:
                span = _find_occurrence(term.factors, letter)
                violations.append(Violation(
                    "5.1", letter, span,
                    f"free index '{letter}' does not appear in {ref_label}"))
            elif reference[letter] != level:
                span = _find_occurrence(term.factors, letter)
                violations.append(Violation(
                    "5.1", letter, span,
                    f"free index '{letter}' is {reference[letter]} in {ref_label} "
                    f"but {level} here"))
        for letter, level in reference.items():
            if letter not in current:
                violations.append(Violation(
                    "5.1", letter, term.span,
                    f"free index '{letter}' is missing from this term"))

    verdict = "valid" if not violations else "invalid"
    return ValidationReport(verdict, tuple(violations), lhs_indices,
                            tuple(term_indices))


def _find_occurrence(factors, letter: str) -> tuple[int, int]:
    for factor in factors:
        for occ in factor.indices:
            if occ.letter == letter:
                return occ.span
    return (0, 0)


# -- evaluation ----------------------------------------------------------------


def evaluate(expression: IndexExpression,
             bindings: Mapping[str, DenseTensor],
             dim: int = DEFAULT_DIM) -> DenseTensor:
    """Evaluate the right side and shape the result by the left side's slots.

    Every free-index assignment sums products over the summation letters
    1..dim. Symbol factors must be bound to DenseTensors whose valency
    matches their written index pattern.
    """
    report = validate(expression)
    if not report.is_valid:
        first = report.violations[0]
        raise ValidationError(
            f"expression is not well-formed: {first.message} "
            f"(rule {first.rule}, offsets {first.span[0]}..{first.span[1]})")

    lhs = expression.lhs
    out_upper = lhs.upper_letters()
    out_lower = lhs.lower_letters()
    out_letters = out_upper + out_lower
    if len(set(out_letters)) != len(out_letters):
        raise ValidationError("left side repeats an index letter")

    out_subscript = "".join(out_letters)
    result = np.zeros((dim,) * len(out_letters))
    for term in expression.rhs:
        coeff = term.sign
        subscripts = []
        arrays = []
        for factor in term.factors:
            if factor.is_number:
                coeff *= factor.value
                continue
            if factor.name not in bindings:
                raise BindingError(f"symbol {factor.name!r} is not bound")
            tensor = bindings[factor.name]
            upper = factor.upper_letters()
            lower = factor.lower_letters()
            if not isinstance(tensor, DenseTensor):
                if isinstance(tensor, dict):
                    tensor = DenseTensor.from_dict(tensor)
                else:
                    # raw array: take the written index picture as the valency
                    arr = np.asarray(tensor, dtype=float)
                    if arr.ndim != len(upper) + len(lower):
                        raise ShapeError(
                            f"symbol {factor.name!r} is written with "
                            f"{len(upper) + len(lower)} indices but bound to a "
                            f"rank-{arr.ndim} array")
                    side = arr.shape[0] if arr.ndim else dim
                    tensor = DenseTensor(
                        Valency(len(upper), len(lower)), side, arr)
            if tensor.valency != Valency(len(upper), len(lower)):
                raise ShapeError(
                    f"symbol {factor.name!r} is written with valency "
                    f"({len(upper)},{len(lower)}) but bound to a "
                    f"({tensor.valency.r},{tensor.valency.s}) tensor")
            if tensor.dim != dim:
                raise ShapeError(
                    f"symbol {factor.name!r} has dim {tensor.dim}, expected {dim}")
            subscripts.append("".join(upper + lower))
            arrays.append(tensor.array)
        if arrays:
            value = coeff * np.einsum(
                ",".join(subscripts) + "->" + out_subscript, *arrays)
        else:
            value = coeff * np.ones((dim,) * len(out_letters))
        result = result + value

    return DenseTensor(Valency(len(out_upper), len(out_lower)), dim, result)


def explicit_form(expression: IndexExpression, dim: int = DEFAULT_DIM) -> str:
    """Render the equation with the implicit sums spelled out."""
    pieces = []
    term_indices = validate(expression).term_indices
    for n, term in enumerate(expression.rhs):
        classified = term_indices[n]
        prefix = ""
        for letter in classified.summation:
            prefix += f"sum_{{{letter}=1..{dim}}} "
        body = " ".join(_render_factor(f) for f in term.factors)
        sign = "- " if term.sign < 0 else ("+ " if n else "")
        pieces.append(f"{sign}{prefix}{body}")
    return f"{_render_factor(expression.lhs)} = " + " ".join(pieces)


def _render_factor(factor: Factor) -> str:
    if factor.is_number:
        return repr(factor.value)
    text = factor.name
    upper = factor.upper_letters()
    lower = factor.lower_letters()
    if upper:
        text += "^{" + "".join(upper) + "}"
    if lower:
        text += "_{" + "".join(lower) + "}"
    return text
