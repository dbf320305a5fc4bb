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

The tokenizer is one ``findall`` pass of one regular expression: each match
is a token with the whitespace in front of it, and a token's offset is the
sum of the match lengths before it. The AST records IndexOccurrence,
Factor, Term and TermIndices are immutable named tuples. Being tuples, they
compare equal to plain tuples of the same fields, and ``_replace`` and
``_fields`` take the place of ``dataclasses.replace`` and
``dataclasses.fields``. Violation (whose ``index`` field would hide
``tuple.index``), ValidationReport and IndexExpression are frozen
dataclasses.

Validation applies the two classical well-formedness rules. Within each
term an index letter occurring once is free and occurring twice is a
summation index, which must pair one upper with one lower entry (rule 5.2);
three or more entries are rejected. Free letters must agree in identity and
level across every term and across both sides (rule 5.1); a letter repeated
on the left side breaks rule 5.1 too, since every left-side index names a
slot of the result. Violations carry spans into the original text.

Evaluation binds names to DenseTensors and sums products over summation
letters; the result's slots follow the left side's index order.

Each expression is compiled once. Constructing an IndexExpression (which
``parse`` does) classifies the indices of every term a single time and
stores a private plan on it: the validation report, the factor texts
``explicit_form`` writes and, for a valid expression, each term's
coefficient, einsum subscripts and the valency each symbol must be bound
to. ``validate`` returns the stored report, and ``evaluate`` and
``explicit_form`` read the plan without classifying or rendering again.
The plan lives on the expression; nothing is cached across expressions.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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

# one match per token: (leading whitespace, number, name, operator, any other
# non-space character); exactly one of the last four is non-empty
_TOKEN_RE = re.compile(r"""
    (\s*)
    (?:
        (\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | ([A-Za-z][A-Za-z0-9]*)
      | ([\^_{}*+=\-])
      | (\S)
    )
""", re.VERBOSE)


class IndexOccurrence(NamedTuple):
    letter: str
    level: str              # "upper" or "lower"
    span: tuple[int, int]   # [start, end) offsets into the source text


class Factor(NamedTuple):
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


class Term(NamedTuple):
    sign: float
    factors: tuple[Factor, ...]
    span: tuple[int, int]


@dataclass(frozen=True)
class IndexExpression:
    text: str
    lhs: Factor
    rhs: tuple[Term, ...]

    def __post_init__(self):
        # the plan is derived from the fields, so it takes no part in
        # equality, hashing or repr
        object.__setattr__(self, "_plan", _compile(self))


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


class TermIndices(NamedTuple):
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

# Tokens are (kind, text, start, end) tuples; an operator's kind is its text.


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    # The matches are contiguous, so each token starts where the one before
    # ended plus its own leading whitespace. Trailing whitespace holds no
    # token, and stripping it keeps findall from rescanning it from every
    # position. The typographic minus sign maps 1:1 onto '-', keeping
    # offsets intact.
    tokens = []
    end = 0
    for space, number, name, op, other in _TOKEN_RE.findall(
            text.rstrip().replace("−", "-")):
        start = end + len(space)
        if number:
            end = start + len(number)
            tokens.append(("number", number, start, end))
        elif name:
            end = start + len(name)
            tokens.append(("name", name, start, end))
        elif op:
            end = start + 1
            tokens.append((op, op, start, end))
        else:
            raise ParseError(f"unexpected character {other!r}", start)
    tokens.append(("end", "", len(text), len(text)))
    return tokens


def _expected(kind: str, token) -> ParseError:
    return ParseError(f"expected {kind!r}, found {token[1] or 'end of input'!r}",
                      token[2])


# factor = NUMBER | NAME indices; returns the factor and the next position
def _factor(tokens, i: int) -> tuple[Factor, int]:
    kind, text, start, end = tokens[i]
    if kind == "number":
        value = float(text)
        if not math.isfinite(value):
            raise ParseError(f"number {text!r} is out of range", start)
        return Factor(None, value, (), (start, end)), i + 1
    if kind != "name":
        raise ParseError(f"expected a symbol or number, found {text or 'end of input'!r}",
                         start)
    occurrences: list[IndexOccurrence] = []
    i += 1
    kind = tokens[i][0]
    if kind == "^":
        i = _index_group(tokens, i + 1, UPPER, occurrences)
        kind = tokens[i][0]
    if kind == "_":
        i = _index_group(tokens, i + 1, LOWER, occurrences)
        kind = tokens[i][0]
    if occurrences:
        if kind == "^":
            raise ParseError("upper indices must precede lower indices", tokens[i][2])
        end = occurrences[-1].span[1]
    return Factor(text, None, tuple(occurrences), (start, end)), i


# group = letter | '{' letter+ '}'; appends to ``out``, returns the next position
def _index_group(tokens, i: int, level: str, out: list) -> int:
    kind, text, start, end = tokens[i]
    if kind == "{":
        first = len(out)
        i += 1
        while tokens[i][0] == "name":
            _, text, start, _ = tokens[i]
            for off, ch in enumerate(text, start):
                if not ch.isalpha():
                    raise ParseError(f"index letters must be alphabetic, found {ch!r}", off)
                out.append(IndexOccurrence(ch, level, (off, off + 1)))
            i += 1
        if tokens[i][0] != "}":
            raise _expected("}", tokens[i])
        if len(out) == first:
            raise ParseError("empty index group", tokens[i][2])
        return i + 1
    if kind == "name" and len(text) == 1:
        out.append(IndexOccurrence(text, level, (start, end)))
        return i + 1
    if kind == "name":
        raise ParseError("multi-letter index groups need braces", start)
    raise ParseError(f"expected an index letter, found {text or 'end of input'!r}", start)


# side = term (('+' | '-') term)*;  term = factor (factor | '*' factor)*
def _side(tokens, i: int) -> tuple[list[Term], int]:
    terms = []
    sign = 1.0
    kind = tokens[i][0]
    if kind == "+" or kind == "-":
        sign = -1.0 if kind == "-" else 1.0
        i += 1
    while True:
        factor, i = _factor(tokens, i)
        factors = [factor]
        while True:
            kind = tokens[i][0]
            if kind == "*":
                factor, i = _factor(tokens, i + 1)
            elif kind == "name" or kind == "number":
                factor, i = _factor(tokens, i)
            else:
                break
            factors.append(factor)
        terms.append(Term(sign, tuple(factors), (factors[0].span[0], factors[-1].span[1])))
        if kind != "+" and kind != "-":
            return terms, i
        sign = -1.0 if kind == "-" else 1.0
        i += 1


def parse(text: str) -> IndexExpression:
    """Parse one equation in index notation into an AST with source spans.

    The returned expression carries its validated plan (see the module
    docstring), so the later calls on it do not classify indices again.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text)
    lhs_terms, i = _side(tokens, 0)
    if tokens[i][0] != "=":
        raise _expected("=", tokens[i])
    if len(lhs_terms) != 1 or len(lhs_terms[0].factors) != 1:
        raise ParseError("left side must be a single symbol", lhs_terms[0].span[0])
    lhs_term = lhs_terms[0]
    lhs = lhs_term.factors[0]
    if lhs.is_number:
        raise ParseError("left side must be a symbol, not a number", lhs.span[0])
    if lhs_term.sign < 0:
        raise ParseError("left side cannot carry a sign", lhs_term.span[0])
    rhs, i = _side(tokens, i + 1)
    kind, piece, start, _ = tokens[i]
    if kind == "=":
        raise ParseError("only one '=' is allowed", start)
    if kind != "end":
        raise ParseError(f"unexpected trailing input {piece!r}", start)
    return IndexExpression(text, lhs, tuple(rhs))


# -- validation and the plan ---------------------------------------------------


class _Plan(NamedTuple):
    """What the later calls need of an expression, worked out at parse time.

    ``terms`` is empty unless the report is valid. Each entry holds the
    term's coefficient (sign times its numbers), its einsum subscripts
    ending in the output subscript, and the (name, r, s) each symbol must
    be bound to. ``valency`` is the result's (r, s). ``texts`` holds the
    left side's factor and each term's factors as explicit_form writes
    them.
    """
    report: ValidationReport
    terms: tuple[tuple[float, str, tuple[tuple[str, int, int], ...]], ...]
    valency: tuple[int, int]
    texts: tuple[str, ...]


def _compile_term(sign: float, factors, violations):
    """Classify one term's letters (rule 5.2) and gather its einsum operands.

    Returns the TermIndices, (coefficient, subscripts, (name, r, s) per
    symbol) and the factors' text as explicit_form writes it; a symbol's
    subscript lists its upper letters, then its lower.
    """
    coeff = sign
    subscripts = []
    needs = []
    texts = []
    occurrences: dict[str, list[IndexOccurrence]] = {}
    for factor in factors:
        if factor.value is not None:
            coeff *= factor.value
            texts.append(repr(factor.value))
            continue
        upper = lower = ""
        for occ in factor.indices:
            letter = occ.letter
            if occ.level == UPPER:
                upper += letter
            else:
                lower += letter
            if letter in occurrences:
                occurrences[letter].append(occ)
            else:
                occurrences[letter] = [occ]
        subscripts.append(upper + lower)
        needs.append((factor.name, len(upper), len(lower)))
        texts.append(_symbol_text(factor.name, upper, lower))
    free: list[tuple[str, str]] = []
    summation: list[str] = []
    for letter, occs in occurrences.items():
        if len(occs) == 1:
            free.append((letter, occs[0].level))
        elif len(occs) == 2:
            if occs[0].level != occs[1].level:
                summation.append(letter)
            else:
                violations.append(Violation(
                    "5.2", letter, occs[1].span,
                    f"summation index '{letter}' has two {occs[0].level} entries; "
                    f"it needs one upper and one lower"))
        else:
            violations.append(Violation(
                "5.2", letter, occs[2].span,
                f"index '{letter}' has {len(occs)} entries in one term; "
                f"a summation index must have exactly two"))
    return (TermIndices(tuple(free), tuple(summation)),
            (coeff, ",".join(subscripts), tuple(needs)), " ".join(texts))


def _compile(expression: IndexExpression) -> _Plan:
    """Classify every term's indices once, apply rules 5.1 and 5.2, and plan."""
    violations: list[Violation] = []
    lhs = expression.lhs
    lhs_indices, (_, out_subscript, ((_, out_r, out_s),)), lhs_text = _compile_term(
        1.0, (lhs,), violations)
    # an upper/lower pair on the left side would be a summation there, but
    # the left side names the result's slots, so every letter must be free
    for letter in lhs_indices.summation:
        second = [occ.span for occ in lhs.indices if occ.letter == letter][1]
        violations.append(Violation(
            "5.1", letter, second,
            f"index '{letter}' repeats on the left side; "
            f"every left-side index must be free"))
    compiled = [_compile_term(term.sign, term.factors, violations)
                for term in expression.rhs]
    term_indices = tuple(classified for classified, _, _ in compiled)
    texts = (lhs_text, *(text for _, _, text in compiled))

    # rule 5.1: every term, and the left side, must expose the same free
    # letters on the same levels
    reference = dict(lhs_indices.free)
    ref_label = "the left side"
    for term, classified in zip(expression.rhs, term_indices):
        current = dict(classified.free)
        if current == reference:
            continue
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

    report = ValidationReport("invalid" if violations else "valid",
                              tuple(violations), lhs_indices, term_indices)
    if violations:
        return _Plan(report, (), (out_r, out_s), texts)
    return _Plan(report, tuple((coeff, subscripts + "->" + out_subscript, needs)
                               for _, (coeff, subscripts, needs), _ in compiled),
                 (out_r, out_s), texts)


def _find_occurrence(factors, letter: str) -> tuple[int, int]:
    for factor in factors:
        for occ in factor.indices:
            if occ.letter == letter:
                return occ.span


def validate(expression: IndexExpression) -> ValidationReport:
    """Report on the free/summation index rules; violations are data, not errors.

    The report was computed when the expression was built.
    """
    return expression._plan.report


# -- evaluation ----------------------------------------------------------------


def evaluate(expression: IndexExpression,
             bindings: Mapping[str, DenseTensor],
             dim: int = DEFAULT_DIM) -> DenseTensor:
    """Evaluate the right side and shape the result by the left side's slots.

    Every free-index assignment sums products over the summation letters
    1..dim. Symbol factors must be bound to DenseTensors whose valency
    matches their written index pattern.
    """
    plan = expression._plan
    if not plan.report.is_valid:
        first = plan.report.violations[0]
        raise ValidationError(
            f"expression is not well-formed: {first.message} "
            f"(rule {first.rule}, offsets {first.span[0]}..{first.span[1]})")

    out_r, out_s = plan.valency
    result = np.zeros((dim,) * (out_r + out_s))
    for coeff, subscripts, needs in plan.terms:
        arrays = []
        for name, r, s in needs:
            if name not in bindings:
                raise BindingError(f"symbol {name!r} is not bound")
            tensor = bindings[name]
            if not isinstance(tensor, DenseTensor):
                if isinstance(tensor, dict):
                    tensor = DenseTensor.from_dict(tensor)
                else:
                    # raw array: take the written index picture as the valency
                    arr = np.asarray(tensor, dtype=float)
                    if arr.ndim != r + s:
                        raise ShapeError(
                            f"symbol {name!r} is written with {r + s} indices "
                            f"but bound to a rank-{arr.ndim} array")
                    side = arr.shape[0] if arr.ndim else dim
                    tensor = DenseTensor(Valency(r, s), side, arr)
            valency = tensor.valency
            if valency.r != r or valency.s != s:
                raise ShapeError(
                    f"symbol {name!r} is written with valency ({r},{s}) but "
                    f"bound to a ({valency.r},{valency.s}) tensor")
            if tensor.dim != dim:
                raise ShapeError(
                    f"symbol {name!r} has dim {tensor.dim}, expected {dim}")
            arrays.append(tensor.array)
        if arrays:
            value = coeff * np.einsum(subscripts, *arrays)
        else:
            value = coeff * np.ones((dim,) * (out_r + out_s))
        result = result + value

    return DenseTensor(Valency(out_r, out_s), dim, result)


def explicit_form(expression: IndexExpression, dim: int = DEFAULT_DIM) -> str:
    """Render the equation with the implicit sums spelled out."""
    plan = expression._plan
    lhs_text, *bodies = plan.texts
    pieces = []
    for n, (term, classified, body) in enumerate(
            zip(expression.rhs, plan.report.term_indices, bodies)):
        prefix = "".join(f"sum_{{{letter}=1..{dim}}} " for letter in classified.summation)
        sign = "- " if term.sign < 0 else ("+ " if n else "")
        pieces.append(f"{sign}{prefix}{body}")
    return f"{lhs_text} = " + " ".join(pieces)


def _symbol_text(name: str, upper: str, lower: str) -> str:
    """A symbol factor with braced index groups: name^{upper}_{lower}."""
    if upper:
        name += "^{" + upper + "}"
    if lower:
        name += "_{" + lower + "}"
    return name


def _render_factor(factor: Factor) -> str:
    if factor.is_number:
        return repr(factor.value)
    return _symbol_text(factor.name, "".join(factor.upper_letters()),
                        "".join(factor.lower_letters()))
