"""Arithmetic formula strings for scenario configuration.

Grammar: ``+ - * / ^`` (``**`` accepted for ``^``), parentheses, unary
minus, one-argument functions ``sin cos exp ln``, constants ``pi`` and
``e``, and whatever coordinate names the caller declares.  ``^`` is
right-associative; unary minus binds between ``*`` and ``^`` so that
``-x^2`` means ``-(x^2)``.  Parsing is strict: an unknown name or a
stray character reports its character position, so config errors point
at the offending spot rather than surfacing later as evaluation noise.
Formulas nested more than ``_MAX_DEPTH`` levels deep are rejected the
same way.

The special initial-data form ``random(seed, amplitude)`` is not part of
the expression grammar; :func:`parse_random_spec` recognizes it whole.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np


class FormulaError(ValueError):
    """Raised for syntax errors and unknown names, with a position."""


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
}

_CONSTANTS = {
    "pi": math.pi,
    "π": math.pi,
    "e": math.e,
}

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>\*\*|[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise FormulaError(f"unexpected character {m.group()!r} at position {m.start()}")
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30, "**": 30}
# np.divide makes 0/0 nan, not ZeroDivisionError, on numbers too
_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": np.divide, "^": np.power, "**": np.power}
_UNARY_BP = 25
# Deepest nesting of subexpressions, and deepest chain of evaluators, a
# formula may have.  Parsing and evaluation both recurse on it, so this
# keeps them well inside Python's recursion limit.
_MAX_DEPTH = 100


def _constant(value: float):
    return lambda env: value


def _unary(fn, a):
    return lambda env: fn(a(env))


def _binary(fn, a, b):
    return lambda env: fn(a(env), b(env))


class _Parser:
    """Parses to one closure per node, evaluating it on an environment; ``used`` names its reads."""

    def __init__(self, text: str, names: frozenset[str]):
        self.text = text
        self.names = names
        self.used: set[str] = set()
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.advance()
        if kind != "op" or value != op:
            raise FormulaError(f"expected {op!r} at position {at}")

    def parse(self):
        node, _ = self.expression(0)
        kind, value, at = self.peek()
        if kind != "end":
            raise FormulaError(f"unexpected {value!r} at position {at}")
        return node

    @staticmethod
    def limit(depth: int, at: int) -> int:
        if depth > _MAX_DEPTH:
            raise FormulaError(f"formula nests deeper than {_MAX_DEPTH} levels at position {at}")
        return depth

    def expression(self, min_bp: int):
        """Parse down to binding power ``min_bp``; returns the evaluator and its depth."""
        self.nesting = self.limit(self.nesting + 1, self.peek()[2])
        node, depth = self.prefix()
        while True:
            kind, value, at = self.peek()
            if kind != "op" or value not in _BINARY_BP:
                break
            bp = _BINARY_BP[value]
            if bp <= min_bp:
                break
            self.advance()
            # right-associative power re-enters at one below its own level
            right, right_depth = self.expression(bp - 1 if value in ("^", "**") else bp)
            node = _binary(_BINARY_OPS[value], node, right)
            depth = self.limit(1 + max(depth, right_depth), at)
        self.nesting -= 1
        return node, depth

    def prefix(self):
        kind, value, at = self.advance()
        if kind == "num":
            return _constant(float(value)), 1
        if kind == "op" and value == "-":
            node, depth = self.expression(_UNARY_BP)
            return _unary(operator.neg, node), self.limit(depth + 1, at)
        if kind == "op" and value == "+":
            return self.expression(_UNARY_BP)
        if kind == "op" and value == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.expression(0)
                self.expect_op(")")
                return _unary(_FUNCTIONS[value], arg), self.limit(depth + 1, at)
            if value in _CONSTANTS:
                return _constant(_CONSTANTS[value]), 1
            if value in self.names:
                self.used.add(value)
                return operator.itemgetter(value), 1
            raise FormulaError(f"unknown symbol {value!r} at position {at}")
        raise FormulaError(f"unexpected {value!r} at position {at}")


class Formula:
    """A parsed expression, evaluated over named coordinate arrays."""

    def __init__(self, text: str, coordinates) -> None:
        self.text = text
        self.names = frozenset(coordinates)
        parser = _Parser(text, self.names)
        self._evaluate, self._used = parser.parse(), parser.used

    def evaluate(self, env: dict) -> np.ndarray | float:
        missing = self._used - set(env)
        if missing:
            raise FormulaError(f"no value supplied for {sorted(missing)}")
        with np.errstate(all="ignore"):
            return self._evaluate(env)


def evaluate_formula(text: str, env: dict) -> np.ndarray | float:
    """Parse against the environment's names and evaluate in one step."""
    return Formula(text, env.keys()).evaluate(env)


_RANDOM_RE = re.compile(
    r"^\s*random\s*\(\s*(\d+)\s*,\s*((?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)\s*\)\s*$"
)


def parse_random_spec(text: str) -> tuple[int, float] | None:
    """Recognize ``random(seed, amplitude)``; None when the text is not one.

    Seeded data are drawn uniformly from ``[-amplitude, amplitude]`` with
    numpy's PCG64 generator, so a seed pins the field bit-for-bit across
    platforms.
    """
    m = _RANDOM_RE.match(text)
    if m is None:
        return None
    return int(m.group(1)), float(m.group(2))


def random_field_values(shape, seed: int, amplitude: float) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(-amplitude, amplitude, size=shape)
