"""Plain-text instance specification files.

One documented format shared by every suite: nested key-value blocks,

    # comment
    kind = module
    field {
        minpoly = -2 0 1
        basis = 1 0 ; 0 1
    }
    generator = 1 0

Lines hold either `key = tokens` or `key {` ... `}`.  Tokens are
whitespace-separated; `;` splits a value into groups (rows, vectors).
Parse errors carry the line and column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .errors import SpecFileError
from .nf import NfElement, NumberField, nf_new
from .quat import QuatAlgebra, QuatElement, QuatOrder


class Block:
    """A parsed block: ordered (key, value) entries, value a token-group
    list or a nested Block."""

    def __init__(self, line: int = 0):
        self.line = line
        self.entries: List[Tuple[str, Union[List[List[str]], "Block"], int]] = []

    def add(self, key, value, line):
        self.entries.append((key, value, line))

    def get_all(self, key):
        return [(v, ln) for k, v, ln in self.entries if k == key]

    def get(self, key, default=None):
        hits = self.get_all(key)
        if not hits:
            return default
        if len(hits) > 1:
            raise SpecFileError("duplicate key %r" % key, hits[1][1])
        return hits[0][0]

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise SpecFileError("missing required key %r" % key, self.line)
        return v


def parse_text(text: str) -> Block:
    root = Block(1)
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        line = stripped.strip()
        col = len(stripped) - len(stripped.lstrip()) + 1
        if line == "}":
            if len(stack) == 1:
                raise SpecFileError("unmatched closing brace", lineno, col)
            stack.pop()
            continue
        if line.endswith("{"):
            key = line[:-1].strip()
            if not key.isidentifier():
                raise SpecFileError("bad block name %r" % key, lineno, col)
            child = Block(lineno)
            stack[-1].add(key, child, lineno)
            stack.append(child)
            continue
        if "=" not in line:
            raise SpecFileError("expected 'key = value' or a block", lineno, col)
        key, _, val = line.partition("=")
        key = key.strip()
        if not key.isidentifier():
            raise SpecFileError("bad key %r" % key, lineno, col)
        groups: List[List[str]] = [[]]
        for tok in val.replace(";", " ; ").split():
            if tok == ";":
                groups.append([])
            else:
                groups[-1].append(tok)
        stack[-1].add(key, groups, lineno)
    if len(stack) != 1:
        raise SpecFileError("unclosed block", stack[-1].line)
    return root


def parse_file(path: str) -> Block:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


# ---------------------------------------------------------------------------
# typed readers


def _frac(tok: str, line: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SpecFileError("bad rational %r" % tok, line)


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SpecFileError("bad integer %r" % tok, line)


def read_field(block: Block) -> NumberField:
    mp_groups = block.require("minpoly")
    mp = [_int(t, block.line) for t in mp_groups[0]]
    basis_groups = block.require("basis")
    basis = [[_frac(t, block.line) for t in row] for row in basis_groups if row]
    try:
        return nf_new(mp, basis)
    except Exception as e:
        raise SpecFileError("invalid field: %s" % e, block.line)


def read_nf_vector(field: NumberField, groups: Sequence[Sequence[str]],
                   line: int) -> List[NfElement]:
    out = []
    for g in groups:
        if not g:
            continue
        coeffs = [_frac(t, line) for t in g]
        if len(coeffs) != field.degree:
            raise SpecFileError(
                "element needs %d coordinates, got %d" % (field.degree, len(coeffs)),
                line,
            )
        out.append(field.element(coeffs))
    if not out:
        raise SpecFileError("empty vector", line)
    return out


def read_quat_element(alg: QuatAlgebra, groups, line) -> QuatElement:
    comps = read_nf_vector(alg.field, groups, line)
    if len(comps) != 4:
        raise SpecFileError("a quaternion needs 4 components", line)
    return alg.element(*comps)


def read_algebra(root: Block) -> QuatAlgebra:
    fb = root.require("field")
    if not isinstance(fb, Block):
        raise SpecFileError("field must be a block", root.line)
    field = read_field(fb)
    alpha = read_nf_vector(field, root.require("alpha"), root.line)[0]
    beta = read_nf_vector(field, root.require("beta"), root.line)[0]
    try:
        return QuatAlgebra(field, alpha, beta)
    except Exception as e:
        raise SpecFileError("invalid algebra: %s" % e, root.line)


def read_order(alg: QuatAlgebra, root: Block) -> QuatOrder:
    ob = root.get("order")
    if ob is None:
        return QuatOrder.special(alg)
    if not isinstance(ob, Block):
        raise SpecFileError("order must be a block", root.line)
    rows = ob.require("basis")
    elems = []
    group: List[List[str]] = []
    for g in rows:
        if g:
            group.append(g)
        if len(group) == 4:
            elems.append(read_quat_element(alg, group, ob.line))
            group = []
    if group or len(elems) != 4:
        raise SpecFileError("order basis needs 4 quaternions (16 groups)", ob.line)
    try:
        return QuatOrder.ok_span(alg, elems)
    except Exception as e:
        raise SpecFileError("invalid order: %s" % e, ob.line)
