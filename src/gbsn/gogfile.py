"""Parsing and rendering of the .gog text format.

A document describes a finite graph of Z^n-groups::

    # comment
    rank 2
    vertex X
    edge h: X -> X alpha [[1,0],[0,2]] omega [[2,0],[0,1]]
    edge p: X -> X alpha [[1,0],[0,1]] omega [[1,1],[0,1]]
    tree

The ``rank`` line comes first; ``tree`` (optional) lists the spanning-tree
edge names. Matrix entries are integers. Parsing is whitespace-insensitive
within a line and reports 1-based line/column positions on syntax errors;
``to_spec`` raises on semantic ones (connectivity, singular inclusions).
"""

from __future__ import annotations

import re
from typing import Optional

from .gog import Edge, GoGSpec
from .linalg import QMat
from .record import Record


class GoGParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class GoGDocument(Record):
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str, tuple, tuple], ...]
    tree: Optional[tuple[str, ...]] = None

    def to_spec(self) -> GoGSpec:
        """The spec; raises ``gog.InvalidSpecError`` if it would be invalid."""
        edges = [
            Edge(name, src, dst, QMat.from_ints(alpha, 1), QMat.from_ints(omega, 1))
            for name, src, dst, alpha, omega in self.edges
        ]
        return GoGSpec.make(self.rank, self.vertices, edges, self.tree)


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT = re.compile(r"-?\d+")


class _LineScanner:
    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str):
        raise GoGParseError(message, self.lineno, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def name(self) -> str:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def integer(self) -> int:
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m:
            self.error("expected an integer")
        self.pos = m.end()
        return int(m.group(0))

    def matrix(self) -> tuple:
        rows = self._list(lambda: self._list(self.integer))
        if any(len(r) != len(rows) for r in rows):
            self.error("matrix must be square")
        return rows

    def _list(self, item) -> tuple:
        """``[x, x, ...]``: one or more items read by ``item``."""
        self.expect("[")
        items = [item()]
        self.skip_ws()
        while self.text.startswith(",", self.pos):
            self.pos += 1
            items.append(item())
            self.skip_ws()
        self.expect("]")
        return tuple(items)


def parse(text: str) -> GoGDocument:
    rank: Optional[int] = None
    vertices: list[str] = []
    edges = []
    tree: Optional[tuple[str, ...]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        sc = _LineScanner(line, lineno)
        keyword = sc.name()
        if keyword == "rank":
            if rank is not None:
                sc.error("duplicate rank declaration")
            rank = sc.integer()
            if rank < 1:
                sc.error("rank must be positive")
        elif rank is None:
            raise GoGParseError("missing rank declaration", lineno, 1)
        elif keyword == "vertex":
            vertices.append(sc.name())
        elif keyword == "edge":
            name = sc.name()
            sc.expect(":")
            src = sc.name()
            sc.expect("->")
            dst = sc.name()
            label = sc.name()
            if label != "alpha":
                sc.error("expected 'alpha'")
            alpha = sc.matrix()
            label = sc.name()
            if label != "omega":
                sc.error("expected 'omega'")
            omega = sc.matrix()
            edges.append((name, src, dst, alpha, omega))
        elif keyword == "tree":
            if tree is not None:
                sc.error("duplicate tree declaration")
            names = []
            while not sc.at_end():
                names.append(sc.name())
            tree = tuple(names)
        else:
            sc.pos = 0
            sc.error(f"unknown directive {keyword!r}")
        if not sc.at_end():
            sc.error("trailing input")
    if rank is None:
        raise GoGParseError("missing rank declaration", 1, 1)
    return GoGDocument(rank, tuple(vertices), tuple(edges), tree)


def _render_matrix(rows) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in rows) + "]"


def render(doc: GoGDocument) -> str:
    lines = [f"rank {doc.rank}"]
    for v in doc.vertices:
        lines.append(f"vertex {v}")
    for name, src, dst, alpha, omega in doc.edges:
        lines.append(
            f"edge {name}: {src} -> {dst} "
            f"alpha {_render_matrix(alpha)} omega {_render_matrix(omega)}"
        )
    if doc.tree is not None:
        lines.append(("tree " + " ".join(doc.tree)).rstrip())
    return "\n".join(lines) + "\n"
