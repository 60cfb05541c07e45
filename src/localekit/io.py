"""Textual formats for lattices and spaces, plus DOT exports of the orders.

Lattice files: a `lattice <n>` header, then one order pair per line, either
covers or general `a < b` / `a <= b` assertions; the loader takes the
reflexive-transitive closure either way. Space files: a `space <n>` header,
then one 0/1 membership string per open set. `#` starts a comment.
"""

from __future__ import annotations

from typing import Optional, Union

from .common import within_budget
from .lattice import FiniteFrame, cover_pairs, order_closure, validate_frame
from .spaces import FiniteSpace
from .sublocales import ClosedJoinFrame, SublocaleLattice


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _header(text: str, kind: str, noun: str, bound: str,
            budget: Optional[int]) -> tuple[int, list[tuple[int, str]]]:
    """The size n of a `<kind> <n>` header, checked against the named budget
    before anything is built, and the numbered content lines, header first."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != kind:
        raise ParseError(number, f"expected '{kind} <n>', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(number, f"{noun} {parts[1]!r} is not an integer") from None
    if n < 0:
        raise ParseError(number, f"{noun} {n} is negative")
    within_budget(bound, n, budget)
    return n, lines


def load_lattice_text(text: str, budget: Optional[int] = None) -> FiniteFrame:
    """Parse and validate a lattice file; the header is checked against the
    frame budget (default 64 elements) before anything is built."""
    n, lines = _header(text, "lattice", "carrier size", "frame", budget)
    pairs = []
    number = 1
    for number, line in lines[1:]:
        for sep in ("<=", "<"):
            if sep in line:
                left, _, right = line.partition(sep)
                break
        else:
            raise ParseError(number, f"expected 'a < b' or 'a <= b', got {line!r}")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ParseError(number, f"non-integer element in {line!r}") from None
    try:
        return validate_frame(order_closure(n, pairs), max_size=budget)
    except ValueError as exc:
        raise ParseError(number, str(exc)) from exc


def format_lattice(frame: FiniteFrame) -> str:
    """Canonical echo: header plus the cover relation of the canonical order."""
    lines = [f"lattice {frame.n}"]
    lines += [f"{i} < {j}" for i, j in zip(*cover_pairs(frame.leq))]
    return "\n".join(lines) + "\n"


def load_space_text(text: str, budget: Optional[int] = None) -> FiniteSpace:
    """Parse a space file; the header is checked against the space budget
    (default 8 points) before anything is built."""
    n, lines = _header(text, "space", "point count", "space", budget)
    opens = {0, (1 << n) - 1}
    for number, line in lines[1:]:
        if len(line) != n or set(line) - {"0", "1"}:
            raise ParseError(number, f"expected a {n}-character 0/1 string, got {line!r}")
        opens.add(sum(1 << p for p, ch in enumerate(line) if ch == "1"))
    try:
        return FiniteSpace(n, opens)
    except ValueError as exc:
        raise ParseError(lines[-1][0], str(exc)) from exc


def load_any(text: str, budget: Optional[int] = None) -> Union[FiniteFrame, FiniteSpace]:
    """Sniff the header and load the file under its frame or space budget."""
    for number, line in _content_lines(text):
        kind = line.split()[0]
        if kind == "lattice":
            return load_lattice_text(text, budget)
        if kind == "space":
            return load_space_text(text, budget)
        raise ParseError(number, f"unknown header {kind!r}")
    raise ParseError(1, "empty input")


# ---------------------------------------------------------------------------
# DOT export


def _digraph(name: str, nodes: list[tuple[str, str]], edges: list[tuple[str, str]]) -> str:
    out = [f"digraph {name} {{", "  rankdir=BT;"]
    out += [f'  "{node}" [label="{label}"];' for node, label in nodes]
    out += [f'  "{a}" -> "{b}";' for a, b in edges]
    out.append("}")
    return "\n".join(out) + "\n"


def dot_hasse(frame: FiniteFrame) -> str:
    nodes = [(str(i), frame.labels[i]) for i in range(frame.n)]
    edges = [(str(i), str(j)) for i, j in zip(*cover_pairs(frame.leq))]
    return _digraph("hasse", nodes, edges)


def dot_sublocales(lattice: SublocaleLattice) -> str:
    """S(L) ≅ 2^P, so sublocale j covers i iff ys[j] adds one prime to ys[i]."""
    nodes = [(str(i), s.label()) for i, s in enumerate(lattice.sublocales)]
    ys, k = lattice.prime_sets, len(lattice).bit_length() - 1
    index = {y: j for j, y in enumerate(ys)}
    covers = sorted((i, index[y | 1 << p]) for i, y in enumerate(ys) for p in range(k)
                    if not y >> p & 1)
    return _digraph("sublocales", nodes, [(str(i), str(j)) for i, j in covers])


def dot_closed_joins(cjf: ClosedJoinFrame) -> str:
    nodes = [(str(i), cjf.frame.labels[i]) for i in range(len(cjf))]
    edges = [(str(i), str(j)) for i, j in zip(*cover_pairs(cjf.frame.leq))]
    return _digraph("closed_joins", nodes, edges)


def dot_specialization(space: FiniteSpace) -> str:
    """Covers of the specialization preorder: x < y with no z outside {x, y} between."""
    nodes = [(f"p{x}", f"p{x}") for x in range(space.points)]
    edges = [(f"p{x}", f"p{y}") for x, y in zip(*cover_pairs(space.specialization))]
    return _digraph("specialization", nodes, edges)
