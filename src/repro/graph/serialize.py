"""JSON (de)serialization and Graphviz export of data-flow graphs.

``to_json``/``from_json`` round-trip every DFG exactly (nodes with times,
ops and immediates; edges with delays and keys), so workloads and
experiment inputs can be shared as plain files.  ``to_dot`` renders the
Graphviz source used in the documentation: delays appear as slash marks on
edge labels (``d=2``), matching the paper's bar-line convention in spirit.

A document that cannot be decoded — invalid JSON, wrong format tag, a
missing or ill-typed field, a truncated file — raises a single exception
type, :class:`GraphFormatError`, whose message names the source file (when
known) and the offending field (``nodes[2].time``), so a bad graph in a
20-graph sweep is a one-line fix rather than a traceback hunt.
"""

from __future__ import annotations

import json
from pathlib import Path

from .dfg import DFG, DFGError, OpKind

__all__ = ["GraphFormatError", "from_json", "load_graph", "to_dot", "to_json"]

_FORMAT = "repro-dfg-v1"

#: Sentinel distinguishing "field absent" from "field is None".
_MISSING = object()


class GraphFormatError(DFGError):
    """A graph JSON document that cannot be decoded.

    Carries ``source`` (the file the text came from, when known) and
    ``field`` (the JSON path of the offending value, e.g.
    ``nodes[2].time``); both are folded into the message, so printing the
    exception tells the user exactly which file and field to fix.
    """

    def __init__(
        self,
        message: str,
        *,
        source: str | Path | None = None,
        field: str | None = None,
    ) -> None:
        self.source = str(source) if source is not None else None
        self.field = field
        if self.source:
            message = f"{self.source}: {message}"
        super().__init__(message)


def to_json(g: DFG, indent: int | None = 2) -> str:
    """Serialize ``g`` to a JSON string (stable key order)."""
    doc = {
        "format": _FORMAT,
        "name": g.name,
        "nodes": [
            {"name": v.name, "time": v.time, "op": v.op.value, "imm": v.imm}
            for v in g.nodes()
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "delay": e.delay, "key": e.key}
            for e in g.edges()
        ],
    }
    return json.dumps(doc, indent=indent)


def from_json(text: str, source: str | Path | None = None) -> DFG:
    """Rebuild a DFG from :func:`to_json` output.

    Raises :class:`GraphFormatError` (a :class:`DFGError` subclass) on
    format mismatches or malformed documents; when ``source`` is given
    (the file the text was read from) it is named in the message.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise GraphFormatError(f"not valid JSON: {exc}", source=source) from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise GraphFormatError(f"not a {_FORMAT} document", source=source)

    def section(key: str) -> list:
        rows = doc.get(key, _MISSING)
        if rows is _MISSING:
            raise GraphFormatError(
                f"malformed {_FORMAT} document: missing section {key!r}",
                source=source,
                field=key,
            )
        if not isinstance(rows, list):
            raise GraphFormatError(
                f"malformed {_FORMAT} document: "
                f"{key!r} must be a list, not {type(rows).__name__}",
                source=source,
                field=key,
            )
        return rows

    def field(row: object, sect: str, idx: int, key: str, cast, default=_MISSING):
        path = f"{sect}[{idx}].{key}"
        if not isinstance(row, dict):
            raise GraphFormatError(
                f"malformed {_FORMAT} document: "
                f"{sect}[{idx}] must be an object, not {type(row).__name__}",
                source=source,
                field=f"{sect}[{idx}]",
            )
        value = row.get(key, default)
        if value is _MISSING:
            raise GraphFormatError(
                f"malformed {_FORMAT} document: missing field {path}",
                source=source,
                field=path,
            )
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphFormatError(
                f"malformed {_FORMAT} document: bad value for {path}: {exc}",
                source=source,
                field=path,
            ) from exc

    g = DFG(str(doc.get("name", "dfg")))
    for idx, nd in enumerate(section("nodes")):
        try:
            g.add_node(
                field(nd, "nodes", idx, "name", str),
                time=field(nd, "nodes", idx, "time", int, 1),
                op=field(nd, "nodes", idx, "op", OpKind, "add"),
                imm=field(nd, "nodes", idx, "imm", int, 0),
            )
        except GraphFormatError:
            raise
        except DFGError as exc:
            # Structural rejection (duplicate name, bad time) from the DFG
            # itself: same error surface, pinned to the offending node.
            raise GraphFormatError(
                f"malformed {_FORMAT} document: nodes[{idx}]: {exc}",
                source=source,
                field=f"nodes[{idx}]",
            ) from exc
    for idx, ed in enumerate(section("edges")):
        try:
            g.add_edge(
                field(ed, "edges", idx, "src", str),
                field(ed, "edges", idx, "dst", str),
                delay=field(ed, "edges", idx, "delay", int),
                key=field(ed, "edges", idx, "key", int, 0),
            )
        except GraphFormatError:
            raise
        except DFGError as exc:
            raise GraphFormatError(
                f"malformed {_FORMAT} document: edges[{idx}]: {exc}",
                source=source,
                field=f"edges[{idx}]",
            ) from exc
    return g


def load_graph(path: Path | str) -> DFG:
    """Read and deserialize the graph file at ``path``.

    One exception surface for callers: unreadable files are wrapped in
    :class:`GraphFormatError` alongside every decode failure, and the
    message always names the file.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file: {exc}", source=p) from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}", source=p) from exc
    return from_json(text, source=p)


def to_dot(g: DFG) -> str:
    """Graphviz source for ``g``.

    Multiplier-class nodes are drawn as boxes, others as ellipses; edge
    labels carry the delay count when non-zero.
    """
    lines = [f'digraph "{g.name}" {{', "  rankdir=LR;"]
    for v in g.nodes():
        shape = "box" if v.op in (OpKind.MUL, OpKind.MAC) else "ellipse"
        label = v.name if v.time == 1 else f"{v.name}\\nt={v.time}"
        lines.append(f'  "{v.name}" [shape={shape}, label="{label}"];')
    for e in g.edges():
        attrs = []
        if e.delay:
            attrs.append(f'label="{e.delay}D"')
            attrs.append("style=dashed")
        attr = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{e.src}" -> "{e.dst}"{attr};')
    lines.append("}")
    return "\n".join(lines)
