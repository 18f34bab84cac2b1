"""Parser for ``// PEVPM`` source annotations (the paper's Figure 5 format).

The annotation grammar, reconstructed from the paper's listing:

* a directive starts on a line ``// PEVPM <Kind> key = value`` and may be
  continued with ``// PEVPM & key = value`` lines;
* ``// PEVPM {`` opens a block, ``// PEVPM }`` closes one;
* ``Loop``  takes ``iterations`` and is followed by one block;
* ``Runon`` takes conditions ``c1``, ``c2``, ... and is followed by one
  block per condition (an if / else-if chain);
* ``Message`` takes ``type``, ``size``, ``from``, ``to``;
* ``Serial`` is written ``Serial on <machine> time = <expr>``;
* ``Coll_<op>`` is a collective, for every op of
  :mod:`repro.collective_schedule`: ``Coll_Bcast`` / ``Coll_Reduce`` /
  ``Coll_Gather`` / ``Coll_Scatter`` take ``size`` and an optional
  ``root`` (default 0); ``Coll_Allreduce`` / ``Coll_Allgather`` /
  ``Coll_Alltoall`` take ``size`` only; ``Coll_Barrier`` takes no
  fields.  Collectives are unguarded -- every process executes them,
  as MPI requires.

Everything that is not a ``// PEVPM`` line (i.e. the actual C code) is
ignored, so a fully annotated source file -- like the paper's Jacobi
listing -- parses directly.  The parser is line-oriented and reports the
offending line number on error.
"""

from __future__ import annotations

import re

from .directives import (
    ROOTED_OPS,
    Block,
    Collective,
    Loop,
    Message,
    ModelError,
    Runon,
    Serial,
    validate_model,
)

__all__ = ["parse_annotations", "ParseError"]


class ParseError(ModelError):
    """Malformed PEVPM annotation text."""


_PREFIX = re.compile(r"^\s*//\s*PEVPM\b(.*)$")
_KV = re.compile(r"^\s*(\w+)\s*=\s*(.+?)\s*$")


def _extract_lines(text: str) -> list[tuple[int, str]]:
    """Pull out the PEVPM payloads: (line number, content) pairs."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _PREFIX.match(raw)
        if m:
            out.append((lineno, m.group(1).strip()))
    return out


def _join_continuations(lines: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """Merge ``&`` continuation lines into their directive line."""
    merged: list[tuple[int, str]] = []
    for lineno, content in lines:
        if content.startswith("&"):
            if not merged:
                raise ParseError(f"line {lineno}: continuation '&' with no directive")
            prev_line, prev = merged[-1]
            merged[-1] = (prev_line, prev + " & " + content[1:].strip())
        else:
            merged.append((lineno, content))
    return merged


def _split_fields(body: str) -> list[tuple[str, str]]:
    """Split ``key = value & key = value ...`` into pairs."""
    fields = []
    for chunk in body.split("&"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _KV.match(chunk)
        if not m:
            raise ParseError(f"malformed field {chunk!r}")
        fields.append((m.group(1), m.group(2)))
    return fields


class _Parser:
    def __init__(self, lines: list[tuple[int, str]]):
        self.lines = lines
        self.pos = 0

    def peek(self) -> tuple[int, str] | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> tuple[int, str]:
        item = self.lines[self.pos]
        self.pos += 1
        return item

    # -- grammar -----------------------------------------------------------
    def parse_block_body(self, stop_at_close: bool) -> Block:
        """Parse directives until '}' (if stop_at_close) or end of input."""
        block = Block()
        while True:
            item = self.peek()
            if item is None:
                if stop_at_close:
                    raise ParseError("unexpected end of annotations: missing '}'")
                return block
            lineno, content = item
            if content == "}":
                if not stop_at_close:
                    raise ParseError(f"line {lineno}: unmatched '}}'")
                self.next()
                return block
            block.children.append(self.parse_directive())

    def expect_open_block(self, what: str) -> Block:
        item = self.peek()
        if item is None or item[1] != "{":
            where = f"line {item[0]}" if item else "end of input"
            raise ParseError(f"{where}: expected '{{' to open {what} block")
        self.next()
        return self.parse_block_body(stop_at_close=True)

    def parse_directive(self):
        lineno, content = self.next()
        if content == "{":
            raise ParseError(f"line {lineno}: unexpected '{{' without a directive")
        word, _, rest = content.partition(" ")
        kind = word.lower()
        if kind == "loop":
            fields = dict(_split_fields(rest))
            if "iterations" not in fields:
                raise ParseError(f"line {lineno}: Loop needs iterations = <expr>")
            body = self.expect_open_block("Loop")
            return Loop(fields["iterations"], body=body, line=lineno)
        if kind == "runon":
            pairs = _split_fields(rest)
            if not pairs:
                raise ParseError(f"line {lineno}: Runon needs at least one condition")
            for key, _v in pairs:
                if not re.fullmatch(r"c\d+", key):
                    raise ParseError(
                        f"line {lineno}: Runon conditions must be named c1, c2, ... "
                        f"(got {key!r})"
                    )
            conditions = [v for _k, v in pairs]
            blocks = [self.expect_open_block(f"Runon {k}") for k, _v in pairs]
            return Runon(conditions, blocks=blocks, line=lineno)
        if kind == "message":
            fields = dict(_split_fields(rest))
            missing = {"type", "size", "from", "to"} - set(fields)
            if missing:
                raise ParseError(
                    f"line {lineno}: Message missing field(s) {sorted(missing)}"
                )
            return Message(
                fields["type"], fields["size"], fields["from"], fields["to"],
                line=lineno,
            )
        if kind.startswith("coll_"):
            fields = dict(_split_fields(rest))
            op = kind[len("coll_"):]
            # A barrier moves no data, so it takes no size.
            sized = {"size"} if op != "barrier" else set()
            if sized - set(fields):
                raise ParseError(f"line {lineno}: {word} needs size = <expr>")
            allowed = sized | ({"root"} if op in ROOTED_OPS else set())
            extra = set(fields) - allowed
            if extra:
                raise ParseError(
                    f"line {lineno}: {word} does not take {sorted(extra)}"
                )
            try:
                return Collective(
                    op, fields.get("size", "0"), root=fields.get("root", "0"),
                    line=lineno,
                )
            except ModelError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        if kind == "serial":
            # "Serial on perseus time = 3.24/numprocs" or "Serial time = ...".
            machine = ""
            body = rest
            m = re.match(r"^on\s+(\S+)\s+(.*)$", rest)
            if m:
                machine, body = m.group(1), m.group(2)
            fields = dict(_split_fields(body))
            if "time" not in fields:
                raise ParseError(f"line {lineno}: Serial needs time = <expr>")
            return Serial(fields["time"], machine=machine, line=lineno)
        raise ParseError(f"line {lineno}: unknown directive {word!r}")


def parse_annotations(text: str) -> Block:
    """Parse annotated source text into a validated model tree.

    *text* can be a fully annotated C file (non-PEVPM lines are ignored)
    or bare annotation lines.
    """
    lines = _join_continuations(_extract_lines(text))
    if not lines:
        raise ParseError("no '// PEVPM' annotations found")
    parser = _Parser(lines)
    model = parser.parse_block_body(stop_at_close=False)
    validate_model(model)
    return model
