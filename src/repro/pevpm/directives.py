"""PEVPM directive IR: the building blocks of a performance model.

Section 5: "PEVPM is based on a set of parallel program primitives, or
building blocks, that can be used to compose the computation and
communication structure of any message-passing parallel program."  The
four directives of the paper's Figure 5 are:

* ``Loop``   -- iteration (``// PEVPM Loop iterations = 1000``);
* ``Runon``  -- code that runs only on processes satisfying a condition,
  with one block per condition (an if / else-if chain);
* ``Message``-- a message transfer of a given type/size between ``from``
  and ``to`` processes;
* ``Serial`` -- a serial computation segment with a symbolic time.

All numeric/boolean fields are *symbolic expressions* over ``procnum``,
``numprocs``, the loop variable ``iteration`` and user parameters (see
:mod:`repro.pevpm.expr`), so one model re-evaluates across machine sizes.
Interpretation happens in :mod:`repro.pevpm.machine`.
"""

from __future__ import annotations

import enum

from ..collective_schedule import OPS as COLLECTIVE_OPS, ROOTED_OPS
from .expr import compile_expr

__all__ = [
    "ModelError",
    "MessageKind",
    "COLLECTIVE_OPS",
    "ROOTED_OPS",
    "Directive",
    "Block",
    "Serial",
    "Message",
    "Collective",
    "Loop",
    "Runon",
    "validate_model",
]


class ModelError(ValueError):
    """A structurally invalid PEVPM model."""


class MessageKind(enum.Enum):
    SEND = "MPI_Send"
    ISEND = "MPI_Isend"
    RECV = "MPI_Recv"
    IRECV = "MPI_Irecv"

    @property
    def is_send(self) -> bool:
        return self in (MessageKind.SEND, MessageKind.ISEND)

    @classmethod
    def parse(cls, text: str) -> "MessageKind":
        for kind in cls:
            if kind.value.lower() == text.strip().lower():
                return kind
        raise ModelError(f"unknown message type {text!r}")


class Directive:
    """Base class for all IR nodes."""

    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        self.line = line  #: source line for error messages


class Block(Directive):
    """A sequence of directives."""

    __slots__ = ("children",)

    def __init__(self, children: list[Directive] | None = None, line: int = 0):
        super().__init__(line)
        self.children: list[Directive] = list(children or [])

    def __repr__(self) -> str:
        return f"Block({len(self.children)} children)"


class Serial(Directive):
    """A serial computation segment: ``Serial on <machine> time = <expr>``."""

    __slots__ = ("time", "machine", "_time_ast")

    def __init__(self, time: str, machine: str = "", line: int = 0):
        super().__init__(line)
        self.time = time
        self.machine = machine
        self._time_ast = compile_expr(time)

    def __repr__(self) -> str:
        return f"Serial(time={self.time!r})"


class Message(Directive):
    """A message transfer: type, size, from, to (all but type symbolic)."""

    __slots__ = ("kind", "size", "src", "dst", "_size_ast", "_src_ast", "_dst_ast")

    def __init__(self, kind: MessageKind | str, size: str, src: str, dst: str, line: int = 0):
        super().__init__(line)
        self.kind = MessageKind.parse(kind) if isinstance(kind, str) else kind
        self.size = size
        self.src = src
        self.dst = dst
        self._size_ast = compile_expr(size)
        self._src_ast = compile_expr(src)
        self._dst_ast = compile_expr(dst)

    def __repr__(self) -> str:
        return (
            f"Message({self.kind.value}, size={self.size!r}, "
            f"from={self.src!r}, to={self.dst!r})"
        )


class Collective(Directive):
    """A collective operation over all processes: ``coll_<op> size = <expr>``.

    *op* is any of :data:`COLLECTIVE_OPS` (the ops of
    :mod:`repro.collective_schedule`); *root* matters only for
    :data:`ROOTED_OPS`.  Unlike :class:`Message`, a collective is
    *unguarded*: every process executes the directive (as MPI requires),
    and the interpreter lowers it to that rank's slice of the collective
    schedule :mod:`repro.smpi.collectives` executes.  The lowered
    schedule is ordinary send/recv ops, so all three engines (scalar,
    batched, compiled) execute it with zero new semantics,
    bit-identically; ``coll_gather``'s wildcard receives make a program
    divergent, which takes the generator fallback like any racing
    wildcard receive.
    """

    __slots__ = ("op", "size", "root", "_size_ast", "_root_ast")

    def __init__(self, op: str, size: str, root: str = "0", line: int = 0):
        super().__init__(line)
        name = op.strip().lower()
        if name.startswith("coll_"):
            name = name[len("coll_"):]
        if name not in COLLECTIVE_OPS:
            raise ModelError(
                f"unknown collective {op!r}; expected one of "
                f"{', '.join('coll_' + o for o in COLLECTIVE_OPS)}"
            )
        self.op = name
        self.size = size
        self.root = root
        self._size_ast = compile_expr(size)
        self._root_ast = compile_expr(root)

    def __repr__(self) -> str:
        return f"Collective({self.op}, size={self.size!r}, root={self.root!r})"


class Loop(Directive):
    """Iteration: ``Loop iterations = <expr>`` over a body block."""

    __slots__ = ("iterations", "body", "_iter_ast")

    def __init__(self, iterations: str, body: Block | None = None, line: int = 0):
        super().__init__(line)
        self.iterations = iterations
        self._iter_ast = compile_expr(iterations)
        self.body = body or Block()

    def __repr__(self) -> str:
        return f"Loop(iterations={self.iterations!r})"


class Runon(Directive):
    """Conditional execution: conditions c1..cN with one block each.

    Semantically an if / else-if chain: the first true condition's block
    runs (the paper's even/odd Jacobi split is exactly this).
    """

    __slots__ = ("conditions", "blocks", "_cond_asts")

    def __init__(
        self,
        conditions: list[str],
        blocks: list[Block] | None = None,
        line: int = 0,
    ):
        super().__init__(line)
        if not conditions:
            raise ModelError("Runon needs at least one condition")
        self.conditions = list(conditions)
        self._cond_asts = [compile_expr(c) for c in conditions]
        self.blocks = list(blocks or [])

    def __repr__(self) -> str:
        return f"Runon({len(self.conditions)} conditions)"


def validate_model(root: Block) -> None:
    """Structural validation of a model tree.

    Checks: Runon block counts match condition counts; expressions compile
    (done eagerly at construction); nesting is made of known node types.
    Raises :class:`ModelError` with the offending line.
    """

    def walk(node: Directive) -> None:
        if isinstance(node, Block):
            for child in node.children:
                walk(child)
        elif isinstance(node, Loop):
            walk(node.body)
        elif isinstance(node, Runon):
            if len(node.blocks) != len(node.conditions):
                raise ModelError(
                    f"line {node.line}: Runon has {len(node.conditions)} "
                    f"condition(s) but {len(node.blocks)} block(s)"
                )
            for block in node.blocks:
                walk(block)
        elif isinstance(node, (Serial, Message, Collective)):
            pass
        else:
            raise ModelError(f"unknown directive node {type(node).__name__}")

    if not isinstance(root, Block):
        raise ModelError("model root must be a Block")
    walk(root)
