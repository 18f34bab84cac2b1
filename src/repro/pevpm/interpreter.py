"""Interpretation of PEVPM directive IR as model programs.

This is the automated version of the paper's hand step: "The PEVPM
directives listed in Figure 5 were translated into a C language driver
program ... note, however, that this process could be automated by using
appropriate compiler techniques."  :func:`compile_model` turns a directive
tree into the program-factory callable the
:class:`~repro.pevpm.machine.VirtualMachine` executes, with every
directive's symbolic expressions evaluated per process against
``procnum`` / ``numprocs`` / ``iteration`` and user parameters.
"""

from __future__ import annotations

from typing import Callable, Generator

from .directives import (
    Block,
    Collective,
    Directive,
    Loop,
    Message,
    ModelError,
    Runon,
    Serial,
)
from .expr import evaluate
from .machine import ProcContext
from .patterns import emit, lower_collective

__all__ = ["compile_model", "lower_collective", "model_messages"]


def _require_int(value, what: str, line: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"line {line}: {what} must be numeric, got {value!r}")
    as_int = int(round(value))
    return as_int


def _execute(node: Directive, ctx: ProcContext, names: dict) -> Generator:
    """Yield machine operations for *node* as executed by process
    ``names['procnum']``."""
    if isinstance(node, Block):
        for child in node.children:
            yield from _execute(child, ctx, names)
    elif isinstance(node, Serial):
        seconds = evaluate(node._time_ast, names)
        if seconds < 0:
            raise ModelError(f"line {node.line}: negative Serial time {seconds}")
        yield ctx.serial(float(seconds), label=f"serial@{node.line}")
    elif isinstance(node, Loop):
        n = _require_int(evaluate(node._iter_ast, names), "Loop iterations", node.line)
        if n < 0:
            raise ModelError(f"line {node.line}: negative iteration count {n}")
        outer = names.get("iteration")
        for i in range(n):
            names["iteration"] = i
            yield from _execute(node.body, ctx, names)
        if outer is None:
            names.pop("iteration", None)
        else:
            names["iteration"] = outer
    elif isinstance(node, Runon):
        for cond_ast, block in zip(node._cond_asts, node.blocks):
            if evaluate(cond_ast, names):
                yield from _execute(block, ctx, names)
                break
    elif isinstance(node, Message):
        src = _require_int(evaluate(node._src_ast, names), "Message from", node.line)
        dst = _require_int(evaluate(node._dst_ast, names), "Message to", node.line)
        size = _require_int(evaluate(node._size_ast, names), "Message size", node.line)
        me = ctx.procnum
        if node.kind.is_send:
            if src != me:
                raise ModelError(
                    f"line {node.line}: send directive reached by process "
                    f"{me} but from = {src}; guard it with Runon"
                )
            yield ctx.send(dst, size, label=f"{node.kind.value}@{node.line}")
        else:
            if dst != me:
                raise ModelError(
                    f"line {node.line}: recv directive reached by process "
                    f"{me} but to = {dst}; guard it with Runon"
                )
            yield ctx.recv(src, label=f"{node.kind.value}@{node.line}")
    elif isinstance(node, Collective):
        size = _require_int(
            evaluate(node._size_ast, names), "Collective size", node.line
        )
        root = _require_int(
            evaluate(node._root_ast, names), "Collective root", node.line
        )
        try:
            ops = lower_collective(node.op, ctx.procnum, ctx.numprocs, size, root)
        except ModelError as exc:
            raise ModelError(f"line {node.line}: {exc}") from None
        yield from emit(ctx, ops, f"coll_{node.op}@{node.line}")
    else:
        raise ModelError(f"unknown directive node {type(node).__name__}")


def compile_model(
    model: Block, params: dict | None = None
) -> Callable[[ProcContext], Generator]:
    """Compile a directive tree into a VirtualMachine program factory.

    *params* supplies values for free variables in directive expressions
    (the paper's Jacobi model needs ``xsize``; ``sizeof(...)`` is built
    in).  ``procnum``, ``numprocs`` and the innermost ``iteration`` are
    bound automatically.
    """
    params = dict(params or {})

    def program(ctx: ProcContext) -> Generator:
        names = dict(params)
        names["procnum"] = ctx.procnum
        names["numprocs"] = ctx.numprocs
        return _execute(model, ctx, names)

    return program


def model_messages(model: Block, nprocs: int, params: dict | None = None) -> int:
    """Statically count the messages the model will send in total --
    useful for sanity checks and cost estimates before a long run."""
    program = compile_model(model, params)
    count = 0
    for p in range(nprocs):
        ctx = ProcContext(p, nprocs, params)
        for op in program(ctx):
            if op[0] == "send":
                count += 1
    return count
