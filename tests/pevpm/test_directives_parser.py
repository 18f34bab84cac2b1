"""Tests for the directive IR and the Figure 5 annotation parser."""

import pytest

from repro.apps.jacobi import JACOBI_ANNOTATED_SOURCE, jacobi_model, parse_jacobi
from repro.pevpm.directives import (
    Block,
    Loop,
    Message,
    MessageKind,
    ModelError,
    Runon,
    Serial,
    validate_model,
)
from repro.pevpm.interpreter import compile_model, model_messages
from repro.pevpm.machine import ProcContext
from repro.pevpm.parser import ParseError, parse_annotations


class TestDirectiveConstruction:
    def test_message_kind_parse(self):
        assert MessageKind.parse("MPI_Send") is MessageKind.SEND
        assert MessageKind.parse("mpi_isend") is MessageKind.ISEND
        assert MessageKind.parse("MPI_Recv") is MessageKind.RECV
        assert MessageKind.SEND.is_send
        assert not MessageKind.RECV.is_send
        with pytest.raises(ModelError):
            MessageKind.parse("MPI_Frobnicate")

    def test_bad_expressions_rejected_eagerly(self):
        with pytest.raises(Exception):
            Serial("1 +")
        with pytest.raises(Exception):
            Message("MPI_Send", "size((", "0", "1")
        with pytest.raises(Exception):
            Loop("")

    def test_runon_needs_conditions(self):
        with pytest.raises(ModelError):
            Runon([])

    def test_validate_block_count_mismatch(self):
        bad = Block([Runon(["procnum == 0", "procnum != 0"], blocks=[Block()])])
        with pytest.raises(ModelError, match="condition"):
            validate_model(bad)

    def test_validate_root_type(self):
        with pytest.raises(ModelError):
            validate_model(Serial("1.0"))


class TestParser:
    def test_minimal_loop(self):
        model = parse_annotations(
            """
// PEVPM Loop iterations = 10
// PEVPM {
// PEVPM Serial time = 0.5
// PEVPM }
"""
        )
        assert len(model.children) == 1
        loop = model.children[0]
        assert isinstance(loop, Loop)
        assert loop.iterations == "10"
        assert isinstance(loop.body.children[0], Serial)

    def test_continuation_lines(self):
        model = parse_annotations(
            """
// PEVPM Message type = MPI_Send
// PEVPM &       size = 8*sizeof(double)
// PEVPM &       from = procnum
// PEVPM &       to = procnum+1
"""
        )
        msg = model.children[0]
        assert isinstance(msg, Message)
        assert msg.kind is MessageKind.SEND
        assert msg.size == "8*sizeof(double)"
        assert msg.dst == "procnum+1"

    def test_serial_with_machine(self):
        model = parse_annotations("// PEVPM Serial on perseus time = 3.24/numprocs")
        serial = model.children[0]
        assert serial.machine == "perseus"
        assert serial.time == "3.24/numprocs"

    def test_serial_without_machine(self):
        model = parse_annotations("// PEVPM Serial time = 0.1")
        assert model.children[0].machine == ""

    def test_runon_two_branches(self):
        model = parse_annotations(
            """
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum != 0
// PEVPM {
// PEVPM Serial time = 1.0
// PEVPM }
// PEVPM {
// PEVPM Serial time = 2.0
// PEVPM }
"""
        )
        runon = model.children[0]
        assert isinstance(runon, Runon)
        assert len(runon.conditions) == 2
        assert len(runon.blocks) == 2

    def test_non_pevpm_lines_ignored(self):
        model = parse_annotations(
            """
int main() { /* real C code */
// a normal comment
// PEVPM Serial time = 1.0
}
"""
        )
        assert len(model.children) == 1

    def test_error_no_annotations(self):
        with pytest.raises(ParseError, match="no '// PEVPM'"):
            parse_annotations("int main() {}")

    def test_error_unclosed_block(self):
        with pytest.raises(ParseError, match="missing"):
            parse_annotations("// PEVPM Loop iterations = 1\n// PEVPM {")

    def test_error_unmatched_close(self):
        with pytest.raises(ParseError, match="unmatched"):
            parse_annotations("// PEVPM }")

    def test_error_missing_block(self):
        with pytest.raises(ParseError, match="expected"):
            parse_annotations("// PEVPM Loop iterations = 5")

    def test_error_orphan_continuation(self):
        with pytest.raises(ParseError, match="continuation"):
            parse_annotations("// PEVPM & size = 4")

    def test_error_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_annotations("// PEVPM Telepathy speed = 1")

    def test_error_message_missing_fields(self):
        with pytest.raises(ParseError, match="missing field"):
            parse_annotations("// PEVPM Message type = MPI_Send")

    def test_error_bad_runon_condition_names(self):
        with pytest.raises(ParseError, match="c1, c2"):
            parse_annotations(
                "// PEVPM Runon cond = procnum == 0\n// PEVPM {\n// PEVPM }"
            )

    def test_error_reports_line_numbers(self):
        text = "\n\n\n// PEVPM Bogus x = 1"
        with pytest.raises(ParseError, match="line 4"):
            parse_annotations(text)

    @pytest.mark.parametrize("op", ["bcast", "reduce", "gather", "scatter"])
    def test_collective_root_accepted_on_rooted_ops(self, op):
        block = parse_annotations(f"// PEVPM coll_{op} size = 64 & root = 2")
        (coll,) = block.children
        assert (coll.op, coll.size, coll.root) == (op, "64", "2")

    @pytest.mark.parametrize("op", ["allreduce", "allgather", "alltoall"])
    def test_collective_root_rejected_on_rootless_ops(self, op):
        assert parse_annotations(f"// PEVPM coll_{op} size = 64").children
        with pytest.raises(ParseError, match="does not take"):
            parse_annotations(f"// PEVPM coll_{op} size = 64 & root = 2")

    def test_barrier_takes_no_fields(self):
        (coll,) = parse_annotations("// PEVPM coll_barrier").children
        assert coll.op == "barrier"
        for fields in ("root = 2", "size = 8"):
            with pytest.raises(ParseError, match="does not take"):
                parse_annotations(f"// PEVPM coll_barrier {fields}")

    def test_collective_errors(self):
        with pytest.raises(ParseError, match="needs size"):
            parse_annotations("// PEVPM coll_gather root = 0")
        with pytest.raises(ParseError, match="unknown collective"):
            parse_annotations("// PEVPM coll_scan size = 8")


class TestJacobiFigure5:
    def test_parses(self):
        model = parse_jacobi()
        assert isinstance(model, Block)
        loop = model.children[0]
        assert isinstance(loop, Loop)

    def test_structure_matches_paper(self):
        """One top-level loop; inside: a two-branch Runon (even/odd) and a
        Serial compute step."""
        model = parse_jacobi()
        loop = model.children[0]
        body = loop.body.children
        runons = [n for n in body if isinstance(n, Runon)]
        serials = [n for n in body if isinstance(n, Serial)]
        assert len(runons) == 1 and len(runons[0].conditions) == 2
        assert len(serials) == 1
        assert serials[0].machine == "perseus"
        assert serials[0].time == "serial_time/numprocs"

    def test_message_counts_match_hand_model(self):
        """Parsed Figure 5 and the programmatically built model emit the
        same number of messages for several (nprocs, iterations)."""
        params = {"iterations": 3, "xsize": 256, "serial_time": 3.24e-3}
        for nprocs in (1, 2, 4, 5, 8):
            parsed = model_messages(parse_jacobi(), nprocs, params)
            built = model_messages(
                jacobi_model(iterations=3), nprocs,
                {"serial_time": 3.24e-3},
            )
            # Every process exchanges with each neighbour, both directions:
            # 2*(nprocs-1) messages per iteration.
            assert parsed == built == 3 * 2 * (nprocs - 1)

    def test_ops_are_symmetric_sends_and_recvs(self):
        params = {"iterations": 1, "xsize": 256, "serial_time": 3.24e-3}
        program = compile_model(parse_jacobi(), params)
        sends, recvs = [], []
        for p in range(6):
            for op in program(ProcContext(p, 6)):
                if op[0] == "send":
                    sends.append((p, op[1]))
                elif op[0] == "recv":
                    recvs.append((op[1], p))
        assert sorted(sends) == sorted(recvs)

    def test_message_size_is_1024(self):
        params = {"iterations": 1, "xsize": 256, "serial_time": 3.24e-3}
        program = compile_model(parse_jacobi(), params)
        sizes = {
            op[2]
            for p in range(4)
            for op in program(ProcContext(p, 4))
            if op[0] == "send"
        }
        assert sizes == {1024}

    def test_single_process_has_no_messages(self):
        params = {"iterations": 5, "xsize": 256, "serial_time": 3.24e-3}
        assert model_messages(parse_jacobi(), 1, params) == 0


class TestInterpreter:
    def test_loop_iteration_variable(self):
        model = parse_annotations(
            """
// PEVPM Loop iterations = 4
// PEVPM {
// PEVPM Serial time = 0.001 * (iteration + 1)
// PEVPM }
"""
        )
        program = compile_model(model)
        ops = list(program(ProcContext(0, 1)))
        times = [op[1] for op in ops]
        assert times == pytest.approx([0.001, 0.002, 0.003, 0.004])

    def test_runon_first_match_wins(self):
        model = parse_annotations(
            """
// PEVPM Runon c1 = procnum >= 0
// PEVPM &     c2 = procnum == 0
// PEVPM {
// PEVPM Serial time = 1.0
// PEVPM }
// PEVPM {
// PEVPM Serial time = 2.0
// PEVPM }
"""
        )
        program = compile_model(model)
        ops = list(program(ProcContext(0, 2)))
        assert [op[1] for op in ops] == [1.0]

    def test_misplaced_send_detected(self):
        model = Block([Message("MPI_Send", "8", "0", "1")])
        program = compile_model(model)
        with pytest.raises(ModelError, match="guard it with Runon"):
            list(program(ProcContext(1, 2)))  # proc 1 reaches a from=0 send

    def test_misplaced_recv_detected(self):
        model = Block([Message("MPI_Recv", "8", "0", "1")])
        program = compile_model(model)
        with pytest.raises(ModelError, match="guard it with Runon"):
            list(program(ProcContext(0, 2)))

    def test_negative_serial_time_rejected(self):
        model = Block([Serial("0.0 - 1.0")])
        with pytest.raises(ModelError, match="negative Serial"):
            list(compile_model(model)(ProcContext(0, 1)))

    def test_negative_loop_count_rejected(self):
        model = Block([Loop("0 - 2", body=Block([Serial("1.0")]))])
        with pytest.raises(ModelError, match="negative iteration"):
            list(compile_model(model)(ProcContext(0, 1)))

    def test_params_flow_into_expressions(self):
        model = Block([Serial("base * 2")])
        program = compile_model(model, {"base": 0.25})
        ops = list(program(ProcContext(0, 1)))
        assert ops[0][1] == 0.5


class TestNestedStructures:
    def test_nested_loops_with_iteration_variable(self):
        model = parse_annotations(
            """
// PEVPM Loop iterations = 3
// PEVPM {
// PEVPM Loop iterations = iteration + 1
// PEVPM {
// PEVPM Serial time = 0.001
// PEVPM }
// PEVPM }
"""
        )
        program = compile_model(model)
        ops = list(program(ProcContext(0, 1)))
        # Inner loop runs 1 + 2 + 3 = 6 times.
        assert len(ops) == 6

    def test_outer_iteration_restored_after_inner_loop(self):
        model = parse_annotations(
            """
// PEVPM Loop iterations = 2
// PEVPM {
// PEVPM Loop iterations = 2
// PEVPM {
// PEVPM Serial time = 0.001
// PEVPM }
// PEVPM Serial time = 0.01 * (iteration + 1)
// PEVPM }
"""
        )
        program = compile_model(model)
        outer_times = [op[1] for op in program(ProcContext(0, 1)) if op[1] >= 0.01]
        assert outer_times == pytest.approx([0.01, 0.02])

    def test_runon_inside_loop(self):
        model = parse_annotations(
            """
// PEVPM Loop iterations = 4
// PEVPM {
// PEVPM Runon c1 = iteration % 2 == 0
// PEVPM {
// PEVPM Serial time = 1.0
// PEVPM }
// PEVPM }
"""
        )
        ops = list(compile_model(model)(ProcContext(0, 1)))
        assert len(ops) == 2  # iterations 0 and 2 only

    def test_loop_zero_iterations(self):
        model = parse_annotations(
            """
// PEVPM Loop iterations = 0
// PEVPM {
// PEVPM Serial time = 1.0
// PEVPM }
"""
        )
        assert list(compile_model(model)(ProcContext(0, 1))) == []
