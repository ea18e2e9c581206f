"""Structural (statistics-free) response-shape tests for the key service.

A timing-oracle test based on measured durations would be flaky by
construction; these tests instead pin the *structure* that makes the
observable behavior uniform:

* every success path out of ``KeyGenService.handle_message`` is a wire
  message built by a message constructor — never ad-hoc bytes whose shape
  could vary per branch;
* every error path raises a typed ``ProtocolError`` (one uniform failure
  surface), never a hand-rolled response;
* all OPRF wire messages serialize through the same ``FieldWriter``
  routine, starting with the message tag, so success responses are
  shape-identical up to field contents.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.net import messages
from repro.server import keyservice


def _parse(module) -> ast.Module:
    return ast.parse(textwrap.dedent(inspect.getsource(module)))


def _method(tree: ast.Module, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found")


def _call_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return ""


@pytest.fixture(scope="module")
def handle_message() -> ast.FunctionDef:
    return _method(_parse(keyservice), "KeyGenService", "handle_message")


class TestHandlerResponseShape:
    def test_every_success_return_is_a_wire_message(self, handle_message):
        returns = [
            node
            for node in ast.walk(handle_message)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        assert len(returns) >= 2  # key info, evaluation
        for node in returns:
            name = _call_name(node.value)
            assert name.endswith(("Response", "Info")), (
                f"line {node.lineno}: handler returns {ast.dump(node.value)[:80]}"
                " instead of a wire-message constructor"
            )

    def test_every_error_path_raises_protocol_error(self, handle_message):
        raises = [
            node for node in ast.walk(handle_message) if isinstance(node, ast.Raise)
        ]
        assert raises, "handler must reject unknown/invalid messages"
        for node in raises:
            assert _call_name(node.exc) == "ProtocolError", (
                f"line {node.lineno}: error path must raise the uniform "
                "ProtocolError, not build a bespoke response"
            )


class TestEncoderUniformity:
    def test_all_oprf_messages_share_the_fieldwriter_routine(self):
        tree = _parse(messages)
        encoders = [
            (cls.name, item)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("Oprf")
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "encode"
        ]
        assert sorted(name for name, _ in encoders) == [
            "OprfKeyInfo",
            "OprfKeyInfoRequest",
            "OprfRequest",
            "OprfResponse",
        ]
        for cls_name, encode in encoders:
            calls = [_call_name(n) for n in ast.walk(encode) if isinstance(n, ast.Call)]
            assert "FieldWriter" in calls, f"{cls_name}.encode bypasses FieldWriter"
            # the first serialized field is the message tag, uniformly
            writes = [
                n
                for n in ast.walk(encode)
                if isinstance(n, ast.Call) and _call_name(n).startswith("write_")
            ]
            first = min(writes, key=lambda n: (n.lineno, n.col_offset))
            assert _call_name(first) == "write_int"
            assert isinstance(first.args[0], ast.Attribute)
            assert first.args[0].attr == "TAG", (
                f"{cls_name}.encode must write the tag first"
            )


class TestRejectedRequest:
    def test_out_of_range_request_costs_budget(self):
        from repro.crypto.oprf import RsaOprfServer
        from repro.errors import ProtocolError
        from repro.net.messages import OprfRequest

        service = keyservice.KeyGenService(
            oprf_server=RsaOprfServer(bits=512), max_requests_per_window=10
        )
        bad = OprfRequest(request_id=7, blinded=service.oprf.public_key.n)
        with pytest.raises(ProtocolError):
            service.handle_message("client", bad)
        assert service.evaluations_served == 0
        # the budget is charged before the range check, so a malformed
        # request is not a free probe
        assert service.remaining_budget("client") == 9
