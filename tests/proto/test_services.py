"""Tests for service definitions and the RPC runtime."""

import pytest

from repro.accel.driver import ProtoAccelerator
from repro.proto import parse_schema
from repro.proto.errors import SchemaError
from repro.proto.rpc import RpcError, ServiceHandler, Stub
from repro.proto.writer import schema_to_proto

SOURCE = """
    syntax = "proto2";

    message EchoRequest { optional string text = 1; optional int32 n = 2; }
    message EchoResponse { repeated string texts = 1; }

    service Echo {
      rpc Repeat (EchoRequest) returns (EchoResponse);
      rpc Stream (EchoRequest) returns (stream EchoResponse);
    }
"""


@pytest.fixture()
def schema():
    return parse_schema(SOURCE)


class TestParsing:
    def test_service_descriptor(self, schema):
        service = schema.service("Echo")
        assert {m.name for m in service.methods} == {"Repeat", "Stream"}
        repeat = service.method("Repeat")
        assert repeat.input_descriptor is schema["EchoRequest"]
        assert repeat.output_descriptor is schema["EchoResponse"]
        assert not repeat.server_streaming

    def test_streaming_flag(self, schema):
        assert schema.service("Echo").method("Stream").server_streaming

    def test_full_method_name(self, schema):
        assert schema.service("Echo").full_method_name("Repeat") == \
            "/Echo/Repeat"

    def test_unknown_message_type_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema(
                "service S { rpc M (Missing) returns (Missing); }")

    def test_duplicate_method_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema("""
                message M { }
                service S {
                  rpc A (M) returns (M);
                  rpc A (M) returns (M);
                }
            """)

    def test_method_options_block_skipped(self):
        schema = parse_schema("""
            message M { }
            service S {
              rpc A (M) returns (M) { option deadline = 1; }
            }
        """)
        assert schema.service("S").method("A")

    def test_writer_emits_services(self, schema):
        emitted = schema_to_proto(schema)
        assert "service Echo {" in emitted
        assert "rpc Repeat (EchoRequest) returns (EchoResponse);" in emitted
        assert "returns (stream EchoResponse);" in emitted
        reparsed = parse_schema(emitted)
        assert reparsed.service("Echo").method("Stream").server_streaming


def _echo_handler(schema):
    def repeat(request):
        response = schema["EchoResponse"].new_message()
        for _ in range(request["n"]):
            response["texts"].append(request["text"])
        return response
    return repeat


class TestRpcRuntime:
    def test_software_round_trip(self, schema):
        handler = ServiceHandler(schema.service("Echo"))
        handler.register("Repeat", _echo_handler(schema))
        stub = Stub(schema.service("Echo"), transport=handler)
        request = schema["EchoRequest"].new_message()
        request["text"] = "hi"
        request["n"] = 3
        response = stub.call("Repeat", request)
        assert list(response["texts"]) == ["hi", "hi", "hi"]
        assert handler.calls_served == 1
        assert stub.calls_made == 1

    def test_accelerated_both_ends(self, schema):
        server_accel = ProtoAccelerator()
        server_accel.register_schema(schema)
        client_accel = ProtoAccelerator()
        client_accel.register_schema(schema)
        handler = ServiceHandler(schema.service("Echo"),
                                 accelerator=server_accel)
        handler.register("Repeat", _echo_handler(schema))
        stub = Stub(schema.service("Echo"), transport=handler,
                    accelerator=client_accel)
        request = schema["EchoRequest"].new_message()
        request["text"] = "offloaded"
        request["n"] = 2
        response = stub.call("Repeat", request)
        assert list(response["texts"]) == ["offloaded"] * 2
        # Both devices actually did work.
        assert client_accel.transport.instructions_issued > 2
        assert server_accel.transport.instructions_issued > 2

    def test_unimplemented_method_rejected(self, schema):
        handler = ServiceHandler(schema.service("Echo"))
        stub = Stub(schema.service("Echo"), transport=handler)
        request = schema["EchoRequest"].new_message()
        with pytest.raises(RpcError):
            stub.call("Repeat", request)

    def test_wrong_request_type_rejected(self, schema):
        handler = ServiceHandler(schema.service("Echo"))
        stub = Stub(schema.service("Echo"), transport=handler)
        wrong = schema["EchoResponse"].new_message()
        with pytest.raises(RpcError):
            stub.call("Repeat", wrong)

    def test_handler_must_return_declared_type(self, schema):
        handler = ServiceHandler(schema.service("Echo"))
        handler.register("Repeat",
                         lambda request: request)  # wrong type back
        stub = Stub(schema.service("Echo"), transport=handler)
        request = schema["EchoRequest"].new_message()
        request["n"] = 0
        with pytest.raises(RpcError):
            stub.call("Repeat", request)

    def test_unknown_route_rejected(self, schema):
        handler = ServiceHandler(schema.service("Echo"))
        with pytest.raises(RpcError):
            handler("/Other/Method", b"")
