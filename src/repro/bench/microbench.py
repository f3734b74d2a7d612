"""Microbenchmark definitions (Section 5.1 of the paper).

Each microbenchmark is a message type holding a fixed number of fields of
one protobuf field type, pre-populated into a batch:

- ``varint-0`` .. ``varint-10``: uint64 fields whose values encode to 1
  (value 0) through 10 varint bytes; five fields per message, so the
  middle-sized non-repeated varint benchmark sits near the fleet median
  message size (Figure 3).
- ``double``, ``float``: five fixed-width fields per message.
- ``varint-N-R``, ``double-R``, ``float-R``: repeated equivalents (five
  repeated fields per message, several elements each).
- ``string``, ``string_15``, ``string_long``, ``string_very_long``:
  one string field per message at sizes spanning the SSO boundary through
  the paper's largest bytes-field buckets.
- ``bool-SUB``, ``double-SUB``, ``string-SUB``: one sub-message field per
  message, exercising sub-message allocation/context handling.
"""

from __future__ import annotations

from repro.bench.runner import Workload
from repro.proto.descriptor import FieldDescriptor, MessageDescriptor, Schema
from repro.proto.message import Message
from repro.proto.types import FieldType, Label

#: Messages per timed batch.
DEFAULT_BATCH = 32

#: Fields per message for varint/double/float benches (Section 5.1).
_FIELDS_PER_MESSAGE = 5

#: Elements per repeated field in the -R benches.
_REPEATED_ELEMENTS = 8

_STRING_SIZES = {
    "string": 8,
    "string_15": 15,
    "string_long": 2048,
    "string_very_long": 32768,
}


def varint_value(encoded_bytes: int) -> int:
    """A uint64 whose varint encoding is exactly ``encoded_bytes`` long.

    ``varint-0`` denotes the value zero (still one wire byte but no
    payload bits) -- the paper's smallest bucket.
    """
    if encoded_bytes == 0:
        return 0
    if not 1 <= encoded_bytes <= 10:
        raise ValueError("varint benchmarks span 0..10 encoded bytes")
    if encoded_bytes == 1:
        return 1
    return 1 << 7 * (encoded_bytes - 1)


def nonalloc_bench_names() -> list[str]:
    """Benchmarks of Figures 11a/11b (no in-accelerator allocation)."""
    return [f"varint-{n}" for n in range(11)] + ["double", "float"]


def alloc_bench_names() -> list[str]:
    """Benchmarks of Figures 11c/11d (repeated/strings/sub-messages)."""
    return ([f"varint-{n}-R" for n in range(11)]
            + ["string", "string_15", "string_long", "string_very_long",
               "double-R", "float-R", "bool-SUB", "double-SUB",
               "string-SUB"])


def _scalar_message_type(name: str, field_type: FieldType,
                         count: int, repeated: bool) -> MessageDescriptor:
    label = Label.REPEATED if repeated else Label.OPTIONAL
    fields = [
        FieldDescriptor(name=f"f{i}", number=i, field_type=field_type,
                        label=label)
        for i in range(1, count + 1)
    ]
    return MessageDescriptor(name, fields)


def _sub_message_type(name: str,
                      inner_type: FieldType) -> tuple[MessageDescriptor,
                                                      MessageDescriptor]:
    inner = MessageDescriptor(
        f"{name}.Inner",
        [FieldDescriptor(name="v", number=1, field_type=inner_type)],
        full_name=f"{name}.Inner")
    outer = MessageDescriptor(
        name,
        [FieldDescriptor(name="sub", number=1, field_type=FieldType.MESSAGE,
                         type_name=f"{name}.Inner")])
    schema = Schema()
    schema.add_message(inner)
    schema.add_message(outer)
    schema.resolve()
    return outer, inner


def _scalar_value(field_type: FieldType, seed: int):
    if field_type is FieldType.DOUBLE:
        return 1.0 + seed * 0.5
    if field_type is FieldType.FLOAT:
        return 0.5 + seed * 0.25
    if field_type is FieldType.BOOL:
        return seed % 2 == 0
    raise ValueError(f"unexpected scalar type {field_type}")


def _populate_varint(descriptor: MessageDescriptor, encoded_bytes: int,
                     repeated: bool, batch: int) -> list[Message]:
    value = varint_value(encoded_bytes)
    messages = []
    for _ in range(batch):
        message = descriptor.new_message()
        for fd in descriptor.fields:
            if repeated:
                message[fd.name] = [value] * _REPEATED_ELEMENTS
            else:
                message[fd.name] = value
        messages.append(message)
    return messages


def _populate_scalar(descriptor: MessageDescriptor, field_type: FieldType,
                     repeated: bool, batch: int) -> list[Message]:
    messages = []
    for index in range(batch):
        message = descriptor.new_message()
        for slot, fd in enumerate(descriptor.fields):
            value = _scalar_value(field_type, index + slot)
            if repeated:
                message[fd.name] = [value] * _REPEATED_ELEMENTS
            else:
                message[fd.name] = value
        messages.append(message)
    return messages


def _populate_string(descriptor: MessageDescriptor, size: int,
                     batch: int) -> list[Message]:
    messages = []
    for index in range(batch):
        message = descriptor.new_message()
        payload = (chr(ord("a") + index % 26) * size)
        message["f1"] = payload
        messages.append(message)
    return messages


def _populate_sub(outer: MessageDescriptor, inner_type: FieldType,
                  batch: int) -> list[Message]:
    messages = []
    for index in range(batch):
        message = outer.new_message()
        sub = message.mutable("sub")
        if inner_type is FieldType.STRING:
            sub["v"] = "payload-" + "x" * 24
        else:
            sub["v"] = _scalar_value(inner_type, index)
        messages.append(message)
    return messages


def build_microbench(name: str, batch: int = DEFAULT_BATCH) -> Workload:
    """Construct the named microbenchmark's pre-populated workload."""
    if name.startswith("varint-"):
        repeated = name.endswith("-R")
        digits = name.removeprefix("varint-").removesuffix("-R")
        encoded_bytes = int(digits)
        descriptor = _scalar_message_type(
            name, FieldType.UINT64, _FIELDS_PER_MESSAGE, repeated)
        messages = _populate_varint(descriptor, encoded_bytes, repeated,
                                    batch)
        return Workload(name, descriptor, messages)
    if name in ("double", "float", "double-R", "float-R"):
        repeated = name.endswith("-R")
        field_type = (FieldType.DOUBLE if name.startswith("double")
                      else FieldType.FLOAT)
        descriptor = _scalar_message_type(
            name, field_type, _FIELDS_PER_MESSAGE, repeated)
        return Workload(name, descriptor,
                        _populate_scalar(descriptor, field_type, repeated,
                                         batch))
    if name in _STRING_SIZES:
        descriptor = _scalar_message_type(name, FieldType.STRING, 1,
                                          repeated=False)
        return Workload(name, descriptor,
                        _populate_string(descriptor, _STRING_SIZES[name],
                                         batch))
    if name.endswith("-SUB"):
        inner_type = {
            "bool-SUB": FieldType.BOOL,
            "double-SUB": FieldType.DOUBLE,
            "string-SUB": FieldType.STRING,
        }[name]
        outer, _ = _sub_message_type(name.replace("-SUB", "Sub"), inner_type)
        return Workload(name, outer, _populate_sub(outer, inner_type, batch))
    raise ValueError(f"unknown microbenchmark {name!r}")
