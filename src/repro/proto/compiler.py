"""protoc-style code generation: schemas -> typed Python classes.

The real protoc emits per-type C++ classes with accessors (Section
2.1.3); this module is its Python analogue.  :func:`generate_source`
renders readable Python source defining one wrapper class per message
type -- typed properties, ``has_*``/``clear_*`` methods, ``mutable_*``
for sub-messages, ``add_*`` for repeated sub-messages, and the standard
serialize/parse/clear/copy/merge entry points -- and
:func:`compile_schema` executes it into an importable module object.

The generated classes wrap the dynamic :class:`~repro.proto.message.
Message` (the way generated C++ wraps the runtime's internals), so wire
behaviour is identical to the dynamic API; what generation adds is the
ergonomic, typo-proof surface user code compiles against.
"""

from __future__ import annotations

import keyword
import types as types_module

from repro.proto.descriptor import Schema
from repro.proto.types import FieldType, Label

_HEADER = '''"""Generated protobuf classes.  DO NOT EDIT.

Produced by repro.proto.compiler from a proto2 schema; the classes wrap
dynamic messages and are wire-compatible with the runtime API.
"""

from repro.proto.message import Message


def _wrap(value, classes=None):
    """Wrap a dynamic Message in its generated class, if it has one."""
    if isinstance(value, Message):
        cls = _CLASSES.get(value.descriptor.full_name)
        if cls is not None:
            return cls(_wrapped=value)
    return value


_CLASSES = {}
'''

_CLASS_TEMPLATE = '''

class {class_name}:
    """Generated wrapper for message type ``{full_name}``."""

    def __init__(self, _wrapped=None):
        self._msg = (_wrapped if _wrapped is not None
                     else _SCHEMA[{full_name!r}].new_message())

    @classmethod
    def descriptor(cls):
        return _SCHEMA[{full_name!r}]

    @classmethod
    def parse(cls, data):
        """Deserialize wire bytes into a new {class_name}."""
        return cls(_wrapped=_SCHEMA[{full_name!r}].parse(data))

    def serialize(self):
        """Serialize to protobuf wire bytes."""
        return self._msg.serialize()

    def byte_size(self):
        return self._msg.byte_size()

    def clear(self):
        self._msg.clear()

    def copy(self):
        return type(self)(_wrapped=self._msg.copy())

    def merge_from(self, other):
        self._msg.merge_from(other._msg)

    def which_oneof(self, group):
        """Name of the set member of a oneof group, or None."""
        return self._msg.which_oneof(group)

    def unwrap(self):
        """The underlying dynamic Message (for runtime interop)."""
        return self._msg

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._msg == other._msg
        if isinstance(other, Message):
            return self._msg == other
        return NotImplemented

    def __repr__(self):
        return f"{class_name}({{self._msg!r}})"
'''


def _class_name(full_name: str) -> str:
    name = full_name.replace(".", "_")
    if keyword.iskeyword(name):
        name += "_"
    return name


def _safe(name: str) -> str:
    return name + "_" if keyword.iskeyword(name) else name


def _scalar_property(fd) -> str:
    name = _safe(fd.name)
    return f'''
    @property
    def {name}(self):
        """{fd.label.value} {fd.field_type.value} = {fd.number}"""
        return self._msg[{fd.name!r}]

    @{name}.setter
    def {name}(self, value):
        self._msg[{fd.name!r}] = value

    def has_{name}(self):
        return self._msg.has({fd.name!r})

    def clear_{name}(self):
        self._msg.clear_field({fd.name!r})
'''


def _message_property(fd) -> str:
    name = _safe(fd.name)
    assert fd.message_type is not None
    child_class = _class_name(fd.message_type.full_name)
    if fd.label is Label.REPEATED:
        return f'''
    @property
    def {name}(self):
        """repeated {fd.message_type.full_name} = {fd.number}"""
        return [_wrap(item) for item in self._msg[{fd.name!r}]]

    def add_{name}(self):
        """Append and return a new {child_class} element."""
        return _wrap(self._msg[{fd.name!r}].add())

    def has_{name}(self):
        return self._msg.has({fd.name!r})

    def clear_{name}(self):
        self._msg.clear_field({fd.name!r})
'''
    return f'''
    @property
    def {name}(self):
        """optional {fd.message_type.full_name} = {fd.number}"""
        return _wrap(self._msg[{fd.name!r}])

    def mutable_{name}(self):
        """Get-or-create the {child_class} sub-message."""
        return _wrap(self._msg.mutable({fd.name!r}))

    def has_{name}(self):
        return self._msg.has({fd.name!r})

    def clear_{name}(self):
        self._msg.clear_field({fd.name!r})
'''


def _repeated_scalar_property(fd) -> str:
    name = _safe(fd.name)
    return f'''
    @property
    def {name}(self):
        """repeated {fd.field_type.value} = {fd.number}"""
        return self._msg[{fd.name!r}]

    @{name}.setter
    def {name}(self, values):
        self._msg[{fd.name!r}] = list(values)

    def add_{name}(self, value):
        self._msg[{fd.name!r}].append(value)

    def has_{name}(self):
        return self._msg.has({fd.name!r})

    def clear_{name}(self):
        self._msg.clear_field({fd.name!r})
'''


def _map_property(fd) -> str:
    name = _safe(fd.name)
    assert fd.message_type is not None
    key_fd = fd.message_type.field_by_name("key")
    value_fd = fd.message_type.field_by_name("value")
    assert key_fd is not None and value_fd is not None
    signature = (f"map<{key_fd.field_type.value}, "
                 f"{value_fd.field_type.value}> = {fd.number}")
    return f'''
    @property
    def {name}(self):
        """{signature}"""
        return self._msg.map_as_dict({fd.name!r})

    def set_{name}(self, key, value):
        self._msg.map_set({fd.name!r}, key, value)

    def get_{name}(self, key, default=None):
        return self._msg.map_get({fd.name!r}, key, default)

    def remove_{name}(self, key):
        return self._msg.map_remove({fd.name!r}, key)

    def clear_{name}(self):
        self._msg.clear_field({fd.name!r})
'''


def generate_source(schema: Schema, module_name: str = "generated") -> str:
    """Render Python source for every message type in ``schema``."""
    parts = [_HEADER]
    for descriptor in schema.messages():
        if descriptor.is_map_entry:
            continue  # hidden implementation detail of map fields
        class_name = _class_name(descriptor.full_name)
        parts.append(_CLASS_TEMPLATE.format(
            class_name=class_name, full_name=descriptor.full_name))
        for fd in descriptor.fields:
            if fd.is_map:
                parts.append(_map_property(fd))
            elif fd.field_type is FieldType.MESSAGE:
                parts.append(_message_property(fd))
            elif fd.label is Label.REPEATED:
                parts.append(_repeated_scalar_property(fd))
            else:
                parts.append(_scalar_property(fd))
        parts.append(
            f"\n_CLASSES[{descriptor.full_name!r}] = {class_name}\n")
    for enum in schema.enums():
        enum_class = _class_name(enum.name)
        parts.append(f"\n\nclass {enum_class}:\n"
                     f'    """Generated enum ``{enum.name}``."""\n')
        for value_name, number in enum.values.items():
            parts.append(f"    {_safe(value_name)} = {number}\n")
    for service in schema.services():
        parts.append(_service_stub(service))
    return "".join(parts)


def _service_stub(service) -> str:
    """Render a typed client stub class for one service.

    The stub wraps :class:`repro.proto.rpc.Stub`: each method takes the
    generated request class and returns the generated response class.
    """
    lines = [f'''

class {service.name}Stub:
    """Generated client stub for service ``{service.name}``."""

    def __init__(self, transport, accelerator=None):
        from repro.proto.rpc import Stub
        self._stub = Stub(_SCHEMA.service({service.name!r}), transport,
                          accelerator=accelerator)
''']
    for method in service.methods:
        name = _safe(method.name)
        response_class = _class_name(method.output_type)
        lines.append(f'''
    def {name}(self, request):
        """rpc {method.name} ({method.input_type}) returns
        ({method.output_type})"""
        response = self._stub.call({method.name!r}, request.unwrap()
                                   if hasattr(request, "unwrap")
                                   else request)
        return {response_class}(_wrapped=response)
''')
    return "".join(lines)


def compile_schema(schema: Schema,
                   module_name: str = "generated") -> types_module.ModuleType:
    """Generate and execute the wrapper classes; returns a module object.

    The schema object itself is injected as ``_SCHEMA`` so the generated
    code shares descriptors (and therefore layouts/ADTs) with the
    runtime.
    """
    source = generate_source(schema, module_name)
    module = types_module.ModuleType(module_name)
    module.__dict__["_SCHEMA"] = schema
    exec(compile(source, f"<{module_name}>", "exec"), module.__dict__)
    module.__dict__["__source__"] = source
    return module
