"""Schema-specialized CPU parse/serialize kernels (protoc-style codegen).

The C++ library the paper profiles is *generated* code: protoc emits a
per-message ``MergePartialFromCodedStream`` whose field dispatch is a
switch over expected tags, with varint decoding inlined at each case.
This module gives the Python CPU-reference path the same tier: for a
:class:`~repro.proto.descriptor.MessageDescriptor` it emits straight-line
Python source, one function per reachable message type -- a flat
``while`` loop whose tag switch is unrolled into per-field-number
``elif`` branches, varint decode inlined, values written directly into
the message's slot storage -- and keeps the kernels on the descriptor.
The root type's functions compile with the kernels; every other type's
compile the first time a message reaches that type
(:mod:`repro.proto.lazy`).

Correctness contract: a specialized kernel must be observationally
identical to the interpretive path in :mod:`repro.proto.decoder` /
:mod:`repro.proto.encoder` -- same messages, same bytes, same exception
types and messages.  Rare paths (unknown fields, wire-type mismatches,
malformed keys) bail out to the *same* generic code
(:func:`repro.proto.decoder._parse_one_field`) so their behaviour is the
interpreter's by construction.  Kernels are only used when no
:class:`~repro.proto.trace.Trace` is attached; traced runs always take
the interpretive path so the CPU cost models see the canonical event
stream.

Descriptors are baked into the generated source by identity (the runtime
enforces ``child.descriptor is fd.message_type``), so each descriptor
keeps its own kernels, compiled on first use, and they live exactly as
long as it does.
"""

from __future__ import annotations

from struct import pack as _struct_pack, unpack_from as _struct_unpack_from

from repro.proto.descriptor import reachable_types
from repro.proto.errors import DecodeError, EncodeError
from repro.proto.lazy import install
from repro.proto.message import Message, RepeatedField
from repro.proto.types import FieldType, WireType
from repro.proto.varint import decode_varint, encode_varint, varint_length
from repro.proto.wire import encode_tag, tag_length

#: Struct format + width for the fixed-width field types.
_FIXED = {
    FieldType.DOUBLE: ("<d", 8),
    FieldType.FLOAT: ("<f", 4),
    FieldType.FIXED32: ("<I", 4),
    FieldType.FIXED64: ("<Q", 8),
    FieldType.SFIXED32: ("<i", 4),
    FieldType.SFIXED64: ("<q", 8),
}

_VARINT_TYPES = frozenset((
    FieldType.INT32, FieldType.INT64, FieldType.UINT32, FieldType.UINT64,
    FieldType.SINT32, FieldType.SINT64, FieldType.BOOL, FieldType.ENUM,
))

_SUPPORTED = (frozenset(_FIXED) | _VARINT_TYPES
              | {FieldType.STRING, FieldType.BYTES, FieldType.MESSAGE})

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


def _kernels(descriptor) -> tuple:
    """``(parser, encoder)`` for ``descriptor``, or ``(None, None)``.

    Compiled once and stored on the descriptor, the way
    :func:`~repro.proto.descriptor.structural_fingerprint` stores its
    digest.
    """
    kernels = getattr(descriptor, "_specialized", None)
    if kernels is None:
        kernels = _build_kernels(descriptor) or (None, None)
        descriptor._specialized = kernels
    return kernels


def parser_for(descriptor):
    """The specialized parse kernel for ``descriptor``, or None.

    The kernel signature is ``fn(message, data, pos, end, arena,
    keep_unknown)`` with ``data`` a bytes-like object (the callers pass a
    memoryview over the whole input, as the interpreter does).
    """
    return _kernels(descriptor)[0]


def encoder_for(descriptor):
    """The specialized serialize kernel (``fn(message) -> bytes``)."""
    return _kernels(descriptor)[1]


def warm(schema) -> int:
    """Build the kernels of every message type in a schema.

    Called from :func:`repro.proto.compiler.compile_schema` so generated
    wrapper classes find their kernels built on their first
    parse/serialize.  Each type's source is generated and its root
    functions compiled; the functions of the types it reaches compile
    when a message first reaches them.  Returns the number of types with
    kernels available.
    """
    return sum(_kernels(descriptor)[0] is not None
               for descriptor in schema.messages())


# ---------------------------------------------------------------------------
# Source generation


class _W:
    """Tiny indented source writer keeping one chunk per function."""

    def __init__(self):
        self._chunks: list[tuple[str, list[str]]] = []
        self.depth = 0

    def begin(self, name: str) -> None:
        """Start the chunk of the function ``name``."""
        self._chunks.append((name, []))

    def w(self, line: str = "") -> None:
        line = "    " * self.depth + line if line else ""
        self._chunks[-1][1].append(line)

    def chunks(self) -> list[tuple[str, str]]:
        return [(name, "\n".join(lines) + "\n")
                for name, lines in self._chunks]


def _varint_transform(ft: FieldType, p: str) -> str:
    """Expression mapping varint payload ``p`` to the field's value.

    Each form replays the arithmetic of
    :func:`repro.proto.decoder._decode_varint_value` exactly.
    """
    if ft is FieldType.BOOL:
        return f"{p} != 0"
    if ft is FieldType.SINT64:
        return f"({p} >> 1) ^ -({p} & 1)"
    if ft is FieldType.SINT32:
        return (f"(((({p} >> 1) ^ -({p} & 1)) & {_M32}) ^ {1 << 31})"
                f" - {1 << 31}")
    if ft in (FieldType.INT32, FieldType.ENUM):
        return f"(({p} & {_M32}) ^ {1 << 31}) - {1 << 31}"
    if ft is FieldType.INT64:
        return (f"{p} - {1 << 64} if {p} >= {1 << 63} else {p}")
    if ft is FieldType.UINT32:
        return f"{p} & {_M32}"
    return p  # UINT64


def _varint_payload_expr(ft: FieldType, v: str) -> str:
    """Expression mapping value ``v`` to its unsigned varint payload.

    Values reaching the encoder passed ``_check_scalar`` validation, so
    the range checks in encode_signed/encode_zigzag cannot fire and the
    masks alone reproduce them.
    """
    if ft is FieldType.BOOL:
        return f"1 if {v} else 0"
    if ft in (FieldType.SINT32, FieldType.SINT64):
        return f"(({v} << 1) ^ ({v} >> 63)) & {_M64}"
    return f"{v} & {_M64}"


def _emit_inline_varint(w: _W, out: str) -> None:
    """Inline varint decode at ``pos`` into local ``out`` (advances pos).

    The one-byte fast path mirrors decode_varint's; multi-byte and
    truncated cases call decode_varint itself, so errors are identical.
    """
    w.w(f"if pos < dlen and data[pos] < 128:")
    w.w(f"    {out} = data[pos]; pos += 1")
    w.w("else:")
    w.w(f"    {out}, _c = dv(data, pos); pos += _c")


def _gen_parse_source(root) -> list[tuple[str, str]]:
    order, descs, _ = reachable_types(root)
    w = _W()
    for ti, d in enumerate(descs):
        w.begin(f"_p{ti}")
        w.w(f"def _p{ti}(msg, data, pos, end, arena, keep_unknown):")
        w.depth += 1
        w.w("values = msg._values")
        w.w("hasbits = msg._hasbits")
        w.w("dlen = len(data)")
        w.w("while pos < end:")
        w.depth += 1
        w.w("_b = data[pos]")
        w.w("if _b < 128:")
        w.w("    key = _b; npos = pos + 1")
        w.w("else:")
        w.w("    key, _c = dv(data, pos); npos = pos + _c")
        first = True
        for fd in d.fields:
            if fd.field_type not in _SUPPORTED:
                continue
            _emit_field_branches(w, order, ti, d, fd, first)
            first = False
        kw = "if" if first else "elif"
        w.w(f"{kw} True:")
        w.w("    pos = pof(msg, data, pos, end, None, arena, keep_unknown)")
        w.depth -= 1
        w.w("if pos != end:")
        w.w('    raise DecodeError("message payload overran its length")')
        w.depth -= 1
        w.w()
    return w.chunks()


def _emit_field_branches(w: _W, order, ti: int, d, fd, first: bool) -> None:
    ft = fd.field_type
    num = fd.number
    kw = "if" if first else "elif"
    if fd.is_repeated:
        tag = (num << 3) | int(fd.wire_type)
        w.w(f"{kw} key == {tag}:")
        w.depth += 1
        w.w("pos = npos")
        _emit_value_decode(w, order, ti, fd, "_val")
        _emit_repeated_append(w, ti, fd, "_val")
        w.w(f"hasbits.add({num})")
        w.depth -= 1
        if ft in _VARINT_TYPES or ft in _FIXED:
            # Packed encoding of a numeric repeated field; accepted
            # regardless of the declared option (proto2 rules).
            ptag = (num << 3) | int(WireType.LENGTH_DELIMITED)
            w.w(f"elif key == {ptag}:")
            w.depth += 1
            w.w("pos = npos")
            _emit_inline_varint(w, "_pl")
            w.w("_pend = pos + _pl")
            w.w("if _pend > dlen:")
            w.w(f'    raise DecodeError("field {fd.name}: '
                'truncated packed field")')
            _emit_repeated_fetch(w, ti, fd)
            w.w("while pos < _pend:")
            w.depth += 1
            _emit_value_decode(w, order, ti, fd, "_val")
            w.w("_rl.append(_val)")
            w.depth -= 1
            w.w("if pos != _pend:")
            w.w(f'    raise DecodeError("field {fd.name}: '
                'packed payload overran")')
            w.w(f"hasbits.add({num})")
            w.depth -= 1
        return
    tag = (num << 3) | int(fd.wire_type)
    w.w(f"{kw} key == {tag}:")
    w.depth += 1
    w.w("pos = npos")
    _emit_value_decode(w, order, ti, fd, "_val")
    if ft is FieldType.MESSAGE:
        # proto2 merge semantics for repeated occurrences of a singular
        # sub-message field.
        w.w(f"if {num} in hasbits:")
        w.w(f"    values[{num}].merge_from(_val)")
        w.w("else:")
        w.depth += 1
        _emit_oneof_clear(w, d, fd)
        w.w(f"values[{num}] = _val")
        w.w(f"hasbits.add({num})")
        w.depth -= 1
    else:
        _emit_oneof_clear(w, d, fd)
        w.w(f"values[{num}] = _val")
        w.w(f"hasbits.add({num})")
    w.depth -= 1


def _emit_oneof_clear(w: _W, d, fd) -> None:
    if fd.oneof_group is None:
        return
    for sibling in d.oneof_siblings(fd.number):
        w.w(f"values.pop({sibling}, None); hasbits.discard({sibling})")


def _emit_repeated_fetch(w: _W, ti: int, fd) -> None:
    w.w(f"_rf = values.get({fd.number})")
    w.w("if _rf is None:")
    w.w(f"    _rf = RF(_fd_{ti}_{fd.number}); values[{fd.number}] = _rf")
    w.w("_rl = _rf._items")


def _emit_repeated_append(w: _W, ti: int, fd, val: str) -> None:
    _emit_repeated_fetch(w, ti, fd)
    w.w(f"_rl.append({val})")


def _emit_value_decode(w: _W, order, ti: int, fd, val: str) -> None:
    """Emit decode of one element's value at ``pos`` into ``val``."""
    ft = fd.field_type
    if ft in _FIXED:
        fmt, width = _FIXED[ft]
        w.w(f"if pos + {width} > dlen:")
        w.w(f'    raise DecodeError("field {fd.name}: '
            'truncated fixed value")')
        w.w(f"{val} = up({fmt!r}, data, pos)[0]")
        w.w(f"pos += {width}")
        return
    if ft in (FieldType.STRING, FieldType.BYTES):
        _emit_inline_varint(w, "_ln")
        w.w("_sv = pos + _ln")
        w.w("if _sv > dlen:")
        w.w(f'    raise DecodeError("field {fd.name}: '
            'truncated string/bytes")')
        w.w("_raw = data[pos:_sv]")
        w.w("pos = _sv")
        if ft is FieldType.BYTES:
            w.w(f"{val} = bytes(_raw)")
            return
        w.w("try:")
        w.w(f'    {val} = str(_raw, "utf-8")')
        w.w("except UnicodeDecodeError:")
        w.depth += 1
        # validate_utf8 is consulted at run time (not baked) because the
        # test suite flips it on live descriptors.
        w.w(f"if _fd_{ti}_{fd.number}.validate_utf8:")
        w.w(f'    raise DecodeError("field {fd.name}: invalid UTF-8 in '
            'proto3 string") from None')
        w.w(f'{val} = str(_raw, "latin-1")')
        w.depth -= 1
        return
    if ft is FieldType.MESSAGE:
        tj = order[id(fd.message_type)]
        _emit_inline_varint(w, "_ln")
        w.w("_sv = pos + _ln")
        w.w("if _sv > dlen:")
        w.w(f'    raise DecodeError("field {fd.name}: '
            'truncated sub-message")')
        w.w(f"{val} = Msg(_mt_{ti}_{fd.number}, arena=arena)")
        w.w(f"_p{tj}({val}, data, pos, _sv, arena, keep_unknown)")
        w.w("pos = _sv")
        return
    # Varint scalar.
    _emit_inline_varint(w, "_pv")
    w.w(f"{val} = {_varint_transform(ft, '_pv')}")


# -- serialize side ---------------------------------------------------------


def _scalar_size_expr(fd, v: str) -> str:
    """Size expression for one element value (no key, no outer prefix)."""
    ft = fd.field_type
    if ft in _FIXED:
        return str(_FIXED[ft][1])
    if ft is FieldType.BYTES:
        return f"vl(len({v})) + len({v})"
    return f"vl({_varint_payload_expr(ft, v)})"


def _gen_encode_source(root) -> list[tuple[str, str]]:
    order, descs, _ = reachable_types(root)
    w = _W()
    for ti, d in enumerate(descs):
        _gen_size_fn(w, order, ti, d)
        _gen_emit_fn(w, order, ti, d)
    w.begin("_encode_entry")
    w.w("def _encode_entry(msg):")
    w.depth += 1
    w.w("memo = []")
    w.w("expected = _sz0(msg, memo)")
    w.w("out = bytearray()")
    w.w("_e0(msg, out, memo, 0)")
    w.w("if len(out) != expected:")
    w.w("    raise EncodeError(")
    w.w('        f"ByteSize pass predicted {expected} bytes but encoder '
        'wrote "')
    w.w('        f"{len(out)} -- internal inconsistency")')
    w.w("return bytes(out)")
    w.depth -= 1
    return w.chunks()


def _gen_size_fn(w: _W, order, ti: int, d) -> None:
    """The ByteSize pass: sub-message body sizes and encoded strings are
    stashed in ``memo`` in pre-order so the emit pass replays them
    without recomputation (the C++ library's cached-size trick)."""
    w.begin(f"_sz{ti}")
    w.w(f"def _sz{ti}(msg, memo):")
    w.depth += 1
    w.w("values = msg._values")
    w.w("hasbits = msg._hasbits")
    w.w("total = 0")
    for fd in d.fields:
        if fd.field_type not in _SUPPORTED:
            continue
        _emit_size_field(w, order, ti, fd)
    w.w("for _num, _wv, _vb in msg._unknown:")
    w.w("    total += tl(_num, WT(_wv)) + len(_vb)")
    w.w("return total")
    w.depth -= 1
    w.w()


def _emit_size_field(w: _W, order, ti: int, fd) -> None:
    ft = fd.field_type
    num = fd.number
    outer = (WireType.LENGTH_DELIMITED if fd.is_repeated and fd.packed
             else fd.wire_type)
    key_len = tag_length(num, outer)
    if not fd.is_repeated:
        w.w(f"if {num} in hasbits:")
        w.depth += 1
        w.w(f"_v = values[{num}]")
        if ft is FieldType.MESSAGE:
            tj = order[id(fd.message_type)]
            w.w("_i = len(memo); memo.append(0)")
            w.w(f"_ct = _sz{tj}(_v, memo)")
            w.w("memo[_i] = _ct")
            w.w(f"total += {key_len} + vl(_ct) + _ct")
        elif ft is FieldType.STRING:
            w.w('_enc = _v.encode("utf-8")')
            w.w("memo.append(_enc)")
            w.w(f"total += {key_len} + vl(len(_enc)) + len(_enc)")
        else:
            w.w(f"total += {key_len} + {_scalar_size_expr(fd, '_v')}")
        w.depth -= 1
        return
    w.w(f"_rf = values.get({num})")
    w.w("if _rf is not None and _rf._items:")
    w.depth += 1
    w.w("_li = _rf._items")
    if fd.packed:
        w.w("_i = len(memo); memo.append(0)")
        if ft in _FIXED:
            w.w(f"_pl = {_FIXED[ft][1]} * len(_li)")
        else:
            w.w("_pl = 0")
            w.w("for _v in _li:")
            w.w(f"    _pl += {_scalar_size_expr(fd, '_v')}")
        w.w("memo[_i] = _pl")
        w.w(f"total += {key_len} + vl(_pl) + _pl")
    elif ft is FieldType.MESSAGE:
        tj = order[id(fd.message_type)]
        w.w("for _v in _li:")
        w.depth += 1
        w.w("_i = len(memo); memo.append(0)")
        w.w(f"_ct = _sz{tj}(_v, memo)")
        w.w("memo[_i] = _ct")
        w.w(f"total += {key_len} + vl(_ct) + _ct")
        w.depth -= 1
    elif ft is FieldType.STRING:
        w.w("for _v in _li:")
        w.w('    _enc = _v.encode("utf-8")')
        w.w("    memo.append(_enc)")
        w.w(f"    total += {key_len} + vl(len(_enc)) + len(_enc)")
    elif ft in _FIXED:
        w.w(f"total += ({key_len} + {_FIXED[ft][1]}) * len(_li)")
    else:
        w.w("for _v in _li:")
        w.w(f"    total += {key_len} + {_scalar_size_expr(fd, '_v')}")
    w.depth -= 1


def _gen_emit_fn(w: _W, order, ti: int, d) -> None:
    w.begin(f"_e{ti}")
    w.w(f"def _e{ti}(msg, out, memo, mi):")
    w.depth += 1
    w.w("values = msg._values")
    w.w("hasbits = msg._hasbits")
    for fd in d.fields:
        if fd.field_type not in _SUPPORTED:
            continue
        _emit_encode_field(w, order, ti, fd)
    w.w("for _num, _wv, _vb in msg._unknown:")
    w.w("    out += et(_num, WT(_wv))")
    w.w("    out += _vb")
    w.w("return mi")
    w.depth -= 1
    w.w()


def _emit_varint_out(w: _W, payload: str) -> None:
    w.w(f"_pl = {payload}")
    w.w("if _pl < 128:")
    w.w("    out.append(_pl)")
    w.w("else:")
    w.w("    out += ev(_pl)")


def _emit_length_out(w: _W, length: str) -> None:
    w.w(f"if {length} < 128:")
    w.w(f"    out.append({length})")
    w.w("else:")
    w.w(f"    out += ev({length})")


def _emit_encode_field(w: _W, order, ti: int, fd) -> None:
    ft = fd.field_type
    num = fd.number
    outer = (WireType.LENGTH_DELIMITED if fd.is_repeated and fd.packed
             else fd.wire_type)
    key = encode_tag(num, outer)
    if not fd.is_repeated:
        w.w(f"if {num} in hasbits:")
        w.depth += 1
        w.w(f"_v = values[{num}]")
        w.w(f"out += {key!r}")
        _emit_scalar_out(w, order, ti, fd, "_v")
        w.depth -= 1
        return
    w.w(f"_rf = values.get({num})")
    w.w("if _rf is not None and _rf._items:")
    w.depth += 1
    w.w("_li = _rf._items")
    if fd.packed:
        w.w(f"out += {key!r}")
        w.w("_pl = memo[mi]; mi += 1")
        _emit_length_out(w, "_pl")
        w.w("for _v in _li:")
        w.depth += 1
        _emit_scalar_out(w, order, ti, fd, "_v")
        w.depth -= 1
    else:
        w.w("for _v in _li:")
        w.depth += 1
        w.w(f"out += {key!r}")
        _emit_scalar_out(w, order, ti, fd, "_v")
        w.depth -= 1
    w.depth -= 1


def _emit_scalar_out(w: _W, order, ti: int, fd, v: str) -> None:
    """Emit one element's value bytes (no key) for ``v``."""
    ft = fd.field_type
    if ft in _FIXED:
        fmt, _ = _FIXED[ft]
        w.w(f"out += pk({fmt!r}, {v})")
        return
    if ft is FieldType.STRING:
        w.w("_enc = memo[mi]; mi += 1")
        w.w("_ln = len(_enc)")
        _emit_length_out(w, "_ln")
        w.w("out += _enc")
        return
    if ft is FieldType.BYTES:
        w.w(f"_ln = len({v})")
        _emit_length_out(w, "_ln")
        w.w(f"out += {v}")
        return
    if ft is FieldType.MESSAGE:
        tj = order[id(fd.message_type)]
        w.w("_ct = memo[mi]; mi += 1")
        _emit_length_out(w, "_ct")
        w.w(f"mi = _e{tj}({v}, out, memo, mi)")
        return
    _emit_varint_out(w, _varint_payload_expr(ft, v))


# ---------------------------------------------------------------------------
# Compilation

#: Functions compiled with the kernels: the two the callers hold and the
#: root type's size and emit passes, which every serialization runs.
#: Every other per-type function compiles the first time a message
#: reaches its type.
_EAGER = ("_p0", "_sz0", "_e0", "_encode_entry")


def _build_kernels(root):
    """Build (parser, encoder) for ``root``; None when unsupported.

    The parse side could fall back per-field, but the size/emit pass has
    no per-field escape hatch, so any unsupported field type disables
    specialization for the whole root type.
    """
    for d in reachable_types(root)[1]:
        for fd in d.fields:
            if fd.field_type not in _SUPPORTED:
                return None
    try:
        chunks = _gen_parse_source(root) + _gen_encode_source(root)
        namespace = install(chunks, _namespace(root),
                            f"<specialized:{root.full_name}>", _EAGER)
    except Exception:
        return None
    return namespace["_p0"], namespace["_encode_entry"]


def _namespace(root) -> dict:
    order, descs, _ = reachable_types(root)
    from repro.proto.decoder import _parse_one_field
    namespace: dict = {
        "dv": decode_varint,
        "ev": encode_varint,
        "vl": varint_length,
        "tl": tag_length,
        "et": encode_tag,
        "up": _struct_unpack_from,
        "pk": _struct_pack,
        "WT": WireType,
        "Msg": Message,
        "RF": RepeatedField,
        "DecodeError": DecodeError,
        "EncodeError": EncodeError,
        "pof": _parse_one_field,
    }
    for ti, d in enumerate(descs):
        for fd in d.fields:
            if fd.field_type is FieldType.MESSAGE:
                namespace[f"_mt_{ti}_{fd.number}"] = fd.message_type
            if fd.is_repeated or fd.field_type is FieldType.STRING:
                namespace[f"_fd_{ti}_{fd.number}"] = fd
    return namespace
