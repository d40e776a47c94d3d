"""Tiny length-prefixed binary codec shared by all wire formats.

Artifacts in this system cross trust boundaries (sharer -> SP -> receiver),
so nothing is pickled; every message has an explicit, checked encoding.
The primitives are deliberately minimal: u8/u32 integers, length-prefixed
blobs, and UTF-8 strings built on blobs.

Value types and wire messages declare their layout once, as an ordered
field schema, and inherit their codec from :class:`Struct`::

    >>> from dataclasses import dataclass
    >>> @dataclass(frozen=True)
    ... class Pair(Struct):
    ...     name: str
    ...     count: int
    ...     SCHEMA = (("name", TEXT), ("count", U32))
    >>> Pair("a", 2).to_bytes().hex()
    '000000016100000002'
    >>> Pair.from_bytes(bytes.fromhex("000000016100000002"))
    Pair(name='a', count=2)

A :class:`Kind` says how one field crosses the wire; the combinators
(:func:`seq`, :func:`mapping`, :func:`optional`, :func:`record`,
:func:`trailing`, :func:`nested`, :func:`convert`) build kinds from
kinds. Each schema compiles to one encoder and one decoder when its class
is defined, so no call reflects over dataclass fields, and the decoder
reads fields strictly in schema order.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, ClassVar

__all__ = [
    "Reader",
    "blob",
    "u8",
    "u32",
    "text",
    "CodecError",
    "Kind",
    "Struct",
    "U8",
    "U32",
    "BOOL",
    "TEXT",
    "BLOB",
    "F64",
    "BIG32",
    "convert",
    "seq",
    "mapping",
    "record",
    "optional",
    "trailing",
    "nested",
]


class CodecError(ValueError):
    """Raised on malformed encodings."""


def u8(value: int) -> bytes:
    if not 0 <= value < 256:
        raise CodecError("u8 out of range: %d" % value)
    return bytes([value])


def u32(value: int) -> bytes:
    if not 0 <= value < 2**32:
        raise CodecError("u32 out of range: %d" % value)
    return struct.pack(">I", value)


def blob(data: bytes) -> bytes:
    return u32(len(data)) + data


def text(value: str) -> bytes:
    return blob(value.encode("utf-8"))


class Reader:
    """Cursor over a bytes buffer with checked reads."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.offset + n > len(self.data):
            raise CodecError("truncated encoding")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in encoding") from exc

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def done(self) -> None:
        if self.offset != len(self.data):
            raise CodecError("trailing bytes in encoding")


# -- field kinds ------------------------------------------------------------------


class Kind:
    """How one field value crosses the wire.

    ``pack(value) -> bytes`` and ``read(reader) -> value`` are inverses.
    A ``tail`` kind is delimited by the end of the body rather than by a
    count or length, so it may only be the last field of a schema.
    """

    __slots__ = ("pack", "read", "tail")

    def __init__(
        self,
        pack: Callable[[Any], bytes],
        read: Callable[[Reader], Any],
        tail: bool = False,
    ):
        self.pack = pack
        self.read = read
        self.tail = tail


def _inner(kind: Kind) -> Kind:
    if kind.tail:
        raise TypeError("a rest-of-body kind can only be the last field")
    return kind


_F64 = struct.Struct(">d")

U8 = Kind(u8, Reader.u8)
U32 = Kind(u32, Reader.u32)
BOOL = Kind(lambda value: u8(int(value)), lambda reader: bool(reader.u8()))
TEXT = Kind(text, Reader.text)
BLOB = Kind(blob, Reader.blob)
F64 = Kind(_F64.pack, lambda reader: _F64.unpack(reader.take(8))[0])


def convert(
    kind: Kind, to_wire: Callable[[Any], Any], from_wire: Callable[[Any], Any]
) -> Kind:
    """``kind`` carrying a value that converts to and from its wire form."""
    pack, read = kind.pack, kind.read
    return Kind(
        lambda value: pack(to_wire(value)),
        lambda reader: from_wire(read(reader)),
        kind.tail,
    )


# A non-negative int as a 32-byte big-endian blob (share x-coordinates).
BIG32 = convert(
    BLOB,
    lambda value: value.to_bytes(32, "big"),
    lambda data: int.from_bytes(data, "big"),
)


def _repeated(
    pack_all: Callable[[Any], bytes],
    read_one: Callable[[Reader], Any],
    collect: Callable[[list], Any],
    rest: bool,
) -> Kind:
    if rest:

        def read_rest(reader: Reader) -> Any:
            items = []
            while reader.remaining():
                items.append(read_one(reader))
            return collect(items)

        return Kind(pack_all, read_rest, tail=True)
    return Kind(
        lambda values: u32(len(values)) + pack_all(values),
        lambda reader: collect([read_one(reader) for _ in range(reader.u32())]),
    )


def record(*items: Kind) -> Kind:
    """A fixed-length tuple, one kind per position."""
    packs = tuple(_inner(item).pack for item in items)
    reads = tuple(item.read for item in items)
    return Kind(
        lambda values: b"".join([pack(v) for pack, v in zip(packs, values)]),
        lambda reader: tuple([read(reader) for read in reads]),
    )


def seq(item: Kind, *, rest: bool = False) -> Kind:
    """A tuple of ``item`` values: u32-count-prefixed, or with ``rest``
    running to the end of the body."""
    pack = _inner(item).pack
    return _repeated(
        lambda values: b"".join([pack(v) for v in values]), item.read, tuple, rest
    )


def mapping(
    key: Kind, value: Kind, *, rest: bool = False, sort: bool = False
) -> Kind:
    """A dict as key/value pairs, framed like :func:`seq`; pairs go out
    in insertion order, or in key order with ``sort``."""
    pack_key, read_key = _inner(key).pack, key.read
    pack_value, read_value = _inner(value).pack, value.read

    def pack_all(values: dict) -> bytes:
        items = sorted(values.items()) if sort else values.items()
        return b"".join([pack_key(k) + pack_value(v) for k, v in items])

    return _repeated(
        pack_all, lambda reader: (read_key(reader), read_value(reader)), dict, rest
    )


def optional(item: Kind) -> Kind:
    """``None`` or a value, behind a u8 presence flag."""
    pack, read = _inner(item).pack, item.read
    return Kind(
        lambda value: b"\x00" if value is None else b"\x01" + pack(value),
        lambda reader: read(reader) if reader.u8() else None,
    )


def trailing(item: Kind, empty: Any) -> Kind:
    """A value written only when non-empty, at the very end of the body;
    a body that ends before it decodes it as ``empty``."""
    pack, read = _inner(item).pack, item.read
    return Kind(
        lambda value: pack(value) if value else b"",
        lambda reader: read(reader) if reader.remaining() else empty,
        tail=True,
    )


Schema = tuple  # ordered ((attribute name, Kind), ...)


def nested(cls: type, schema: Schema | None = None) -> Kind:
    """An instance of ``cls``, its fields written in ``schema`` order with
    no length prefix. ``schema`` defaults to a :class:`Struct`'s own.

    The encoder and decoder are generated as straight-line functions, as
    :mod:`dataclasses` generates ``__init__``: no per-call loop over the
    fields, and keyword arguments evaluate (so read) left to right.
    """
    if schema is None:
        return cls._kind
    names = [name for name, _ in schema]
    kinds = [kind for _, kind in schema]
    for kind in kinds[:-1]:
        _inner(kind)
    if not all(name.isidentifier() for name in names):
        raise TypeError("schema field names must be identifiers: %r" % names)
    env: dict[str, Any] = {"cls": cls}
    for i, kind in enumerate(kinds):
        env["p%d" % i], env["r%d" % i] = kind.pack, kind.read
    packed = " + ".join("p%d(obj.%s)" % (i, name) for i, name in enumerate(names))
    fields = ", ".join("%s=r%d(reader)" % (name, i) for i, name in enumerate(names))
    exec(
        "def pack(obj):\n    return %s\n"
        "def read(reader):\n    return cls(%s)\n" % (packed or 'b""', fields),
        env,
    )
    return Kind(env["pack"], env["read"], tail=bool(kinds) and kinds[-1].tail)


class Struct:
    """Base for a dataclass whose wire layout is its ``SCHEMA``.

    Subclasses set ``SCHEMA`` to an ordered tuple of ``(attribute, Kind)``
    pairs and get :meth:`to_bytes`, :meth:`from_bytes` and
    :meth:`byte_size` from it; the codec is compiled when the class is
    created. Decoding constructs the class, so its own validation (a
    ``__post_init__``) runs on every decoded value.
    """

    SCHEMA: ClassVar[Schema] = ()
    _kind: ClassVar[Kind]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._kind = nested(cls, cls.SCHEMA)

    def to_bytes(self) -> bytes:
        return self._kind.pack(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> Any:
        reader = Reader(data)
        value = cls._kind.read(reader)
        reader.done()
        return value

    def byte_size(self) -> int:
        return len(self.to_bytes())
