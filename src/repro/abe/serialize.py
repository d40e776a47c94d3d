"""Binary serialization for CP-ABE artifacts.

The paper's Implementation 2 ships four files to the server on every share
(``pub_key``, ``master_key``, ``message.txt.cpabe``, ``details.txt``,
~600 KB total) — the dominant cost in its Figure 10(a) network delay. To
reproduce that cost honestly, the simulated clients exchange *real encoded
bytes* produced by this module, and the network model charges for their
actual length.

It is also what makes the Perturb tweak possible at all: the paper's
prototype could not rewrite the cpabe toolkit's opaque ciphertext encoding
and had to ship the unperturbed tree; here the encoding is ours, so
Construction 2 achieves full surveillance resistance.

Format: a minimal tagged length-prefixed binary codec (no pickle — the
artifacts cross trust boundaries).
"""

from __future__ import annotations

import struct

from repro.abe.access_tree import AccessTree, AttributeLeaf, Node, ThresholdGate
from repro.abe.cpabe import Ciphertext, HybridCiphertext, MasterKey, PublicKey, SecretKey
from repro.crypto.ec import CurveParams, Point
from repro.crypto.fq2 import Fq2
from repro.util.codec import CodecError
from repro.util.codec import Reader as _Reader
from repro.util.codec import blob as _blob

__all__ = [
    "encode_access_tree",
    "decode_access_tree",
    "encode_public_key",
    "decode_public_key",
    "encode_master_key",
    "decode_master_key",
    "encode_secret_key",
    "decode_secret_key",
    "encode_ciphertext",
    "decode_ciphertext",
    "encode_hybrid_ciphertext",
    "decode_hybrid_ciphertext",
]

_LEAF_TAG = 0
_GATE_TAG = 1


def _point(point: Point) -> bytes:
    return _blob(point.to_bytes())


def _read_point(reader: _Reader, params: CurveParams) -> Point:
    return Point.from_bytes(params, reader.blob())


# -- access trees ---------------------------------------------------------------


def _encode_node(node: Node) -> bytes:
    if isinstance(node, AttributeLeaf):
        return bytes([_LEAF_TAG]) + _blob(node.attribute.encode())
    out = bytes([_GATE_TAG]) + struct.pack(">II", node.threshold, len(node.children))
    for child in node.children:
        out += _encode_node(child)
    return out


def _decode_node(reader: _Reader) -> Node:
    tag = reader.u8()
    if tag == _LEAF_TAG:
        return AttributeLeaf(reader.text())
    if tag == _GATE_TAG:
        threshold = reader.u32()
        count = reader.u32()
        children = tuple(_decode_node(reader) for _ in range(count))
        return ThresholdGate(threshold, children)
    raise CodecError("unknown access-tree node tag %d" % tag)


def encode_access_tree(tree: AccessTree) -> bytes:
    return _encode_node(tree.root)


def decode_access_tree(data: bytes) -> AccessTree:
    """Parse a tree; any malformation (unknown tag, bad length, a gate
    whose threshold its children cannot meet) raises :class:`CodecError`."""
    reader = _Reader(data)
    try:
        tree = AccessTree(_decode_node(reader))
    except CodecError:
        raise
    except ValueError as exc:
        raise CodecError("invalid access tree: %s" % exc) from exc
    reader.done()
    return tree


# -- keys -------------------------------------------------------------------------


def encode_public_key(pk: PublicKey) -> bytes:
    return (
        _point(pk.g)
        + _point(pk.h)
        + _point(pk.f)
        + _blob(pk.e_gg_alpha.to_bytes())
    )


def decode_public_key(params: CurveParams, data: bytes) -> PublicKey:
    reader = _Reader(data)
    g = _read_point(reader, params)
    h = _read_point(reader, params)
    f = _read_point(reader, params)
    e_gg_alpha = Fq2.from_bytes(params.q, reader.blob())
    reader.done()
    return PublicKey(params=params, g=g, h=h, f=f, e_gg_alpha=e_gg_alpha)


def encode_master_key(params: CurveParams, mk: MasterKey) -> bytes:
    width = (params.r.bit_length() + 7) // 8
    return _blob(mk.beta.to_bytes(width, "big")) + _point(mk.g_alpha)


def decode_master_key(params: CurveParams, data: bytes) -> MasterKey:
    reader = _Reader(data)
    beta = int.from_bytes(reader.blob(), "big")
    g_alpha = _read_point(reader, params)
    reader.done()
    return MasterKey(beta=beta, g_alpha=g_alpha)


def encode_secret_key(sk: SecretKey) -> bytes:
    out = _point(sk.d) + struct.pack(">I", len(sk.components))
    for attribute in sorted(sk.components):
        d_j, d_j_prime = sk.components[attribute]
        out += _blob(attribute.encode()) + _point(d_j) + _point(d_j_prime)
    return out


def decode_secret_key(params: CurveParams, data: bytes) -> SecretKey:
    reader = _Reader(data)
    d = _read_point(reader, params)
    count = reader.u32()
    components: dict[str, tuple[Point, Point]] = {}
    for _ in range(count):
        attribute = reader.blob().decode()
        d_j = _read_point(reader, params)
        d_j_prime = _read_point(reader, params)
        components[attribute] = (d_j, d_j_prime)
    reader.done()
    return SecretKey(d=d, components=components)


# -- ciphertexts --------------------------------------------------------------------


def encode_ciphertext(ct: Ciphertext) -> bytes:
    out = _blob(encode_access_tree(ct.tree))
    out += _blob(ct.c_tilde.to_bytes())
    out += _point(ct.c)
    out += struct.pack(">I", len(ct.leaf_c))
    for c_y, c_y_prime in zip(ct.leaf_c, ct.leaf_c_prime):
        out += _point(c_y) + _point(c_y_prime)
    return out


def decode_ciphertext(params: CurveParams, data: bytes) -> Ciphertext:
    reader = _Reader(data)
    tree = decode_access_tree(reader.blob())
    c_tilde = Fq2.from_bytes(params.q, reader.blob())
    c = _read_point(reader, params)
    count = reader.u32()
    leaf_c: list[Point] = []
    leaf_c_prime: list[Point] = []
    for _ in range(count):
        leaf_c.append(_read_point(reader, params))
        leaf_c_prime.append(_read_point(reader, params))
    reader.done()
    if count != len(tree.leaves()):
        raise ValueError("leaf component count does not match the tree")
    return Ciphertext(
        tree=tree,
        c_tilde=c_tilde,
        c=c,
        leaf_c=tuple(leaf_c),
        leaf_c_prime=tuple(leaf_c_prime),
    )


def encode_hybrid_ciphertext(ct: HybridCiphertext) -> bytes:
    return _blob(encode_ciphertext(ct.header)) + _blob(ct.body)


def decode_hybrid_ciphertext(params: CurveParams, data: bytes) -> HybridCiphertext:
    reader = _Reader(data)
    header = decode_ciphertext(params, reader.blob())
    body = reader.blob()
    reader.done()
    return HybridCiphertext(header=header, body=body)
