"""Span tracing for the traced benchmark run.

The program under test carries no benchmark hooks: :func:`install`
wraps the public entry points of each layer *from here*, at class level
(so ``from module import Class`` call sites are caught) and, for module
functions, in every loaded ``repro`` module that bound the function.
:func:`uninstall` puts every original back.

A span is the tuple ``(span_id, parent_id, op_id, name, start, end)``.
Spans are appended to :attr:`Recorder.spans` in memory and written out by
:mod:`run` when the run ends. Parents come from a per-thread stack; a
request crossing the loopback socket is re-parented on the server side
by matching the request bytes the client registered when it sent them,
so server work nests under the client's round-trip span and inherits
its op id.

A layer's self time is its spans' duration minus the part of each
interval that child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (span name, module, class or None for a module function, attributes).
# The span name is "<layer>.<attribute>"; the layer is the span name up
# to its last dot.
TARGETS = [
    ("crypto.hashes", "repro.crypto.hashes", "Keccak", ("__init__", "update", "digest")),
    ("crypto.hashes", "repro.crypto.hashes", "_MerkleDamgard", ("__init__", "update", "digest")),
    ("crypto.mac", "repro.crypto.mac", None, ("hmac_digest", "keyed_hash")),
    ("crypto.mac", "repro.crypto.mac", "HMAC", ("__init__", "update", "digest")),
    ("crypto.gibberish", "repro.crypto.gibberish", None, ("encrypt", "decrypt")),
    ("crypto.modes", "repro.crypto.modes", None, ("cbc_encrypt", "cbc_decrypt", "ctr_transform", "seal", "unseal")),
    ("crypto.aes", "repro.crypto.aes", "AES", ("__init__",)),
    ("crypto.ec", "repro.crypto.ec", "Point", ("_scalar_mul", "__add__")),
    ("crypto.ec", "repro.crypto.fixedbase", "FixedBaseMult", ("multiply",)),
    ("crypto.hash_to_group", "repro.crypto.hash_to_group", None, ("hash_to_g0",)),
    ("crypto.pairing", "repro.crypto.pairing", "Pairing", ("pair", "pair_product", "gt_exp", "gt_multi_exp")),
    ("crypto.shamir", "repro.crypto.shamir", "ShamirDealer", ("split", "reconstruct")),
    ("crypto.shamir", "repro.crypto.shamir", None, ("split_secret", "reconstruct_secret")),
    ("crypto.shamir", "repro.crypto.polynomial", None, ("lagrange_coefficients_at_zero", "lagrange_interpolate_at")),
    ("crypto.shamir", "repro.crypto.polynomial", "Polynomial", ("random", "__call__")),
    ("abe.cpabe", "repro.abe.cpabe", "CPABE", ("setup", "keygen", "encrypt_element", "decrypt_element", "decrypt_elements", "encrypt_bytes", "decrypt_bytes")),
    ("policy", "repro.policy.model", "PuzzlePolicy", ("from_text",)),
    ("policy", "repro.policy.compile", None, ("encode_shape", "decode_shape", "shape_tree", "share_plan", "solve_shape")),
    ("policy", "repro.policy.explain", None, ("explain_tree",)),
    ("core", "repro.core.construction1", "SharerC1", ("upload", "upload_policy")),
    ("core", "repro.core.construction1", "ReceiverC1", ("answer_puzzle", "access")),
    ("core", "repro.core.construction1", "PuzzleServiceC1", ("store_puzzle", "display_puzzle", "verify", "explain", "attach_policy", "prepare_retract", "commit_retract")),
    ("core", "repro.core.construction2", "SharerC2", ("upload", "upload_policy")),
    ("core", "repro.core.construction2", "ReceiverC2", ("answer_puzzle", "access")),
    ("core", "repro.core.construction2", "PuzzleServiceC2", ("store_upload", "display_puzzle", "verify", "explain", "attach_policy", "prepare_retract", "commit_retract")),
    ("proto.client", "repro.proto.client", "ProtocolClient", ("_roundtrip",)),
    ("proto.codec", "repro.proto.messages", None, ("encode_message", "decode_message")),
    ("proto.engine", "repro.proto.engine", "PuzzleProtocolEngine", ("dispatch",)),
    ("serve", "repro.serve.remote", "ConnectionBus", ("dispatch",)),
    ("cluster", "repro.cluster.cluster", "StorageCluster", ("put", "get", "get_many", "delete", "exists", "_read_repair", "run_compaction")),
    ("store", "repro.store.engine", "SegmentBlobStore", ("put", "get", "discard", "compact")),
]

RPC_SPAN = "serve.dispatch"  # the client's blocking round trip
ENGINE_SPAN = "proto.engine.dispatch"
OP_PREFIX = "op."


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Recorder:
    """Collects spans and counts from every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.hashed_inputs: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._handoff: dict[bytes, list] = defaultdict(list)
        self._handoff_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, op=None, parent=None):
        stack = self._stack()
        if stack:
            parent, op = stack[-1]
        sid = next(self._ids)
        stack.append((sid, op))
        return (sid, parent, op, name, time.perf_counter())

    def exit(self, token) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(token + (end,))

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself (the root ``op.<kind>``
        span of each user op)."""
        token = self.enter(name, op=op)
        try:
            yield
        finally:
            self.exit(token)

    # Cross-thread parenting: the client registers the frame it is about
    # to send; the server adopts it when the same bytes arrive.
    def hand_off(self, request: bytes) -> None:
        stack = self._stack()
        if stack:
            with self._handoff_lock:
                self._handoff[request].append(stack[-1])

    def adopt(self, request: bytes):
        with self._handoff_lock:
            waiting = self._handoff.get(request)
            if not waiting:
                return None, None
            found = waiting.pop(0)
            if not waiting:
                del self._handoff[request]
        return found[0], found[1]


def _plain(fn, name: str, rec: Recorder):
    enter, leave = rec.enter, rec.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(token)

    return traced


def _special(fn, name: str, rec: Recorder):
    """Wrappers that also count what the layer did."""
    enter, leave, counts = rec.enter, rec.exit, rec.counts
    if name == "serve.dispatch":
        def traced(bus, request):
            token = enter(name)
            rec.hand_off(request)
            try:
                return fn(bus, request)
            finally:
                leave(token)
    elif name == ENGINE_SPAN:
        from repro.proto.envelope import peek_type
        from repro.proto.messages import ErrorReply

        def traced(engine, request):
            parent, op = rec.adopt(request) if not rec._stack() else (None, None)
            token = enter(name, op=op, parent=parent)
            try:
                reply = fn(engine, request)
            finally:
                leave(token)
            counts["proto.bytes"] += len(request) + len(reply)
            if peek_type(reply) == ErrorReply.TYPE:
                counts["proto.error_replies"] += 1
            return reply
    elif name == "crypto.hash_to_group.hash_to_g0":
        def traced(params, data):
            rec.hashed_inputs.add((id(params), bytes(data)))
            token = enter(name)
            try:
                return fn(params, data)
            finally:
                leave(token)
    elif layer_of(name) == "crypto.pairing":
        local = rec._local

        def traced(pairing, *args, **kwargs):
            depth = getattr(local, "pairing_depth", 0)
            before = dict(pairing.op_counts) if depth == 0 else None
            local.pairing_depth = depth + 1
            token = enter(name)
            try:
                return fn(pairing, *args, **kwargs)
            finally:
                leave(token)
                local.pairing_depth = depth
                if before is not None:
                    for key in ("miller_states", "final_exps"):
                        counts["pairing." + key] += (
                            pairing.op_counts.get(key, 0) - before.get(key, 0)
                        )
    elif layer_of(name) == "crypto.modes":
        def traced(key, data, *args, **kwargs):
            counts["crypto.modes.bytes"] += len(data)
            token = enter(name)
            try:
                return fn(key, data, *args, **kwargs)
            finally:
                leave(token)
    elif name == "cluster.read_repair":
        def traced(cluster, url, winner, replies):
            counts["cluster.read_repairs"] += sum(
                1 for _node, blob in replies if blob is None or blob != winner
            )
            token = enter(name)
            try:
                return fn(cluster, url, winner, replies)
            finally:
                leave(token)
    elif name == "store.compact":
        def traced(store, *args, **kwargs):
            live = store.stats().live_bytes
            token = enter(name)
            try:
                result = fn(store, *args, **kwargs)
            finally:
                leave(token)
            if result:
                counts["store.compactions"] += 1
                counts["store.bytes_rewritten"] += live
            return result
    else:
        return None
    return functools.wraps(fn)(traced)


def install(rec: Recorder) -> list:
    """Wrap every entry point in :data:`TARGETS` to record into ``rec``;
    returns the patches for :func:`uninstall`."""
    patches: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
    for layer, module_name, owner_name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            name = "%s.%s" % (layer, attr.strip("_"))
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                kind = type(original) if isinstance(
                    original, (classmethod, staticmethod)
                ) else None
                fn = original.__func__ if kind else original
                wrapper = _special(fn, name, rec) or _plain(fn, name, rec)
                patches.append((owner, attr, original))
                setattr(owner, attr, kind(wrapper) if kind else wrapper)
                continue
            original = getattr(module, attr)
            wrapper = _special(original, name, rec) or _plain(original, name, rec)
            for mod in modules + [module]:
                for key, value in list(mod.__dict__.items()):
                    if value is original:  # catches aliased imports too
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


# -- analysis ------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = defaultdict(list)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _parent, _op, _name, start, end in spans
    }
