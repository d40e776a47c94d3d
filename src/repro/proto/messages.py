"""Typed protocol messages and their byte codecs.

One dataclass per wire message. Each class carries a unique ``TYPE``
byte and declares its body as a field schema (``SCHEMA``, run by the
generic codec in :mod:`repro.util.codec`); :func:`encode_message` /
:func:`decode_message` add and strip the versioned envelope
(:mod:`repro.proto.envelope`).

Message bodies embed the core value types through those types' own
schemas (``Puzzle``, ``DisplayedPuzzle``, ...), so a message's payload
size equals the ``byte_size()`` the cost meter charges — the wire layer
adds only the envelope.

Failures cross the wire as :class:`ErrorReply`, which round-trips the
repository's exception taxonomy (:mod:`repro.core.errors`) by stable
code strings, preserving the transient/permanent split the resilience
layer keys on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.construction1 import DisplayedPuzzle, PuzzleAnswers, ShareRelease
from repro.core.construction2 import (
    AccessGrantC2,
    C2Upload,
    DisplayedPuzzleC2,
    PuzzleAnswersC2,
)
from repro.core.errors import (
    AccessDeniedError,
    CircuitOpenError,
    PuzzleParameterError,
    ShareFailedError,
    TamperDetectedError,
    TransientNetworkError,
    TransientProviderError,
    TransientServiceError,
    UnknownPuzzleError,
    UnroutableMessageError,
)
from repro.core.puzzle import Puzzle
from repro.core.throttle import ThrottledError
from repro.osn.provider import OsnError, Post, User
from repro.osn.storage import StorageError
from repro.policy.explain import Explanation
from repro.proto.envelope import WireFormatError, open_envelope, seal
from repro.util.codec import (
    BLOB,
    BOOL,
    F64,
    TEXT,
    U8,
    U32,
    CodecError,
    Kind,
    Reader,
    Struct,
    mapping,
    nested,
    optional,
    record,
    seq,
    text,
)

__all__ = [
    "Message",
    "MESSAGE_TYPES",
    "encode_message",
    "decode_message",
    "message_name",
    "StorePuzzleRequest",
    "StoreUploadRequest",
    "DisplayPuzzleRequest",
    "AnswerSubmission",
    "RetractPuzzleRequest",
    "RetractPrepareRequest",
    "RetractCommitRequest",
    "RetractAbortRequest",
    "PublishPostRequest",
    "FetchPostRequest",
    "RegisterUserRequest",
    "BefriendRequest",
    "SharePolicyRequest",
    "ExplainRequest",
    "StoragePutRequest",
    "StorageGetRequest",
    "StorageExistsRequest",
    "StorageDeleteRequest",
    "BatchRequest",
    "BatchReply",
    "StoreReply",
    "DisplayReplyC1",
    "DisplayReplyC2",
    "ReleaseReply",
    "GrantReply",
    "RetractReply",
    "RetractPrepareReply",
    "PostReply",
    "UserReply",
    "AckReply",
    "ExplainReply",
    "StoragePutReply",
    "StorageGetReply",
    "StorageBoolReply",
    "ErrorReply",
]

MESSAGE_TYPES: dict[int, type["Message"]] = {}


def _register(cls: type["Message"]) -> type["Message"]:
    if cls.TYPE in MESSAGE_TYPES:  # pragma: no cover - programming error
        raise ValueError("duplicate message type 0x%02x" % cls.TYPE)
    MESSAGE_TYPES[cls.TYPE] = cls
    return cls


class Message(Struct):
    """Base class: a :class:`~repro.util.codec.Struct` with a type byte.

    A message's body is its ``SCHEMA`` encoding; a message without a
    ``SCHEMA`` has an empty body.
    """

    TYPE = -1


def encode_message(message: Message) -> bytes:
    return seal(message.TYPE, message.to_bytes())


def decode_message(data: bytes) -> Message:
    msg_type, body = open_envelope(data)
    cls = MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise WireFormatError("unknown message type 0x%02x" % msg_type)
    return cls.from_bytes(body)


def message_name(msg_type: int | None) -> str:
    cls = MESSAGE_TYPES.get(msg_type) if msg_type is not None else None
    return cls.__name__ if cls is not None else "invalid"


# -- shared field kinds ------------------------------------------------------

_USER = nested(User, (("user_id", U32), ("name", TEXT)))
_MEMBERS = seq(U32)


def _pack_audience(audience: str | frozenset[int]) -> bytes:
    if audience == "friends":
        return b"\x00"
    if audience == "public":
        return b"\x01"
    if isinstance(audience, str):
        # An invalid audience string is still representable — the
        # provider, not the codec, owns that validation.
        return b"\x03" + text(audience)
    return b"\x02" + _MEMBERS.pack(sorted(audience))


def _read_audience(reader: Reader) -> str | frozenset[int]:
    tag = reader.u8()
    if tag == 0:
        return "friends"
    if tag == 1:
        return "public"
    if tag == 2:
        return frozenset(_MEMBERS.read(reader))
    if tag == 3:
        return reader.text()
    raise CodecError("unknown audience tag %d" % tag)


# The audience tagged union: u8 tag, then the member ids (tag 2) or the
# raw string (tag 3).
_AUDIENCE = Kind(_pack_audience, _read_audience)
_POST = nested(
    Post,
    (
        ("post_id", U32),
        ("author", _USER),
        ("content", TEXT),
        ("audience", _AUDIENCE),
    ),
)

# ``random.Random`` state: (version, 625 words + index, optional gauss).
# Serializing the full state keeps the SP's question sampling
# deterministic for a caller-supplied rng even across the wire.
_RngState = tuple
_RNG_STATE = optional(record(U32, seq(U32), optional(F64)))


def rng_from_state(state: _RngState | None) -> random.Random | None:
    """Rebuild a :class:`random.Random` from a decoded state tuple."""
    if state is None:
        return None
    rng = random.Random()
    try:
        rng.setstate((state[0], tuple(state[1]), state[2]))
    except (ValueError, TypeError, IndexError) as exc:
        raise CodecError("invalid rng state in display request") from exc
    return rng


@dataclass(frozen=True)
class _PuzzleRef(Message):
    """Body shared by the requests that name one registration."""

    construction: int
    puzzle_id: int

    SCHEMA = (("construction", U8), ("puzzle_id", U32))


@dataclass(frozen=True)
class _Evidence(Message):
    """Body shared by Verify and Explain: hashed answers per question.

    C1 digests are raw HMAC bytes; C2 digests are hex strings carried as
    their ASCII bytes. ``requester`` feeds per-requester guess throttling
    when the service enforces it.
    """

    construction: int
    puzzle_id: int
    requester: str
    digests: dict[str, bytes] = field(default_factory=dict)

    SCHEMA = (
        ("construction", U8),
        ("puzzle_id", U32),
        ("requester", TEXT),
        ("digests", mapping(TEXT, BLOB)),
    )

    def to_answers_c1(self) -> PuzzleAnswers:
        return PuzzleAnswers(puzzle_id=self.puzzle_id, digests=dict(self.digests))

    def to_answers_c2(self) -> PuzzleAnswersC2:
        try:
            digests = {q: d.decode("ascii") for q, d in self.digests.items()}
        except UnicodeDecodeError as exc:
            raise CodecError("C2 digest is not hex text") from exc
        return PuzzleAnswersC2(puzzle_id=self.puzzle_id, digests=digests)


@dataclass(frozen=True)
class _Frames(Message):
    """Body shared by batch requests and replies: enveloped frames."""

    frames: tuple[bytes, ...]

    SCHEMA = (("frames", seq(BLOB)),)


# -- requests ----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class StorePuzzleRequest(Message):
    """C1 Upload: the sharer ships Z_O to the SP."""

    TYPE = 0x01
    puzzle: Puzzle

    SCHEMA = (("puzzle", nested(Puzzle)),)


@_register
@dataclass(frozen=True)
class StoreUploadRequest(Message):
    """C2 Upload: tau' + PK + MK + URL_O to the SP."""

    TYPE = 0x02
    record: C2Upload

    SCHEMA = (("record", nested(C2Upload)),)


@_register
@dataclass(frozen=True)
class DisplayPuzzleRequest(Message):
    """DisplayPuzzle: ask the SP for the question subset."""

    TYPE = 0x03
    construction: int
    puzzle_id: int
    rng_state: _RngState | None = None

    SCHEMA = (
        ("construction", U8),
        ("puzzle_id", U32),
        ("rng_state", _RNG_STATE),
    )


@_register
@dataclass(frozen=True)
class AnswerSubmission(_Evidence):
    """Verify: hashed answers per question (never plaintext answers)."""

    TYPE = 0x04


@_register
@dataclass(frozen=True)
class RetractPuzzleRequest(_PuzzleRef):
    """Remove a puzzle registration (retraction or publish rollback)."""

    TYPE = 0x05


@_register
@dataclass(frozen=True)
class RetractPrepareRequest(_PuzzleRef):
    """Retract saga phase 1: hide the registration, learn URL_O.

    A prepared registration stops serving display/verify immediately but
    is restorable by :class:`RetractAbortRequest` until the commit —
    the cross-plane contract: no live registration ever points at a
    blob the DH plane has already deleted.
    """

    TYPE = 0x0C


@_register
@dataclass(frozen=True)
class RetractCommitRequest(_PuzzleRef):
    """Retract saga phase 2: discard the prepared registration for good."""

    TYPE = 0x0D


@_register
@dataclass(frozen=True)
class RetractAbortRequest(_PuzzleRef):
    """Retract saga rollback: restore a prepared registration."""

    TYPE = 0x0E


@_register
@dataclass(frozen=True)
class PublishPostRequest(Message):
    """Place the hyperlink post on the sharer's profile."""

    TYPE = 0x06
    author: User
    content: str
    audience: str | frozenset[int] = "friends"

    SCHEMA = (("author", _USER), ("content", TEXT), ("audience", _AUDIENCE))


@_register
@dataclass(frozen=True)
class FetchPostRequest(Message):
    """Static-ACL read: fetch a post as a given viewer."""

    TYPE = 0x07
    viewer: User
    post_id: int

    SCHEMA = (("viewer", _USER), ("post_id", U32))


@_register
@dataclass(frozen=True)
class RegisterUserRequest(Message):
    """Create an account on the SP — the membership verb a *remote*
    client needs before it can publish the hyperlink post. The local
    platform keeps calling ``provider.register_user`` directly; over the
    wire this travels like everything else and its profile fields land
    in the audit trail (they are public OSN profile data, never puzzle
    answers)."""

    TYPE = 0x0F
    name: str
    profile: dict[str, str] = field(default_factory=dict)

    SCHEMA = (("name", TEXT), ("profile", mapping(TEXT, TEXT, sort=True)))


@_register
@dataclass(frozen=True)
class BefriendRequest(Message):
    """Make two accounts friends (symmetric, per the paper's model)."""

    TYPE = 0x10
    a: User
    b: User

    SCHEMA = (("a", _USER), ("b", _USER))


@_register
@dataclass(frozen=True)
class SharePolicyRequest(Message):
    """Attach the canonical policy text to a stored registration.

    The sharer sends this right after Store when the puzzle was compiled
    from a nested policy, so later Explain replies can echo the policy
    the *sharer* wrote rather than a reconstruction. The text contains
    only questions and gate structure — the same strings DisplayPuzzle
    already serves — never answers.
    """

    TYPE = 0x11
    construction: int
    puzzle_id: int
    policy_text: str

    SCHEMA = (
        ("construction", U8),
        ("puzzle_id", U32),
        ("policy_text", TEXT),
    )


@_register
@dataclass(frozen=True)
class ExplainRequest(_Evidence):
    """Explain: the same hashed evidence as Verify, answered with the
    gate-by-gate derivation instead of (never in addition to) the
    release. A deny explains without raising; throttled services charge
    denied explains against the shared Verify budget.
    """

    TYPE = 0x12


@_register
@dataclass(frozen=True)
class StoragePutRequest(Message):
    TYPE = 0x08
    data: bytes

    SCHEMA = (("data", BLOB),)


@_register
@dataclass(frozen=True)
class StorageGetRequest(Message):
    TYPE = 0x09
    url: str

    SCHEMA = (("url", TEXT),)


@_register
@dataclass(frozen=True)
class StorageExistsRequest(Message):
    TYPE = 0x0A
    url: str

    SCHEMA = (("url", TEXT),)


@_register
@dataclass(frozen=True)
class StorageDeleteRequest(Message):
    TYPE = 0x0B
    url: str

    SCHEMA = (("url", TEXT),)


# -- batching ----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class BatchRequest(_Frames):
    """N member requests in one round trip.

    Members ride as *fully enveloped frames* (each its own sealed
    message), decoded one by one at execution time: a corrupted member
    yields its own per-member ``bad-message`` :class:`ErrorReply` while
    its siblings execute normally — the same isolation :func:`~repro.proto.frontends.serve`
    gives a lone frame. Batches cannot nest; a batch member that is
    itself a batch is answered with an ``unroutable`` error.
    """

    TYPE = 0x20

    @classmethod
    def of(cls, *messages: Message) -> "BatchRequest":
        """Seal each message into its member frame."""
        for message in messages:
            if isinstance(message, BatchRequest):
                raise ValueError("batch members cannot be batches")
        return cls(frames=tuple(encode_message(m) for m in messages))


@_register
@dataclass(frozen=True)
class BatchReply(_Frames):
    """Member replies, one enveloped frame per request, in request
    order. Failed members carry an :class:`ErrorReply` frame in their
    slot; success and failure coexist in one reply."""

    TYPE = 0x60

    @classmethod
    def of(cls, *messages: Message) -> "BatchReply":
        return cls(frames=tuple(encode_message(m) for m in messages))


# -- replies -----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class StoreReply(Message):
    """The SP-assigned puzzle identifier."""

    TYPE = 0x40
    puzzle_id: int

    SCHEMA = (("puzzle_id", U32),)


@_register
@dataclass(frozen=True)
class DisplayReplyC1(Message):
    TYPE = 0x41
    displayed: DisplayedPuzzle

    SCHEMA = (("displayed", nested(DisplayedPuzzle)),)


@_register
@dataclass(frozen=True)
class DisplayReplyC2(Message):
    TYPE = 0x42
    displayed: DisplayedPuzzleC2

    SCHEMA = (("displayed", nested(DisplayedPuzzleC2)),)


@_register
@dataclass(frozen=True)
class ReleaseReply(Message):
    """C1 Verify success: blinded shares + URL_O."""

    TYPE = 0x43
    release: ShareRelease

    SCHEMA = (("release", nested(ShareRelease)),)


@_register
@dataclass(frozen=True)
class GrantReply(Message):
    """C2 Verify success: URL_O + PK + MK."""

    TYPE = 0x44
    grant: AccessGrantC2

    SCHEMA = (("grant", nested(AccessGrantC2)),)


@_register
@dataclass(frozen=True)
class RetractReply(Message):
    TYPE = 0x45
    removed: bool

    SCHEMA = (("removed", BOOL),)


@_register
@dataclass(frozen=True)
class RetractPrepareReply(Message):
    """The prepared registration's URL_O — what the DH plane must delete
    before the saga may commit."""

    TYPE = 0x4A
    url: str

    SCHEMA = (("url", TEXT),)


@_register
@dataclass(frozen=True)
class PostReply(Message):
    TYPE = 0x46
    post: Post

    SCHEMA = (("post", _POST),)


@_register
@dataclass(frozen=True)
class UserReply(Message):
    """The freshly registered account."""

    TYPE = 0x4B
    user: User

    SCHEMA = (("user", _USER),)


@_register
@dataclass(frozen=True)
class AckReply(Message):
    """A bare success acknowledgement (befriend and friends).

    Failures never travel as a negative ack — they cross the wire as
    :class:`ErrorReply` with their taxonomy code, like everywhere else.
    """

    TYPE = 0x4C


@_register
@dataclass(frozen=True)
class ExplainReply(Message):
    """The grant/deny derivation for one Explain request.

    Carries :class:`repro.policy.explain.Explanation` in its canonical
    encoding — questions and gate arithmetic only, no answer material
    (the curious-SP test pins this byte-for-byte).
    """

    TYPE = 0x4D
    explanation: Explanation

    SCHEMA = (("explanation", nested(Explanation)),)


@_register
@dataclass(frozen=True)
class StoragePutReply(Message):
    TYPE = 0x47
    url: str

    SCHEMA = (("url", TEXT),)


@_register
@dataclass(frozen=True)
class StorageGetReply(Message):
    TYPE = 0x48
    data: bytes

    SCHEMA = (("data", BLOB),)


@_register
@dataclass(frozen=True)
class StorageBoolReply(Message):
    """Reply to exists/delete: a single boolean."""

    TYPE = 0x49
    value: bool

    SCHEMA = (("value", BOOL),)


# -- the error reply and the taxonomy mapping --------------------------------

# Ordered most-specific-first: the first isinstance match wins. Codes are
# wire-stable strings; classes are looked up on the receiving side to
# re-raise the same exception type (and therefore the same
# transient/permanent retry classification).
def _error_registry() -> list[tuple[str, type[BaseException]]]:
    from repro.osn.faults import TransientStorageError

    return [
        ("throttled", ThrottledError),
        ("access-denied", AccessDeniedError),
        ("tamper-detected", TamperDetectedError),
        ("unknown-puzzle", UnknownPuzzleError),
        ("unroutable", UnroutableMessageError),
        ("puzzle-parameter", PuzzleParameterError),
        ("share-failed", ShareFailedError),
        ("circuit-open", CircuitOpenError),
        ("transient-storage", TransientStorageError),
        ("transient-provider", TransientProviderError),
        ("transient-network", TransientNetworkError),
        ("transient-service", TransientServiceError),
        ("storage", StorageError),
        ("osn", OsnError),
    ]


@_register
@dataclass(frozen=True)
class ErrorReply(Message):
    """A failure crossing the wire, typed by taxonomy code.

    ``bad-message`` (transient) marks a request frame the server could
    not decode; ``internal`` marks an unrecognized server-side exception
    and is deliberately NOT a :class:`SocialPuzzleError` on re-raise, so
    atomic-share handling wraps it in :class:`ShareFailedError` exactly
    as it would a local untyped bug.
    """

    TYPE = 0x7F
    code: str
    message: str
    transient: bool

    SCHEMA = (("code", TEXT), ("message", TEXT), ("transient", BOOL))

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorReply":
        for code, klass in _error_registry():
            if isinstance(exc, klass):
                return cls(
                    code=code,
                    message=str(exc),
                    transient=isinstance(exc, TransientServiceError),
                )
        return cls(code="internal", message=str(exc), transient=False)

    def to_exception(self) -> BaseException:
        from repro.proto.client import RemoteServiceError

        if self.code == "bad-message":
            return TransientNetworkError(
                "peer rejected a corrupted frame: %s" % self.message
            )
        for code, klass in _error_registry():
            if code == self.code:
                return klass(self.message)
        return RemoteServiceError(
            "remote error (%s): %s" % (self.code, self.message)
        )
