"""Golden wire vectors: the serialized format is a compatibility contract.

Each ``.bin`` file under ``vectors/`` is a canonical frame. The test
decodes every vector into the expected message and re-encodes it to the
identical bytes — so an accidental change to the envelope, a field
order, or an integer width fails here with the file name of the message
that moved, before it silently breaks persisted or recorded traffic.

Regenerating (only after a deliberate, version-bumped format change):

    PYTHONPATH=src:tests python -c \
        "from proto.test_vectors import regenerate; regenerate()"
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.abe.access_tree import AccessTree, AttributeLeaf, ThresholdGate
from repro.core.construction1 import DisplayedPuzzle, ReleasedShare, ShareRelease
from repro.core.construction2 import AccessGrantC2, C2Upload, DisplayedPuzzleC2
from repro.core.puzzle import Puzzle, PuzzleEntry
from repro.crypto.bls import BlsScheme
from repro.crypto.hash_to_group import hash_to_g0
from repro.crypto.params import TOY
from repro.osn.provider import Post, User
from repro.policy.explain import Explanation, NodeTrace
from repro.proto.messages import (
    MESSAGE_TYPES,
    AckReply,
    AnswerSubmission,
    BatchReply,
    BatchRequest,
    BefriendRequest,
    DisplayPuzzleRequest,
    DisplayReplyC1,
    DisplayReplyC2,
    ErrorReply,
    ExplainReply,
    ExplainRequest,
    FetchPostRequest,
    GrantReply,
    PostReply,
    PublishPostRequest,
    RegisterUserRequest,
    ReleaseReply,
    RetractAbortRequest,
    RetractCommitRequest,
    RetractPrepareReply,
    RetractPrepareRequest,
    RetractPuzzleRequest,
    RetractReply,
    SharePolicyRequest,
    StorageBoolReply,
    StorageDeleteRequest,
    StorageExistsRequest,
    StorageGetReply,
    StorageGetRequest,
    StoragePutReply,
    StoragePutRequest,
    StorePuzzleRequest,
    StoreReply,
    StoreUploadRequest,
    UserReply,
    decode_message,
    encode_message,
)

VECTOR_DIR = Path(__file__).parent / "vectors"

_QUESTIONS = ("Where was the party held?", "Who brought the cake?", "What did we sing?")
_ENTRIES = tuple(
    PuzzleEntry(
        question=question,
        answer_digest=bytes(range(32 * i, 32 * i + 32)),
        share_x=(i + 1) * 0x0123456789ABCDEF,
        blinded_share=bytes(range(100 + 32 * i, 132 + 32 * i)),
    )
    for i, question in enumerate(_QUESTIONS)
)
# encode_shape of "1 of (q0, 2 of (q1, q2))": gate/leaf tags, thresholds
# and arities only.
_SHAPE = bytes.fromhex("010000000100000002000100000002000000020000")
# The signed puzzle's key pair: secret 0x1234567 under a generator hashed
# from a fixed string, so the BLS signature below is reproducible and
# test_signed_puzzle_vector_verifies pins ``Puzzle.signed_payload``.
_SIGNER_SECRET = 0x1234567
_SIGNATURE = bytes.fromhex(
    "047f4f7c4c743a8e26503d752737515c6f3fcbdac1afc1261319f39b3522dd1abe"
)
_SIGNER_PUBLIC = bytes.fromhex(
    "046ef6e695b62f4a0ba3ff93763c06dc679f4ddac420436d5617bee5c0fbb0b673"
)
# A valid Mersenne Twister state (version, 624 words + index, gauss)
# built from arithmetic, not from seeding a generator.
_RNG_WORDS = tuple((i * 2654435761) % 2**32 for i in range(624)) + (624,)
_RELEASED = tuple(
    ReleasedShare(
        question=entry.question,
        entry_index=index,
        share_x=entry.share_x,
        blinded_share=entry.blinded_share,
    )
    for index, entry in enumerate(_ENTRIES[:2])
)
_C2_TREE = AccessTree(
    ThresholdGate(
        2,
        (
            AttributeLeaf("Where was the party held?\x1f#" + "ab" * 20),
            AttributeLeaf("Who brought the cake?\x1f#" + "cd" * 20),
            ThresholdGate(
                1,
                (
                    AttributeLeaf("What did we sing?\x1f#" + "ef" * 20),
                    AttributeLeaf("Which song came last?\x1f#" + "01" * 20),
                ),
            ),
        ),
    )
)

# Every vector is built from fixed values only — no RNG, no clocks.
GOLDEN = {
    "store_reply": StoreReply(puzzle_id=7),
    "display_request_c2": DisplayPuzzleRequest(construction=2, puzzle_id=41),
    "answer_submission": AnswerSubmission(
        construction=1,
        puzzle_id=3,
        requester="bob",
        digests={
            "Where was the party held?": bytes(range(32)),
            "Who brought the cake?": bytes(range(32, 64)),
        },
    ),
    "retract_request": RetractPuzzleRequest(construction=1, puzzle_id=9),
    "retract_reply": RetractReply(removed=True),
    "publish_post_friends": PublishPostRequest(
        author=User(user_id=1, name="alice"),
        content="solve puzzle #7 to view.",
        audience="friends",
    ),
    "publish_post_custom": PublishPostRequest(
        author=User(user_id=1, name="alice"),
        content="restricted",
        audience=frozenset({2, 5, 8}),
    ),
    "fetch_post": FetchPostRequest(viewer=User(user_id=2, name="bob"), post_id=7),
    "post_reply": PostReply(
        post=Post(
            post_id=7,
            author=User(user_id=1, name="alice"),
            content="solve puzzle #7 to view.",
            audience="friends",
        )
    ),
    "storage_put": StoragePutRequest(data=b"\x00\x01\xfe\xff encrypted blob"),
    "storage_get_reply": StorageGetReply(data=b"ciphertext bytes"),
    "error_reply": ErrorReply(
        code="transient-provider", message="injected post-publish failure",
        transient=True,
    ),
    # The policy-plane verbs (PR 8): sharer-attached policy text, the
    # explain evidence submission, and the derivation reply.
    "share_policy": SharePolicyRequest(
        construction=1,
        puzzle_id=3,
        policy_text="scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c)"
        " or attr:escrow)",
    ),
    "explain_request": ExplainRequest(
        construction=1,
        puzzle_id=3,
        requester="bob",
        digests={
            "scope:group/trip": bytes(range(32)),
            "ctx_a": bytes(range(32, 64)),
        },
    ),
    "explain_reply": ExplainReply(
        explanation=Explanation(
            construction=1,
            puzzle_id=3,
            granted=False,
            policy_text="(scope:group/trip and ctx_a)",
            nodes=(
                NodeTrace(
                    path="0", kind="gate", label="and", threshold=2,
                    child_count=2, satisfied=1, passed=False,
                ),
                NodeTrace(
                    path="0.1", kind="leaf", label="scope:group/trip",
                    threshold=1, child_count=0, satisfied=1, passed=True,
                ),
                NodeTrace(
                    path="0.2", kind="leaf", label="ctx_a", threshold=1,
                    child_count=0, satisfied=0, passed=False,
                ),
            ),
        )
    ),
    # Batch envelopes carry fully-enveloped member frames, so their
    # vectors pin down the nested framing too.
    "batch_request": BatchRequest.of(
        StorageGetRequest(url="dh://0000000000000001"),
        StorageGetRequest(url="dh://0000000000000002"),
    ),
    "batch_reply": BatchReply.of(
        StorageGetReply(data=b"ciphertext bytes"),
        ErrorReply(
            code="storage",
            message="no object at dh://0000000000000002",
            transient=False,
        ),
    ),
    # The C1 Upload: a flat unsigned puzzle (no trailing shape blob) and
    # a signed nested-policy puzzle (shape appended after the signature).
    "store_puzzle_flat": StorePuzzleRequest(
        puzzle=Puzzle(
            entries=_ENTRIES,
            k=2,
            puzzle_key=bytes(range(16)),
            url="dh://0000000000000003",
            sharer_name="alice",
        )
    ),
    "store_puzzle_signed_shape": StorePuzzleRequest(
        puzzle=Puzzle(
            entries=_ENTRIES,
            k=1,
            puzzle_key=bytes(range(16)),
            url="dh://0000000000000003",
            sharer_name="alice",
            signature=_SIGNATURE,
            signer_public=_SIGNER_PUBLIC,
            policy_shape=_SHAPE,
        )
    ),
    "store_upload": StoreUploadRequest(
        record=C2Upload(
            puzzle_id=4,
            tree_perturbed=_C2_TREE,
            pk_bytes=b"public key bytes",
            mk_bytes=b"master key bytes",
            url="dh://0000000000000004",
            sharer_name="alice",
        )
    ),
    "display_request_rng": DisplayPuzzleRequest(
        construction=1, puzzle_id=3, rng_state=(3, _RNG_WORDS, None)
    ),
    "display_request_rng_gauss": DisplayPuzzleRequest(
        construction=1, puzzle_id=3, rng_state=(3, _RNG_WORDS, -1.25)
    ),
    "retract_prepare": RetractPrepareRequest(construction=2, puzzle_id=4),
    "retract_commit": RetractCommitRequest(construction=2, puzzle_id=4),
    "retract_abort": RetractAbortRequest(construction=1, puzzle_id=3),
    # Profile keys are written sorted, whatever the dict's order.
    "register_user": RegisterUserRequest(
        name="carol", profile={"school": "Lincoln High", "city": "Fresno"}
    ),
    "befriend": BefriendRequest(
        a=User(user_id=1, name="alice"), b=User(user_id=2, name="bob")
    ),
    "publish_post_public": PublishPostRequest(
        author=User(user_id=1, name="alice"), content="hello", audience="public"
    ),
    "publish_post_named": PublishPostRequest(
        author=User(user_id=1, name="alice"),
        content="hello",
        audience="close-friends",
    ),
    "storage_get": StorageGetRequest(url="dh://0000000000000001"),
    "storage_exists": StorageExistsRequest(url="dh://0000000000000001"),
    "storage_delete": StorageDeleteRequest(url="dh://0000000000000001"),
    "display_reply_c1": DisplayReplyC1(
        displayed=DisplayedPuzzle(
            puzzle_id=3,
            questions=(_QUESTIONS[2], _QUESTIONS[0]),
            puzzle_key=bytes(range(16)),
            k=2,
        )
    ),
    "display_reply_c2": DisplayReplyC2(
        displayed=DisplayedPuzzleC2(puzzle_id=4, questions=_QUESTIONS, threshold=2)
    ),
    "release_reply": ReleaseReply(
        release=ShareRelease(
            puzzle_id=3, k=2, url="dh://0000000000000003", shares=_RELEASED
        )
    ),
    "release_reply_shape": ReleaseReply(
        release=ShareRelease(
            puzzle_id=3,
            k=1,
            url="dh://0000000000000003",
            shares=_RELEASED,
            policy_shape=_SHAPE,
        )
    ),
    "grant_reply": GrantReply(
        grant=AccessGrantC2(
            puzzle_id=4,
            url="dh://0000000000000004",
            pk_bytes=b"public key bytes",
            mk_bytes=b"master key bytes",
        )
    ),
    "retract_prepare_reply": RetractPrepareReply(url="dh://0000000000000004"),
    "user_reply": UserReply(user=User(user_id=3, name="carol")),
    "ack_reply": AckReply(),
    "storage_put_reply": StoragePutReply(url="dh://0000000000000001"),
    "storage_bool_reply": StorageBoolReply(value=True),
}


def regenerate() -> None:
    VECTOR_DIR.mkdir(exist_ok=True)
    for name, message in GOLDEN.items():
        (VECTOR_DIR / ("%s.bin" % name)).write_bytes(encode_message(message))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vector_round_trip(name):
    frame = (VECTOR_DIR / ("%s.bin" % name)).read_bytes()
    message = GOLDEN[name]
    assert decode_message(frame) == message, name
    assert encode_message(message) == frame, name


def test_no_orphan_vectors():
    on_disk = {p.stem for p in VECTOR_DIR.glob("*.bin")}
    assert on_disk == set(GOLDEN)


def test_every_message_type_has_a_vector():
    pinned = {type(message) for message in GOLDEN.values()}
    missing = sorted(
        cls.__name__ for cls in MESSAGE_TYPES.values() if cls not in pinned
    )
    assert not missing, missing


def test_signed_puzzle_vector_verifies():
    scheme = BlsScheme(TOY, generator=hash_to_g0(TOY, b"golden-vector generator"))
    puzzle = GOLDEN["store_puzzle_signed_shape"].puzzle
    assert puzzle.signer_public == (scheme.generator * _SIGNER_SECRET).to_bytes()
    assert puzzle.verify_signature(scheme)
