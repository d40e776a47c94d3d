"""The benchmark's workloads: seeded, closed-loop op streams over TCP.

Every workload drives a ``TcpSmartServer`` wrapping
``SocialPuzzlePlatform(params=small, cluster_nodes=3,
storage_engine="segment")`` over loopback, one thread per connection,
each sending its next op when the previous reply arrived. The client
does its own crypto through the public sharer/receiver verbs and a
:class:`~repro.proto.client.ProtocolClient`, as ``repro.serve.journey``
does.

* ``c1-journeys`` / ``c2-journeys`` — one connection; each iteration is
  a share, a granted solve, a wrong-answer solve (deny), an explain and,
  every :data:`RETRACT_EVERY` iterations, the retract saga.
* ``dh-sp-mix`` — two connections and no client crypto: single-verb
  reads (``storage_get``, ``display_puzzle_c1/c2``, ``get_post``) and
  writes (``storage_put`` of near-identical real ciphertexts,
  ``storage_delete``) over Zipf-skewed keys preloaded into sealed
  segments, plus a crypto-free replay of the same journeys (the served
  half of each op, with the client's crypto done once in setup).

All inputs derive from the seed: op order, object sizes and bytes,
policy choice, key popularity and the C1 question choice
(``display_puzzle_c1(rng=...)``). Each connection owns its keys, so its
op sequence and outcomes do not depend on thread interleaving.

Every op's output is checked; a wrong or failed op counts in
``failed`` and the run goes on. Connections pause together at a
:class:`calibrate.Gate` between ops so the machine's speed can be
sampled while nothing else runs.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, replace

from repro.apps.platform import SocialPuzzlePlatform
from repro.core.construction1 import ReceiverC1, SharerC1
from repro.core.construction2 import ReceiverC2, SharerC2
from repro.core.context import Context
from repro.core.errors import AccessDeniedError
from repro.crypto import accel
from repro.crypto.params import get_params
from repro.osn.storage import StorageError
from repro.policy import PuzzlePolicy
from repro.proto.client import ProtocolClient
from repro.proto.envelope import peek_type
from repro.proto.messages import (
    DisplayPuzzleRequest,
    FetchPostRequest,
    StorageDeleteRequest,
    StorageGetRequest,
    StoragePutRequest,
)
from repro.serve import TcpSmartServer
from repro.serve.remote import ConnectionBus, RemoteStorageHost
from repro.serve.transport import TcpTransport

PARAMS = "small"
SETUP_REPEATS = 5
RETRACT_EVERY = 2
MIX_JOURNEY_SHARE = 0.10  # share of dh-sp-mix ops that step a replayed journey
MIX_BLOBS = 48  # blob keys per dh-sp-mix connection
MIX_PUZZLES = 16  # replayed C1 puzzles (and posts) per dh-sp-mix connection
MIX_TEMPLATES = 5  # real C1 shares the mix copies; odd, so the median
# replayed share falls inside one template's size class
ZIPF_S = 1.1
# Server dispatch threads. One, because the segment store under the
# cluster is not safe under concurrent dispatch: with two workers,
# concurrent puts and gets on dh-sp-mix fail with "record ... body
# truncated" and KeyError replies (tests/test_dispatch_race.py).
DISPATCH_WORKERS = 1

FLAT_CONTEXT = {
    "Where was the party held?": "Lake Tahoe",
    "Who brought the cake?": "Marguerite",
    "Which song closed the night?": "Wonderwall",
    "What did the host spill?": "Merlot",
    "Who missed the last bus?": "Terrence",
}
POLICY_TEXT = "scope:group/trip and (2 of (ctx_a, ctx_b, ctx_c) or attr:escrow)"
POLICY_CONTEXT = {
    "scope:group/trip": "trip-roster-secret",
    "ctx_a": "alpha",
    "ctx_b": "beta",
    "ctx_c": "gamma",
    "attr:escrow": "escrow-credential",
}


def _wrong(mapping: dict) -> dict:
    return {q: "not-" + a for q, a in mapping.items()}


READ_TYPES = frozenset(
    m.TYPE for m in (StorageGetRequest, DisplayPuzzleRequest, FetchPostRequest)
)
WRITE_TYPES = frozenset(m.TYPE for m in (StoragePutRequest, StorageDeleteRequest))

# Object sizes: log-uniform over 0.5-16 KiB, stratified so every block of
# len(SIZE_STRATA) iterations draws once from each stratum.
SIZE_LO, SIZE_HI = 512, 16 * 1024
SIZE_STRATA = 10
NESTED_PER_BLOCK = 2  # of SIZE_STRATA iterations: 80% flat, 20% depth-3


class Tally:
    """One connection's latencies, outcomes and op log (no locking: each
    connection thread owns its tally). Latencies are ``(start, ms)``
    pairs, so each can be calibrated by the machine speed around it."""

    def __init__(self):
        self.latency_ms: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.rpc_ms: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.log: list[tuple] = []

    def merge(self, other: "Tally") -> None:
        for kind, values in other.latency_ms.items():
            self.latency_ms[kind].extend(values)
        for kind, values in other.rpc_ms.items():
            self.rpc_ms[kind].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.update(other.errors)
        self.log.extend(other.log)


class TimedBus:
    """A ``dispatch`` face that times each round trip into a tally."""

    def __init__(self, bus: ConnectionBus):
        self.bus = bus
        self.tally: Tally | None = None

    def dispatch(self, request: bytes) -> bytes:
        start = time.perf_counter()
        reply = self.bus.dispatch(request)
        if self.tally is not None:
            kind = peek_type(request)
            timed = (start, (time.perf_counter() - start) * 1000.0)
            if kind in READ_TYPES:
                self.tally.rpc_ms["read"].append(timed)
            elif kind in WRITE_TYPES:
                self.tally.rpc_ms["write"].append(timed)
        return reply


def connect(address) -> tuple[ProtocolClient, TimedBus]:
    timed = TimedBus(ConnectionBus(TcpTransport(*address)))
    return ProtocolClient(timed), timed


def object_plan(rng: random.Random):
    """Endless (size, nested) pairs: sizes log-uniform and stratified,
    20% of iterations under the depth-3 policy."""
    ratio = SIZE_HI / SIZE_LO
    while True:
        strata = list(range(SIZE_STRATA))
        rng.shuffle(strata)
        nested = [i < NESTED_PER_BLOCK for i in range(SIZE_STRATA)]
        rng.shuffle(nested)
        for stratum, is_nested in zip(strata, nested):
            fraction = (stratum + rng.random()) / SIZE_STRATA
            yield int(SIZE_LO * ratio**fraction), is_nested


@dataclass
class Shared:
    """What a share left behind for the ops that follow it."""

    puzzle_id: int
    post_id: int
    url: str
    data: bytes  # what a granted solve must return
    nested: bool
    display_seed: int
    answers: object = None  # replay only: precomputed digests
    wrong: object = None


class Users:
    def __init__(self, client: ProtocolClient, tag: str):
        self.alice = client.register_user("alice-" + tag)
        self.bob = client.register_user("bob-" + tag)
        client.befriend(self.alice, self.bob)


class CryptoKit:
    """Share/solve/deny/explain with the client's own crypto."""

    def __init__(self, construction: int, client: ProtocolClient, users: Users):
        self.construction = construction
        self.client = client
        self.users = users
        storage = RemoteStorageHost(client)
        self.flat = Context.from_mapping(FLAT_CONTEXT)
        self.flat_wrong = Context.from_mapping(_wrong(FLAT_CONTEXT))
        self.nested = Context.from_mapping(POLICY_CONTEXT)
        self.nested_wrong = Context.from_mapping(_wrong(POLICY_CONTEXT))
        if construction == 1:
            self.sharer = SharerC1(users.alice.name, storage)
            self.receiver = ReceiverC1(users.bob.name, storage)
            self.submit, self.ask_why = client.submit_answers_c1, client.explain_c1
        else:
            params = get_params(PARAMS)
            self.sharer = SharerC2(users.alice.name, storage, params)
            self.receiver = ReceiverC2(users.bob.name, storage, params)
            self.submit, self.ask_why = client.submit_answers_c2, client.explain_c2

    def _context(self, shared: Shared, wrong: bool = False) -> Context:
        if shared.nested:
            return self.nested_wrong if wrong else self.nested
        return self.flat_wrong if wrong else self.flat

    def share(self, data: bytes, nested: bool, display_seed: int) -> Shared:
        client, c = self.client, self.construction
        if nested:
            policy = PuzzlePolicy.from_text(POLICY_TEXT)
            artifact = self.sharer.upload_policy(data, self.nested, policy)
        elif c == 1:
            artifact = self.sharer.upload(data, self.flat, k=3, n=len(FLAT_CONTEXT))
        else:
            artifact = self.sharer.upload(data, self.flat, k=3)
        if c == 1:
            url = artifact.url
            puzzle_id = client.store_puzzle(artifact)
        else:
            url = artifact[0].url
            puzzle_id = client.store_upload(artifact[0])
        if nested:
            client.share_policy(c, puzzle_id, policy.text)
        post = client.publish_post(
            self.users.alice, "[social-puzzle] solve puzzle #%d" % puzzle_id
        )
        return Shared(puzzle_id, post.post_id, url, data, nested, display_seed)

    def _answers(self, shared: Shared, wrong: bool):
        if self.construction == 1:
            displayed = self.client.display_puzzle_c1(
                shared.puzzle_id, rng=random.Random(shared.display_seed)
            )
        else:
            displayed = self.client.display_puzzle_c2(shared.puzzle_id)
        knowledge = self._context(shared, wrong)
        return displayed, self.receiver.answer_puzzle(displayed, knowledge)

    def solve(self, shared: Shared) -> bool:
        client = self.client
        if client.get_post(self.users.bob, shared.post_id).post_id != shared.post_id:
            return False
        displayed, answers = self._answers(shared, wrong=False)
        knowledge = self._context(shared)
        released = self.submit(answers, self.users.bob.name)
        if self.construction == 1:
            recovered = self.receiver.access(released, displayed, knowledge)
        else:
            recovered = self.receiver.access(released, knowledge)
        return recovered == shared.data

    def deny(self, shared: Shared) -> bool:
        _displayed, answers = self._answers(shared, wrong=True)
        try:
            self.submit(answers, self.users.bob.name)
        except AccessDeniedError:
            return True
        return False

    def explain(self, shared: Shared) -> bool:
        _displayed, answers = self._answers(shared, wrong=False)
        explanation = self.ask_why(answers, self.users.bob.name)
        return explanation.granted and leak_free(explanation)

    def retract(self, shared: Shared) -> bool:
        return retract_saga(self.client, self.construction, shared)


def leak_free(explanation) -> bool:
    wire = explanation.to_bytes()
    answers = list(FLAT_CONTEXT.values()) + list(POLICY_CONTEXT.values())
    return not any(answer.encode("utf-8") in wire for answer in answers)


def retract_saga(client: ProtocolClient, construction: int, shared: Shared) -> bool:
    """Prepare at the SP, delete at the DH, commit at the SP."""
    url = client.retract_prepare(construction, shared.puzzle_id)
    deleted = client.storage_delete(url)
    removed = client.retract_commit(construction, shared.puzzle_id)
    return url == shared.url and deleted and removed


@dataclass(frozen=True)
class Template:
    """A real C1 share whose served half the mix replays."""

    puzzle: object
    container: bytes
    answers: object
    wrong: object
    display_seed: int


class ReplayKit:
    """The served half of each journey op, with no client crypto: the
    sharer's puzzle and the receiver's answer digests were computed once
    in setup (:func:`make_templates`); a replayed share uploads a
    near-identical copy of the real container and re-points the puzzle
    at it."""

    def __init__(self, client: ProtocolClient, users: Users, templates, rng):
        self.client = client
        self.users = users
        self.templates = templates
        self.rng = rng
        self._order: list[int] = []

    def _next_template(self) -> Template:
        """Templates in seeded order, each once per block, so every run
        shares the same mix of sizes."""
        if not self._order:
            self._order = list(range(len(self.templates)))
            self.rng.shuffle(self._order)
        return self.templates[self._order.pop()]

    def share(self, data: bytes, nested: bool, display_seed: int) -> Shared:
        del nested, display_seed  # replays only the flat template's shape
        template = self._next_template()
        data = near_copy(template.container, self.rng)
        url = self.client.storage_put(data)
        puzzle_id = self.client.store_puzzle(replace(template.puzzle, url=url))
        post = self.client.publish_post(
            self.users.alice, "[social-puzzle] solve puzzle #%d" % puzzle_id
        )
        return Shared(
            puzzle_id, post.post_id, url, data, False, template.display_seed,
            answers=replace(template.answers, puzzle_id=puzzle_id),
            wrong=replace(template.wrong, puzzle_id=puzzle_id),
        )

    def _display(self, shared: Shared):
        return self.client.display_puzzle_c1(
            shared.puzzle_id, rng=random.Random(shared.display_seed)
        )

    def solve(self, shared: Shared) -> bool:
        client = self.client
        if client.get_post(self.users.bob, shared.post_id).post_id != shared.post_id:
            return False
        self._display(shared)
        release = client.submit_answers_c1(shared.answers, self.users.bob.name)
        return client.storage_get(release.url) == shared.data

    def deny(self, shared: Shared) -> bool:
        self._display(shared)
        try:
            self.client.submit_answers_c1(shared.wrong, self.users.bob.name)
        except AccessDeniedError:
            return True
        return False

    def explain(self, shared: Shared) -> bool:
        self._display(shared)
        explanation = self.client.explain_c1(shared.answers, self.users.bob.name)
        return explanation.granted and leak_free(explanation)

    def retract(self, shared: Shared) -> bool:
        return retract_saga(self.client, 1, shared)


def near_copy(data: bytes, rng: random.Random) -> bytes:
    """A near-identical copy: 8 bytes rewritten at a seeded offset."""
    at = rng.randrange(max(1, len(data) - 8))
    return data[:at] + rng.randbytes(8) + data[at + 8 :]


def make_templates(client: ProtocolClient, users: Users, count: int) -> list[Template]:
    """Real flat C1 shares of fixed sizes, with the receiver's right and
    wrong answers to their seeded display."""
    kit = CryptoKit(1, client, users)
    wrong = Context.from_mapping(_wrong(FLAT_CONTEXT))
    templates = []
    ratio = SIZE_HI / SIZE_LO
    for i in range(count):
        size = int(SIZE_LO * ratio ** ((i + 0.5) / count))
        data = (bytes(range(256)) * (size // 256 + 1))[:size]
        puzzle = kit.sharer.upload(data, kit.flat, k=3, n=len(FLAT_CONTEXT))
        puzzle_id = client.store_puzzle(puzzle)
        display_seed = 1000 + i
        displayed = client.display_puzzle_c1(
            puzzle_id, rng=random.Random(display_seed)
        )
        templates.append(
            Template(
                puzzle=puzzle,
                container=client.storage_get(puzzle.url),
                answers=kit.receiver.answer_puzzle(displayed, kit.flat),
                wrong=kit.receiver.answer_puzzle(displayed, wrong),
                display_seed=display_seed,
            )
        )
    return templates


# -- the op streams --------------------------------------------------------------


def journey_ops(kit, rng: random.Random):
    """Endless (kind, detail, thunk) triples for one connection's journey
    loop; ``detail`` names the op's inputs for the op log.

    A failed share skips the rest of its iteration (there is nothing to
    solve), so the stream yields the share's failure and moves on.
    """
    plan = object_plan(rng)
    for iteration in itertools.count():
        size, nested = next(plan)
        data = rng.randbytes(size)
        display_seed = rng.getrandbits(32)
        box: list[Shared] = []

        def share(data=data, nested=nested, display_seed=display_seed, box=box):
            box.append(kit.share(data, nested, display_seed))
            return True

        yield "share", (iteration, size, nested, display_seed), share
        if not box:
            continue
        shared = box[0]
        yield "solve", iteration, lambda shared=shared: kit.solve(shared)
        yield "deny", iteration, lambda shared=shared: kit.deny(shared)
        yield "explain", iteration, lambda shared=shared: kit.explain(shared)
        if iteration % RETRACT_EVERY == RETRACT_EVERY - 1:
            yield "retract", iteration, lambda shared=shared: kit.retract(shared)


class Zipf:
    """Seeded Zipf(s) choice over ``n`` ranks."""

    def __init__(self, n: int, s: float = ZIPF_S):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        self.cum = list(itertools.accumulate(weights))
        self.ranks = range(n)

    def pick(self, rng: random.Random) -> int:
        return rng.choices(self.ranks, cum_weights=self.cum)[0]


class MixState:
    """One dh-sp-mix connection's keys and what each must read back."""

    def __init__(self, client, users, templates, c2_puzzles, rng):
        self.client, self.users, self.rng = client, users, rng
        self.templates = templates
        self.c2_puzzles = c2_puzzles
        self.blobs: list[tuple[str, bytes]] = []
        self.puzzles: list[Shared] = []
        self.retired: deque[str] = deque()  # superseded URLs awaiting delete
        self.deleted: deque[str] = deque(maxlen=64)
        self.replay = ReplayKit(client, users, templates, rng)

    def preload(self) -> None:
        """Put every key once, in seeded order so hot keys land anywhere
        in the log. Key rank r holds a copy of template r mod T, so the
        hot keys' sizes are the same in every run."""
        rng, count = self.rng, len(self.templates)
        ranks = list(range(MIX_BLOBS))
        rng.shuffle(ranks)
        slots = {}
        for rank in ranks:
            data = near_copy(self.templates[rank % count].container, rng)
            slots[rank] = (self.client.storage_put(data), data)
        self.blobs = [slots[rank] for rank in range(MIX_BLOBS)]
        for _ in range(MIX_PUZZLES):
            self.puzzles.append(self.replay.share(b"", False, 0))
        self.blob_zipf = Zipf(len(self.blobs))
        self.puzzle_zipf = Zipf(len(self.puzzles))

    def ops(self):
        """Endless (kind, detail, thunk) triples: 80% reads / 20% writes
        of single verbs, with :data:`MIX_JOURNEY_SHARE` of ops stepping a
        replayed journey."""
        rng, client = self.rng, self.client
        journeys = journey_ops(self.replay, rng)
        while True:
            if rng.random() < MIX_JOURNEY_SHARE:
                yield next(journeys)
                continue
            draw = rng.random()
            if draw < 0.50:
                if self.deleted and rng.random() < 0.05:
                    index = rng.randrange(len(self.deleted))
                    url = self.deleted[index]
                    yield "read", ("gone", index), lambda url=url: _gone(client, url)
                else:
                    slot = self.blob_zipf.pick(rng)
                    yield "read", ("get", slot), lambda slot=slot: _get(
                        client, self.blobs[slot]
                    )
            elif draw < 0.65:
                slot = self.puzzle_zipf.pick(rng)
                shared = self.puzzles[slot]
                if rng.random() < 0.5:
                    yield "read", ("display1", slot), lambda shared=shared: (
                        self.replay._display(shared).puzzle_id == shared.puzzle_id
                    )
                else:
                    index = rng.randrange(len(self.c2_puzzles))
                    pid = self.c2_puzzles[index]
                    yield "read", ("display2", index), lambda pid=pid: (
                        client.display_puzzle_c2(pid).puzzle_id == pid
                    )
            elif draw < 0.80:
                slot = self.puzzle_zipf.pick(rng)
                shared = self.puzzles[slot]
                yield "read", ("post", slot), lambda shared=shared: (
                    client.get_post(self.users.bob, shared.post_id).post_id
                    == shared.post_id
                )
            elif draw < 0.90 or not self.retired:
                slot = self.blob_zipf.pick(rng)
                data = near_copy(self.blobs[slot][1], rng)
                yield "write", ("put", slot), lambda slot=slot, data=data: (
                    self._put(slot, data)
                )
            else:
                yield "write", ("delete", len(self.retired)), self._delete

    def _put(self, slot: int, data: bytes) -> bool:
        url = self.client.storage_put(data)
        self.retired.append(self.blobs[slot][0])
        self.blobs[slot] = (url, data)
        return url.startswith("dh://")

    def _delete(self) -> bool:
        url = self.retired.popleft()
        self.deleted.append(url)
        return self.client.storage_delete(url) is True


def _get(client, slot) -> bool:
    url, data = slot
    return client.storage_get(url) == data


def _gone(client, url) -> bool:
    try:
        client.storage_get(url)
    except StorageError:
        return True
    return False


# -- the world --------------------------------------------------------------------


@dataclass
class World:
    platform: SocialPuzzlePlatform
    server: TcpSmartServer
    clients: list
    streams: list  # one (kind, detail, thunk) iterator per connection


def start_world(workload: str, seed: int, nproc: int,
                workers: int = DISPATCH_WORKERS, warm: bool = True) -> World:
    """Accel probe, platform/cluster/server start, preload and warm-up."""
    accel.set_tier(accel.active().requested)
    platform = SocialPuzzlePlatform(
        params=get_params(PARAMS), cluster_nodes=3, storage_engine="segment"
    )
    server = TcpSmartServer(platform.engine, workers=workers).start()
    connections = 1 if workload.endswith("journeys") else min(2, nproc)
    clients, streams = [], []
    for conn in range(connections):
        client, timed = connect(server.address)
        clients.append((client, timed))
    if workload in ("c1-journeys", "c2-journeys"):
        construction = 1 if workload == "c1-journeys" else 2
        client = clients[0][0]
        kit = CryptoKit(construction, client, Users(client, "0"))
        if warm:
            warm_ops = journey_ops(kit, random.Random("warm"))
            for _ in range(5):
                _kind, _detail, thunk = next(warm_ops)
                thunk()
        streams.append(journey_ops(kit, random.Random("%s:%d:0" % (workload, seed))))
    elif workload == "dh-sp-mix":
        setup_client = clients[0][0]
        setup_users = Users(setup_client, "setup")
        templates = make_templates(setup_client, setup_users, MIX_TEMPLATES)
        c2 = CryptoKit(2, setup_client, setup_users)
        c2_puzzles = []
        for i in range(2):
            shared = c2.share(bytes(range(256)) * (4 + 12 * i), False, 0)
            c2_puzzles.append(shared.puzzle_id)
        states = []
        for conn, (client, _timed) in enumerate(clients):
            rng = random.Random("%s:%d:%d" % (workload, seed, conn))
            state = MixState(client, Users(client, str(conn)), templates, c2_puzzles, rng)
            state.preload()
            states.append(state)
            streams.append(state.ops())
        if warm:  # read every preloaded key back once
            for (client, _timed), state in zip(clients, states):
                if not all(_get(client, slot) for slot in state.blobs):
                    raise RuntimeError("a preloaded key read back wrong")
    else:
        raise ValueError("unknown workload %r" % workload)
    return World(platform, server, clients, streams)


def drive(world: World, deadline: float | None, max_ops: int | None,
          recorder=None, gate=None):
    """Run every connection's stream closed-loop until ``deadline`` (a
    ``perf_counter`` value) or ``max_ops`` ops per connection; returns
    the merged :class:`Tally` and the wall seconds spent, not counting
    the pauses a calibration ``gate`` took."""
    tallies = [Tally() for _ in world.streams]
    op_ids = itertools.count()

    def run(index: int) -> None:
        tally, stream = tallies[index], world.streams[index]
        world.clients[index][1].tally = tally
        done = 0
        while (max_ops is None or done < max_ops) and (
            deadline is None or time.perf_counter() < deadline
        ):
            if gate is not None:
                gate.checkpoint()
            kind, detail, thunk = next(stream)
            op_id = next(op_ids)
            start = time.perf_counter()
            try:
                if recorder is None:
                    ok = thunk()
                else:
                    with recorder.span("op." + kind, op=op_id):
                        ok = thunk()
                error = None
            except Exception as exc:  # counted, never fatal
                ok, error = False, "%s: %s" % (type(exc).__name__, exc)
            tally.latency_ms[kind].append(
                (start, (time.perf_counter() - start) * 1000.0)
            )
            tally.attempted += 1
            if not ok:
                tally.failed += 1
                tally.errors[error or "%s returned a wrong result" % kind] += 1
            tally.log.append((index, kind, detail, bool(ok)))
            done += 1
        world.clients[index][1].tally = None
        if gate is not None:
            gate.leave()

    threads = [
        threading.Thread(target=run, args=(i,), name="bench-conn-%d" % i)
        for i in range(len(world.streams))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if gate is not None:
        elapsed -= sum(gate.samples)
    merged = Tally()
    for tally in tallies:
        merged.merge(tally)
    return merged, elapsed


def close_clients(world: World) -> None:
    for _client, timed in world.clients:
        timed.bus.close()
