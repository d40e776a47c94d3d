"""Self-time arithmetic and where the wrappers catch calls."""

import threading

import pytest
import tracing


def span(sid, parent, start, end, name="x", op=None):
    return (sid, parent, op, name, start, end)


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),  # overlaps span 2 (another thread's child)
        span(4, 1, 8.0, 9.0),
        span(5, 2, 1.5, 2.0),  # grandchild: counts against span 2 only
        span(6, 1, 9.5, 12.0),  # outlives its parent: clipped at 10
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0 + 0.5))
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[6] == pytest.approx(2.5)


def test_covered_merges_touching_and_disjoint_intervals():
    assert tracing.covered(0, 10, [(1, 2), (2, 3), (5, 7), (6, 6.5)]) == 4
    assert tracing.covered(0, 10, []) == 0
    assert tracing.covered(2, 3, [(0, 10)]) == 1


def test_wrappers_catch_from_import_call_sites_and_uninstall_restores():
    import repro.core.puzzle as puzzle_module
    import repro.crypto.mac as mac
    from repro.crypto.hashes import Keccak

    original_keyed_hash = mac.keyed_hash
    original_digest = Keccak.__dict__["digest"]
    rec = tracing.Recorder()
    installed = tracing.install(rec)
    try:
        assert puzzle_module.keyed_hash is not original_keyed_hash
        with rec.span("op.test", op=7):
            # repro.core.puzzle did ``from repro.crypto.mac import keyed_hash``
            puzzle_module.keyed_hash(b"answer", b"puzzle-key")
    finally:
        tracing.uninstall(installed)
    assert mac.keyed_hash is original_keyed_hash
    assert puzzle_module.keyed_hash is original_keyed_hash
    assert Keccak.__dict__["digest"] is original_digest

    by_name = {}
    for sid, parent, op, name, _start, _end in rec.spans:
        by_name.setdefault(name, []).append((sid, parent, op))
    root_sid = by_name["op.test"][0][0]
    (keyed_sid, keyed_parent, keyed_op), = by_name["crypto.mac.keyed_hash"]
    assert keyed_parent == root_sid and keyed_op == 7
    # The SHA3 work under the HMAC is caught at class level, nested.
    assert by_name["crypto.hashes.digest"]
    assert all(op == 7 for _sid, _parent, op in by_name["crypto.hashes.digest"])


def test_server_work_is_adopted_by_the_client_round_trip():
    rec = tracing.Recorder()
    with rec.span("op.read", op=3):
        token = rec.enter(tracing.RPC_SPAN)
        rec.hand_off(b"frame")
        seen = {}

        def server():
            parent, op = rec.adopt(b"frame")
            inner = rec.enter(tracing.ENGINE_SPAN, op=op, parent=parent)
            rec.exit(inner)
            seen["adopted"] = (parent, op)

        worker = threading.Thread(target=server)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        rec.exit(token)
    assert seen["adopted"] == (token[0], 3)
    assert rec.adopt(b"frame") == (None, None)  # each hand-off adopts once
