"""The seed alone fixes every input the program receives."""

import threading

import pytest
import run
import workloads


def _stop_all(worlds):
    stoppers = []
    for world in worlds:
        def stop(world=world):
            workloads.close_clients(world)
            world.server.stop()
        stoppers.append(threading.Thread(target=stop))
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join(timeout=60)
        assert not stopper.is_alive()


def _tallies(workload, seeds, max_ops, **kwargs):
    worlds = []
    try:
        for seed in seeds:
            worlds.append(
                workloads.start_world(workload, seed, nproc=2, warm=False, **kwargs)
            )
        return [workloads.drive(world, None, max_ops)[0] for world in worlds]
    finally:
        _stop_all(worlds)


@pytest.mark.parametrize(
    "workload, max_ops", [("c1-journeys", 12), ("dh-sp-mix", 150)]
)
def test_same_seed_same_ops_and_outcomes_other_seed_differs(workload, max_ops):
    first, again, other = _tallies(workload, [7, 7, 8], max_ops)
    assert first.failed == 0, first.errors
    assert len(first.log) == max_ops * (2 if workload == "dh-sp-mix" else 1)
    assert first.log == again.log
    assert first.log != other.log


def test_traced_counts_repeat_exactly_for_one_seed():
    def counts():
        _result, report = run.run(
            "c2-journeys", 3, seconds=600, trace=True, max_ops=8, setup_repeats=1
        )
        layer = report["per_layer"]
        return {
            name: layer[name]
            for name in (
                "crypto.pairing.final_exps_per_op",
                "crypto.pairing.miller_states_per_op",
                "crypto.hash_to_group.calls_per_op",
                "crypto.ec.scalar_muls_per_op",
                "crypto.hashes.calls_per_op",
                "crypto.mac.keyed_hash_calls_per_op",
            )
        }

    first, again = counts(), counts()
    assert first == again
    assert first["crypto.pairing.final_exps_per_op"] > 0
    assert first["crypto.ec.scalar_muls_per_op"] > 0


@pytest.mark.xfail(
    reason="the segment store is not safe under concurrent dispatch: two "
    "server workers make concurrent puts/gets fail ('record ... body "
    "truncated', KeyError replies), so the benchmark serves with one",
    strict=False,
)
def test_dh_sp_mix_is_correct_with_two_dispatch_workers():
    tally, = _tallies("dh-sp-mix", [1], 1500, workers=2)
    assert tally.failed == 0, tally.errors
