"""A fired condition releases its constituents; a pending timer owns nothing.

A losing deadline stays queued until it expires (removing it would change
when a drained ``env.run()`` ends), so it must not keep the condition it
lost, that condition's waiter, or the result alive.
"""

import gc
import weakref

import pytest

from repro.sim.core import AllOf, AnyOf, Environment, with_timeout


class Payload:
    """A result object only the finished process holds."""


class Boom(Exception):
    pass


def finish_after(env, delay, refs):
    yield env.timeout(delay)
    payload = Payload()
    refs.append(weakref.ref(payload))
    return payload


def fail_after(env, delay):
    yield env.timeout(delay)
    raise Boom()


def test_with_timeout_releases_target_that_finished_early():
    env = Environment()
    refs = []
    target = finish_after(env, 0.1, refs)
    refs.append(weakref.ref(target))

    def caller(target):
        result = yield from with_timeout(env, target, 10.0)
        assert isinstance(result, Payload)

    env.process(caller(target))
    del target
    env.run(until=1.0)
    gc.collect()
    assert env.peek() == 10.0  # the losing deadline is still queued
    assert [ref() for ref in refs] == [None, None]
    env.run()
    assert env.now == 10.0  # and a drained run still ends at its expiry


def test_any_of_releases_winner_while_loser_is_queued():
    env = Environment()
    refs = []
    winner_gen = finish_after(env, 0.1, refs)
    refs.append(weakref.ref(winner_gen))
    loser = env.timeout(10.0)
    condition = AnyOf(env, [env.process(winner_gen), loser])
    del winner_gen

    def waiter(condition):
        values = yield condition
        assert len(values) == 1

    env.process(waiter(condition))
    del condition
    env.run(until=1.0)
    gc.collect()
    assert loser.callbacks == []
    assert [ref() for ref in refs] == [None, None]


def test_all_of_failure_releases_constituents():
    env = Environment()
    failing = fail_after(env, 0.1)
    ref = weakref.ref(failing)
    slow = env.timeout(10.0)
    condition = AllOf(env, [env.process(failing), slow])
    del failing
    caught = []

    def waiter(condition):
        try:
            yield condition
        except Boom:
            caught.append(env.now)

    env.process(waiter(condition))
    del condition
    env.run(until=1.0)
    gc.collect()
    assert caught == [pytest.approx(0.1)]
    assert slow.callbacks == []
    assert ref() is None


def test_condition_fired_during_construction_registers_on_nothing_further():
    env = Environment()
    done = env.event()
    done.succeed("early")
    env.run()
    pending = env.timeout(5.0)
    condition = AnyOf(env, [done, pending])
    assert condition.triggered
    assert pending.callbacks == []
    env.run()
    assert condition.value == {done: "early"}


def test_any_of_detaches_before_a_late_constituent_fails():
    # A constituent failing after its condition fired is not defused by
    # the condition (as before the detach): an unwaited failure still
    # surfaces from the event loop.
    env = Environment()
    fast = env.timeout(0.1, "fast")
    late = env.process(fail_after(env, 0.2))
    condition = env.any_of([fast, late])
    env.run(until=0.15)
    assert condition.value == {fast: "fast"}
    with pytest.raises(Boom):
        env.run()
