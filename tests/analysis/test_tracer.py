"""Unit tests for the dynamic lock-order tracer (witness-based mode)."""

from __future__ import annotations

import threading

import pytest

from lock_tracer import LockOrderTracer, LockOrderViolation


def test_consistent_order_has_no_cycle():
    tracer = LockOrderTracer()
    a = tracer.wrap("A", threading.Lock())
    b = tracer.wrap("B", threading.Lock())
    for _ in range(3):
        with a:
            with b:
                pass
    assert tracer.adjacency()["A"] == {"B"}
    assert tracer.cycles() == []
    tracer.check()  # must not raise


def test_abba_order_is_a_cycle():
    tracer = LockOrderTracer()
    a = tracer.wrap("A", threading.Lock())
    b = tracer.wrap("B", threading.Lock())
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    cycles = tracer.cycles()
    assert cycles, "opposite-order acquisitions must form a cycle"
    assert set(cycles[0]) >= {"A", "B"}
    with pytest.raises(LockOrderViolation) as excinfo:
        tracer.check()
    assert excinfo.value.cycles
    assert excinfo.value.witnesses  # points at the concrete acquisitions


def test_reentrant_acquisition_is_not_an_edge():
    tracer = LockOrderTracer()
    lock = tracer.wrap("R", threading.RLock())
    with lock:
        with lock:
            pass
    assert tracer.edges() == {}
    assert tracer.cycles() == []


def test_edges_record_first_witness_thread():
    tracer = LockOrderTracer()
    a = tracer.wrap("A", threading.Lock())
    b = tracer.wrap("B", threading.Lock())

    def worker() -> None:
        with a:
            with b:
                pass

    thread = threading.Thread(target=worker, name="locker")
    thread.start()
    thread.join()
    witness = tracer.edges()[("A", "B")]
    assert witness.thread == "locker"


def test_explicit_acquire_release_tracks_stack():
    tracer = LockOrderTracer()
    a = tracer.wrap("A", threading.Lock())
    b = tracer.wrap("B", threading.Lock())
    assert a.acquire()
    assert b.acquire()
    b.release()
    a.release()
    assert ("A", "B") in tracer.edges()
    # After release the stack is clean: acquiring in the other order
    # from a *fresh* nesting is a genuine new edge.
    assert b.acquire()
    b.release()
    assert ("B", "A") not in tracer.edges()


def test_held_stacks_are_per_thread():
    tracer = LockOrderTracer()
    a = tracer.wrap("A", threading.Lock())
    b = tracer.wrap("B", threading.Lock())
    a_held = threading.Event()
    done = threading.Event()

    def hold_a() -> None:
        with a:
            a_held.set()
            done.wait(timeout=10.0)

    thread = threading.Thread(target=hold_a)
    thread.start()
    assert a_held.wait(timeout=10.0)
    # This thread acquires B while *another* thread holds A; that must
    # not fabricate an A -> B edge.
    with b:
        pass
    done.set()
    thread.join()
    assert ("A", "B") not in tracer.edges()
