"""Multi-core node model: FIFO service, queueing, utilization."""

from __future__ import annotations

import pytest

from repro.simnet.clock import EventLoop
from repro.simnet.node import SimNode


def test_single_job_completes_after_service_time():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=2)
    done = []
    node.submit(0.5, lambda: done.append(loop.now))
    loop.run()
    assert done == [0.5]


def test_parallel_jobs_up_to_core_count():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=2)
    done = []
    for _ in range(2):
        node.submit(1.0, lambda: done.append(loop.now))
    loop.run()
    assert done == [1.0, 1.0]


def test_third_job_queues_behind_two_cores():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=2)
    done = []
    for _ in range(3):
        node.submit(1.0, lambda: done.append(loop.now))
    loop.run()
    assert done == [1.0, 1.0, 2.0]


def test_fifo_order():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=1)
    order = []
    for index in range(4):
        node.submit(0.1, lambda i=index: order.append(i))
    loop.run()
    assert order == [0, 1, 2, 3]


def test_negative_service_time_rejected():
    node = SimNode(name="n", loop=EventLoop(), cores=1)
    with pytest.raises(ValueError, match="negative"):
        node.submit(-1.0, lambda: None)


def test_pending_and_queue_length():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=1)
    for _ in range(3):
        node.submit(1.0, lambda: None)
    assert node.pending == 3
    assert node.queue_length == 2
    loop.run()
    assert node.pending == 0


def test_utilization_accounting():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=2)
    node.submit(1.0, lambda: None)
    node.submit(1.0, lambda: None)
    loop.run()
    # 2 core-seconds of work in 1 second on 2 cores: fully utilized.
    assert node.utilization() == pytest.approx(1.0)
    assert node.stats.jobs_completed == 2


def test_queue_wait_statistics():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=1)
    node.submit(1.0, lambda: None)
    node.submit(1.0, lambda: None)  # waits 1 s
    loop.run()
    assert node.stats.total_queue_wait / node.stats.jobs_completed == pytest.approx(0.5)
    assert node.stats.max_queue_length == 1


def test_completion_callback_can_submit_more_work():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=1)
    done = []
    node.submit(1.0, lambda: node.submit(1.0, lambda: done.append(loop.now)))
    loop.run()
    assert done == [2.0]


def test_zero_service_time_job():
    loop = EventLoop()
    node = SimNode(name="n", loop=loop, cores=1)
    done = []
    node.submit(0.0, lambda: done.append(True))
    loop.run()
    assert done == [True]
