import threading
import time

import numpy as np
import pytest

from aqm import rng
from aqm.rng import LANE_EVENTS, LANE_POLICY, chunk_map, chunks, event_uniforms, stream
from conftest import pool_of
from reference import event_stream


def test_streams_replay_exactly():
    a = stream(7, 3).random(100)
    b = stream(7, 3).random(100)
    assert np.array_equal(a, b)


def test_streams_are_order_independent():
    late = stream(7, 9).random(10)
    _ = stream(7, 0).random(1000)  # exhausting another stream changes nothing
    assert np.array_equal(stream(7, 9).random(10), late)


def test_distinct_indices_give_distinct_streams():
    assert not np.array_equal(stream(7, 0).random(10), stream(7, 1).random(10))


def test_lanes_are_independent():
    assert not np.array_equal(
        stream(7, 0).random(10), stream(7, 0, lane=LANE_POLICY).random(10)
    )


def test_event_uniforms_match_event_streams():
    for lane in (LANE_EVENTS, LANE_POLICY):
        batch = event_uniforms(99, 50, lane=lane)
        for i in range(50):
            assert np.array_equal(batch[i], event_stream(99, i, lane=lane).random(4))


@pytest.mark.parametrize("draws", [[None] * 5, [4, 1], [2, 3], [5]])
def test_an_event_stream_has_four_draws(draws):
    # a fifth draw would be the first draw of the next event
    event = event_stream(7, 3)
    for size in draws[:-1]:
        event.random(size)
    with pytest.raises(IndexError, match="only 4 draws"):
        event.random(draws[-1])


def test_a_stream_started_at_draw_4k_draws_from_draw_4k():
    # the layout monte_carlo_mean reads each chunk of its draws by
    for k in (0, 1, 2, 100, 249):
        expected = stream(7, 3).random(4 * k + 12)[4 * k :]
        assert np.array_equal(stream(7, 3, start=4 * k).random(12), expected)


@pytest.mark.parametrize("start", [-4, 6])
def test_a_stream_starts_on_a_block(start):
    with pytest.raises(ValueError, match="multiple of 4"):
        stream(7, 3, start=start)


def test_seeds_outside_64_bits_are_rejected():
    # 2**128 + 9 would otherwise draw seed 9's numbers
    stream(2**64 - 1, lane=LANE_POLICY).random()  # the largest seed is accepted
    for seed in (-1, 2**64, 2**128 + 9):
        for draw in (stream, event_stream):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                draw(seed, 0)


class TestChunkMap:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_two_chunks_per_thread_start_before_the_first_result(
            self, monkeypatch, threads):
        # a million chunks: submitting them all up front would queue a future for each
        monkeypatch.setattr(rng, "_CHUNK", 4)
        calls, lock = [], threading.Lock()

        def fn(start, count):
            with lock:
                calls.append(start)
            if start == 0:
                time.sleep(0.05)  # the other threads run whatever was submitted meanwhile
            return start

        with pool_of(threads):
            results = chunk_map(fn, 4 * 10**6)
            assert next(results) == 0
            assert len(calls) <= 2 * threads + 1
            results.close()
        assert len(calls) <= 2 * threads + 1

    def test_results_come_in_chunk_order_when_later_chunks_finish_first(self, monkeypatch):
        monkeypatch.setattr(rng, "_CHUNK", 4)
        n = 4 * 12 + 3
        finished, lock = [], threading.Lock()

        def fn(start, count):
            time.sleep((n - start) * 1e-3)  # later chunks sleep less
            with lock:
                finished.append(start)
            return start, count

        with pool_of(3):
            assert list(chunk_map(fn, n)) == list(chunks(n))
        assert finished != sorted(finished)

    def test_a_raising_chunk_reaches_the_caller_and_no_queued_chunk_starts(self):
        started, lock, release = [], threading.Lock(), threading.Event()

        def fn(start, count):
            with lock:
                started.append(start)
            if start == 0:
                raise FloatingPointError("chunk 0 failed")
            release.wait(timeout=10)  # hold both threads while the error reaches the caller
            return start

        with pool_of(2):
            with pytest.raises(FloatingPointError, match="chunk 0 failed"):
                list(chunk_map(fn, 10**6 * rng._CHUNK))
            at_the_caller = sorted(started)
            release.set()
        assert sorted(started) == at_the_caller  # the queued chunks were cancelled
        assert len(at_the_caller) <= 2 * 2
