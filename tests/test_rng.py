import numpy as np
import pytest

from aqm import rng
from aqm.rng import LANE_EVENTS, LANE_POLICY, chunks, event_uniforms, stream
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
    # the layout event_uniforms reads a chunk of events by
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


def test_chunks_cover_the_events_once_in_order(monkeypatch):
    monkeypatch.setattr(rng, "_CHUNK", 4)
    assert list(chunks(11)) == [(0, 4), (4, 4), (8, 3)]
    assert list(chunks(8)) == [(0, 4), (4, 4)]
    assert list(chunks(0)) == []
