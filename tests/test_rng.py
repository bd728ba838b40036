import numpy as np

from aqm.rng import LANE_EVENTS, LANE_POLICY, event_stream, event_uniforms, stream


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


def test_a_state_copy_advanced_by_k_blocks_draws_from_draw_4k():
    # the layout monte_carlo_mean splits one stream across threads by
    draws = stream(7, 3).random(4 * 252)
    for k in (0, 1, 2, 100, 249):
        bit_generator = np.random.Philox(key=0)
        bit_generator.state = stream(7, 3).bit_generator.state
        bit_generator.advance(k)
        got = np.random.Generator(bit_generator).random(12)
        assert np.array_equal(got, draws[4 * k : 4 * k + 12])
