"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by the user seed.  Independent trials get streams
addressed by (seed, stream index), so replay is exact and the result of a
trial does not depend on how many other trials ran before it.  Long-lived
streams are disjoint from each other, but not yet from per-event ones:
stream(seed, 0) reads the same blocks as rows 0, 1, ... of
event_uniforms(seed, ...), since both count from counter 0.

Block layout.  Philox turns one 256-bit counter value into one block of
four 64-bit words, which Generator.random makes into four doubles.  numpy
increments the counter before it computes a block, so a generator created
at counter c reads the blocks at c + 1, c + 2, ...: draws 4b to 4b + 3 of
stream(seed, index) are the block at counter (index << 128) + b + 1.
stream(seed, index, start=4k) is created at counter (index << 128) + k,
so it draws what stream(seed, index) draws from its draw 4k on: any
block-aligned range of a stream is read on its own, as monte_carlo_mean
reads each of its chunks.

Event ranges.  An event owns one block: row i of event_uniforms(seed,
count, lane, start) is the block at counter start + i + 1, the four
uniforms of event start + i.  Any range of events is therefore drawn on
its own, with no state carried from the events before it.  Per-event
kernels walk a run of events in the fixed ranges of event_chunks, 2**16
events at a time, so their memory does not grow with the number of
events.
"""

from __future__ import annotations

import numpy as np

# Disjoint key offsets for logically separate consumers of the same user
# seed (e.g. the delayed-choice policy must not share a stream with the
# photon events it controls).
LANE_EVENTS = 0
LANE_POLICY = 0x9E3779B97F4A7C15


def _key(seed: int, lane: int) -> int:
    # seeds from 2**128 on would alias smaller ones; 64 bits leave the key a word for the lane
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return int(seed) ^ lane


def stream(
    seed: int, index: int = 0, lane: int = LANE_EVENTS, start: int = 0
) -> np.random.Generator:
    """Return the long-lived generator for stream `index` of the given seed.

    Each stream owns 2**128 Philox blocks, so streams never overlap.  The
    generator begins at draw `start` of the stream, a multiple of 4.
    """
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    if start < 0 or start % 4:
        raise ValueError(f"stream start must be a non-negative multiple of 4, got {start}")
    counter = (index << 128) + start // 4
    return np.random.Generator(np.random.Philox(key=_key(seed, lane), counter=counter))


# A single-shot event owns one Philox block: four uniform doubles.
DRAWS_PER_EVENT = 4


def event_uniforms(
    seed: int, n_events: int, lane: int = LANE_EVENTS, start: int = 0
) -> np.ndarray:
    """Uniforms for events start..start+n_events-1 as an (n_events, 4) array.

    Row i is event start + i's own Philox block, so batched, chunked and
    one-event-at-a-time execution give identical results.
    """
    if start < 0:
        raise ValueError(f"event index must be non-negative, got {start}")
    gen = np.random.Generator(np.random.Philox(key=_key(seed, lane), counter=start))
    return gen.random(DRAWS_PER_EVENT * n_events).reshape(n_events, DRAWS_PER_EVENT)


_EVENT_CHUNK = 1 << 16  # events per chunk of a per-event kernel


def event_chunks(n_events: int):
    """(start, count) of the consecutive chunks that cover events 0..n_events-1."""
    for start in range(0, n_events, _EVENT_CHUNK):
        yield start, min(_EVENT_CHUNK, n_events - start)
