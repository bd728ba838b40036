"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by the user seed, and stream builds every one of them.
Trials get streams addressed by (seed, stream index, lane), so replay is
exact and a trial's result does not depend on the trials run before it.

One address rule: draw j of stream (seed, index, lane) is in the Philox
block at counter (index << 128) + floor(j / 4) + 1 under the key
seed ^ lane, and event i of a run is draws 4i to 4i + 3 of stream (seed,
0, lane).  So any block-aligned range of draws, and any range of events,
is drawn on its own; a photon run walks the fixed ranges of chunks, in
memory that does not grow with its length.

The addresses each consumer reads:
- postulate_suite: index 0 for Postulate 5 and the Born mean, index 1 for
  Postulate 6, index 2 for reproducibility.  Each runs its trials in
  consecutive blocks and draws each block's quantities as one array each,
  in order: on index 0 the observables, the two contexts, the states and
  then the smoke-test tallies, one multinomial draw; on index 1 the states and
  then the two observables; on index 2 first the 50 instance dims, then
  for each dim in ascending order, block by block, its instances and
  their (block, 200, 2) uniforms;
- khinchin_experiment: index 0 for its setup, one postulate-suite
  instance: the observable's spectrum, then the two contexts, then the
  state; 2j + 1 and 2j + 2 for seed j, each one multinomial draw of a
  mean's branch counts;
- two_slit_experiment: index 0 for its binomial slit tally and then its
  two per-slit multinomial histograms;
- a photon run's events: index 0 on LANE_EVENTS, and on LANE_POLICY for
  the delayed-random policy's decisions.
Two of them overlap, by convention and not by construction: stream(s, 0)
reads the event rows of seed s, and the policy lane of seed s is the
event lane of seed s ^ LANE_POLICY.
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

    They are draws 4 * start onward of stream(seed, 0, lane): row i is event
    start + i's own Philox block, so batched, chunked and one-event-at-a-time
    execution give identical results.
    """
    gen = stream(seed, 0, lane, DRAWS_PER_EVENT * start)
    return gen.random(DRAWS_PER_EVENT * n_events).reshape(n_events, DRAWS_PER_EVENT)


# Events per chunk of a photon run: the default size of chunks.
_CHUNK = 1 << 16


def chunks(n: int, size: int | None = None):
    """(start, count) of the consecutive chunks of `size`, by default _CHUNK, that cover 0..n-1."""
    size = size or _CHUNK  # read at each call, so a patched _CHUNK takes effect
    for start in range(0, n, size):
        yield start, min(size, n - start)
