"""A stream keeps its PCG64 state, not the ``SeedSequence`` it came from.

``RngRegistry.stream`` seeds each ``PCG64`` with the four words its
``SeedSequence`` would generate and drops the sequence.  The stream must
be the one ``default_rng(SeedSequence([seed, *name words]))`` gives, for
any seed and name, and must survive a pickle round-trip.
"""

import gc
import hashlib
import pickle
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry

seeds = st.integers(0, 2**63 - 1)
names = st.text(max_size=40)


def reference_stream(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in (0, 4, 8, 12)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


@settings(max_examples=200, deadline=None)
@given(seed=seeds, name=names)
def test_stream_state_equals_seed_sequence_stream(seed, name):
    got = RngRegistry(seed).stream(name)
    want = reference_stream(seed, name)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**62, 8).tolist() == \
        want.integers(0, 2**62, 8).tolist()
    assert got.bit_generator.state == want.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(seed=seeds, name=names, drawn=st.integers(0, 5))
def test_stream_survives_pickle(seed, name, drawn):
    stream = RngRegistry(seed).stream(name)
    stream.random(drawn)
    copy = pickle.loads(pickle.dumps(stream))
    assert copy.bit_generator.state == stream.bit_generator.state
    assert copy.random(4).tolist() == stream.random(4).tolist()


def test_streams_retain_no_seed_sequence():
    """500 streams retain <= 900 B each, name and registry slot included
    (713 B measured; 1,154 B while each kept its ``SeedSequence``)."""
    registry = RngRegistry(20050101)
    registry.stream("warm-up")
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(500):
            registry.stream(f"host{i}")
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size / 500 <= 900.0
