"""repro.store — the columnar element state layer.

A :class:`ElementStore` re-encodes the hot sliding-window state
(timestamps, last-activity ``t_e``, window membership, the thresholded
topic-profile matrix ``P[rows, z]``, follower adjacency) as contiguous
NumPy arrays over interned rows with free-row recycling;
:class:`ColumnarWindow` implements Algorithm 1's window semantics on top
of it — the one window every consumer (processor, shard export,
snapshot builders) reads.
"""

from repro.store.codec import (
    decode_followers,
    decode_id_list,
    decode_pairs,
    decode_ranked_entries,
    encode_followers_csr,
    encode_id_array,
    encode_pairs,
    encode_ranked_entries,
)
from repro.store.store import ElementStore
from repro.store.window import ColumnarWindow

__all__ = [
    "ColumnarWindow",
    "ElementStore",
    "decode_followers",
    "decode_id_list",
    "decode_pairs",
    "decode_ranked_entries",
    "encode_followers_csr",
    "encode_id_array",
    "encode_pairs",
    "encode_ranked_entries",
]
