"""Integrity trees: the SGX-style integrity tree (SIT) used by all
evaluated schemes, plus a Merkle Tree reference implementation (paper
§II-D).  The Bonsai Merkle Tree is simulated as a scheme,
:mod:`repro.secure.bmt_eager`."""

from repro.tree.hmac_engine import HashEngine
from repro.tree.merkle import MerkleTree
from repro.tree.node import COUNTER_BITS, SITNode
from repro.tree.store import SITStore

__all__ = [
    "HashEngine",
    "MerkleTree",
    "COUNTER_BITS",
    "SITNode",
    "SITStore",
]
