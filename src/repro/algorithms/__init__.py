"""The paper's algorithms and three extensions.

The paper's five algorithms each ship a per-node protocol and one array
kernel; the extensions ship only the array kernel.

===========================  ===========  =====================  ==========
Algorithm                    Tag bits b   Problem                Section
===========================  ===========  =====================  ==========
Blind gossip                 0            leader election        VI
PUSH-PULL                    0            rumor spreading        VI (Cor 6)
PPUSH                        1            rumor spreading        V
Bit convergence              1            leader election        VII
Async bit convergence        log log n    leader election        VIII
Classical PUSH-PULL          —            baselines (classical   related
                                          telephone model)       work
k-gossip (extension)         0            all-to-all gossip      conclusion
Averaging (extension)        0            data aggregation       conclusion
Consensus (extension)        log log n    single-value consensus conclusion
===========================  ===========  =====================  ==========
"""

from repro.algorithms.blind_gossip import (
    BlindGossipNode,
    BlindGossipBatched,
    make_blind_gossip_nodes,
)
from repro.algorithms.push_pull import (
    PushPullNode,
    PushPullBatched,
    make_push_pull_nodes,
)
from repro.algorithms.ppush import (
    PPushNode,
    PPushBatched,
    make_ppush_nodes,
)
from repro.algorithms.bit_convergence import (
    BitConvergenceConfig,
    BitConvergenceNode,
    BitConvergenceBatched,
    make_bit_convergence_nodes,
    draw_id_tags,
)
from repro.algorithms.async_bit_convergence import (
    AsyncBitConvergenceNode,
    AsyncBitConvergenceBatched,
    make_async_bit_convergence_nodes,
    async_tag_length,
)
from repro.algorithms.k_gossip import KGossipBatched
from repro.algorithms.averaging import AveragingBatched
from repro.algorithms.consensus import ConsensusBatched

__all__ = [
    "BlindGossipNode",
    "BlindGossipBatched",
    "make_blind_gossip_nodes",
    "PushPullNode",
    "PushPullBatched",
    "make_push_pull_nodes",
    "PPushNode",
    "PPushBatched",
    "make_ppush_nodes",
    "BitConvergenceConfig",
    "BitConvergenceNode",
    "BitConvergenceBatched",
    "make_bit_convergence_nodes",
    "draw_id_tags",
    "AsyncBitConvergenceNode",
    "AsyncBitConvergenceBatched",
    "make_async_bit_convergence_nodes",
    "async_tag_length",
    "KGossipBatched",
    "AveragingBatched",
    "ConsensusBatched",
]
