"""Markov-chain models of per-connection APDU sequences (§6.3.1).

Each connection's token sequence induces a Markov chain whose nodes are
unique tokens and whose edges are observed transitions with MLE
probabilities. The (nodes, edges) size plane of paper Fig. 13 cleanly
separates three behaviours:

* point (1,1): the reset-backup pathology — only repeated ``U16``;
* the "square": ordinary primaries/secondaries (no interrogation);
* the "ellipse": connections containing the ``I100`` interrogation
  command, whose answer bursts add many previously-unseen I types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from ..simnet.clock import Ticks
from .apdu_stream import ApduEvent, StreamExtraction, tokenize


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    count: int
    probability: float


class ChainBuilder:
    """A Markov chain grown one token at a time.

    The one transition-counting kernel: :meth:`MarkovChain.from_tokens`
    folds a whole sequence through it, and the streaming
    ``OnlineChains`` keeps one per connection. ``last_time_us`` is the
    stream time of the latest token (0 when folded without times).
    """

    __slots__ = ("nodes", "counts", "outgoing", "last_token",
                 "last_time_us")

    def __init__(self) -> None:
        self.nodes: dict[str, None] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self.outgoing: dict[str, int] = {}
        self.last_token: str | None = None
        self.last_time_us: Ticks = 0

    def observe(self, token: str, time_us: Ticks = 0) -> None:
        nodes = self.nodes
        if token not in nodes:
            nodes[token] = None
        prev = self.last_token
        if prev is not None:
            counts = self.counts
            outgoing = self.outgoing
            pair = (prev, token)
            counts[pair] = counts.get(pair, 0) + 1
            outgoing[prev] = outgoing.get(prev, 0) + 1
        self.last_token = token
        self.last_time_us = time_us

    @property
    def size(self) -> tuple[int, int]:
        """The Fig. 13 coordinates: (nodes, edges)."""
        return (len(self.nodes), len(self.counts))

    def chain(self) -> "MarkovChain":
        """The chain so far: nodes in first-seen order, transitions
        sorted by (source, target) with MLE probabilities."""
        transitions = tuple(sorted(
            (Transition(source=source, target=target, count=count,
                        probability=count / self.outgoing[source])
             for (source, target), count in self.counts.items()),
            key=lambda t: (t.source, t.target)))
        return MarkovChain(nodes=tuple(self.nodes),
                           transitions=transitions)


@dataclass
class MarkovChain:
    """First-order Markov chain inferred from one token sequence."""

    nodes: tuple[str, ...] = ()
    transitions: tuple[Transition, ...] = ()

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "MarkovChain":
        builder = ChainBuilder()
        observe = builder.observe
        for token in tokens:
            observe(token)
        return builder.chain()

    @classmethod
    def from_events(cls, events: Sequence[ApduEvent]) -> "MarkovChain":
        return cls.from_tokens(tokenize(events))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.transitions)

    @property
    def size(self) -> tuple[int, int]:
        """The Fig. 13 coordinates: (nodes, edges)."""
        return (self.node_count, self.edge_count)

    def probability(self, source: str, target: str) -> float:
        for transition in self.transitions:
            if transition.source == source and transition.target == target:
                return transition.probability
        return 0.0

    def successors(self, source: str) -> dict[str, float]:
        return {t.target: t.probability for t in self.transitions
                if t.source == source}

    def has_token(self, token: str) -> bool:
        return token in self.nodes

    @property
    def has_interrogation(self) -> bool:
        return self.has_token("I100")

    @property
    def is_reset_backup(self) -> bool:
        """True for the paper's point (1,1): a self-loop of U16 only."""
        return (self.size == (1, 1) and self.nodes[0] == "U16")

    @property
    def has_switchover(self) -> bool:
        """Keep-alives followed by STARTDT on the same connection
        (paper Fig. 16)."""
        return (self.has_token("U16") and self.has_token("U32")
                and self.has_token("U1") and self.has_interrogation)

    def to_networkx(self):
        """Export as a weighted :class:`networkx.DiGraph`.

        Edge attributes: ``probability`` (MLE transition probability)
        and ``count`` (observed transitions)."""
        import networkx as nx
        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        for transition in self.transitions:
            graph.add_edge(transition.source, transition.target,
                           probability=transition.probability,
                           count=transition.count)
        return graph

    def to_dot(self) -> str:
        """Render as Graphviz dot (for the paper's chain figures)."""
        lines = ["digraph markov {", "  rankdir=LR;"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for transition in self.transitions:
            lines.append(
                f'  "{transition.source}" -> "{transition.target}" '
                f'[label="{transition.probability:.2f}"];')
        lines.append("}")
        return "\n".join(lines)

    def stationary_distribution(self) -> dict[str, float]:
        """Stationary distribution of the chain (power iteration).

        Returns an empty dict for chains with dangling nodes (tokens
        that never transition onward), where no stationary distribution
        over the observed transitions exists."""
        if not self.nodes:
            return {}
        outgoing = {node: self.successors(node) for node in self.nodes}
        if any(not successors for successors in outgoing.values()):
            return {}
        probabilities = {node: 1.0 / len(self.nodes)
                         for node in self.nodes}
        for _ in range(200):
            updated = {node: 0.0 for node in self.nodes}
            for node, mass in probabilities.items():
                for target, probability in outgoing[node].items():
                    updated[target] += mass * probability
            delta = max(abs(updated[node] - probabilities[node])
                        for node in self.nodes)
            probabilities = updated
            if delta < 1e-12:
                break
        return probabilities

    def render(self, max_edges: int = 30) -> str:
        """Human-readable chain: one 'src -> dst (p=..)' line per edge."""
        lines = [f"nodes={self.node_count} edges={self.edge_count}"]
        for transition in self.transitions[:max_edges]:
            lines.append(f"  {transition.source:>5} -> "
                         f"{transition.target:<5} "
                         f"p={transition.probability:.3f} "
                         f"(n={transition.count})")
        if self.edge_count > max_edges:
            lines.append(f"  ... {self.edge_count - max_edges} more edges")
        return "\n".join(lines)


class ChainCluster(enum.Enum):
    """The three regions of paper Fig. 13."""

    RESET_POINT = "point (1,1): repeated U16, no U32"
    PLAIN = "square: no interrogation command"
    INTERROGATION = "ellipse: contains I100"


def classify_chain(chain: MarkovChain) -> ChainCluster:
    if chain.is_reset_backup:
        return ChainCluster.RESET_POINT
    if chain.has_interrogation:
        return ChainCluster.INTERROGATION
    return ChainCluster.PLAIN


@dataclass
class ConnectionChains:
    """Markov chains for every connection (host pair) in a capture."""

    chains: dict[tuple[str, str], MarkovChain] = field(default_factory=dict)

    @classmethod
    def from_extraction(cls, extraction: StreamExtraction
                        ) -> "ConnectionChains":
        chains: dict[tuple[str, str], MarkovChain] = {}
        for connection, events in sorted(
                extraction.by_connection().items()):
            chains[connection] = MarkovChain.from_events(events)
        return cls(chains=chains)

    def sizes(self) -> list[tuple[tuple[str, str], int, int]]:
        """Fig. 13 scatter data: (connection, nodes, edges)."""
        return [(connection, chain.node_count, chain.edge_count)
                for connection, chain in sorted(self.chains.items())]

    def by_cluster(self) -> dict[ChainCluster, list[tuple[str, str]]]:
        grouped: dict[ChainCluster, list[tuple[str, str]]] = {
            cluster: [] for cluster in ChainCluster}
        for connection, chain in sorted(self.chains.items()):
            grouped[classify_chain(chain)].append(connection)
        return grouped

    def reset_connections(self) -> list[tuple[str, str]]:
        """The paper's point-(1,1) list (Fig. 14)."""
        return self.by_cluster()[ChainCluster.RESET_POINT]
