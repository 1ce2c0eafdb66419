"""Graph-clear: sweep every node with the fewest robots at any step.

State: the set C of already swept nodes.  The lifted ``sweep`` ranges
over every node, since C starts empty.  Sweeping node v costs its own
weight plus blocking every edge at v, the table ``blocking``, plus
blocking every edge between swept nodes and the other unswept nodes;
the objective folds steps with max.  The blocking sum over edges at v
deliberately counts swept neighbors too, reading the step-cost formula
literally.  Edge weights default to zero, so only actual edges need
table entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import expressions as ex
from ..model import (
    BaseCase,
    CostStructure,
    Model,
    SET,
    StateMetadata,
    Transition,
    Variable,
)
from . import common as c


@dataclass(frozen=True)
class GraphClearInstance:
    node_weights: tuple[int, ...]
    edge_weights: dict[tuple[int, int], int]  # undirected; missing pairs weigh 0

    def __post_init__(self):
        normalized = {}
        for (i, j), w in self.edge_weights.items():
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {i} {j} is outside nodes 0..{self.n - 1}")
            normalized[(min(i, j), max(i, j))] = w
        object.__setattr__(self, "edge_weights", normalized)

    @property
    def n(self) -> int:
        return len(self.node_weights)

    def weight(self, i: int, j: int) -> int:
        if i == j:
            return 0
        return self.edge_weights.get((min(i, j), max(i, j)), 0)


def parse_graphclear(text: str) -> GraphClearInstance:
    """Text form: the node count, the node weight line, the edge count,
    then one ``i j weight`` line per edge."""
    read = c.FieldReader(text)
    nodes = tuple(read() for _ in range(read.count("node count")))
    weights = {}
    for _ in range(read.count("edge count")):
        i, j, w = read(), read(), read()
        weights[(i, j)] = w
    read.end()
    return GraphClearInstance(nodes, weights)


def build_graphclear(instance: GraphClearInstance) -> Model:
    n = instance.n
    meta = StateMetadata(
        {"node": n},
        [Variable("C", SET, "node")],
    )
    edge_values = {}
    for (i, j), w in instance.edge_weights.items():
        edge_values[(i, j)] = w
        edge_values[(j, i)] = w
    blocking = [
        instance.node_weights[v] + sum(instance.weight(v, other) for other in range(n))
        for v in range(n)
    ]
    tables = ex.TableRegistry(
        [
            c.vector_table("a", instance.node_weights),
            ex.Table("b", "integer", (n, n), edge_values, default=0),
            c.vector_table("blocking", blocking),
        ]
    )
    swept = meta.set_("C")

    # C starts empty, so the node ranges over its object type
    node = ex.ElementParameter("node")
    # edges from swept nodes into the still-contaminated rest; the node's
    # own term is 0, since an unswept node is not in C
    others = ex.SetRemove(node, ex.SetComplement(swept))
    crossing = [
        c.ite(c.member(i, swept), c.sum_over("b", others, c.econst(i)), 0) for i in range(n)
    ]
    sweep = Transition(
        name="sweep",
        preconditions=(c.not_(c.member(node, swept)),),
        effects=((meta.index("C"), ex.SetAdd(node, swept)),),
        weight=c.add(c.ntab("blocking", node), *crossing),
        parameters=(("node", "node"),),
    )

    everything = c.sconst(range(n), n)
    return Model(
        metadata=meta,
        tables=tables,
        target=(0,),
        transitions=[sweep],
        base_cases=[BaseCase((c.subset(everything, swept),), c.nconst(0))],
        dual_bounds=[c.nconst(0)],
        costs=CostStructure(operator="max", direction="min", cost_type="integer"),
    )
